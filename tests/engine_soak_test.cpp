// Sustained-load soak test (ISSUE 6 acceptance): drive the overload-hardened
// Engine with the open-loop harness from bench/soak_harness.hpp and assert
// the serving invariants hold after a real multi-thread run:
//
//  - the engine drains (no stuck waiters, no leaked slots, no unbounded
//    queue growth),
//  - every submitted request reached exactly one terminal metrics counter,
//  - excess load was shed with *typed* kLoadShed reasons,
//  - priority-0 goodput survives sustained 2x overload.
//
// The goodput bound here is deliberately conservative (0.75, vs the 0.90
// acceptance gate asserted by the scheduled soak workflow on the full-size
// run): this suite runs inside ctest on busy CI hosts, sanitizer builds
// included, where scheduling noise is much larger than on a quiet machine.
//
// The suite is named SoakTest (not *Engine*) on purpose: the CI ctest
// filters for TSan / chaos select on "Engine" and "Lifecycle", and a
// multi-second load test does not belong in those matrices — soak.yml runs
// this suite on a schedule instead.

#include <gtest/gtest.h>

#include <cstdint>

#include "mcf/metrics.hpp"
#include "parallel/thread_pool.hpp"
#include "soak_harness.hpp"

namespace pmcf {
namespace {

soak::SoakConfig small_soak(std::uint64_t seed) {
  soak::SoakConfig cfg;  // defaults = the acceptance-gate shape
  cfg.requests = 10000;
  cfg.seed = seed;
  return cfg;
}

void expect_reconciled(const soak::SoakReport& rep) {
  EXPECT_TRUE(rep.drained);
  EXPECT_EQ(rep.metrics.of(EngineCounter::kSubmitted), rep.requests);
  EXPECT_EQ(rep.metrics.terminal_total(), rep.metrics.of(EngineCounter::kSubmitted));
  EXPECT_EQ(rep.metrics.in_flight, 0u);
  EXPECT_EQ(rep.metrics.queue_depth, 0u);
}

class SoakTest : public ::testing::Test {
 protected:
  void SetUp() override { par::ThreadPool::configure(1); }
  void TearDown() override { par::ThreadPool::configure(1); }
};

TEST_F(SoakTest, SustainedPoissonOverloadPreservesPriorityZeroGoodput) {
  const soak::SoakReport rep = soak::run_soak(small_soak(0x50a4b011ULL));
  expect_reconciled(rep);

  // 2x overload: roughly half of everything offered cannot be served, and
  // every refusal is typed — the shed counters (not kFailed) absorb it.
  EXPECT_GT(rep.shed_rate, 0.25);
  EXPECT_GT(rep.metrics.shed_total(), 0u);
  EXPECT_EQ(rep.metrics.of(EngineCounter::kFailed), 0u);

  // Priority-0 goodput survives while lower priorities degrade first.
  EXPECT_GE(rep.goodput[0], 0.75);  // conservative ctest bound; gate is 0.90
  EXPECT_GT(rep.goodput[0], rep.goodput[2]);
  EXPECT_GT(rep.goodput[0], rep.goodput[3]);

  // The solve-time surface saw every admitted request (some of which still
  // ended kDeadlineExceeded / kCanceled mid-solve rather than kOk).
  EXPECT_EQ(rep.metrics.solve_time.count,
            rep.metrics.of(EngineCounter::kAdmittedImmediate) +
                rep.metrics.of(EngineCounter::kAdmittedQueued));
  EXPECT_GE(rep.metrics.solve_time.count, rep.metrics.of(EngineCounter::kSolvedOk));
}

TEST_F(SoakTest, BurstyArrivalsShedTypedAndDrain) {
  soak::SoakConfig cfg = small_soak(0x50a4b012ULL);
  cfg.arrivals = soak::ArrivalProcess::kBurst;
  const soak::SoakReport rep = soak::run_soak(cfg);
  expect_reconciled(rep);
  EXPECT_GT(rep.metrics.shed_total(), 0u);
  EXPECT_EQ(rep.metrics.of(EngineCounter::kFailed), 0u);
  // Bursts hit every class (instantaneous overload far exceeds 2x), but the
  // priority ladder must still order the damage.
  EXPECT_GT(rep.goodput[0], rep.goodput[3]);
}

TEST_F(SoakTest, ChaosCancellationAndClientCancelsStayTyped) {
  soak::SoakConfig cfg = small_soak(0x50a4b013ULL);
  cfg.requests = 5000;
  cfg.chaos_cancel_rate = 0.02;  // queue-point kCancelRequest injection
  cfg.cancel_rate = 0.2;         // plus a canceler thread on the workers' tokens
  const soak::SoakReport rep = soak::run_soak(cfg);
  expect_reconciled(rep);
  EXPECT_EQ(rep.metrics.of(EngineCounter::kFailed), 0u);
  EXPECT_GT(rep.metrics.of(EngineCounter::kQueueCancels), 0u);
  // Client cancels land past the queue too: chaos fires only at queue
  // points, so every kCanceled beyond kQueueCancels came from a token.
  EXPECT_GT(rep.metrics.of(EngineCounter::kCanceled),
            rep.metrics.of(EngineCounter::kQueueCancels));
}

TEST_F(SoakTest, ScheduleIsReproducibleAcrossRuns) {
  // The arrival schedule, request mix, and instance set are pure functions
  // of the seed: two runs submit byte-identical traffic (statuses may differ
  // — wall-clock scheduling decides races — but the offered load may not).
  soak::SoakConfig cfg = small_soak(0x50a4b014ULL);
  cfg.requests = 3000;
  const soak::SoakReport a = soak::run_soak(cfg);
  const soak::SoakReport b = soak::run_soak(cfg);
  EXPECT_EQ(a.offered_rps > 0.0, true);
  for (std::size_t p = 0; p < kNumPriorities; ++p)
    EXPECT_EQ(a.submitted_by_priority[p], b.submitted_by_priority[p]);
  expect_reconciled(a);
  expect_reconciled(b);
}

}  // namespace
}  // namespace pmcf
