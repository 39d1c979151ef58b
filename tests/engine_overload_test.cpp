// Overload-hardening acceptance tests for pmcf::Engine (DESIGN.md §12):
// the bounded backpressure queue (one FIFO per priority class), priorities
// with eviction, typed load shedding, and the serving-metrics surface.
//
//  - A seeded burst into a one-slot engine produces exactly reproducible
//    per-item statuses, identical between serial and pooled execution (the
//    admitted prefix is decided upfront in index order).
//  - Every refusal is typed (kLoadShed / kDeadlineExceeded / kCanceled with
//    a short machine-readable detail) and lands in exactly one terminal
//    metrics counter: terminal_total() == Submitted after every drain.
//  - The queue drains the most important class first, FIFO within a class.
//  - A full queue evicts the newest lowest-priority waiter for a strictly
//    more important arrival; equals never evict each other.
//
// The suite name contains "Engine" on purpose: the TSan CI job's ctest
// filter selects on it.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "core/deadline.hpp"
#include "core/solve_status.hpp"
#include "graph/digraph.hpp"
#include "graph/generators.hpp"
#include "mcf/engine.hpp"
#include "mcf/metrics.hpp"
#include "mcf/min_cost_flow.hpp"
#include "parallel/rng.hpp"
#include "parallel/thread_pool.hpp"

namespace pmcf {
namespace {

using graph::Digraph;
using graph::Vertex;

Digraph make_graph(std::uint64_t seed, Vertex n = 12, std::int32_t m = 60) {
  par::Rng rng(seed);
  return graph::random_flow_network(n, m, 6, 6, rng);
}

/// Microsecond-scale solves: admission behaviour without IPM runtimes.
mcf::SolveOptions combinatorial_opts() {
  mcf::SolveOptions opts;
  opts.method = mcf::Method::kCombinatorial;
  return opts;
}

/// Millisecond-scale solves (truncated IPM): wide enough that a completion
/// recorded right after solve() returns cannot race the next waiter's solve.
mcf::SolveOptions slow_opts() {
  mcf::SolveOptions opts;
  opts.ipm.mu_end = 1e-3;
  opts.ipm.leverage.sketch_dim = 8;
  return opts;
}

bool wait_until(const std::function<bool()>& pred,
                std::chrono::milliseconds budget = std::chrono::seconds(20)) {
  const auto give_up = std::chrono::steady_clock::now() + budget;
  while (!pred()) {
    if (std::chrono::steady_clock::now() > give_up) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return true;
}

/// Keeps the global pool configuration from leaking across suites.
class EngineOverloadTest : public ::testing::Test {
 protected:
  void SetUp() override { par::ThreadPool::configure(1); }
  void TearDown() override { par::ThreadPool::configure(1); }
};

// ---------------------------------------------------------------------------
// Typed shedding and the reserve/restore drain API.
// ---------------------------------------------------------------------------

TEST_F(EngineOverloadTest, QueuelessEngineShedsImmediatelyWhenDrained) {
  const Digraph g = make_graph(901);
  const Instance inst = Instance::max_flow(g, 0, g.num_vertices() - 1);
  const Engine engine({.seed = 1, .use_global_pool = false, .max_in_flight = 1});

  EXPECT_EQ(engine.reserve_capacity(1), 1u);
  EXPECT_EQ(engine.reserve_capacity(1), 0u);  // nothing left to reserve
  const auto shed = engine.solve(inst, combinatorial_opts());
  EXPECT_EQ(shed.result.status, SolveStatus::kLoadShed);
  EXPECT_EQ(shed.result.failure_detail, "no capacity");
  EXPECT_TRUE(is_lifecycle_error(shed.result.status));

  engine.restore_capacity(1);
  const auto ok = engine.solve(inst, combinatorial_opts());
  EXPECT_EQ(ok.result.status, SolveStatus::kOk);

  const MetricsSnapshot m = engine.metrics_snapshot();
  EXPECT_EQ(m.of(EngineCounter::kSubmitted), 2u);
  EXPECT_EQ(m.of(EngineCounter::kShedNoCapacity), 1u);
  EXPECT_EQ(m.of(EngineCounter::kSolvedOk), 1u);
  EXPECT_EQ(m.terminal_total(), m.of(EngineCounter::kSubmitted));
  EXPECT_DOUBLE_EQ(m.shed_rate(), 0.5);
}

TEST_F(EngineOverloadTest, ReserveCapacityIsInertOnUnboundedEngine) {
  const Engine engine({.seed = 2, .use_global_pool = false});
  EXPECT_EQ(engine.reserve_capacity(4), 0u);
  engine.restore_capacity(4);  // no-op, no underflow
  EXPECT_EQ(engine.queue_depth(), 0u);
}

// ---------------------------------------------------------------------------
// Satellite: deterministic overload — a seeded burst into a one-slot engine
// yields exact, reproducible per-item statuses, serial == pooled.
// ---------------------------------------------------------------------------

TEST_F(EngineOverloadTest, BurstIntoOneSlotEngineIsDeterministicSerialAndPooled) {
  std::vector<Digraph> graphs;
  std::vector<Instance> batch;
  for (std::uint64_t i = 0; i < 8; ++i) graphs.push_back(make_graph(910 + i));
  for (const Digraph& g : graphs)
    batch.push_back(Instance::max_flow(g, 0, g.num_vertices() - 1));

  const EngineConfig base{.seed = 910, .max_in_flight = 1, .max_queue = 3};
  EngineConfig serial_cfg = base;
  serial_cfg.use_global_pool = false;
  const Engine serial_engine(serial_cfg);
  const auto serial = serial_engine.solve_batch(batch, combinatorial_opts());

  par::ThreadPool::configure(4);
  const Engine pooled_engine(base);
  const auto pooled = pooled_engine.solve_batch(batch, combinatorial_opts());

  // Admitted prefix = the 1 free slot (batch items never queue); the
  // deterministic suffix sheds typed. Identical statuses and bit-identical
  // admitted results.
  ASSERT_EQ(serial.size(), batch.size());
  ASSERT_EQ(pooled.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(serial[i].result.status, i == 0 ? SolveStatus::kOk : SolveStatus::kLoadShed);
    EXPECT_EQ(pooled[i].result.status, serial[i].result.status);
    EXPECT_EQ(pooled[i].result.flow_value, serial[i].result.flow_value);
    EXPECT_EQ(pooled[i].result.cost, serial[i].result.cost);
    EXPECT_EQ(pooled[i].result.arc_flow, serial[i].result.arc_flow);
    if (i > 0) {
      EXPECT_EQ(serial[i].result.failure_detail, "no capacity");
    }
  }

  // Re-running the same burst on a fresh engine reproduces it exactly.
  EngineConfig again_cfg = base;
  again_cfg.use_global_pool = false;
  const Engine again(again_cfg);
  const auto rerun = again.solve_batch(batch, combinatorial_opts());
  for (std::size_t i = 0; i < batch.size(); ++i)
    EXPECT_EQ(rerun[i].result.status, serial[i].result.status) << i;

  // Metrics reconcile: every submitted item reached exactly one terminal
  // counter, and the latency histogram saw every admitted solve.
  const MetricsSnapshot m = serial_engine.metrics_snapshot();
  EXPECT_EQ(m.of(EngineCounter::kSubmitted), batch.size());
  EXPECT_EQ(m.of(EngineCounter::kSolvedOk), 1u);
  EXPECT_EQ(m.of(EngineCounter::kShedNoCapacity), 7u);
  EXPECT_EQ(m.terminal_total(), m.of(EngineCounter::kSubmitted));
  EXPECT_EQ(m.solve_time.count, 1u);
  EXPECT_EQ(m.in_flight, 0u);
  EXPECT_EQ(m.queue_depth, 0u);
}

// ---------------------------------------------------------------------------
// Dequeue order: the most important class first, FIFO within a class.
// ---------------------------------------------------------------------------

namespace {

/// Parks `plan.size()` requests one at a time against a drained one-slot
/// engine (priority per entry), releases the slot, and returns the queue
/// positions (indices into `plan`) in the order the waiters' solves
/// completed (slots=1 serializes them).
std::vector<std::size_t> drain_order(const Engine& engine, const Instance& inst,
                                     const std::vector<std::uint32_t>& plan) {
  EXPECT_EQ(engine.reserve_capacity(1), 1u);
  std::mutex order_mu;
  std::vector<std::size_t> order;
  std::vector<std::thread> threads;
  threads.reserve(plan.size());
  for (std::size_t i = 0; i < plan.size(); ++i) {
    threads.emplace_back([&, i] {
      SolveControl control;
      control.priority = plan[i];
      const auto res = engine.solve(inst, slow_opts(), control);
      EXPECT_EQ(res.result.status, SolveStatus::kOk);
      const std::lock_guard<std::mutex> lock(order_mu);
      order.push_back(i);
    });
    // Sequence the parking so queue order is exactly `plan` order.
    EXPECT_TRUE(wait_until([&] { return engine.queue_depth() >= i + 1; }));
  }
  engine.restore_capacity(1);
  for (auto& t : threads) t.join();
  return order;
}

/// Tens-of-millisecond solves: drain_order records a completion after
/// solve() returns, so the next waiter's solve must outlast any
/// descheduling of the previous thread on a loaded host.
Digraph make_drain_graph() { return make_graph(920, 24, 160); }

}  // namespace

TEST_F(EngineOverloadTest, QueueDrainsFifoWithinOneTenant) {
  // One caller's requests at one priority: plain arrival order.
  const Digraph g = make_drain_graph();
  const Instance inst = Instance::max_flow(g, 0, g.num_vertices() - 1);
  const Engine engine(
      {.seed = 3, .use_global_pool = false, .max_in_flight = 1, .max_queue = 4});
  EXPECT_EQ(drain_order(engine, inst, {0, 0, 0}), (std::vector<std::size_t>{0, 1, 2}));
  EXPECT_EQ(engine.metrics_snapshot().of(EngineCounter::kAdmittedQueued), 3u);
}

TEST_F(EngineOverloadTest, QueueDrainsByPriorityThenFifo) {
  // Mixed classes, queue deep enough that nothing is evicted: the
  // priority-0 waiter parked last drains first, then each class in
  // arrival order.
  const Digraph g = make_drain_graph();
  const Instance inst = Instance::max_flow(g, 0, g.num_vertices() - 1);
  const Engine engine(
      {.seed = 4, .use_global_pool = false, .max_in_flight = 1, .max_queue = 5});
  EXPECT_EQ(drain_order(engine, inst, {3, 1, 3, 1, 0}),
            (std::vector<std::size_t>{4, 1, 3, 0, 2}));
  const MetricsSnapshot m = engine.metrics_snapshot();
  EXPECT_EQ(m.of(EngineCounter::kAdmittedQueued), 5u);
  EXPECT_EQ(m.of(EngineCounter::kShedEvicted), 0u);
}

// ---------------------------------------------------------------------------
// Priorities: eviction of the newest lowest-priority waiter, never an equal.
// ---------------------------------------------------------------------------

TEST_F(EngineOverloadTest, HigherPriorityEvictsNewestLowestPriorityWaiter) {
  const Digraph g = make_graph(940);
  const Instance inst = Instance::max_flow(g, 0, g.num_vertices() - 1);
  const Engine engine(
      {.seed = 7, .use_global_pool = false, .max_in_flight = 1, .max_queue = 2});
  EXPECT_EQ(engine.reserve_capacity(1), 1u);

  std::mutex order_mu;
  std::vector<std::uint32_t> completions;  // priorities, in completion order
  const auto park = [&](std::uint32_t priority, EngineSolveResult* out) {
    return std::thread([&, priority, out] {
      SolveControl control;
      control.priority = priority;
      *out = engine.solve(inst, slow_opts(), control);
      if (out->result.status == SolveStatus::kOk) {
        const std::lock_guard<std::mutex> lock(order_mu);
        completions.push_back(priority);
      }
    });
  };

  EngineSolveResult x_res, y_res, z_res;
  std::thread x = park(3, &x_res);
  ASSERT_TRUE(wait_until([&] { return engine.queue_depth() >= 1; }));
  std::thread y = park(3, &y_res);
  ASSERT_TRUE(wait_until([&] { return engine.queue_depth() >= 2; }));

  // The queue is full of priority-3 waiters; a priority-0 arrival bumps the
  // newest of them (Y) and takes its place.
  std::thread z = park(0, &z_res);
  y.join();
  EXPECT_EQ(y_res.result.status, SolveStatus::kLoadShed);
  EXPECT_EQ(y_res.result.failure_detail, "evicted");

  engine.restore_capacity(1);
  x.join();
  z.join();
  EXPECT_EQ(x_res.result.status, SolveStatus::kOk);
  EXPECT_EQ(z_res.result.status, SolveStatus::kOk);
  // Priority 0 drains before the earlier-queued priority 3.
  EXPECT_EQ(completions, (std::vector<std::uint32_t>{0, 3}));

  const MetricsSnapshot m = engine.metrics_snapshot();
  EXPECT_EQ(m.of(EngineCounter::kShedEvicted), 1u);
  EXPECT_EQ(m.priorities[3].shed, 1u);
  EXPECT_EQ(m.priorities[0].solved_ok, 1u);
  EXPECT_EQ(m.terminal_total(), m.of(EngineCounter::kSubmitted));
}

TEST_F(EngineOverloadTest, EqualPriorityArrivalShedsInsteadOfEvicting) {
  const Digraph g = make_graph(941);
  const Instance inst = Instance::max_flow(g, 0, g.num_vertices() - 1);
  const Engine engine(
      {.seed = 8, .use_global_pool = false, .max_in_flight = 1, .max_queue = 1});
  EXPECT_EQ(engine.reserve_capacity(1), 1u);

  EngineSolveResult parked_res;
  std::thread parked([&] {
    SolveControl control;
    control.priority = 1;
    parked_res = engine.solve(inst, combinatorial_opts(), control);
  });
  ASSERT_TRUE(wait_until([&] { return engine.queue_depth() >= 1; }));

  SolveControl control;
  control.priority = 1;  // same class: no eviction, typed shed
  const auto shed = engine.solve(inst, combinatorial_opts(), control);
  EXPECT_EQ(shed.result.status, SolveStatus::kLoadShed);
  EXPECT_EQ(shed.result.failure_detail, "queue full");

  engine.restore_capacity(1);
  parked.join();
  EXPECT_EQ(parked_res.result.status, SolveStatus::kOk);
  EXPECT_EQ(engine.metrics_snapshot().of(EngineCounter::kShedQueueFull), 1u);
}

TEST_F(EngineOverloadTest, PriorityPastLadderClampsToLeastImportant) {
  const Digraph g = make_graph(942);
  const Instance inst = Instance::max_flow(g, 0, g.num_vertices() - 1);
  const Engine engine({.seed = 9, .use_global_pool = false});
  SolveControl control;
  control.priority = 99;
  const auto res = engine.solve(inst, combinatorial_opts(), control);
  EXPECT_EQ(res.result.status, SolveStatus::kOk);
  const MetricsSnapshot m = engine.metrics_snapshot();
  EXPECT_EQ(m.priorities[kNumPriorities - 1].submitted, 1u);
  EXPECT_EQ(m.priorities[kNumPriorities - 1].solved_ok, 1u);
  EXPECT_DOUBLE_EQ(m.priorities[kNumPriorities - 1].goodput(), 1.0);
}

// ---------------------------------------------------------------------------
// Deadlines at the queue: predictive shedding and typed queue-wait expiry.
// ---------------------------------------------------------------------------

TEST_F(EngineOverloadTest, UnmeetableDeadlineIsShedBeforeQueueing) {
  const Digraph g = make_graph(950);
  const Instance inst = Instance::max_flow(g, 0, g.num_vertices() - 1);
  const Engine engine(
      {.seed = 10, .use_global_pool = false, .max_in_flight = 1, .max_queue = 4});

  // Warm the service-time EWMA with one millisecond-scale solve, then take
  // the slot away: the predictor now knows a queued request waits ~ms.
  const auto warm = engine.solve(inst, slow_opts());
  ASSERT_EQ(warm.result.status, SolveStatus::kOk);
  EXPECT_EQ(engine.reserve_capacity(1), 1u);

  SolveControl control;
  control.deadline = core::Deadline::in(std::chrono::microseconds(50));
  const auto res = engine.solve(inst, slow_opts(), control);
  EXPECT_EQ(res.result.status, SolveStatus::kLoadShed);
  EXPECT_EQ(res.result.failure_detail, "deadline<wait");
  EXPECT_EQ(engine.metrics_snapshot().of(EngineCounter::kShedDeadline), 1u);
  engine.restore_capacity(1);
}

TEST_F(EngineOverloadTest, WarmResolvesAreNotShedByColdCalibratedEstimates) {
  // Delta-aware admission (DESIGN.md §16): the predictive-shed estimate keeps
  // separate EWMA tracks for cold solves and warm resolves. A stream of
  // heavyweight cold solves must not inflate the estimate used to judge a
  // warm resolve — only requests actually priced on the cold track shed.
  const Digraph small = make_graph(955);
  const Digraph big = make_graph(956, 32, 240);
  const Instance small_inst = Instance::max_flow(small, 0, small.num_vertices() - 1);
  const Instance big_inst = Instance::max_flow(big, 0, big.num_vertices() - 1);
  const Engine engine(
      {.seed = 14, .use_global_pool = false, .max_in_flight = 1, .max_queue = 4});

  // Calibrate the warm track: first resolve is cold, the following ones ride
  // the captured central-path point and land on the warm track. The warm
  // estimate is an EWMA of their engine-side solve times, each no longer
  // than its wall time here, so it never exceeds the slowest warm wall time.
  const InstanceHandle h = engine.register_instance(small_inst);
  ASSERT_EQ(engine.resolve(h, {}, slow_opts()).result.status, SolveStatus::kOk);
  double warm_wall_us = 0.0;
  for (int i = 0; i < 2; ++i) {
    InstanceDelta d;
    d.cost_changes.push_back({0, 4 + i});
    const auto t0 = std::chrono::steady_clock::now();
    const auto res = engine.resolve(h, d, slow_opts());
    warm_wall_us = std::max(warm_wall_us, std::chrono::duration<double, std::micro>(
                                              std::chrono::steady_clock::now() - t0)
                                              .count());
    ASSERT_EQ(res.result.status, SolveStatus::kOk);
    ASSERT_TRUE(res.result.stats.warm_started);
  }

  // Inflate the cold track with much larger solves.
  double big_wall_us = 1e18;
  for (int i = 0; i < 2; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    ASSERT_EQ(engine.solve(big_inst, slow_opts()).result.status, SolveStatus::kOk);
    big_wall_us = std::min(big_wall_us, std::chrono::duration<double, std::micro>(
                                            std::chrono::steady_clock::now() - t0)
                                            .count());
  }
  const double deadline_us = 4.0 * warm_wall_us;
  if (big_wall_us < 16.0 * warm_wall_us) {
    GTEST_SKIP() << "no cold/warm separation on this machine: warm "
                 << warm_wall_us << "us vs big " << big_wall_us << "us";
  }

  // No free slot: both probes hit the queue path and its predictor.
  EXPECT_EQ(engine.reserve_capacity(1), 1u);

  // A cold solve with a deadline far below the cold estimate sheds upfront.
  SolveControl cold_control;
  cold_control.priority = 2;
  cold_control.deadline = core::Deadline::in(
      std::chrono::microseconds(static_cast<std::int64_t>(deadline_us)));
  const auto cold = engine.solve(small_inst, slow_opts(), cold_control);
  EXPECT_EQ(cold.result.status, SolveStatus::kLoadShed);
  EXPECT_EQ(cold.result.failure_detail, "deadline<wait");

  // The same deadline on a warm resolve is judged by the warm track: it is
  // admitted to the queue (and later expires there, since the slot never
  // frees) instead of being predictively shed.
  InstanceDelta d;
  d.cost_changes.push_back({0, 9});
  SolveControl warm_control;
  warm_control.deadline = core::Deadline::in(
      std::chrono::microseconds(static_cast<std::int64_t>(deadline_us)));
  const auto warm = engine.resolve(h, d, slow_opts(), warm_control);
  EXPECT_EQ(warm.result.status, SolveStatus::kDeadlineExceeded);
  EXPECT_EQ(warm.result.failure_detail, "queue wait");
  engine.restore_capacity(1);

  const MetricsSnapshot m = engine.metrics_snapshot();
  EXPECT_EQ(m.of(EngineCounter::kShedDeadline), 1u);  // the cold probe only

  // The refusal landed in the shed-decision trace with its reason,
  // priority, and observed queue depth.
  ASSERT_FALSE(m.shed_trace.empty());
  const ShedTraceEntry& e = m.shed_trace.back();
  EXPECT_EQ(e.reason, EngineCounter::kShedDeadline);
  EXPECT_EQ(e.priority, 2u);
  EXPECT_EQ(e.queue_depth, 0u);  // nothing was parked when it was refused
}

TEST_F(EngineOverloadTest, ShedTraceRingKeepsNewestDecisionsInOrder) {
  const Digraph g = make_graph(957);
  const Instance inst = Instance::max_flow(g, 0, g.num_vertices() - 1);
  const Engine engine({.seed = 15, .use_global_pool = false, .max_in_flight = 1});
  EXPECT_EQ(engine.reserve_capacity(1), 1u);

  // Overflow the ring so it wraps: only the newest kShedTraceCapacity
  // decisions survive, oldest-first.
  const std::size_t total = kShedTraceCapacity + 9;
  for (std::size_t i = 0; i < total; ++i) {
    SolveControl control;
    control.priority = 1;
    const auto res = engine.solve(inst, combinatorial_opts(), control);
    EXPECT_EQ(res.result.status, SolveStatus::kLoadShed);
  }
  engine.restore_capacity(1);

  const MetricsSnapshot m = engine.metrics_snapshot();
  EXPECT_EQ(m.of(EngineCounter::kShedNoCapacity), total);
  ASSERT_EQ(m.shed_trace.size(), kShedTraceCapacity);
  for (std::size_t i = 0; i < m.shed_trace.size(); ++i) {
    const ShedTraceEntry& e = m.shed_trace[i];
    EXPECT_EQ(e.seq, total - kShedTraceCapacity + i + 1);
    EXPECT_EQ(e.reason, EngineCounter::kShedNoCapacity);
    EXPECT_EQ(e.priority, 1u);
  }
}

TEST_F(EngineOverloadTest, QueueWaitDeadlineExpiresTyped) {
  const Digraph g = make_graph(951);
  const Instance inst = Instance::max_flow(g, 0, g.num_vertices() - 1);
  const Engine engine(
      {.seed = 11, .use_global_pool = false, .max_in_flight = 1, .max_queue = 2});
  // Cold EWMA: the predictor cannot refuse upfront, so the request parks
  // and its deadline expires at the queue's poll tick.
  EXPECT_EQ(engine.reserve_capacity(1), 1u);

  SolveControl control;
  control.deadline = core::Deadline::in(std::chrono::milliseconds(30));
  const auto res = engine.solve(inst, combinatorial_opts(), control);
  EXPECT_EQ(res.result.status, SolveStatus::kDeadlineExceeded);
  EXPECT_EQ(res.result.failure_detail, "queue wait");

  const MetricsSnapshot m = engine.metrics_snapshot();
  EXPECT_EQ(m.of(EngineCounter::kQueueTimeouts), 1u);
  EXPECT_EQ(m.of(EngineCounter::kAdmittedQueued), 0u);
  EXPECT_EQ(m.queue_wait.count, 0u);  // never admitted, so no wait sample
  engine.restore_capacity(1);
}

TEST_F(EngineOverloadTest, CancelReachesARequestParkedInTheQueue) {
  const Digraph g = make_graph(952);
  const Instance inst = Instance::max_flow(g, 0, g.num_vertices() - 1);
  const Engine engine(
      {.seed = 12, .use_global_pool = false, .max_in_flight = 1, .max_queue = 2});
  EXPECT_EQ(engine.reserve_capacity(1), 1u);

  std::atomic<SolveHandle> handle{0};
  EngineSolveResult res;
  std::thread parked([&] {
    SolveControl control;
    control.handle = &handle;
    res = engine.solve(inst, combinatorial_opts(), control);
  });
  ASSERT_TRUE(wait_until([&] { return handle.load() != 0 && engine.queue_depth() >= 1; }));
  EXPECT_TRUE(engine.cancel(handle.load()));
  parked.join();
  EXPECT_EQ(res.result.status, SolveStatus::kCanceled);
  EXPECT_EQ(res.result.failure_detail, "queued cancel");

  const MetricsSnapshot m = engine.metrics_snapshot();
  EXPECT_EQ(m.of(EngineCounter::kQueueCancels), 1u);
  EXPECT_EQ(m.of(EngineCounter::kCancelRequests), 1u);
  EXPECT_EQ(m.of(EngineCounter::kCancelHits), 1u);
  EXPECT_EQ(m.terminal_total(), m.of(EngineCounter::kSubmitted));
  engine.restore_capacity(1);
}

// ---------------------------------------------------------------------------
// Chaos: queue-point kCancelRequest injection yields typed outcomes only.
// ---------------------------------------------------------------------------

TEST_F(EngineOverloadTest, ChaosCancelAtQueuePointsIsTyped) {
  const Digraph g = make_graph(960);
  const Instance inst = Instance::max_flow(g, 0, g.num_vertices() - 1);
  EngineConfig cfg{.seed = 13, .use_global_pool = false, .max_in_flight = 1, .max_queue = 4};
  cfg.chaos_cancel_rate = 1.0;  // every queue-point draw fires
  const Engine engine(cfg);

  // With a free slot the fast path admits without touching the queue — the
  // chaos injector must not fire on un-queued requests.
  const auto fast = engine.solve(inst, combinatorial_opts());
  EXPECT_EQ(fast.result.status, SolveStatus::kOk);

  // Take the slot away: the request reaches the enqueue point and the draw
  // turns it into a typed kCanceled, never an untyped failure.
  EXPECT_EQ(engine.reserve_capacity(1), 1u);
  const auto chaos = engine.solve(inst, combinatorial_opts());
  EXPECT_EQ(chaos.result.status, SolveStatus::kCanceled);
  EXPECT_EQ(chaos.result.failure_detail, "queued cancel");
  engine.restore_capacity(1);

  const MetricsSnapshot m = engine.metrics_snapshot();
  EXPECT_EQ(m.of(EngineCounter::kQueueCancels), 1u);
  EXPECT_EQ(m.terminal_total(), m.of(EngineCounter::kSubmitted));
}

}  // namespace
}  // namespace pmcf
