// Concurrency acceptance tests for per-solve SolverContexts and the
// pmcf::Engine facade: N threads solving N distinct instances concurrently
// must produce bit-identical results, stats, and PRAM counters to solving
// the same instances serially — including under per-context fault injection,
// where the recovery/fault telemetry of one solve must never leak into
// another. Runs under TSan in CI (the job's ctest filter matches "Engine").

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdint>
#include <deque>
#include <thread>
#include <utility>
#include <vector>

#include "core/deadline.hpp"
#include "core/solver_context.hpp"
#include "graph/digraph.hpp"
#include "graph/generators.hpp"
#include "mcf/engine.hpp"
#include "mcf/min_cost_flow.hpp"
#include "parallel/fault_injection.hpp"
#include "parallel/rng.hpp"
#include "parallel/thread_pool.hpp"

namespace pmcf {
namespace {

using graph::Digraph;
using graph::Vertex;

constexpr std::size_t kSolves = 6;

/// Distinct small instances (stable addresses: Instance borrows the graph).
std::deque<Digraph> make_graphs() {
  std::deque<Digraph> graphs;
  for (std::size_t i = 0; i < kSolves; ++i) {
    par::Rng rng(4200 + 17 * i);
    graphs.push_back(graph::random_flow_network(10, 40, 6, 6, rng));
  }
  return graphs;
}

mcf::SolveOptions fast_opts() {
  mcf::SolveOptions opts;
  opts.ipm.mu_end = 1e-3;
  opts.ipm.leverage.sketch_dim = 8;
  return opts;
}

void expect_identical(const mcf::MinCostFlowResult& a, const mcf::MinCostFlowResult& b) {
  EXPECT_EQ(a.status, b.status);
  EXPECT_EQ(a.flow_value, b.flow_value);
  EXPECT_EQ(a.cost, b.cost);
  EXPECT_EQ(a.arc_flow, b.arc_flow);
  EXPECT_EQ(a.stats.ipm_iterations, b.stats.ipm_iterations);
  EXPECT_EQ(a.stats.final_mu, b.stats.final_mu);
  EXPECT_EQ(a.stats.final_centrality, b.stats.final_centrality);
  EXPECT_EQ(a.stats.imbalance_routed, b.stats.imbalance_routed);
  EXPECT_EQ(a.stats.cycles_canceled, b.stats.cycles_canceled);
  EXPECT_EQ(a.stats.answered_by, b.stats.answered_by);
  EXPECT_EQ(a.stats.tiers_attempted, b.stats.tiers_attempted);
  EXPECT_EQ(a.stats.cg_tolerance_escalations, b.stats.cg_tolerance_escalations);
  EXPECT_EQ(a.stats.dense_fallbacks, b.stats.dense_fallbacks);
  EXPECT_EQ(a.stats.sketch_retries, b.stats.sketch_retries);
  EXPECT_EQ(a.stats.structure_rebuilds, b.stats.structure_rebuilds);
  EXPECT_EQ(a.stats.injected_faults, b.stats.injected_faults);
}

/// Keeps the global pool configuration from leaking across suites.
class EngineConcurrencyTest : public ::testing::Test {
 protected:
  void SetUp() override { par::ThreadPool::configure(1); }
  void TearDown() override { par::ThreadPool::configure(1); }
};

struct SolveOutput {
  mcf::MinCostFlowResult result;
  par::Cost pram;
};

/// One full solve under a private context; odd-indexed solves additionally
/// arm a deterministic CG-stagnation fault on *their own* injector, so any
/// telemetry cross-talk between concurrent solves shows up as a diff.
SolveOutput solve_one(const Digraph& g, std::size_t i, const mcf::SolveOptions& opts) {
  core::ContextOptions copts;
  copts.seed = 0x1234 + i;
  copts.use_global_pool = false;  // instrumented and pinned to this thread
  core::SolverContext ctx(copts);
  if (i % 2 == 1) ctx.fault().arm(par::FaultKind::kCgStagnation, 1.0, 31 + i);
  SolveOutput out;
  out.result = mcf::min_cost_max_flow(ctx, g, 0, g.num_vertices() - 1, opts);
  out.pram = ctx.tracker().snapshot();
  return out;
}

TEST_F(EngineConcurrencyTest, ConcurrentContextSolvesMatchSerialBitExact) {
  const auto graphs = make_graphs();
  const auto opts = fast_opts();

  std::vector<SolveOutput> serial(kSolves);
  for (std::size_t i = 0; i < kSolves; ++i) serial[i] = solve_one(graphs[i], i, opts);
  // The armed stagnation fires (in the JL sketch's CG), so the odd solves'
  // telemetry differs from the even ones'.
  for (std::size_t i = 1; i < kSolves; i += 2)
    EXPECT_GT(serial[i].result.stats.injected_faults, 0u) << "solve " << i;

  std::vector<SolveOutput> concurrent(kSolves);
  std::vector<std::thread> threads;
  threads.reserve(kSolves);
  for (std::size_t i = 0; i < kSolves; ++i)
    threads.emplace_back([&, i] { concurrent[i] = solve_one(graphs[i], i, opts); });
  for (auto& t : threads) t.join();

  for (std::size_t i = 0; i < kSolves; ++i) {
    SCOPED_TRACE(i);
    expect_identical(serial[i].result, concurrent[i].result);
    EXPECT_EQ(serial[i].pram, concurrent[i].pram);
    EXPECT_GT(serial[i].pram.work, 0u);
    // The armed solves must report their own faults; the unarmed solves must
    // report none, even while armed solves run on sibling threads.
    if (i % 2 == 1) {
      EXPECT_GT(concurrent[i].result.stats.injected_faults, 0u);
    } else {
      EXPECT_EQ(concurrent[i].result.stats.injected_faults, 0u);
    }
  }
}

TEST_F(EngineConcurrencyTest, SharedEngineSolveIsReentrant) {
  const auto graphs = make_graphs();
  const auto opts = fast_opts();
  const Engine engine({.seed = 77, .use_global_pool = false});

  std::vector<Instance> instances;
  instances.reserve(kSolves);
  for (const auto& g : graphs)
    instances.push_back(Instance::max_flow(g, 0, g.num_vertices() - 1));

  std::vector<EngineSolveResult> serial(kSolves);
  for (std::size_t i = 0; i < kSolves; ++i) serial[i] = engine.solve(instances[i], opts);

  std::vector<EngineSolveResult> concurrent(kSolves);
  std::vector<std::thread> threads;
  threads.reserve(kSolves);
  for (std::size_t i = 0; i < kSolves; ++i)
    threads.emplace_back([&, i] { concurrent[i] = engine.solve(instances[i], opts); });
  for (auto& t : threads) t.join();

  for (std::size_t i = 0; i < kSolves; ++i) {
    SCOPED_TRACE(i);
    expect_identical(serial[i].result, concurrent[i].result);
    EXPECT_EQ(serial[i].pram, concurrent[i].pram);
  }
}

TEST_F(EngineConcurrencyTest, SolveBatchMatchesSerialLoopAcrossThreadCounts) {
  const auto graphs = make_graphs();
  const auto opts = fast_opts();

  std::vector<Instance> batch;
  batch.reserve(kSolves);
  for (const auto& g : graphs) batch.push_back(Instance::max_flow(g, 0, g.num_vertices() - 1));

  // Serial reference: no pool bound, solve_batch degenerates to a plain loop.
  const Engine serial_engine({.seed = 99, .use_global_pool = false});
  const auto baseline = serial_engine.solve_batch(batch, opts);
  ASSERT_EQ(baseline.size(), kSolves);

  for (const std::size_t threads : {2u, 4u}) {
    SCOPED_TRACE(threads);
    par::ThreadPool::configure(threads);
    const Engine pooled_engine({.seed = 99});  // same seed, global pool fan-out
    ASSERT_NE(pooled_engine.pool(), nullptr);
    const auto fanned = pooled_engine.solve_batch(batch, opts);
    ASSERT_EQ(fanned.size(), kSolves);
    for (std::size_t i = 0; i < kSolves; ++i) {
      SCOPED_TRACE(i);
      expect_identical(baseline[i].result, fanned[i].result);
      EXPECT_EQ(baseline[i].pram, fanned[i].pram);
    }
  }
}

TEST_F(EngineConcurrencyTest, CancelRacesPublishAndRetireWithoutCorruption) {
  // Hammer token cancellation from both sides: each worker resets its own
  // token before every round (publishing it to a fresh solve) and abandons it
  // when the solve returns, while a canceler thread cancels whichever worker
  // token it reaches next — before a solve starts, mid-solve, or after it
  // returned. Every solve must end kOk or kCanceled and the metrics must
  // account for each one; TSan (CI) checks the synchronization.
  const auto graphs = make_graphs();
  const Engine engine({.seed = 321, .use_global_pool = false});
  constexpr std::size_t kWorkers = 4;
  constexpr std::size_t kRounds = 8;

  std::vector<Instance> instances;
  for (const auto& g : graphs)
    instances.push_back(Instance::max_flow(g, 0, g.num_vertices() - 1));

  std::vector<core::CancelToken> tokens(kWorkers);
  std::atomic<bool> stop{false};
  std::atomic<std::size_t> untyped{0};
  std::atomic<std::size_t> canceled{0};

  std::vector<std::thread> workers;
  workers.reserve(kWorkers + 1);
  for (std::size_t w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&, w] {
      for (std::size_t r = 0; r < kRounds; ++r) {
        tokens[w].reset();
        SolveControl control;
        control.cancel = &tokens[w];
        const auto res =
            engine.solve(instances[(w + r) % instances.size()], fast_opts(), control);
        if (res.result.status == SolveStatus::kCanceled)
          canceled.fetch_add(1);
        else if (res.result.status != SolveStatus::kOk)
          untyped.fetch_add(1);
      }
    });
  }
  workers.emplace_back([&] {
    std::size_t rr = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      tokens[rr++ % kWorkers].cancel();
      std::this_thread::yield();
    }
  });
  for (std::size_t w = 0; w < kWorkers; ++w) workers[w].join();
  stop.store(true);
  workers.back().join();

  EXPECT_EQ(untyped.load(), 0u);
  const auto m = engine.metrics_snapshot();
  EXPECT_EQ(m.of(EngineCounter::kSubmitted), kWorkers * kRounds + 0u);
  EXPECT_EQ(m.terminal_total(), m.of(EngineCounter::kSubmitted));
  EXPECT_EQ(m.of(EngineCounter::kCanceled), canceled.load());
  EXPECT_EQ(m.of(EngineCounter::kSolvedOk) + m.of(EngineCounter::kCanceled),
            m.of(EngineCounter::kSubmitted));
}

TEST_F(EngineConcurrencyTest, InstrumentationOnlyCounts) {
  // Every kernel runs one arithmetic in every mode, so PRAM instrumentation
  // only adds counters: an instrumented Engine and a serial wall-clock Engine
  // must return the same answer along the same central path.
  std::deque<Digraph> graphs;
  for (std::size_t i = 0; i < kSolves; ++i) {
    par::Rng rng(9100 + i);
    const auto n = static_cast<Vertex>(10 + i % 4);
    graphs.push_back(graph::random_flow_network(n, 6 * n, 100, 6, rng));
  }
  const Engine instrumented{};
  const Engine wall({.instrument = false, .use_global_pool = false});
  for (const mcf::Method method : {mcf::Method::kReferenceIpm, mcf::Method::kRobustIpm}) {
    mcf::SolveOptions opts;
    opts.method = method;
    const std::size_t count = method == mcf::Method::kRobustIpm ? 2 : kSolves;
    for (std::size_t i = 0; i < count; ++i) {
      SCOPED_TRACE(testing::Message() << "method " << static_cast<int>(method) << " instance " << i);
      const Instance inst = Instance::max_flow(graphs[i], 0, graphs[i].num_vertices() - 1);
      const auto a = instrumented.solve(inst, opts).result;
      const auto b = wall.solve(inst, opts).result;
      ASSERT_EQ(a.status, SolveStatus::kOk);
      EXPECT_EQ(a.cost, b.cost);
      EXPECT_EQ(a.arc_flow, b.arc_flow);
      EXPECT_EQ(a.stats.ipm_iterations, b.stats.ipm_iterations);
      EXPECT_EQ(a.stats.final_mu, b.stats.final_mu);
      EXPECT_EQ(a.stats.final_centrality, b.stats.final_centrality);
      EXPECT_EQ(a.stats.robust_steps, b.stats.robust_steps);
      EXPECT_EQ(a.stats.cg_tolerance_escalations, b.stats.cg_tolerance_escalations);
      EXPECT_EQ(a.stats.precond_builds, b.stats.precond_builds);
    }
  }
}

TEST_F(EngineConcurrencyTest, OneArithmeticAtEveryPoolSize) {
  // Every scheduler primitive returns one result at every pool size (a
  // reduction's blocks depend on its length alone), so wall-clock Engines
  // with no pool and on private 2- and 4-thread pools must solve along the
  // instrumented Engine's central path bit for bit. The instances have more
  // than par::kMinGrain augmented arcs, so the pooled loops really split.
  std::deque<Digraph> graphs;
  for (const std::uint64_t seed : {42u, 7u}) {
    par::Rng rng(seed);
    graphs.push_back(graph::random_flow_network(16, 128, 6, 6, rng));
  }
  par::ThreadPool pool2(2);
  par::ThreadPool pool4(4);
  const Engine instrumented({.use_global_pool = false});
  const Engine serial({.instrument = false, .use_global_pool = false});
  const Engine on2({.instrument = false, .pool = &pool2, .use_global_pool = false});
  const Engine on4({.instrument = false, .pool = &pool4, .use_global_pool = false});
  const std::pair<const char*, const Engine*> wall_engines[] = {
      {"serial", &serial}, {"2 threads", &on2}, {"4 threads", &on4}};
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };

  struct Case {
    std::size_t graph;
    mcf::Method method;
  };
  for (const Case c : {Case{0, mcf::Method::kReferenceIpm}, Case{1, mcf::Method::kReferenceIpm},
                       Case{0, mcf::Method::kRobustIpm}}) {
    SCOPED_TRACE(testing::Message() << "method " << static_cast<int>(c.method) << " instance "
                                    << c.graph);
    const Digraph& g = graphs[c.graph];
    const Instance inst = Instance::max_flow(g, 0, g.num_vertices() - 1);
    mcf::SolveOptions opts;
    opts.method = c.method;
    opts.allow_degradation = false;
    const auto want = instrumented.solve(inst, opts).result;
    ASSERT_EQ(want.status, SolveStatus::kOk);
    for (const auto& [name, engine] : wall_engines) {
      SCOPED_TRACE(name);
      const auto got = engine->solve(inst, opts).result;
      EXPECT_EQ(got.status, want.status);
      EXPECT_EQ(got.cost, want.cost);
      EXPECT_EQ(got.arc_flow, want.arc_flow);
      EXPECT_EQ(got.stats.ipm_iterations, want.stats.ipm_iterations);
      EXPECT_EQ(bits(got.stats.final_mu), bits(want.stats.final_mu));
      EXPECT_EQ(bits(got.stats.final_centrality), bits(want.stats.final_centrality));
      EXPECT_EQ(got.stats.robust_steps, want.stats.robust_steps);
      EXPECT_EQ(got.stats.cg_tolerance_escalations, want.stats.cg_tolerance_escalations);
    }
  }
}

TEST_F(EngineConcurrencyTest, BFlowInstancesRoundTripThroughEngine) {
  par::Rng rng(4321);
  const Digraph g = graph::random_flow_network(12, 60, 6, 6, rng);
  std::vector<std::int64_t> b(static_cast<std::size_t>(g.num_vertices()), 0);
  b[0] = -2;
  b[static_cast<std::size_t>(g.num_vertices() - 1)] = 2;

  const Engine engine({.use_global_pool = false});
  const auto via_engine = engine.solve(Instance::b_flow(g, b), fast_opts());
  const auto direct = mcf::min_cost_b_flow(g, b, fast_opts());
  expect_identical(via_engine.result, direct);
}

}  // namespace
}  // namespace pmcf
