// Solve-lifecycle acceptance tests (DESIGN.md §11): deadlines, cooperative
// cancellation, admission control, and load shedding.
//
//  - A pre-expired deadline or pre-canceled token is shed at admission with a
//    typed status: the solver never touches the instance.
//  - A PRAM-work budget expires *mid-IPM* deterministically and the solve
//    returns kDeadlineExceeded — never kOk, never a corrupted context: after
//    Lifecycle::clear() the same context re-solves bit-identically to a
//    fresh one.
//  - FaultKind::kCancelRequest turns every lifecycle poll site into a
//    randomized cancellation injection point; the property test sweeps rates
//    and seeds in serial and pooled modes (satellite of ISSUE 5).
//  - Engine: per-item batch statuses stay exact across a mix of valid /
//    infeasible / invalid / past-deadline instances; admission control sheds
//    the deterministic suffix with kLoadShed; the caller's CancelToken
//    reaches a solve blocked on another thread.
//
// Suite names contain "Lifecycle" on purpose: the TSan CI job's ctest filter
// and the chaos-sweep step both select on it.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <thread>
#include <vector>

#include "core/deadline.hpp"
#include "core/solve_status.hpp"
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

Digraph make_graph(std::uint64_t seed, Vertex n = 12, std::int32_t m = 60) {
  par::Rng rng(seed);
  return graph::random_flow_network(n, m, 6, 6, rng);
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
  EXPECT_EQ(a.stats.certified, b.stats.certified);
  EXPECT_EQ(a.stats.certification_failures, b.stats.certification_failures);
}

/// Keeps the global pool configuration from leaking across suites.
class LifecycleTest : public ::testing::Test {
 protected:
  void SetUp() override { par::ThreadPool::configure(1); }
  void TearDown() override { par::ThreadPool::configure(1); }
};

using LifecycleEngineTest = LifecycleTest;
using LifecycleChaosTest = LifecycleTest;

core::ContextOptions pinned_ctx_opts(std::uint64_t seed) {
  core::ContextOptions copts;
  copts.seed = seed;
  copts.use_global_pool = false;  // instrumented and pinned to this thread
  return copts;
}

// ---------------------------------------------------------------------------
// Admission: expired budgets never reach a solver tier.
// ---------------------------------------------------------------------------

TEST_F(LifecycleTest, PreExpiredDeadlineIsShedAtAdmission) {
  const Digraph g = make_graph(101);
  core::SolverContext ctx(pinned_ctx_opts(7));
  ctx.lifecycle().set_deadline(
      core::Deadline::at(core::Deadline::Clock::now() - std::chrono::seconds(1)));
  const auto res = mcf::min_cost_max_flow(ctx, g, 0, g.num_vertices() - 1, fast_opts());
  EXPECT_EQ(res.status, SolveStatus::kDeadlineExceeded);
  EXPECT_TRUE(is_lifecycle_error(res.status));
  EXPECT_FALSE(is_instance_error(res.status));
  EXPECT_EQ(res.stats.tiers_attempted, 0);  // no tier ever ran
  EXPECT_FALSE(res.stats.certified);
  EXPECT_TRUE(res.arc_flow.empty());
  EXPECT_NE(res.failure_detail.find("before the solve started"), std::string::npos);
}

TEST_F(LifecycleTest, PreCanceledTokenIsShedAtAdmission) {
  const Digraph g = make_graph(102);
  core::CancelToken token;
  token.cancel();
  core::SolverContext ctx(pinned_ctx_opts(8));
  ctx.lifecycle().bind_token(&token);
  const auto res = mcf::min_cost_max_flow(ctx, g, 0, g.num_vertices() - 1, fast_opts());
  EXPECT_EQ(res.status, SolveStatus::kCanceled);
  EXPECT_EQ(res.stats.tiers_attempted, 0);
  EXPECT_EQ(res.failure_component, "mcf::min_cost_max_flow");

  // The same context hosts a fresh solve once the lifecycle is cleared.
  ctx.lifecycle().clear();
  const auto again = mcf::min_cost_max_flow(ctx, g, 0, g.num_vertices() - 1, fast_opts());
  EXPECT_EQ(again.status, SolveStatus::kOk);
  EXPECT_TRUE(again.stats.certified);
}

// ---------------------------------------------------------------------------
// Mid-solve expiry: the PRAM-work budget is deterministic, so the same
// instance exceeds it at the same outer iteration on every run.
// ---------------------------------------------------------------------------

TEST_F(LifecycleTest, WorkBudgetDeadlineExpiresMidSolveWithTypedStatus) {
  const Digraph g = make_graph(103, 14, 70);
  const auto opts = fast_opts();

  core::SolverContext clean_ctx(pinned_ctx_opts(9));
  const auto clean = mcf::min_cost_max_flow(clean_ctx, g, 0, g.num_vertices() - 1, opts);
  ASSERT_EQ(clean.status, SolveStatus::kOk);
  const std::uint64_t full_work = clean_ctx.tracker().snapshot().work;
  ASSERT_GT(full_work, 0u);

  for (const std::uint64_t divisor : {8u, 3u}) {
    SCOPED_TRACE(divisor);
    core::SolverContext ctx(pinned_ctx_opts(9));
    ctx.lifecycle().set_deadline(core::Deadline::work_budget(full_work / divisor));
    const auto res = mcf::min_cost_max_flow(ctx, g, 0, g.num_vertices() - 1, opts);
    EXPECT_EQ(res.status, SolveStatus::kDeadlineExceeded);
    EXPECT_NE(res.status, SolveStatus::kOk);
    EXPECT_EQ(res.stats.tiers_attempted, 1);  // lifecycle errors never cascade
    EXPECT_FALSE(res.stats.certified);
    EXPECT_FALSE(res.failure_component.empty());
    // Wind-down is cooperative but prompt: the truncated solve charges
    // strictly less work than a full solve.
    EXPECT_LT(ctx.tracker().snapshot().work, full_work);

    // Determinism: the same budget expires at the same point every run.
    core::SolverContext rerun_ctx(pinned_ctx_opts(9));
    rerun_ctx.lifecycle().set_deadline(core::Deadline::work_budget(full_work / divisor));
    const auto rerun = mcf::min_cost_max_flow(rerun_ctx, g, 0, g.num_vertices() - 1, opts);
    EXPECT_EQ(rerun.status, res.status);
    EXPECT_EQ(rerun_ctx.tracker().snapshot().work, ctx.tracker().snapshot().work);

    // Reusability: clearing the lifecycle makes the context host a fresh
    // solve whose result is bit-identical to the clean context's.
    ctx.lifecycle().clear();
    const auto resumed = mcf::min_cost_max_flow(ctx, g, 0, g.num_vertices() - 1, opts);
    expect_identical(resumed, clean);
  }
}

TEST_F(LifecycleTest, WorkBudgetBoundsTheCombinatorialTierToo) {
  const Digraph g = make_graph(104);
  auto opts = fast_opts();
  opts.method = mcf::Method::kCombinatorial;

  core::SolverContext clean_ctx(pinned_ctx_opts(10));
  const auto clean = mcf::min_cost_max_flow(clean_ctx, g, 0, g.num_vertices() - 1, opts);
  ASSERT_EQ(clean.status, SolveStatus::kOk);
  const std::uint64_t full_work = clean_ctx.tracker().snapshot().work;
  ASSERT_GT(full_work, 0u);

  // A one-unit budget passes admission (nothing charged yet) but expires at
  // the first augmentation-loop poll after any work lands.
  core::SolverContext ctx(pinned_ctx_opts(10));
  ctx.lifecycle().set_deadline(core::Deadline::work_budget(1));
  const auto res = mcf::min_cost_max_flow(ctx, g, 0, g.num_vertices() - 1, opts);
  EXPECT_EQ(res.status, SolveStatus::kDeadlineExceeded);
  EXPECT_EQ(res.stats.tiers_attempted, 1);
}

// ---------------------------------------------------------------------------
// Randomized cancellation-point property test (ISSUE 5 satellite): arming
// FaultKind::kCancelRequest makes every lifecycle poll site a potential
// cancellation; whatever point fires, the context must come back reusable.
// ---------------------------------------------------------------------------

void run_cancellation_reuse_property(bool pooled) {
  const Digraph g = make_graph(105);
  const auto opts = fast_opts();
  const auto ctx_opts = [&](std::uint64_t seed) {
    core::ContextOptions copts;
    copts.seed = seed;
    if (pooled) {
      copts.instrument = false;  // wall-clock mode: inner primitives fan out
    } else {
      copts.use_global_pool = false;
    }
    return copts;
  };

  for (const std::uint64_t seed : {11u, 12u, 13u, 14u}) {
    for (const double rate : {0.05, 0.35, 1.0}) {
      SCOPED_TRACE(::testing::Message() << "seed=" << seed << " rate=" << rate);
      core::SolverContext ctx(ctx_opts(seed));
      ctx.fault().arm(par::FaultKind::kCancelRequest, rate, seed);
      const auto canceled =
          mcf::min_cost_max_flow(ctx, g, 0, g.num_vertices() - 1, opts);
      // Whatever injection point fired first, the status is typed: either the
      // solve was canceled or no draw fired and it completed certified.
      if (ctx.fault().fired(par::FaultKind::kCancelRequest) > 0) {
        EXPECT_EQ(canceled.status, SolveStatus::kCanceled);
        EXPECT_FALSE(canceled.stats.certified);
      } else {
        EXPECT_EQ(canceled.status, SolveStatus::kOk);
      }

      // The interrupted context, once disarmed and cleared, must solve
      // bit-identically to a context that never saw the cancellation.
      ctx.fault().disarm_all();
      ctx.lifecycle().clear();
      const auto reused = mcf::min_cost_max_flow(ctx, g, 0, g.num_vertices() - 1, opts);

      core::SolverContext fresh(ctx_opts(seed));
      const auto baseline = mcf::min_cost_max_flow(fresh, g, 0, g.num_vertices() - 1, opts);
      expect_identical(reused, baseline);
      EXPECT_EQ(reused.status, SolveStatus::kOk);
    }
  }
}

TEST_F(LifecycleTest, RandomizedCancellationLeavesContextReusableSerial) {
  run_cancellation_reuse_property(/*pooled=*/false);
}

TEST_F(LifecycleTest, RandomizedCancellationLeavesContextReusablePooled) {
  par::ThreadPool::configure(4);
  run_cancellation_reuse_property(/*pooled=*/true);
}

TEST_F(LifecycleTest, CancelTokenFromAnotherThreadIsObservedCooperatively) {
  // Cross-thread smoke (also the TSan target for token publication): a
  // watcher cancels while the solver thread is inside the IPM. The outcome
  // is inherently racy — either the solve observed the token (kCanceled) or
  // it finished first (kOk) — but it must always be typed and the context
  // must stay intact.
  // 16 vertices and 90 arcs keep the uncanceled solve ~640 IPM iterations
  // long before its duality-gap stop, so the cancellation usually lands.
  const Digraph g = make_graph(106, 16, 90);
  const auto opts = fast_opts();

  core::CancelToken token;
  core::SolverContext ctx(pinned_ctx_opts(15));
  ctx.lifecycle().bind_token(&token);

  mcf::MinCostFlowResult res;
  std::thread solver(
      [&] { res = mcf::min_cost_max_flow(ctx, g, 0, g.num_vertices() - 1, opts); });
  token.cancel();
  solver.join();
  EXPECT_TRUE(res.status == SolveStatus::kCanceled || res.status == SolveStatus::kOk)
      << to_string(res.status);

  ctx.lifecycle().clear();
  const auto again = mcf::min_cost_max_flow(ctx, g, 0, g.num_vertices() - 1, fast_opts());
  EXPECT_EQ(again.status, SolveStatus::kOk);
}

// ---------------------------------------------------------------------------
// Engine: per-request lifecycle controls, exact per-item statuses, admission
// control, and cancellation from another thread.
// ---------------------------------------------------------------------------

TEST_F(LifecycleEngineTest, BatchMixedInstancesGetExactPerItemStatuses) {
  const Digraph valid_a = make_graph(201);
  const Digraph valid_b = make_graph(202);

  // Infeasible b-flow: one unit of capacity cannot route five units of demand.
  Digraph narrow(2);
  narrow.add_arc(0, 1, 1, 1);
  // Invalid input: negative capacity fails validation before any tier runs.
  Digraph invalid(2);
  invalid.add_arc(0, 1, -1, 1);

  std::vector<Instance> batch;
  batch.push_back(Instance::max_flow(valid_a, 0, valid_a.num_vertices() - 1));
  batch.push_back(Instance::b_flow(narrow, {-5, 5}));
  batch.push_back(Instance::max_flow(invalid, 0, 1));
  Instance expired = Instance::max_flow(valid_b, 0, valid_b.num_vertices() - 1);
  expired.deadline =
      core::Deadline::at(core::Deadline::Clock::now() - std::chrono::seconds(1));
  batch.push_back(expired);
  batch.push_back(Instance::max_flow(valid_b, 0, valid_b.num_vertices() - 1));

  const std::vector<SolveStatus> want = {SolveStatus::kOk, SolveStatus::kInfeasible,
                                         SolveStatus::kInvalidInput,
                                         SolveStatus::kDeadlineExceeded, SolveStatus::kOk};

  const Engine serial_engine({.seed = 55, .use_global_pool = false});
  const auto serial = serial_engine.solve_batch(batch, fast_opts());
  ASSERT_EQ(serial.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(serial[i].result.status, want[i]);
    if (want[i] == SolveStatus::kOk) {
      // Failing neighbors must not contaminate the healthy items' stats.
      EXPECT_TRUE(serial[i].result.stats.certified);
      EXPECT_EQ(serial[i].result.stats.certification_failures, 0u);
      EXPECT_EQ(serial[i].result.stats.injected_faults, 0u);
      EXPECT_TRUE(serial[i].result.failure_component.empty());
      EXPECT_GT(serial[i].result.flow_value, 0);
    } else {
      EXPECT_FALSE(serial[i].result.failure_component.empty());
      EXPECT_FALSE(serial[i].result.stats.certified);
    }
  }
  // The expired item never ran a tier; the invalid one never passed
  // validation. Both leave admission-level telemetry only.
  EXPECT_EQ(serial[3].result.stats.tiers_attempted, 0);

  // Pool fan-out returns the same per-item results bit-identically.
  par::ThreadPool::configure(4);
  const Engine pooled_engine({.seed = 55});
  ASSERT_NE(pooled_engine.pool(), nullptr);
  const auto pooled = pooled_engine.solve_batch(batch, fast_opts());
  ASSERT_EQ(pooled.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    SCOPED_TRACE(i);
    expect_identical(serial[i].result, pooled[i].result);
    EXPECT_EQ(serial[i].pram, pooled[i].pram);
  }
}

TEST_F(LifecycleEngineTest, AdmissionControlShedsDeterministicSuffixWithLoadShed) {
  std::deque<Digraph> graphs;
  std::vector<Instance> batch;
  for (std::size_t i = 0; i < 5; ++i) {
    graphs.push_back(make_graph(301 + i));
    batch.push_back(Instance::max_flow(graphs.back(), 0, graphs.back().num_vertices() - 1));
  }

  const Engine serial_engine({.seed = 66, .use_global_pool = false, .max_in_flight = 2});
  const auto serial = serial_engine.solve_batch(batch, fast_opts());
  ASSERT_EQ(serial.size(), 5u);
  for (std::size_t i = 0; i < 2; ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(serial[i].result.status, SolveStatus::kOk);
  }
  for (std::size_t i = 2; i < 5; ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(serial[i].result.status, SolveStatus::kLoadShed);
    EXPECT_TRUE(is_lifecycle_error(serial[i].result.status));
    EXPECT_EQ(serial[i].result.failure_component, "mcf::engine");
    EXPECT_TRUE(serial[i].result.arc_flow.empty());
  }
  EXPECT_EQ(serial_engine.in_flight(), 0u);  // slots fully released

  // Shedding is decided upfront in index order, so the pooled run agrees.
  par::ThreadPool::configure(4);
  const Engine pooled_engine({.seed = 66, .max_in_flight = 2});
  const auto pooled = pooled_engine.solve_batch(batch, fast_opts());
  for (std::size_t i = 0; i < 5; ++i) {
    SCOPED_TRACE(i);
    expect_identical(serial[i].result, pooled[i].result);
  }

  // An unbounded engine never sheds.
  const Engine open_engine({.seed = 66, .use_global_pool = false});
  for (const auto& out : open_engine.solve_batch(batch, fast_opts()))
    EXPECT_EQ(out.result.status, SolveStatus::kOk);
}

TEST_F(LifecycleEngineTest, RequestDeadlineAndTokenPropagateToEveryBatchItem) {
  const Digraph g1 = make_graph(401);
  const Digraph g2 = make_graph(402);
  const std::vector<Instance> batch = {Instance::max_flow(g1, 0, g1.num_vertices() - 1),
                                       Instance::max_flow(g2, 0, g2.num_vertices() - 1)};
  const Engine engine({.seed = 77, .use_global_pool = false});

  SolveControl past;
  past.deadline = core::Deadline::at(core::Deadline::Clock::now() - std::chrono::seconds(1));
  for (const auto& out : engine.solve_batch(batch, fast_opts(), past))
    EXPECT_EQ(out.result.status, SolveStatus::kDeadlineExceeded);

  core::CancelToken token;
  token.cancel();
  SolveControl canceled;
  canceled.cancel = &token;
  for (const auto& out : engine.solve_batch(batch, fast_opts(), canceled))
    EXPECT_EQ(out.result.status, SolveStatus::kCanceled);

  // The request-level and per-item budgets merge: the tighter one wins, so an
  // open request deadline still honors one item's expired deadline.
  std::vector<Instance> mixed = batch;
  mixed[1].deadline =
      core::Deadline::at(core::Deadline::Clock::now() - std::chrono::seconds(1));
  const auto res = engine.solve_batch(mixed, fast_opts());
  EXPECT_EQ(res[0].result.status, SolveStatus::kOk);
  EXPECT_EQ(res[1].result.status, SolveStatus::kDeadlineExceeded);
}

TEST_F(LifecycleEngineTest, CancelHandleReachesASolveOnAnotherThread) {
  // ~670 IPM iterations before the duality-gap stop: long enough that the
  // cancel usually lands mid-IPM.
  const Digraph g = make_graph(403, 16, 90);
  const auto opts = fast_opts();

  const Engine engine({.seed = 88, .use_global_pool = false, .max_in_flight = 1});
  // The caller's token is its handle on the solve: any thread may cancel it.
  core::CancelToken token;
  SolveControl control;
  control.cancel = &token;

  EngineSolveResult out;
  std::atomic<bool> returned{false};
  std::thread solver([&] {
    out = engine.solve(Instance::max_flow(g, 0, g.num_vertices() - 1), opts, control);
    returned.store(true);
  });
  // The watcher cancels once the solve holds its slot.
  while (engine.in_flight() == 0 && !returned.load()) std::this_thread::yield();
  token.cancel();
  solver.join();
  EXPECT_TRUE(out.result.status == SolveStatus::kCanceled ||
              out.result.status == SolveStatus::kOk)
      << to_string(out.result.status);
  EXPECT_EQ(engine.in_flight(), 0u);

  // The engine stays serviceable after a cancellation.
  const auto after = engine.solve(Instance::max_flow(g, 0, g.num_vertices() - 1), fast_opts());
  EXPECT_EQ(after.result.status, SolveStatus::kOk);
}

// ---------------------------------------------------------------------------
// Chaos: random cancellation on top of solver-fault injection — the CI chaos
// sweep runs exactly this suite under ASan. Every outcome must be typed and
// every surviving kOk must be certified.
// ---------------------------------------------------------------------------

TEST_F(LifecycleChaosTest, RandomCancellationUnderSolverFaultsStaysTyped) {
  const Digraph g = make_graph(501);
  const auto opts = fast_opts();

  std::uint64_t stagnations = 0;
  for (const std::uint64_t seed : {21u, 22u, 23u, 24u, 25u, 26u}) {
    SCOPED_TRACE(seed);
    core::SolverContext ctx(pinned_ctx_opts(seed));
    ctx.fault().arm(par::FaultKind::kCgStagnation, 0.5, seed);
    ctx.fault().arm(par::FaultKind::kCancelRequest, 0.1, seed + 1000);
    const auto res = mcf::min_cost_max_flow(ctx, g, 0, g.num_vertices() - 1, opts);
    stagnations += ctx.fault().fired(par::FaultKind::kCgStagnation);
    // The status space under chaos: success (certified), a typed
    // cancellation, or — if injected faults exhausted every tier — a typed
    // solver failure. Nothing unclassified, nothing uncertified.
    if (res.status == SolveStatus::kOk) {
      EXPECT_TRUE(res.stats.certified);
    } else {
      EXPECT_TRUE(is_lifecycle_error(res.status) || !is_instance_error(res.status))
          << to_string(res.status);
      EXPECT_FALSE(res.stats.certified);
    }
    if (ctx.fault().fired(par::FaultKind::kCancelRequest) > 0) {
      EXPECT_EQ(res.status, SolveStatus::kCanceled);
    }

    // And the context survives chaos: disarm + clear, then a clean re-solve
    // matches a fresh context bit for bit.
    ctx.fault().disarm_all();
    ctx.lifecycle().clear();
    const auto reused = mcf::min_cost_max_flow(ctx, g, 0, g.num_vertices() - 1, opts);
    core::SolverContext fresh(pinned_ctx_opts(seed));
    const auto baseline = mcf::min_cost_max_flow(fresh, g, 0, g.num_vertices() - 1, opts);
    expect_identical(reused, baseline);
  }
  // The solver faults fire too (in the JL sketch's CG), not only the cancels.
  EXPECT_GT(stagnations, 0u);
}

}  // namespace
}  // namespace pmcf
