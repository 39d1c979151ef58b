// Resilience-layer tests (DESIGN.md "Failure model and recovery"): typed
// statuses on the public API, input validation, the deterministic fault
// injector, each fault kind's recovery policy, and the degradation cascade.
// Acceptance: with any single fault armed at rate 1.0, the solver never
// crashes and never returns a wrong cost — either status == kOk and the
// answer matches the SSP oracle, or a matching typed status comes back.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "baselines/ssp.hpp"
#include "core/solve_status.hpp"
#include "core/solver_context.hpp"
#include "ds/lewis_maintenance.hpp"
#include "graph/generators.hpp"
#include "linalg/incidence.hpp"
#include "linalg/laplacian.hpp"
#include "linalg/leverage.hpp"
#include "linalg/sdd_solver.hpp"
#include "mcf/max_flow.hpp"
#include "mcf/min_cost_flow.hpp"
#include "parallel/fault_injection.hpp"
#include "parallel/rng.hpp"
#include "parallel/scheduler.hpp"
#include "parallel/thread_pool.hpp"

namespace pmcf {
namespace {

using graph::Digraph;
using graph::Vertex;
using par::FaultInjector;
using par::FaultKind;
using par::ScopedFault;

Digraph seed_instance(std::uint64_t seed, Vertex n = 12, std::int64_t m = 50) {
  par::Rng rng(seed);
  return graph::random_flow_network(n, m, 6, 6, rng);
}

mcf::SolveOptions test_opts(mcf::Method method) {
  mcf::SolveOptions opts;
  opts.method = method;
  opts.ipm.mu_end = 1e-3;
  opts.ipm.leverage.sketch_dim = 8;
  opts.ipm.max_iters = 2000;
  return opts;
}

/// Disarms everything around each test so suites cannot contaminate each
/// other when several run in one process.
class FaultFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    FaultInjector::instance().disarm_all();
    FaultInjector::instance().reset_counters();
  }
  void TearDown() override { FaultInjector::instance().disarm_all(); }
};

// ---------- the injector itself ----------

TEST_F(FaultFixture, DisabledPathNeverFires) {
  for (int i = 0; i < 1000; ++i)
    EXPECT_FALSE(FaultInjector::instance().should_fire(FaultKind::kCgStagnation));
  EXPECT_EQ(FaultInjector::instance().fired_total(), 0u);
}

TEST_F(FaultFixture, RateOneAlwaysFiresRateZeroNever) {
  FaultInjector::instance().arm(FaultKind::kSketchCorruption, 1.0, 7);
  FaultInjector::instance().arm(FaultKind::kHeavyHitterMiss, 0.0, 7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(FaultInjector::instance().should_fire(FaultKind::kSketchCorruption));
    EXPECT_FALSE(FaultInjector::instance().should_fire(FaultKind::kHeavyHitterMiss));
  }
  EXPECT_EQ(FaultInjector::instance().fired(FaultKind::kSketchCorruption), 100u);
  EXPECT_EQ(FaultInjector::instance().fired(FaultKind::kHeavyHitterMiss), 0u);
}

TEST_F(FaultFixture, DrawPatternIsDeterministicInSeed) {
  auto pattern = [](std::uint64_t seed) {
    FaultInjector::instance().arm(FaultKind::kCgStagnation, 0.5, seed);
    std::vector<bool> fires;
    fires.reserve(200);
    for (int i = 0; i < 200; ++i)
      fires.push_back(FaultInjector::instance().should_fire(FaultKind::kCgStagnation));
    FaultInjector::instance().disarm(FaultKind::kCgStagnation);
    return fires;
  };
  const auto a = pattern(42);
  const auto b = pattern(42);
  const auto c = pattern(43);
  EXPECT_EQ(a, b) << "re-arming with the same seed must replay the pattern";
  EXPECT_NE(a, c) << "different seeds must give different patterns";
  std::size_t fired = 0;
  for (const bool f : a) fired += f ? 1 : 0;
  EXPECT_GT(fired, 50u);
  EXPECT_LT(fired, 150u);
}

// ---------- input validation -> kInvalidInput ----------

TEST(ValidationTest, SourceSinkProblems) {
  const Digraph g = seed_instance(1);
  EXPECT_EQ(mcf::min_cost_max_flow(g, 3, 3).status, SolveStatus::kInvalidInput);
  EXPECT_EQ(mcf::min_cost_max_flow(g, -1, 3).status, SolveStatus::kInvalidInput);
  EXPECT_EQ(mcf::min_cost_max_flow(g, 0, g.num_vertices()).status, SolveStatus::kInvalidInput);
}

TEST(ValidationTest, NegativeCapacity) {
  Digraph g(3);
  g.add_arc(0, 1, -5, 1);
  g.add_arc(1, 2, 3, 1);
  const auto res = mcf::min_cost_max_flow(g, 0, 2);
  EXPECT_EQ(res.status, SolveStatus::kInvalidInput);
  EXPECT_FALSE(res.failure_detail.empty());
  EXPECT_EQ(mcf::min_cost_b_flow(g, {0, 0, 0}).status, SolveStatus::kInvalidInput);
}

TEST(ValidationTest, BFlowDemandVectorProblems) {
  const Digraph g = seed_instance(2, 6, 18);
  // Wrong size.
  EXPECT_EQ(mcf::min_cost_b_flow(g, std::vector<std::int64_t>(3, 0)).status,
            SolveStatus::kInvalidInput);
  // Demands that do not sum to zero.
  std::vector<std::int64_t> b(6, 0);
  b[0] = -1;
  b[5] = 2;
  EXPECT_EQ(mcf::min_cost_b_flow(g, b).status, SolveStatus::kInvalidInput);
}

TEST(ValidationTest, CostMassOverflow) {
  // |cost| * cap blows past the safe range: the -K circulation arc and the
  // auxiliary costs could not be represented, so the solve must refuse.
  Digraph g(3);
  g.add_arc(0, 1, 1000, std::numeric_limits<std::int64_t>::max() / 16);
  g.add_arc(1, 2, 1000, 1);
  const auto res = mcf::min_cost_max_flow(g, 0, 2);
  EXPECT_EQ(res.status, SolveStatus::kInvalidInput);
  EXPECT_EQ(mcf::min_cost_b_flow(g, {0, 0, 0}).status, SolveStatus::kInvalidInput);
}

TEST(ValidationTest, BadIpmOptionsAreTypedInvalidInput) {
  const Digraph g = seed_instance(7);
  const Vertex t = g.num_vertices() - 1;
  mcf::SolveOptions opts = test_opts(mcf::Method::kReferenceIpm);
  opts.ipm.solve.tolerance = 0.0;
  EXPECT_EQ(mcf::min_cost_max_flow(g, 0, t, opts).status, SolveStatus::kInvalidInput);

  opts = test_opts(mcf::Method::kReferenceIpm);
  opts.ipm.max_iters = 0;
  EXPECT_EQ(mcf::min_cost_max_flow(g, 0, t, opts).status, SolveStatus::kInvalidInput);

  // The sketch solve is vetted like the Newton solve: a zero or NaN target
  // would grind every JL column to its iteration cap, and a zero budget
  // would fail the tier and hand the answer to SSP without a typed error.
  opts = test_opts(mcf::Method::kReferenceIpm);
  opts.ipm.leverage.solve.tolerance = 0.0;
  auto res = mcf::min_cost_max_flow(g, 0, t, opts);
  EXPECT_EQ(res.status, SolveStatus::kInvalidInput);
  EXPECT_NE(res.failure_detail.find("ipm.leverage.solve.tolerance"), std::string::npos)
      << res.failure_detail;

  opts = test_opts(mcf::Method::kReferenceIpm);
  opts.ipm.leverage.solve.tolerance = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(mcf::min_cost_max_flow(g, 0, t, opts).status, SolveStatus::kInvalidInput);

  opts = test_opts(mcf::Method::kReferenceIpm);
  opts.ipm.leverage.solve.max_iters = 0;
  res = mcf::min_cost_max_flow(g, 0, t, opts);
  EXPECT_EQ(res.status, SolveStatus::kInvalidInput);
  EXPECT_NE(res.failure_detail.find("ipm.leverage.solve.max_iters"), std::string::npos)
      << res.failure_detail;
}

TEST(ValidationTest, ZeroSketchDimIsTypedInvalidInput) {
  // 0 JL rows is a request for no sketch at all, not a "default width".
  const Digraph g = seed_instance(7);
  mcf::SolveOptions opts = test_opts(mcf::Method::kReferenceIpm);
  opts.ipm.leverage.sketch_dim = 0;
  const auto res = mcf::min_cost_max_flow(g, 0, g.num_vertices() - 1, opts);
  EXPECT_EQ(res.status, SolveStatus::kInvalidInput);
  EXPECT_NE(res.failure_detail.find("sketch_dim"), std::string::npos) << res.failure_detail;

  core::SolverContext ctx;
  const linalg::IncidenceOp a(g);
  const linalg::Vec ones(a.rows(), 1.0);
  par::Rng rng(1);
  EXPECT_THROW((void)linalg::leverage_scores(ctx, a, ones, rng, {.sketch_dim = 0, .solve = {}}),
               ComponentError);
  ds::LeverageMaintenanceOptions lmo;
  lmo.leverage.sketch_dim = 0;
  EXPECT_THROW((void)ds::LeverageMaintenance(ctx, a, ones, ones, lmo), ComponentError);
}

TEST(ValidationTest, BadResilientSolveOptionsThrowComponentError) {
  core::SolverContext ctx;
  const Digraph g = seed_instance(11);
  const linalg::IncidenceOp a(g);
  const linalg::Vec d(a.rows(), 1.0);
  const linalg::Csr lap = linalg::reduced_laplacian(g, d, a.dropped());
  const linalg::Vec rhs(a.cols(), 0.0);

  linalg::ResilientSolveOptions bad;
  bad.max_escalations = -1;
  EXPECT_THROW((void)linalg::solve_sdd_resilient(ctx, lap, rhs, bad), ComponentError);
  bad = {};
  bad.escalation_factor = 1.0;
  EXPECT_THROW((void)linalg::solve_sdd_resilient(ctx, lap, rhs, bad), ComponentError);
  EXPECT_EQ(linalg::validate(linalg::ResilientSolveOptions{}), "") << "defaults must validate";
}

TEST(ValidationTest, InfeasibleBFlowIsTyped) {
  Digraph g(2);
  g.add_arc(0, 1, 1, 1);  // capacity 1 cannot carry 5 units
  const std::vector<std::int64_t> b{-5, 5};
  for (const auto method :
       {mcf::Method::kCombinatorial, mcf::Method::kReferenceIpm, mcf::Method::kRobustIpm}) {
    const auto res = mcf::min_cost_b_flow(g, b, test_opts(method));
    EXPECT_EQ(res.status, SolveStatus::kInfeasible) << to_string(method);
    EXPECT_EQ(res.flow_value, 0) << "legacy infeasibility convention";
  }
}

// ---------- acceptance sweep: every fault kind at rate 1.0 ----------

struct FaultCase {
  FaultKind kind;
  mcf::Method method;
};

class FaultAcceptance : public ::testing::TestWithParam<FaultCase> {
 protected:
  void SetUp() override {
    FaultInjector::instance().disarm_all();
    FaultInjector::instance().reset_counters();
  }
  void TearDown() override { FaultInjector::instance().disarm_all(); }
};

TEST_P(FaultAcceptance, NeverCrashesNeverWrongCost) {
  const Digraph g = seed_instance(5);
  const Vertex s = 0;
  const Vertex t = g.num_vertices() - 1;
  const auto oracle = baselines::ssp_min_cost_max_flow(g, s, t);

  const ScopedFault fault(GetParam().kind, 1.0, 99);
  const auto res = mcf::min_cost_max_flow(g, s, t, test_opts(GetParam().method));
  // The armed fault fires (for kCgStagnation in the JL sketch's CG: the
  // 13-column Newton systems are solved exactly).
  EXPECT_GT(FaultInjector::instance().fired(GetParam().kind), 0u);
  if (res.status == SolveStatus::kOk) {
    EXPECT_EQ(res.flow_value, oracle.flow);
    EXPECT_EQ(res.cost, oracle.cost);
  } else {
    EXPECT_FALSE(is_instance_error(res.status))
        << "a solver fault must never be blamed on the instance";
    EXPECT_FALSE(res.failure_component.empty());
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, FaultAcceptance,
    ::testing::Values(FaultCase{FaultKind::kCgStagnation, mcf::Method::kReferenceIpm},
                      FaultCase{FaultKind::kCgStagnation, mcf::Method::kRobustIpm},
                      FaultCase{FaultKind::kSketchCorruption, mcf::Method::kReferenceIpm},
                      FaultCase{FaultKind::kSketchCorruption, mcf::Method::kRobustIpm},
                      FaultCase{FaultKind::kHeavyHitterMiss, mcf::Method::kRobustIpm},
                      FaultCase{FaultKind::kExpanderViolation, mcf::Method::kRobustIpm}),
    [](const ::testing::TestParamInfo<FaultCase>& param_info) {
      return std::string(par::to_string(param_info.param.kind)) + "_" +
             mcf::to_string(param_info.param.method);
    });

// ---------- recovery policies engage and are reported ----------

TEST_F(FaultFixture, CgStagnationRecoversViaDenseFallback) {
  // 49 columns: one past the exact Newton solve, so every Newton system
  // runs the CG ladder and stalls.
  const Digraph g = seed_instance(6, 48, 192);
  const auto oracle = baselines::ssp_min_cost_max_flow(g, 0, g.num_vertices() - 1);
  const ScopedFault fault(FaultKind::kCgStagnation, 1.0, 3);
  const auto res = mcf::min_cost_max_flow(g, 0, g.num_vertices() - 1,
                                          test_opts(mcf::Method::kReferenceIpm));
  ASSERT_EQ(res.status, SolveStatus::kOk);
  EXPECT_EQ(res.cost, oracle.cost);
  EXPECT_EQ(res.stats.answered_by, mcf::Method::kReferenceIpm)
      << "CG stagnation must be absorbed inside the tier, not by degradation";
  EXPECT_EQ(res.stats.tiers_attempted, 1);
  EXPECT_GE(res.stats.dense_fallbacks, 1u);
  EXPECT_GT(res.stats.injected_faults, 0u);
}

TEST_F(FaultFixture, HeavyHitterMissSolvesRobustStepsOnTheDenseEdgeSet) {
  const Digraph g = seed_instance(10);
  const auto oracle = baselines::ssp_min_cost_max_flow(g, 0, g.num_vertices() - 1);
  const ScopedFault fault(FaultKind::kHeavyHitterMiss, 1.0, 12);
  const auto res =
      mcf::min_cost_max_flow(g, 0, g.num_vertices() - 1, test_opts(mcf::Method::kRobustIpm));
  ASSERT_EQ(res.status, SolveStatus::kOk);
  EXPECT_EQ(res.cost, oracle.cost);
  EXPECT_EQ(res.stats.answered_by, mcf::Method::kRobustIpm)
      << "an empty sparsifier sample must be absorbed inside the tier";
  // Every draw comes back empty, so each robust step redraws twice and then
  // solves on the dense edge set.
  ASSERT_GT(res.stats.robust_steps, 0);
  EXPECT_EQ(res.stats.robust_step_dense_fallbacks, res.stats.robust_steps);
  EXPECT_GE(res.stats.sketch_retries, 2u * static_cast<std::uint64_t>(res.stats.robust_steps));
  EXPECT_GE(res.stats.dense_fallbacks,
            static_cast<std::uint64_t>(res.stats.robust_step_dense_fallbacks));
}

TEST_F(FaultFixture, RecenteringFallbacksAreNotRobustStepFallbacks) {
  // 49 columns, so the re-centering Newton systems run the CG ladder.
  const Digraph g = seed_instance(6, 48, 192);
  const auto oracle = baselines::ssp_min_cost_max_flow(g, 0, g.num_vertices() - 1);
  const ScopedFault fault(FaultKind::kCgStagnation, 1.0, 3);
  const auto res =
      mcf::min_cost_max_flow(g, 0, g.num_vertices() - 1, test_opts(mcf::Method::kRobustIpm));
  ASSERT_EQ(res.status, SolveStatus::kOk);
  EXPECT_EQ(res.cost, oracle.cost);
  ASSERT_EQ(res.stats.answered_by, mcf::Method::kRobustIpm);
  ASSERT_EQ(res.stats.tiers_attempted, 1);
  // Stalled CG sends the re-centring Newton solves to dense elimination;
  // the robust steps' sparsifier samples are untouched.
  EXPECT_GE(res.stats.dense_fallbacks, 1u);
  EXPECT_EQ(res.stats.robust_step_dense_fallbacks, 0);
}

TEST_F(FaultFixture, SketchCorruptionRecoversViaRetryAndExactFallback) {
  const Digraph g = seed_instance(7);
  const auto oracle = baselines::ssp_min_cost_max_flow(g, 0, g.num_vertices() - 1);
  const ScopedFault fault(FaultKind::kSketchCorruption, 1.0, 4);
  const auto res = mcf::min_cost_max_flow(g, 0, g.num_vertices() - 1,
                                          test_opts(mcf::Method::kReferenceIpm));
  ASSERT_EQ(res.status, SolveStatus::kOk);
  EXPECT_EQ(res.cost, oracle.cost);
  EXPECT_GE(res.stats.sketch_retries, 1u);
}

TEST_F(FaultFixture, ExpanderViolationDegradesToReferenceTier) {
  const Digraph g = seed_instance(8);
  const auto oracle = baselines::ssp_min_cost_max_flow(g, 0, g.num_vertices() - 1);
  const ScopedFault fault(FaultKind::kExpanderViolation, 1.0, 5);
  const auto res =
      mcf::min_cost_max_flow(g, 0, g.num_vertices() - 1, test_opts(mcf::Method::kRobustIpm));
  ASSERT_EQ(res.status, SolveStatus::kOk);
  EXPECT_EQ(res.cost, oracle.cost);
  EXPECT_EQ(res.stats.answered_by, mcf::Method::kReferenceIpm);
  EXPECT_GE(res.stats.tiers_attempted, 2);
  EXPECT_GE(res.stats.structure_rebuilds, 1u)
      << "reseeded rebuilds must be tried before degrading";
}

TEST_F(FaultFixture, DegradationDisabledReturnsTypedFailure) {
  const Digraph g = seed_instance(9);
  const ScopedFault fault(FaultKind::kExpanderViolation, 1.0, 6);
  auto opts = test_opts(mcf::Method::kRobustIpm);
  opts.allow_degradation = false;
  const auto res = mcf::min_cost_max_flow(g, 0, g.num_vertices() - 1, opts);
  EXPECT_EQ(res.status, SolveStatus::kSketchFailure);
  EXPECT_EQ(res.stats.answered_by, mcf::Method::kRobustIpm);
  EXPECT_EQ(res.stats.tiers_attempted, 1);
  // The tier reports itself as the failing component; the originating
  // structure is preserved in the detail string.
  EXPECT_EQ(res.failure_component, "ipm::robust_ipm");
  EXPECT_NE(res.failure_detail.find("expander"), std::string::npos)
      << "failure detail was: " << res.failure_detail;
}

TEST_F(FaultFixture, CleanSolveReportsNoInjectedFaults) {
  const Digraph g = seed_instance(10);
  const auto res = mcf::min_cost_max_flow(g, 0, g.num_vertices() - 1,
                                          test_opts(mcf::Method::kReferenceIpm));
  EXPECT_EQ(res.status, SolveStatus::kOk);
  EXPECT_EQ(res.stats.injected_faults, 0u);
  EXPECT_EQ(res.stats.tiers_attempted, 1);
  EXPECT_TRUE(res.failure_component.empty());
  EXPECT_TRUE(res.failure_detail.empty());
}

// ---------- status / event taxonomy stays exhaustive ----------

TEST(ResilienceTaxonomyTest, EverySolveStatusHasAStableName) {
  constexpr SolveStatus kAll[] = {
      SolveStatus::kOk,               SolveStatus::kInfeasible,
      SolveStatus::kUnbounded,        SolveStatus::kInvalidInput,
      SolveStatus::kNumericalFailure, SolveStatus::kIterationLimit,
      SolveStatus::kSketchFailure,    SolveStatus::kInternalError,
      SolveStatus::kDeadlineExceeded, SolveStatus::kCanceled,
      SolveStatus::kLoadShed,
  };
  for (const SolveStatus s : kAll) EXPECT_STRNE(to_string(s), "Unknown");
  EXPECT_STREQ(to_string(SolveStatus::kDeadlineExceeded), "DeadlineExceeded");
  EXPECT_STREQ(to_string(SolveStatus::kCanceled), "Canceled");
  EXPECT_STREQ(to_string(SolveStatus::kLoadShed), "LoadShed");
}

TEST(ResilienceTaxonomyTest, StatusPredicateClassesAreDisjoint) {
  constexpr SolveStatus kAll[] = {
      SolveStatus::kOk,               SolveStatus::kInfeasible,
      SolveStatus::kUnbounded,        SolveStatus::kInvalidInput,
      SolveStatus::kNumericalFailure, SolveStatus::kIterationLimit,
      SolveStatus::kSketchFailure,    SolveStatus::kInternalError,
      SolveStatus::kDeadlineExceeded, SolveStatus::kCanceled,
      SolveStatus::kLoadShed,
  };
  for (const SolveStatus s : kAll) {
    // Ok / instance / lifecycle are mutually exclusive classes: the cascade's
    // stop conditions would double-count a status in two classes.
    EXPECT_LE(int{is_ok(s)} + int{is_instance_error(s)} + int{is_lifecycle_error(s)}, 1)
        << to_string(s);
  }
  EXPECT_TRUE(is_lifecycle_error(SolveStatus::kDeadlineExceeded));
  EXPECT_TRUE(is_lifecycle_error(SolveStatus::kCanceled));
  EXPECT_TRUE(is_lifecycle_error(SolveStatus::kLoadShed));
  EXPECT_FALSE(is_instance_error(SolveStatus::kDeadlineExceeded));
  EXPECT_FALSE(is_instance_error(SolveStatus::kCanceled));
  EXPECT_FALSE(is_instance_error(SolveStatus::kLoadShed));
}

TEST(ResilienceTaxonomyTest, EveryRecoveryEventHasAStableName) {
  for (std::int8_t e = 0; e < static_cast<std::int8_t>(RecoveryEvent::kNumRecoveryEvents); ++e)
    EXPECT_STRNE(to_string(static_cast<RecoveryEvent>(e)), "Unknown") << int{e};
  EXPECT_STREQ(to_string(RecoveryEvent::kCertificationFailure), "CertificationFailure");
}

TEST(ResilienceTaxonomyTest, EveryFaultKindHasAStableName) {
  for (std::int8_t k = 0; k < static_cast<std::int8_t>(FaultKind::kNumFaultKinds); ++k)
    EXPECT_STRNE(par::to_string(static_cast<FaultKind>(k)), "Unknown") << int{k};
  EXPECT_STREQ(par::to_string(FaultKind::kCancelRequest), "CancelRequest");
}

// ---------- thread-pool task faults ----------

TEST_F(FaultFixture, TaskExceptionPropagatesOutOfPool) {
  par::Tracker::instance().set_enabled(false);
  const ScopedFault fault(FaultKind::kTaskException, 1.0, 12);
  par::ThreadPool pool(4);
  EXPECT_THROW(pool.for_each_chunk(0, 64, [](std::size_t) {}), std::runtime_error);
  EXPECT_GT(FaultInjector::instance().fired(FaultKind::kTaskException), 0u);
  par::Tracker::instance().set_enabled(true);
}

}  // namespace
}  // namespace pmcf
