// Cross-component property tests: randomized sweeps asserting the
// system-level invariants that tie the reproduction together — exactness
// against oracles on multiple instance families, rounding robustness from
// arbitrary fractional inputs, spectral identities of the linear algebra,
// and work/depth scaling regressions.

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "baselines/dinic.hpp"
#include "core/solver_context.hpp"
#include "baselines/ssp.hpp"
#include "ds/flat_norm.hpp"
#include "graph/bfs.hpp"
#include "graph/generators.hpp"
#include "ipm/rounding.hpp"
#include "linalg/dense.hpp"
#include "linalg/laplacian.hpp"
#include "linalg/leverage.hpp"
#include "linalg/lewis.hpp"
#include "linalg/sdd_solver.hpp"
#include "mcf/max_flow.hpp"
#include "mcf/min_cost_flow.hpp"
#include "parallel/fault_injection.hpp"
#include "parallel/rng.hpp"

namespace pmcf {
namespace {

using graph::Digraph;
using graph::Vertex;
using linalg::Vec;

// ---------- rounding robustness: any fractional input -> exact optimum ----

class RoundingFuzz : public ::testing::TestWithParam<int> {};

TEST_P(RoundingFuzz, ArbitraryFractionalInputYieldsOptimalCirculation) {
  par::Rng rng(2000 + GetParam());
  const Vertex n = 10;
  Digraph g = graph::random_flow_network(n, 40, 6, 6, rng);
  // Close it into a circulation problem with a rewarding return arc.
  std::int64_t cost_mass = 1;
  for (const auto& a : g.arcs()) cost_mass += std::abs(a.cost) * a.cap;
  g.add_arc(n - 1, 0, 30, -cost_mass);

  // Garbage fractional input: the repair must still produce the optimum.
  Vec x(static_cast<std::size_t>(g.num_arcs()));
  for (std::size_t e = 0; e < x.size(); ++e)
    x[e] = rng.next_double() * static_cast<double>(g.arc(static_cast<graph::EdgeId>(e)).cap);
  std::vector<std::int64_t> b(static_cast<std::size_t>(n), 0);
  const auto repaired = ipm::round_and_repair(pmcf::core::default_context(), g, b, x);
  EXPECT_TRUE(repaired.feasible);

  // Oracle optimum of the same circulation: min-cost max-flow value via SSP
  // on the instance without the return arc.
  Digraph orig(n);
  for (graph::EdgeId e = 0; e + 1 < g.num_arcs(); ++e) {
    const auto& a = g.arc(e);
    orig.add_arc(a.from, a.to, a.cap, a.cost);
  }
  const auto oracle = baselines::ssp_min_cost_max_flow(orig, 0, n - 1, 30);
  const std::int64_t oracle_circ_cost = oracle.cost - cost_mass * oracle.flow;
  EXPECT_EQ(repaired.cost, oracle_circ_cost) << "repair must reach the optimal circulation";
}

INSTANTIATE_TEST_SUITE_P(Fuzz, RoundingFuzz, ::testing::Range(0, 10));

// ---------- b-flow exactness across demand patterns ----------

class BFlowSweep : public ::testing::TestWithParam<int> {};

TEST_P(BFlowSweep, MultiSourceMultiSinkMatchesOracle) {
  par::Rng rng(2100 + GetParam());
  const Vertex n = 14;
  const Digraph g = graph::random_flow_network(n, 70, 6, 6, rng);
  // Random balanced demands on 4 vertices, small enough to stay feasible.
  std::vector<std::int64_t> b(static_cast<std::size_t>(n), 0);
  b[0] = -2;
  b[1] = -1;
  b[static_cast<std::size_t>(n - 2)] = 1;
  b[static_cast<std::size_t>(n - 1)] = 2;
  const auto comb = mcf::min_cost_b_flow(g, b, {.method = mcf::Method::kCombinatorial});
  if (comb.flow_value == 0) return;  // infeasible instance; nothing to check
  mcf::SolveOptions opts;
  opts.ipm.mu_end = 1e-3;
  opts.ipm.leverage.sketch_dim = 8;
  const auto ours = mcf::min_cost_b_flow(g, b, opts);
  EXPECT_EQ(ours.flow_value, comb.flow_value);
  EXPECT_EQ(ours.cost, comb.cost);
}

INSTANTIATE_TEST_SUITE_P(Sweep, BFlowSweep, ::testing::Range(0, 8));

// ---------- max-flow min-cut duality on diverse families ----------

class MaxFlowFamilies : public ::testing::TestWithParam<int> {};

TEST_P(MaxFlowFamilies, LayeredGraphsMatchDinic) {
  par::Rng rng(2200 + GetParam());
  Digraph g = graph::layered_digraph(4, 5, 0.4, rng);
  // Give the layered graph capacities > 1 to exercise non-unit flows.
  Digraph gc(g.num_vertices());
  for (const auto& a : g.arcs()) gc.add_arc(a.from, a.to, 1 + rng.uniform_int(0, 4), 0);
  const Vertex s = 0;
  const Vertex t = g.num_vertices() - 1;
  const auto oracle = baselines::dinic_max_flow(gc, s, t);
  mcf::SolveOptions opts;
  opts.ipm.mu_end = 1e-3;
  opts.ipm.leverage.sketch_dim = 8;
  const auto ours = mcf::max_flow(gc, s, t, opts);
  EXPECT_EQ(ours.flow_value, oracle.flow);
}

INSTANTIATE_TEST_SUITE_P(Sweep, MaxFlowFamilies, ::testing::Range(0, 6));

// ---------- resilience: random faults never corrupt an Ok answer ----------

class FaultedSolveSweep : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override { par::FaultInjector::instance().disarm_all(); }
  void TearDown() override { par::FaultInjector::instance().disarm_all(); }
};

TEST_P(FaultedSolveSweep, PartialFaultRatesStillMatchOracleWhenOk) {
  const int p = GetParam();
  par::Rng rng(3100 + p);
  const Digraph g = graph::random_flow_network(12, 50, 6, 6, rng);
  const Vertex s = 0;
  const Vertex t = g.num_vertices() - 1;
  const auto oracle = baselines::ssp_min_cost_max_flow(g, s, t);

  // All solver-level faults armed at once, each firing ~30% of the time:
  // the recovery policies and the cascade must either absorb every failure
  // (and then the answer is exact) or surface a typed solver status.
  const par::ScopedFault f1(par::FaultKind::kCgStagnation, 0.3, 11 + p);
  const par::ScopedFault f2(par::FaultKind::kSketchCorruption, 0.3, 22 + p);
  const par::ScopedFault f3(par::FaultKind::kHeavyHitterMiss, 0.3, 33 + p);
  const par::ScopedFault f4(par::FaultKind::kExpanderViolation, 0.3, 44 + p);

  mcf::SolveOptions opts;
  opts.method = (p % 2 == 0) ? mcf::Method::kReferenceIpm : mcf::Method::kRobustIpm;
  opts.ipm.mu_end = 1e-3;
  opts.ipm.leverage.sketch_dim = 8;
  opts.ipm.max_iters = 2000;
  const auto ours = mcf::min_cost_max_flow(g, s, t, opts);
  EXPECT_GT(ours.stats.injected_faults, 0u);
  if (ours.status == SolveStatus::kOk) {
    EXPECT_EQ(ours.flow_value, oracle.flow);
    EXPECT_EQ(ours.cost, oracle.cost);
  } else {
    EXPECT_FALSE(is_instance_error(ours.status));
    EXPECT_FALSE(ours.failure_component.empty());
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, FaultedSolveSweep, ::testing::Range(0, 6));

// ---------- spectral identities ----------

class SpectralSweep : public ::testing::TestWithParam<int> {};

TEST_P(SpectralSweep, LeverageScoresSumToRank) {
  par::Rng rng(2300 + GetParam());
  const Digraph g = graph::random_flow_network(10, 36, 4, 4, rng);
  const linalg::IncidenceOp a(g);
  Vec v(a.rows());
  for (auto& x : v) x = 0.1 + 2.0 * rng.next_double();
  const Vec sigma = linalg::leverage_scores_exact(a, v);
  EXPECT_NEAR(linalg::sum(sigma), static_cast<double>(a.cols() - 1), 1e-6);
}

TEST_P(SpectralSweep, LewisWeightSumApproximatelyTwoN) {
  // Στ = Σσ + m·(n/m) ≈ (n-1) + n at the regularized fixed point.
  par::Rng rng(2400 + GetParam());
  const Digraph g = graph::random_flow_network(10, 40, 4, 4, rng);
  const linalg::IncidenceOp a(g);
  Vec v(a.rows(), 1.0);
  par::Rng r2(2500 + GetParam());
  const Vec tau = linalg::ipm_lewis_weights(pmcf::core::default_context(), a, v, r2);
  const double n = static_cast<double>(a.cols());
  EXPECT_NEAR(linalg::sum(tau), 2.0 * n - 1.0, 0.15 * n);
}

TEST_P(SpectralSweep, SddSolverMatchesDenseSolve) {
  par::Rng rng(2600 + GetParam());
  const Digraph g = graph::random_flow_network(12, 44, 4, 4, rng);
  const linalg::IncidenceOp a(g);
  Vec d(a.rows());
  for (auto& x : d) x = 0.1 + rng.next_double();
  const linalg::Csr lap = linalg::reduced_laplacian(g, d, a.dropped());
  // Dense mirror.
  linalg::Dense dense(lap.dim(), lap.dim());
  for (std::size_t r = 0; r < lap.dim(); ++r)
    for (std::int64_t k = lap.offsets()[r]; k < lap.offsets()[r + 1]; ++k)
      dense.at(r, static_cast<std::size_t>(lap.cols()[static_cast<std::size_t>(k)])) +=
          lap.vals()[static_cast<std::size_t>(k)];
  Vec bvec(lap.dim());
  for (auto& x : bvec) x = rng.next_double() - 0.5;
  bvec[static_cast<std::size_t>(a.dropped())] = 0.0;
  const auto iter = linalg::solve_sdd(pmcf::core::default_context(), lap, bvec, {.tolerance = 1e-12, .max_iters = 5000});
  const Vec direct = dense.solve(bvec);
  ASSERT_TRUE(iter.converged);
  for (std::size_t i = 0; i < bvec.size(); ++i) EXPECT_NEAR(iter.x[i], direct[i], 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Sweep, SpectralSweep, ::testing::Range(0, 6));

// ---------- flat-norm optimality against grid search ----------

TEST(FlatNormGridTest, MatchesExhaustiveGridIn2D) {
  // 2-D: compare against a dense grid over the feasible set.
  par::Rng rng(2700);
  for (int trial = 0; trial < 20; ++trial) {
    Vec v{2.0 * rng.next_double() - 1.0, 2.0 * rng.next_double() - 1.0};
    Vec tau{0.2 + rng.next_double(), 0.2 + rng.next_double()};
    const double c = 0.5 + 2.0 * rng.next_double();
    const auto res = ds::flat_norm_argmax(v, tau, c);
    double best = 0.0;
    const int grid = 400;
    for (int i = -grid; i <= grid; ++i) {
      for (int j = -grid; j <= grid; ++j) {
        Vec w{static_cast<double>(i) / grid, static_cast<double>(j) / grid};
        const double nrm = linalg::norm_inf(w) + c * linalg::norm_tau(w, tau);
        if (nrm > 1.0 || nrm == 0.0) continue;
        best = std::max(best, linalg::dot(v, w));
      }
    }
    EXPECT_GE(res.value, best - 0.02 * std::abs(best) - 1e-9) << "trial " << trial;
  }
}

// ---------- work/depth scaling regressions ----------

TEST(WorkDepthRegression, ReferenceIpmWorkPerIterationScalesWithM) {
  auto work_per_iter = [](Vertex n, std::int64_t density) {
    par::Rng rng(2800);
    const Digraph g = graph::random_flow_network(n, density * n, 4, 4, rng);
    par::Tracker::instance().reset();
    mcf::SolveOptions opts;
    opts.ipm.mu_end = 1e-2;
    opts.ipm.leverage.sketch_dim = 8;
    const auto res = mcf::min_cost_max_flow(g, 0, n - 1, opts);
    return static_cast<double>(par::snapshot().work) /
           std::max(res.stats.ipm_iterations, 1);
  };
  const double sparse = work_per_iter(16, 4);
  const double dense = work_per_iter(16, 16);
  // 4x the arcs => noticeably more work per iteration (Θ(m) regime), but
  // far from constant.
  EXPECT_GT(dense, 1.5 * sparse);
}

TEST(WorkDepthRegression, BfsDepthTracksDiameterLinearly) {
  par::Rng rng(2900);
  auto depth_for = [&](Vertex layers) {
    auto g = graph::layered_digraph(layers, 3, 0.4, rng);
    g.build_csr();
    par::Tracker::instance().reset();
    par::CostScope scope;
    (void)graph::parallel_bfs(g, 0);
    return scope.elapsed().depth;
  };
  const auto d1 = depth_for(50);
  const auto d2 = depth_for(200);
  EXPECT_GT(d2, 3 * d1);  // ~4x layers => ~4x depth
  EXPECT_LT(d2, 8 * d1);
}

TEST(WorkDepthRegression, SortChargesNLogN) {
  par::Tracker::instance().reset();
  std::vector<int> v(1 << 12);
  std::iota(v.begin(), v.end(), 0);
  par::CostScope scope;
  par::parallel_sort(v.begin(), v.end());
  const auto c = scope.elapsed();
  EXPECT_GE(c.work, v.size() * 12);       // n log n
  EXPECT_LE(c.depth, 12 * 12 + 2);        // log^2 n
}

}  // namespace
}  // namespace pmcf
