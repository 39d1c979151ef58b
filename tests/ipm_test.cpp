// Tests for the IPM pipeline: barrier, reference path following, rounding
// repair and the public min-cost flow API (Theorem 1.2), cross-checked
// against the SSP oracle on random instance sweeps.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "baselines/ssp.hpp"
#include "core/solver_context.hpp"
#include "graph/generators.hpp"
#include "ipm/barrier.hpp"
#include "ipm/reference_ipm.hpp"
#include "ipm/rounding.hpp"
#include "linalg/incidence.hpp"
#include "mcf/min_cost_flow.hpp"
#include "parallel/fault_injection.hpp"
#include "parallel/rng.hpp"

namespace pmcf {
namespace {

using graph::Digraph;
using graph::Vertex;
using linalg::Vec;

TEST(BarrierTest, DerivativesAtMidpointAndSkew) {
  const Vec x{2.0, 1.0};
  const Vec u{4.0, 4.0};
  const Vec g = ipm::barrier_grad(x, u);
  const Vec h = ipm::barrier_hess(x, u);
  EXPECT_DOUBLE_EQ(g[0], 0.0);               // midpoint: -1/2 + 1/2
  EXPECT_DOUBLE_EQ(g[1], -1.0 + 1.0 / 3.0);  // -1/1 + 1/3
  EXPECT_DOUBLE_EQ(h[0], 0.25 + 0.25);
  EXPECT_DOUBLE_EQ(h[1], 1.0 + 1.0 / 9.0);
  EXPECT_TRUE(ipm::is_interior(x, u));
  EXPECT_FALSE(ipm::is_interior({0.0, 1.0}, u));
  EXPECT_FALSE(ipm::is_interior({2.0, 4.0}, u));
}

TEST(RoundingTest, ExactInputPassesThrough) {
  // A feasible integral circulation must survive rounding untouched when
  // no negative cycle exists.
  Digraph g(3);
  g.add_arc(0, 1, 4, 1);
  g.add_arc(1, 2, 4, 1);
  g.add_arc(2, 0, 4, 1);
  const Vec x{0.0, 0.0, 0.0};
  const auto r = ipm::round_and_repair(pmcf::core::default_context(), g, {0, 0, 0}, x);
  EXPECT_TRUE(r.feasible);
  EXPECT_EQ(r.cost, 0);
  EXPECT_EQ(r.cycles_canceled, 0);
}

TEST(RoundingTest, NegativeCycleGetsCanceled) {
  // Circulation with total negative cost must be saturated by the repair.
  Digraph g(3);
  g.add_arc(0, 1, 4, -2);
  g.add_arc(1, 2, 4, -2);
  g.add_arc(2, 0, 4, 1);
  const Vec x{0.0, 0.0, 0.0};
  const auto r = ipm::round_and_repair(pmcf::core::default_context(), g, {0, 0, 0}, x);
  EXPECT_TRUE(r.feasible);
  EXPECT_EQ(r.flow, (std::vector<std::int64_t>{4, 4, 4}));
  EXPECT_EQ(r.cost, -12);
  EXPECT_GE(r.cycles_canceled, 1);
}

TEST(RoundingTest, ImbalanceIsRepaired) {
  // Fractional x that rounds to an infeasible circulation: the repair must
  // restore A^T x = b.
  Digraph g(3);
  g.add_arc(0, 1, 4, 1);
  g.add_arc(1, 2, 4, 1);
  g.add_arc(2, 0, 4, 1);
  const Vec x{2.4, 1.6, 2.0};  // rounds to {2, 2, 2}: feasible by luck; use skew
  const Vec x2{2.6, 1.4, 2.0};  // rounds to {3, 1, 2}: imbalanced
  const auto r = ipm::round_and_repair(pmcf::core::default_context(), g, {0, 0, 0}, x2);
  EXPECT_TRUE(r.feasible);
  std::vector<std::int64_t> net(3, 0);
  for (std::size_t k = 0; k < 3; ++k) {
    const auto& arc = g.arc(static_cast<graph::EdgeId>(k));
    net[static_cast<std::size_t>(arc.to)] += r.flow[k];
    net[static_cast<std::size_t>(arc.from)] -= r.flow[k];
  }
  EXPECT_EQ(net, (std::vector<std::int64_t>{0, 0, 0}));
  (void)x;
}

ipm::IpmOptions fast_ipm_options() {
  ipm::IpmOptions o;
  o.mu_end = 1e-3;
  o.max_iters = 4000;
  o.leverage.sketch_dim = 12;
  o.leverage.solve.tolerance = 1e-8;
  o.solve.tolerance = 1e-10;
  return o;
}

TEST(ReferenceIpmTest, StaysFeasibleAndCentered) {
  par::Rng rng(81);
  const Digraph g = graph::random_flow_network(16, 60, 8, 8, rng);
  mcf::SolveOptions opts;
  opts.ipm = fast_ipm_options();
  const auto res = mcf::min_cost_max_flow(g, 0, 15, opts);
  EXPECT_LT(res.stats.final_centrality, 1.0);
  EXPECT_GT(res.stats.ipm_iterations, 10);
}

/// The late-path instances the exact leverage oracle must carry to a
/// certified optimum: random_flow_network(n, m, cap, cost) from Rng 42 and 7.
struct OracleCase {
  Vertex n;
  std::int64_t m;
  std::int64_t max_cap;
  std::int64_t max_cost;
};
constexpr OracleCase kOracleCases[] = {{12, 96, 6, 6},   {16, 128, 6, 6},     {20, 160, 6, 6},
                                       {16, 128, 100, 100}, {20, 200, 100, 100}};

/// Solves every oracle case on the reference tier alone and requires a
/// certified kOk from it; `corrupt` arms kSketchCorruption at rate 1.0 on
/// each solve's context and returns the exact-oracle fallbacks it took.
std::uint64_t solve_oracle_cases(const mcf::SolveOptions& opts, bool corrupt) {
  std::uint64_t fallbacks = 0;
  for (const OracleCase& c : kOracleCases) {
    for (const std::uint64_t seed : {42, 7}) {
      SCOPED_TRACE(testing::Message() << "n=" << c.n << " m=" << c.m << " cost=" << c.max_cost
                                      << " seed=" << seed);
      par::Rng rng(seed);
      const Digraph g = graph::random_flow_network(c.n, c.m, c.max_cap, c.max_cost, rng);
      core::SolverContext ctx;
      if (corrupt) ctx.fault().arm(par::FaultKind::kSketchCorruption, 1.0, seed);
      const auto res = mcf::min_cost_max_flow(ctx, g, 0, c.n - 1, opts);
      const auto oracle = baselines::ssp_min_cost_max_flow(g, 0, c.n - 1);
      EXPECT_EQ(res.status, SolveStatus::kOk) << res.failure_detail;
      EXPECT_TRUE(res.stats.certified);
      EXPECT_EQ(res.stats.answered_by, mcf::Method::kReferenceIpm);
      EXPECT_EQ(res.cost, oracle.cost);
      EXPECT_EQ(res.flow_value, oracle.flow);
      fallbacks += ctx.recovery().of(RecoveryEvent::kExactLeverageFallback);
    }
  }
  return fallbacks;
}

TEST(ReferenceIpmTest, ExactLeverageCarriesTheLatePath) {
  // Default options: these graphs are no wider than the 48-row sketch, so
  // every τ refresh to the end of the path runs the exact oracle.
  mcf::SolveOptions opts;
  opts.allow_degradation = false;
  EXPECT_EQ(solve_oracle_cases(opts, false), 0u);
}

TEST(ReferenceIpmTest, ExactFallbackCertifiesUnderSketchCorruption) {
  // An 8-row sketch is narrower than every graph here; corrupting every
  // draw sends every τ refresh to the exact fallback.
  mcf::SolveOptions opts;
  opts.allow_degradation = false;
  opts.ipm.leverage.sketch_dim = 8;
  EXPECT_GT(solve_oracle_cases(opts, true), 0u);
}

/// A b-flow LP with even capacities and b = A^T (u/2), so u/2 is a feasible
/// interior point; its optimum comes from the SSP oracle.
struct GapLp {
  Digraph graph;
  ipm::IpmLp lp;
  Vec x_mid;   ///< u/2
  Vec x_opt;   ///< an optimal integral flow
  double opt = 0.0;
};

GapLp make_gap_lp(std::uint64_t seed, std::int64_t max_cost) {
  par::Rng rng(seed);
  const Vertex n = 8;
  const Digraph base = graph::random_flow_network(n, 24, 4, max_cost, rng);
  GapLp out;
  out.graph = Digraph(n);
  std::vector<std::int64_t> supply(static_cast<std::size_t>(n), 0);
  for (const auto& a : base.arcs()) {
    out.graph.add_arc(a.from, a.to, 2 * a.cap, a.cost);
    supply[static_cast<std::size_t>(a.from)] += a.cap;  // supply = -b
    supply[static_cast<std::size_t>(a.to)] -= a.cap;
  }
  out.lp.graph = &out.graph;
  out.lp.dropped = n - 1;
  out.lp.b.assign(static_cast<std::size_t>(n), 0.0);
  for (std::size_t v = 0; v + 1 < supply.size(); ++v)
    out.lp.b[v] = -static_cast<double>(supply[v]);
  for (const auto& a : out.graph.arcs()) {
    out.lp.cost.push_back(static_cast<double>(a.cost));
    out.lp.cap.push_back(static_cast<double>(a.cap));
    out.x_mid.push_back(static_cast<double>(a.cap) / 2.0);
  }
  const auto ssp = baselines::ssp_min_cost_b_flow(out.graph, supply);
  out.x_opt.assign(ssp.arc_flow.begin(), ssp.arc_flow.end());
  out.opt = static_cast<double>(ssp.cost);
  return out;
}

/// duality_gap(x, y) with s = c - Ay and r_p = b - A^T x as eval_center
/// forms them (dropped row of r_p zeroed).
double gap_at(const GapLp& g, const Vec& x, const Vec& y) {
  const linalg::IncidenceOp a(g.graph, g.lp.dropped);
  const Vec s = linalg::sub(g.lp.cost, a.apply(y));
  Vec rp = linalg::sub(g.lp.b, a.apply_transpose(x));
  a.mask_dropped(rp);
  return ipm::duality_gap(g.lp, x, y, s, rp);
}

/// The Lagrangian bound L(y) = b^T y + Σ_e u_e·min(0, s_e), written out.
double lagrangian_bound(const GapLp& g, const Vec& y) {
  const linalg::IncidenceOp a(g.graph, g.lp.dropped);
  const Vec s = linalg::sub(g.lp.cost, a.apply(y));
  double bound = linalg::dot(g.lp.b, y);
  for (std::size_t e = 0; e < s.size(); ++e) bound += g.lp.cap[e] * std::min(0.0, s[e]);
  return bound;
}

double cost_of(const GapLp& g, const Vec& x) { return linalg::dot(g.lp.cost, x); }

TEST(DualityGapTest, LagrangianBoundIsWeakAndTheGapBoundsTheCostExcess) {
  for (const std::uint64_t seed : {301u, 302u, 303u, 304u}) {
    for (const std::int64_t max_cost : {6, 1}) {  // 1: costs in {0, 1}, many ties
      SCOPED_TRACE(::testing::Message() << "seed " << seed << " max_cost " << max_cost);
      const GapLp g = make_gap_lp(seed, max_cost);
      const std::size_t n = g.lp.b.size();
      const std::size_t m = g.lp.cap.size();
      par::Rng rng(seed + 7);
      for (int trial = 0; trial < 20; ++trial) {
        Vec y(n), x(m);
        for (double& v : y) v = 20.0 * rng.next_double() - 10.0;
        y[n - 1] = 0.0;
        for (std::size_t e = 0; e < m; ++e) x[e] = g.lp.cap[e] * rng.next_double();
        const double bound = lagrangian_bound(g, y);
        const double tol = 1e-9 * (1.0 + std::abs(bound));
        // Weak duality: every y bounds the optimum from below.
        EXPECT_LE(bound, g.opt + tol);
        // The per-arc form equals c^T x - L(y) at any x in the box, feasible
        // or not, so it is never below the cost excess over the optimum.
        for (const Vec* pt : std::vector<const Vec*>{&x, &g.x_mid, &g.x_opt}) {
          const double gap = gap_at(g, *pt, y);
          EXPECT_NEAR(gap, cost_of(g, *pt) - bound, tol);
          EXPECT_GE(gap, cost_of(g, *pt) - g.opt - tol);
        }
      }
    }
  }
}

TEST(DualityGapTest, GapFallsBelowOneOnlyNearTheOptimum) {
  int far_points = 0;
  for (const std::uint64_t seed : {311u, 312u, 313u, 314u}) {
    for (const std::int64_t max_cost : {6, 1}) {
      SCOPED_TRACE(::testing::Message() << "seed " << seed << " max_cost " << max_cost);
      const GapLp g = make_gap_lp(seed, max_cost);
      // Feasible points between the optimum and u/2: while their cost excess
      // is at least 1, no dual vector closes the gap below 1.
      par::Rng rng(seed + 11);
      for (const double theta : {1.0, 0.5, 0.25, 0.125}) {
        Vec x(g.x_opt.size());
        for (std::size_t e = 0; e < x.size(); ++e)
          x[e] = (1.0 - theta) * g.x_opt[e] + theta * g.x_mid[e];
        if (cost_of(g, x) - g.opt < 1.0) continue;
        ++far_points;
        for (int trial = 0; trial < 10; ++trial) {
          Vec y(g.lp.b.size());
          for (double& v : y) v = 20.0 * rng.next_double() - 10.0;
          y.back() = 0.0;
          EXPECT_GE(gap_at(g, x, y), 1.0) << "theta " << theta;
        }
      }
      // The reference IPM stops on the path once its own gap is below 1,
      // well above mu_end, and that point is within 1 of the optimum.
      ipm::IpmOptions opts = fast_ipm_options();
      opts.mu_end = 1e-6;
      const ipm::IpmResult r = ipm::reference_ipm(pmcf::core::default_context(), g.lp, g.x_mid,
                                                  Vec(g.lp.b.size(), 0.0),
                                                  ipm::initial_mu(g.lp), opts);
      ASSERT_EQ(r.status, SolveStatus::kOk);
      EXPECT_GT(r.mu, opts.mu_end);
      const double gap = gap_at(g, r.x, r.y);
      EXPECT_LT(gap, 1.0);
      EXPECT_GE(gap, 0.0);
      EXPECT_LT(cost_of(g, r.x) - g.opt, 1.0);
    }
  }
  EXPECT_GE(far_points, 16);
}

/// Differential sweep of the duality-gap stop: both IPM tiers at the default
/// mu_end on seeded max-flow instances, with distinct, tied ({0, 1}) and
/// all-zero core costs. Every answer must come from the requested tier,
/// certify and equal SSP, and the gap stop must end every path above mu_end.
struct GapStopCase {
  mcf::Method method;
  std::int64_t max_cost;
  std::uint64_t seed;
};

class GapStopSweep : public ::testing::TestWithParam<GapStopCase> {};

TEST_P(GapStopSweep, CertifiesAndMatchesSsp) {
  const GapStopCase c = GetParam();
  par::Rng rng(c.seed);
  const Vertex n = c.method == mcf::Method::kRobustIpm ? 10 : 14;
  const Digraph g = graph::random_flow_network(n, 4 * n, 6, c.max_cost, rng);
  const auto oracle = baselines::ssp_min_cost_max_flow(g, 0, n - 1);
  mcf::SolveOptions opts;
  opts.method = c.method;
  const auto res = mcf::min_cost_max_flow(g, 0, n - 1, opts);
  ASSERT_EQ(res.status, SolveStatus::kOk);
  EXPECT_EQ(res.stats.answered_by, c.method);
  EXPECT_TRUE(res.stats.certified);
  EXPECT_EQ(res.flow_value, oracle.flow);
  EXPECT_EQ(res.cost, oracle.cost);
  EXPECT_GT(res.stats.final_mu, opts.ipm.mu_end) << "the gap stop did not fire";
}

std::vector<GapStopCase> gap_stop_cases() {
  std::vector<GapStopCase> out;
  for (const std::int64_t max_cost : {6, 1, 0}) {
    for (std::uint64_t seed = 0; seed < 6; ++seed)
      out.push_back({mcf::Method::kReferenceIpm, max_cost, 700 + seed});
    for (std::uint64_t seed = 0; seed < 3; ++seed)
      out.push_back({mcf::Method::kRobustIpm, max_cost, 800 + seed});
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(BothTiers, GapStopSweep, ::testing::ValuesIn(gap_stop_cases()),
                         [](const ::testing::TestParamInfo<GapStopCase>& param_info) {
                           const GapStopCase& c = param_info.param;
                           return std::string(mcf::to_string(c.method)) + "_cost" +
                                  std::to_string(c.max_cost) + "_seed" + std::to_string(c.seed);
                         });

TEST(MinCostFlowTest, MatchesSspOnDiamond) {
  Digraph g(4);
  g.add_arc(0, 1, 2, 1);
  g.add_arc(1, 3, 2, 1);
  g.add_arc(0, 2, 2, 3);
  g.add_arc(2, 3, 2, 3);
  mcf::SolveOptions opts;
  opts.ipm = fast_ipm_options();
  const auto res = mcf::min_cost_max_flow(g, 0, 3, opts);
  EXPECT_EQ(res.flow_value, 4);
  EXPECT_EQ(res.cost, 16);
}

class MinCostFlowSweep : public ::testing::TestWithParam<int> {};

TEST_P(MinCostFlowSweep, ExactlyMatchesSspOracle) {
  par::Rng rng(900 + GetParam());
  const Vertex n = 12 + static_cast<Vertex>(GetParam());
  const std::int64_t m = 4 * n;
  const Digraph g = graph::random_flow_network(n, m, 6, 6, rng);
  const auto oracle = baselines::ssp_min_cost_max_flow(g, 0, n - 1);

  mcf::SolveOptions opts;
  opts.ipm = fast_ipm_options();
  const auto res = mcf::min_cost_max_flow(g, 0, n - 1, opts);
  EXPECT_EQ(res.flow_value, oracle.flow) << "flow value mismatch";
  EXPECT_EQ(res.cost, oracle.cost) << "cost mismatch";
  // Result must be a genuine feasible flow.
  std::vector<std::int64_t> net(static_cast<std::size_t>(n), 0);
  for (std::size_t k = 0; k < res.arc_flow.size(); ++k) {
    const auto& a = g.arc(static_cast<graph::EdgeId>(k));
    EXPECT_GE(res.arc_flow[k], 0);
    EXPECT_LE(res.arc_flow[k], a.cap);
    net[static_cast<std::size_t>(a.to)] += res.arc_flow[k];
    net[static_cast<std::size_t>(a.from)] -= res.arc_flow[k];
  }
  for (Vertex v = 1; v + 1 < n; ++v) EXPECT_EQ(net[static_cast<std::size_t>(v)], 0);
  EXPECT_EQ(net[0], -res.flow_value);
  EXPECT_EQ(net[static_cast<std::size_t>(n - 1)], res.flow_value);
}

INSTANTIATE_TEST_SUITE_P(Sweep, MinCostFlowSweep, ::testing::Range(0, 8));

TEST(MinCostFlowTest, CombinatorialMethodDelegates) {
  par::Rng rng(82);
  const Digraph g = graph::random_flow_network(15, 60, 5, 5, rng);
  mcf::SolveOptions opts;
  opts.method = mcf::Method::kCombinatorial;
  const auto res = mcf::min_cost_max_flow(g, 0, 14, opts);
  const auto oracle = baselines::ssp_min_cost_max_flow(g, 0, 14);
  EXPECT_EQ(res.flow_value, oracle.flow);
  EXPECT_EQ(res.cost, oracle.cost);
}

TEST(MinCostFlowTest, BFlowRoutesDemands) {
  // 0 supplies 3 units (net inflow -3), 4 demands 3 (net inflow +3).
  par::Rng rng(83);
  Digraph g(5);
  for (Vertex i = 0; i + 1 < 5; ++i) g.add_arc(i, i + 1, 5, 2);
  g.add_arc(0, 4, 2, 20);
  std::vector<std::int64_t> b{-3, 0, 0, 0, 3};
  mcf::SolveOptions opts;
  opts.ipm = fast_ipm_options();
  const auto res = mcf::min_cost_b_flow(g, b, opts);
  EXPECT_EQ(res.flow_value, 3);
  const auto comb = mcf::min_cost_b_flow(g, b, {.method = mcf::Method::kCombinatorial});
  EXPECT_EQ(comb.flow_value, 3);
  EXPECT_EQ(res.cost, comb.cost);
}

TEST(IpmIterationScalingTest, IterationsGrowSlowlyWithN) {
  // The headline claim: Õ(√n) iterations. Verify the iteration count grows
  // clearly sublinearly when n quadruples.
  auto iters_for = [](Vertex n, std::uint64_t seed) {
    par::Rng rng(seed);
    const Digraph g = graph::random_flow_network(n, 4 * n, 4, 4, rng);
    mcf::SolveOptions opts;
    opts.ipm = fast_ipm_options();
    opts.ipm.leverage.sketch_dim = 8;
    const auto res = mcf::min_cost_max_flow(g, 0, n - 1, opts);
    return res.stats.ipm_iterations;
  };
  const auto small = iters_for(12, 84);
  const auto big = iters_for(48, 85);
  // 4x vertices => ~2x iterations for sqrt scaling; allow generous slack
  // but reject linear growth.
  EXPECT_LT(big, 3 * small) << "iterations should scale ~sqrt(n), small=" << small
                            << " big=" << big;
}

}  // namespace
}  // namespace pmcf
