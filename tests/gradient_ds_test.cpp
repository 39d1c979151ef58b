// Tests for dual maintenance (Theorem E.1), gradient reduction/accumulation
// (Lemmas D.4/D.5, Theorem D.1) and the HeavySampler (Theorem E.2).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "ds/dual_maintenance.hpp"
#include "core/solver_context.hpp"
#include "ds/gradient_maintenance.hpp"
#include "ds/heavy_hitter.hpp"
#include "ds/heavy_sampler.hpp"
#include "graph/generators.hpp"
#include "linalg/incidence.hpp"
#include "parallel/rng.hpp"

namespace pmcf::ds {
namespace {

using graph::Digraph;
using graph::Vertex;
using linalg::Vec;

// ---------- dual maintenance ----------

TEST(DualMaintenanceTest, ApproxStaysWithinAccuracy) {
  par::Rng rng(111);
  const Vertex n = 25;
  const Digraph g = graph::random_flow_network(n, 120, 4, 4, rng);
  Vec v0(120, 0.0), w(120, 1.0);
  DualMaintenanceOptions opts;
  opts.eps = 0.25;
  const linalg::IncidenceOp a(g);
  DualMaintenance dm(pmcf::core::default_context(), a, v0, w, opts);
  for (int step = 0; step < 40; ++step) {
    Vec h(static_cast<std::size_t>(n), 0.0);
    for (int k = 0; k < 3; ++k)
      h[rng.next_below(static_cast<std::uint64_t>(n - 1))] += 0.05 * (rng.next_double() - 0.5);
    h[static_cast<std::size_t>(n - 1)] = 0.0;  // dropped coordinate
    const auto res = dm.add(h);
    const Vec exact = dm.compute_exact();
    for (std::size_t e = 0; e < exact.size(); ++e)
      EXPECT_LE(std::abs((*res.approx)[e] - exact[e]), opts.eps * w[e] + 1e-12)
          << "step " << step << " entry " << e;
  }
}

TEST(DualMaintenanceTest, ChangedIndicesAreReported) {
  // A big step on one vertex must surface its incident arcs immediately.
  par::Rng rng(112);
  const Vertex n = 20;
  const Digraph g = graph::random_flow_network(n, 80, 4, 4, rng);
  const linalg::IncidenceOp a(g);
  DualMaintenance dm(pmcf::core::default_context(), a, Vec(80, 0.0), Vec(80, 1.0), {.eps = 0.1});
  Vec h(static_cast<std::size_t>(n), 0.0);
  h[3] = 10.0;
  const auto res = dm.add(h);
  // Every arc at vertex 3 changed by 10 >> eps; all must be updated.
  for (std::size_t e = 0; e < 80; ++e) {
    const auto& arc = g.arc(static_cast<graph::EdgeId>(e));
    if ((arc.from == 3 || arc.to == 3) && arc.from != n - 1 && arc.to != n - 1) {
      EXPECT_TRUE(std::find(res.changed.begin(), res.changed.end(), e) != res.changed.end())
          << "arc " << e;
    }
  }
}

TEST(DualMaintenanceTest, SmallDriftTriggersNoUpdates) {
  par::Rng rng(113);
  const Vertex n = 20;
  const Digraph g = graph::random_flow_network(n, 80, 4, 4, rng);
  const linalg::IncidenceOp a(g);
  DualMaintenance dm(pmcf::core::default_context(), a, Vec(80, 0.0), Vec(80, 1.0), {.eps = 1.0});
  Vec h(static_cast<std::size_t>(n), 1e-6);
  h[static_cast<std::size_t>(n - 1)] = 0.0;
  const auto res = dm.add(h);
  EXPECT_TRUE(res.changed.empty());
}

TEST(DualMaintenanceTest, RebasesOnItsPeriodAroundAnyDroppedColumn) {
  // Column 0 is dropped, so the last vertex's steps count. Three re-bases
  // (n = 25: T = 2^⌈log₂(5+1)⌉ = 8) must keep v̄ within ε·w of the oracle
  // v_init + A·Σh, and a big step after the third must surface every arc
  // of the stepped vertex.
  par::Rng rng(114);
  const Vertex n = 25;
  const std::size_t m = 120;
  const std::int32_t period = 8;
  const Digraph g = graph::random_flow_network(n, static_cast<std::int64_t>(m), 4, 4, rng);
  const linalg::IncidenceOp a(g, 0);
  Vec v0(m), w(m);
  for (std::size_t e = 0; e < m; ++e) {
    v0[e] = rng.next_double() - 0.5;
    w[e] = 0.5 + rng.next_double();
  }
  const double eps = 0.25;
  DualMaintenance dm(pmcf::core::default_context(), a, v0, w, {.eps = eps});
  const auto last = static_cast<std::size_t>(n - 1);
  Vec sum_h(static_cast<std::size_t>(n), 0.0);
  auto add_and_check = [&](const Vec& h, std::int32_t step) {
    for (std::size_t v = 0; v < sum_h.size(); ++v) sum_h[v] += h[v];
    auto res = dm.add(h);
    const Vec oracle = linalg::add(v0, a.apply(sum_h));
    for (std::size_t e = 0; e < m; ++e)
      EXPECT_LE(std::abs((*res.approx)[e] - oracle[e]), eps * w[e] + 1e-12)
          << "step " << step << " entry " << e;
    return res;
  };
  for (std::int32_t step = 0; step < 3 * period; ++step) {
    Vec h(static_cast<std::size_t>(n), 0.0);
    for (int k = 0; k < 3; ++k)
      h[1 + rng.next_below(static_cast<std::uint64_t>(n - 1))] += 0.05 * (rng.next_double() - 0.5);
    h[last] += 0.01;
    add_and_check(h, step);
  }
  // This add re-bases for the third time before it takes the step.
  Vec h(static_cast<std::size_t>(n), 0.0);
  h[last] = 10.0;
  const auto res = add_and_check(h, 3 * period);
  std::size_t arcs = 0;
  for (std::size_t e = 0; e < m; ++e) {
    const auto& arc = g.arc(static_cast<graph::EdgeId>(e));
    if (arc.from == arc.to || (arc.from != n - 1 && arc.to != n - 1)) continue;
    ++arcs;
    EXPECT_TRUE(std::find(res.changed.begin(), res.changed.end(), e) != res.changed.end())
        << "arc " << e;
  }
  EXPECT_GT(arcs, 0U);
}

// ---------- gradient reduction ----------

struct GradFixture {
  Digraph g;
  std::unique_ptr<linalg::IncidenceOp> a;
  Vec weights, tau, z;
  GradFixture(Vertex n, std::int64_t m, std::uint64_t seed) : g(0) {
    par::Rng rng(seed);
    g = graph::random_flow_network(n, m, 4, 4, rng);
    a = std::make_unique<linalg::IncidenceOp>(g);
    weights.resize(static_cast<std::size_t>(m));
    tau.resize(static_cast<std::size_t>(m));
    z.resize(static_cast<std::size_t>(m));
    for (std::size_t i = 0; i < static_cast<std::size_t>(m); ++i) {
      weights[i] = 0.5 + rng.next_double();
      tau[i] = 0.1 + rng.next_double();
      z[i] = 2.0 * rng.next_double() - 1.0;
    }
  }
};

TEST(GradientReductionTest, AggregatesMatchRecompute) {
  GradFixture f(12, 50, 121);
  GradientReduction gr(*f.a, f.weights, f.tau, f.z);
  par::Rng rng(122);
  // New g on four rows. Rows 3 and 7 keep their (τ, z) bucket, so their old
  // g must leave an aggregate that stays occupied; rows 20 and 41 move into
  // the buckets of rows 0 and 1.
  std::vector<std::size_t> idx{3, 7, 20, 41};
  Vec b(4);
  for (auto& x : b) x = 0.5 + rng.next_double();
  const Vec c{f.tau[3], f.tau[7], f.tau[0], f.tau[1]};
  const Vec d{f.z[3], f.z[7], f.z[0], f.z[1]};
  gr.update(idx, b, c, d);
  Vec g2 = f.weights;
  for (std::size_t k = 0; k < 4; ++k) g2[idx[k]] = b[k];
  // The incrementally moved aggregates must expand to A^T G s over the
  // updated g; the buckets checked must carry a step for that to bite.
  const auto q = gr.query();
  for (const std::size_t i : {0, 1, 3, 7})
    ASSERT_NE(q.s[static_cast<std::size_t>(gr.bucket_of_index(i))], 0.0) << "row " << i;
  Vec per_index(g2.size());
  for (std::size_t i = 0; i < per_index.size(); ++i)
    per_index[i] = q.s[static_cast<std::size_t>(gr.bucket_of_index(i))] * g2[i];
  const Vec expected = f.a->apply_transpose(per_index);
  for (std::size_t j = 0; j < expected.size(); ++j) EXPECT_NEAR(q.v[j], expected[j], 1e-9);
}

TEST(GradientReductionTest, QueryMatchesBucketExpansion) {
  GradFixture f(10, 40, 123);
  GradientReduction gr(*f.a, f.weights, f.tau, f.z);
  const auto q = gr.query();
  // Expand: v must equal A^T G s_per_index with s per bucket.
  Vec per_index(static_cast<std::size_t>(f.g.num_arcs()));
  for (std::size_t i = 0; i < per_index.size(); ++i)
    per_index[i] = q.s[static_cast<std::size_t>(gr.bucket_of_index(i))] * f.weights[i];
  const Vec expected = f.a->apply_transpose(per_index);
  for (std::size_t j = 0; j < expected.size(); ++j) EXPECT_NEAR(q.v[j], expected[j], 1e-9);
}

TEST(GradientReductionTest, BucketRepsWithinEps) {
  GradFixture f(10, 40, 124);
  GradientOptions opts;
  GradientReduction gr(*f.a, f.weights, f.tau, f.z, opts);
  for (std::size_t i = 0; i < static_cast<std::size_t>(f.g.num_arcs()); ++i) {
    const auto [tau_rep, z_rep] = gr.bucket_reps(gr.bucket_of_index(i));
    EXPECT_NEAR(z_rep, f.z[i], opts.eps);                       // |z̄ - z| <= ε
    EXPECT_LT(std::abs(std::log(tau_rep / f.tau[i])), 2 * opts.eps);  // τ̄ ≈_ε τ
  }
}

// ---------- gradient accumulator / combined ----------

TEST(PrimalGradientTest, ApproxTracksExactUnderSteps) {
  GradFixture f(12, 50, 125);
  const auto m = static_cast<std::size_t>(f.g.num_arcs());
  Vec x0(m, 1.0), accuracy(m, 0.05);
  PrimalGradientMaintenance pg(*f.a, x0, f.weights, f.tau, f.z, accuracy);
  par::Rng rng(126);
  for (int step = 0; step < 25; ++step) {
    (void)pg.query_product();
    // Sparse extra term.
    std::vector<std::size_t> h_idx;
    Vec h_val;
    if (step % 3 == 0) {
      h_idx.push_back(rng.next_below(m));
      h_val.push_back(0.01 * (rng.next_double() - 0.5));
    }
    const auto q = pg.query_sum(h_idx, h_val);
    const Vec exact = pg.compute_exact_sum();
    for (std::size_t i = 0; i < m; ++i)
      EXPECT_LE(std::abs((*q.approx)[i] - exact[i]), accuracy[i] + 1e-12)
          << "step " << step << " coord " << i;
  }
}

TEST(PrimalGradientTest, UpdateMovesCoordinatesConsistently) {
  GradFixture f(10, 40, 127);
  const auto m = static_cast<std::size_t>(f.g.num_arcs());
  PrimalGradientMaintenance pg(*f.a, Vec(m, 0.0), f.weights, f.tau, f.z, Vec(m, 0.1));
  (void)pg.query_product();
  (void)pg.query_sum({}, {});
  // Move a few coordinates to new (g, tau, z); exact sums stay consistent.
  std::vector<std::size_t> idx{1, 5, 9};
  pg.update(idx, {2.0, 2.0, 2.0}, {0.5, 0.5, 0.5}, {0.25, 0.25, 0.25});
  (void)pg.query_product();
  const auto q = pg.query_sum({}, {});
  const Vec exact = pg.compute_exact_sum();
  for (std::size_t i = 0; i < m; ++i)
    EXPECT_LE(std::abs((*q.approx)[i] - exact[i]), 0.1 + 1e-12);
}

// ---------- heavy sampler ----------

TEST(HeavySamplerTest, InverseProbabilitiesAreUnbiasedWeights) {
  par::Rng rng(131);
  const Vertex n = 16;
  const std::size_t m = 96;
  const Digraph g = graph::random_flow_network(n, static_cast<std::int64_t>(m), 4, 4, rng);
  Vec w(m), tau(m);
  for (std::size_t i = 0; i < m; ++i) {
    w[i] = 0.5 + rng.next_double();
    tau[i] = 0.05 + 0.1 * rng.next_double();
  }
  HeavyHitter hh(pmcf::core::default_context(), g, w, {.seed = 24});
  HeavySampler hs(hh, g, tau);
  Vec h(static_cast<std::size_t>(n));
  for (auto& x : h) x = rng.next_double() - 0.5;
  h[static_cast<std::size_t>(n - 1)] = 0.0;
  // E[R_jj] = E[Σ_{i in R} (1/p_i) 1_{i=j}] = 1 for every index j.
  const auto expect_unbiased = [&](const char* round) {
    Vec acc(m, 0.0);
    const int trials = 4000;
    for (int t = 0; t < trials; ++t) {
      for (const auto& entry : hs.sample(h)) acc[entry.index] += entry.inv_prob;
    }
    double mean = 0.0;
    for (std::size_t j = 0; j < m; ++j) {
      EXPECT_NEAR(acc[j] / trials, 1.0, 0.05) << round << " index " << j;
      mean += acc[j] / trials / static_cast<double>(m);
    }
    EXPECT_NEAR(mean, 1.0, 0.01) << round;
  };
  expect_unbiased("fresh");

  // The caller scales the shared heavy hitter and the sampler separately:
  // a third of the rows leave their ±1 class windows (×16 or /16) and
  // change τ bucket; R must stay unbiased.
  std::vector<std::size_t> idx;
  Vec w_new, tau_new;
  for (std::size_t i = 0; i < m; i += 3) {
    idx.push_back(i);
    w_new.push_back(w[i] * (i % 2 == 0 ? 16.0 : 1.0 / 16.0));
    tau_new.push_back(4.0 * tau[i]);
  }
  hh.scale(idx, w_new);
  hs.scale(idx, tau_new);
  EXPECT_EQ(hh.class_moves(), idx.size());
  expect_unbiased("scaled");
}

TEST(HeavySamplerTest, OutputSizeScalesWithSqrtN) {
  par::Rng rng(132);
  const Vertex n = 100;
  const std::int64_t m = 1000;
  const Digraph g = graph::random_flow_network(n, m, 4, 4, rng);
  Vec w(static_cast<std::size_t>(m), 1.0);
  Vec tau(static_cast<std::size_t>(m), static_cast<double>(n) / static_cast<double>(m));
  HeavyHitter hh(pmcf::core::default_context(), g, w, {.seed = 24});
  HeavySampler hs(hh, g, tau);
  Vec h(static_cast<std::size_t>(n));
  for (auto& x : h) x = rng.next_double() - 0.5;
  h[static_cast<std::size_t>(n - 1)] = 0.0;
  double total = 0.0;
  for (int t = 0; t < 10; ++t) total += static_cast<double>(hs.sample(h).size());
  // Õ(m/√n + n) = Õ(100 + 100); far below m.
  EXPECT_LT(total / 10.0, 800.0);
}

}  // namespace
}  // namespace pmcf::ds
