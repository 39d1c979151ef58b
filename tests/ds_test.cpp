// Tests for the robust-IPM data structures: flat-norm maximizer (Lemma D.2 /
// Cor D.3), τ-sampler (Theorem A.3) and HeavyHitter (Lemma B.1).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "ds/flat_norm.hpp"
#include "core/solver_context.hpp"
#include "ds/heavy_hitter.hpp"
#include "ds/tau_sampler.hpp"
#include "graph/generators.hpp"
#include "linalg/incidence.hpp"
#include "parallel/rng.hpp"
#include "parallel/scheduler.hpp"

namespace pmcf::ds {
namespace {

using graph::Digraph;
using graph::Vertex;
using linalg::Vec;

// ---------- flat norm ----------

double mixed_norm(const Vec& w, const Vec& tau, double c) {
  return linalg::norm_inf(w) + c * linalg::norm_tau(w, tau);
}

TEST(FlatNormTest, ResultIsFeasible) {
  par::Rng rng(91);
  const std::size_t m = 40;
  Vec v(m), tau(m);
  for (std::size_t i = 0; i < m; ++i) {
    v[i] = rng.next_double() * 2.0 - 1.0;
    tau[i] = 0.1 + rng.next_double();
  }
  const auto res = flat_norm_argmax(v, tau, 3.0);
  EXPECT_LE(mixed_norm(res.w, tau, 3.0), 1.0 + 1e-6);
  EXPECT_NEAR(res.value, linalg::dot(v, res.w), 1e-9);
}

TEST(FlatNormTest, BeatsRandomFeasiblePoints) {
  par::Rng rng(92);
  const std::size_t m = 12;
  Vec v(m), tau(m);
  for (std::size_t i = 0; i < m; ++i) {
    v[i] = rng.next_double() * 2.0 - 1.0;
    tau[i] = 0.2 + rng.next_double();
  }
  const double c = 2.0;
  const auto res = flat_norm_argmax(v, tau, c);
  for (int trial = 0; trial < 500; ++trial) {
    Vec w(m);
    for (auto& wi : w) wi = rng.next_double() * 2.0 - 1.0;
    const double nrm = mixed_norm(w, tau, c);
    for (auto& wi : w) wi /= nrm;  // scale onto the unit sphere
    EXPECT_LE(linalg::dot(v, w), res.value + 1e-6);
  }
}

TEST(FlatNormTest, LargeCApproachesWeightedL2Maximizer) {
  // c -> inf: optimum ~ argmax over the τ-ball alone: w ∝ v/τ scaled.
  Vec v{1.0, 2.0};
  Vec tau{1.0, 1.0};
  const double c = 1e5;
  const auto res = flat_norm_argmax(v, tau, c);
  // Optimal value ~ ||v||_2 / c.
  EXPECT_NEAR(res.value, std::sqrt(5.0) / c, 1e-3 / c + 1e-9);
}

TEST(FlatNormTest, TinyCApproachesSignVector) {
  Vec v{1.0, -2.0, 0.5};
  Vec tau{1.0, 1.0, 1.0};
  const auto res = flat_norm_argmax(v, tau, 1e-7);
  // w ~ sign(v): value ~ ||v||_1.
  EXPECT_NEAR(res.value, 3.5, 1e-3);
}

/// Reference for flat_norm_argmax's closed form: the same 32-step ternary
/// search over β, with λ found by a 44-step bisection over all entries at
/// every split.
double bisection_inner_value(const Vec& v, const Vec& tau, double beta, double r) {
  if (beta <= 0.0 || r <= 0.0) return 0.0;
  auto tau_norm_sq = [&](double lambda) {
    double acc = 0.0;
    for (std::size_t i = 0; i < v.size(); ++i) {
      const double wi = std::min(beta, lambda * std::abs(v[i]) / tau[i]);
      acc += tau[i] * wi * wi;
    }
    return acc;
  };
  double lo = 0.0, hi = 1.0;
  while (tau_norm_sq(hi) < r * r) {
    hi *= 2.0;
    if (hi > 1e30) break;  // all entries clipped; the cap β binds everywhere
  }
  for (int it = 0; it < 44; ++it) {
    const double mid = 0.5 * (lo + hi);
    if (tau_norm_sq(mid) < r * r) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  const double lambda = 0.5 * (lo + hi);
  double val = 0.0;
  for (std::size_t i = 0; i < v.size(); ++i)
    val += std::abs(v[i]) * std::min(beta, lambda * std::abs(v[i]) / tau[i]);
  return val;
}

double bisection_flat_norm_value(const Vec& v, const Vec& tau, double c) {
  auto value_at = [&](double beta) { return bisection_inner_value(v, tau, beta, (1.0 - beta) / c); };
  double lo = 0.0, hi = 1.0;
  for (int it = 0; it < 32; ++it) {
    const double m1 = lo + (hi - lo) / 3.0;
    const double m2 = hi - (hi - lo) / 3.0;
    if (value_at(m1) < value_at(m2)) {
      lo = m1;
    } else {
      hi = m2;
    }
  }
  const double beta = 0.5 * (lo + hi);
  return bisection_inner_value(v, tau, beta, (1.0 - beta) / c);
}

TEST(FlatNormTest, MatchesBisectionReference) {
  // Seeded sweep over sizes, with zero entries, exactly tied ratios |v_i|/τ_i
  // (a copy scaled by a power of two), τ log-uniform over 1e-3..1e3, and
  // c_norm from the all-clipped regime (1e-7) to the nothing-clipped one (1e5).
  par::Rng rng(94);
  int all_clipped = 0, none_clipped = 0;
  for (const std::size_t d : {1u, 2u, 3u, 17u, 64u, 256u}) {
    for (const double c : {1e-7, 1e-2, 1.0, 8.0, 1e5}) {
      for (int trial = 0; trial < 6; ++trial) {
        SCOPED_TRACE(::testing::Message() << "d " << d << " c " << c << " trial " << trial);
        Vec v(d), tau(d);
        for (std::size_t i = 0; i < d; ++i) {
          tau[i] = std::pow(10.0, 6.0 * rng.next_double() - 3.0);
          v[i] = 2.0 * rng.next_double() - 1.0;
          if (rng.next_below(5) == 0) v[i] = 0.0;
          if (i > 0 && rng.next_below(4) == 0) {
            const std::size_t j = rng.next_below(i);
            const double scale = std::ldexp(1.0, static_cast<int>(rng.next_below(5)) - 2);
            tau[i] = tau[j] * scale;
            v[i] = (rng.next_below(2) == 0 ? 1.0 : -1.0) * v[j] * scale;
          }
        }
        const auto res = flat_norm_argmax(v, tau, c);
        const double ref = bisection_flat_norm_value(v, tau, c);
        ASSERT_EQ(res.w.size(), d);
        EXPECT_LE(std::abs(res.value - ref), 1e-9 * std::max(1.0, std::abs(ref)));
        EXPECT_LE(mixed_norm(res.w, tau, c), 1.0 + 1e-12);
        double dot = 0.0;
        for (std::size_t i = 0; i < d; ++i) dot += v[i] * res.w[i];
        EXPECT_EQ(res.value, dot);
        const double beta = linalg::norm_inf(res.w);
        bool clipped_all = beta > 0.0, clipped_none = true;
        for (std::size_t i = 0; i < d; ++i) {
          if (v[i] == 0.0) continue;
          clipped_all = clipped_all && std::abs(res.w[i]) == beta;
          clipped_none = clipped_none && std::abs(res.w[i]) < beta;
        }
        all_clipped += clipped_all ? 1 : 0;
        none_clipped += clipped_none && d > 1 ? 1 : 0;
      }
    }
  }
  EXPECT_GT(all_clipped, 0);
  EXPECT_GT(none_clipped, 0);
}

TEST(FlatNormTest, DegenerateInputs) {
  const auto empty = flat_norm_argmax({}, {}, 2.0);
  EXPECT_TRUE(empty.w.empty());
  EXPECT_EQ(empty.value, 0.0);

  const auto zero = flat_norm_argmax(Vec(5, 0.0), Vec{0.5, 1.0, 2.0, 1e-3, 1e3}, 2.0);
  EXPECT_EQ(zero.w, Vec(5, 0.0));
  EXPECT_EQ(zero.value, 0.0);

  // d = 1: the optimum sits where ||w||_∞ = β meets c·sqrt(τ)·β = 1 - β, so
  // the value is |v|/(1 + c√τ). The ternary search brackets β to within
  // (2/3)^32, and the value moves with slope at most |v|·max(1, 1/(c√τ)).
  for (const double v : {0.7, -3.0}) {
    for (const double tau : {0.25, 4.0}) {
      for (const double c : {0.1, 1.0, 8.0}) {
        SCOPED_TRACE(::testing::Message() << "v " << v << " tau " << tau << " c " << c);
        const auto res = flat_norm_argmax(Vec{v}, Vec{tau}, c);
        const double exact = std::abs(v) / (1.0 + c * std::sqrt(tau));
        const double slope = std::abs(v) * std::max(1.0, 1.0 / (c * std::sqrt(tau)));
        EXPECT_NEAR(res.value, exact, slope * std::pow(2.0 / 3.0, 32));
        EXPECT_EQ(std::signbit(res.w[0]), std::signbit(v));
      }
    }
  }
}

/// (work, depth) charged by f under a fresh instrumented context.
template <class F>
std::string charged(F&& f) {
  core::SolverContext ctx;
  const core::ContextScope scope(ctx);
  f();
  return par::to_string(ctx.tracker().snapshot());
}

TEST(FlatNormTest, ChargesSortScanAndSearch) {
  // One call stands for: the sort into water-filling order, the keys map,
  // three side-by-side scans (an up- and a down-sweep each), 64 split
  // evaluations of one binary search plus the closed form, and the final
  // pass that writes w and reduces <v, w>.
  par::Rng rng(93);
  for (const std::size_t d : {1u, 64u, 1000u}) {
    SCOPED_TRACE(d);
    Vec v(d), tau(d);
    for (std::size_t i = 0; i < d; ++i) {
      v[i] = 2.0 * rng.next_double() - 1.0;
      tau[i] = 0.1 + rng.next_double();
    }
    const std::uint64_t lg = par::ceil_log2(d);
    const std::uint64_t search = par::ceil_log2(d + 1) + 1;
    const auto want = charged([&] {
      std::vector<std::size_t> order(d);
      par::parallel_sort(order.begin(), order.end());
      par::parallel_for(0, d, [](std::size_t) {});
      par::charge(6 * d, 2 * lg);
      for (int split = 0; split < 64; ++split) par::charge(search, search);
      par::parallel_for(0, d, [](std::size_t) {});
      (void)par::parallel_reduce<double>(
          0, d, 0.0, [](std::size_t) { return 0.0; }, std::plus<>());
    });
    EXPECT_EQ(charged([&] { (void)flat_norm_argmax(v, tau, 2.0); }), want);
    // Written out, so that both sides above are not zero: sort (10000, 101),
    // keys and scans (7000, 30), splits (704, 704), final pass (2000, 30).
    if (d == 1000) {
      EXPECT_EQ(want, "work=19704 depth=865");
    }
  }
}

// ---------- tau sampler ----------

TEST(TauSamplerTest, ProbabilityLowerBoundHolds) {
  par::Rng rng(93);
  const std::size_t m = 200, n = 40;
  std::vector<double> tau(m);
  for (auto& t : tau) t = 0.05 + rng.next_double();
  TauSampler sampler(tau, n, 5);
  double sum = 0.0;
  for (const double t : tau) sum += t;
  for (std::size_t i = 0; i < m; i += 17) {
    const double p = sampler.probability(i, 0.5);
    EXPECT_GE(p + 1e-12, std::min(1.0, 0.5 * static_cast<double>(n) * tau[i] / sum));
    EXPECT_LE(p, 1.0);
  }
}

TEST(TauSamplerTest, EmpiricalFrequencyMatchesProbability) {
  const std::size_t m = 50, n = 10;
  std::vector<double> tau(m, 1.0);
  tau[7] = 8.0;  // heavy index
  TauSampler sampler(tau, n, 6);
  const double k = 0.3;
  const double p7 = sampler.probability(7, k);
  int hits = 0;
  const int trials = 3000;
  for (int t = 0; t < trials; ++t) {
    const auto s = sampler.sample(k);
    hits += std::count(s.begin(), s.end(), std::size_t{7});
  }
  EXPECT_NEAR(static_cast<double>(hits) / trials, p7, 0.05);
}

TEST(TauSamplerTest, ScaleMovesBuckets) {
  std::vector<double> tau{1.0, 1.0, 1.0, 1.0};
  TauSampler sampler(tau, 2, 7);
  EXPECT_DOUBLE_EQ(sampler.tau_sum(), 4.0);
  sampler.scale({1, 3}, {16.0, 0.25});
  EXPECT_DOUBLE_EQ(sampler.tau_sum(), 1.0 + 16.0 + 1.0 + 0.25);
  // Index 1 is now much likelier than index 0.
  EXPECT_GT(sampler.probability(1, 0.05), sampler.probability(0, 0.05));
}

TEST(TauSamplerTest, SampleSizeBounded) {
  par::Rng rng(94);
  const std::size_t m = 2000, n = 50;
  std::vector<double> tau(m);
  for (auto& t : tau) t = 0.01 + 0.02 * rng.next_double();
  TauSampler sampler(tau, n, 8);
  const auto s = sampler.sample(1.0);
  // E[|S|] <= 2 K n (Theorem A.3); allow slack.
  EXPECT_LE(s.size(), 8 * n);
}

// ---------- heavy hitter ----------

struct HhFixture {
  Digraph g;
  Vec weights;
  HhFixture(Vertex n, std::int64_t m, std::uint64_t seed) : g(0) {
    par::Rng rng(seed);
    g = graph::random_flow_network(n, m, 5, 5, rng);
    weights.resize(static_cast<std::size_t>(m));
    for (auto& w : weights) w = 0.25 + rng.next_double();
  }
};

/// Oracle: all arcs with |g_e (Ah)_e| >= eps by brute force.
std::vector<std::size_t> brute_heavy(const Digraph& g, const Vec& w, const Vec& h, double eps) {
  std::vector<std::size_t> out;
  for (std::size_t e = 0; e < static_cast<std::size_t>(g.num_arcs()); ++e) {
    const auto& a = g.arc(static_cast<graph::EdgeId>(e));
    const double val =
        w[e] * std::abs(h[static_cast<std::size_t>(a.to)] - h[static_cast<std::size_t>(a.from)]);
    if (val >= eps) out.push_back(e);
  }
  return out;
}

TEST(HeavyHitterTest, FindsAllHeavyRows) {
  HhFixture f(30, 150, 95);
  HeavyHitter hh(pmcf::core::default_context(), f.g, f.weights);
  par::Rng rng(96);
  for (int trial = 0; trial < 10; ++trial) {
    Vec h(30);
    for (auto& x : h) x = rng.next_double() * 2.0 - 1.0;
    const double eps = 0.4;
    const auto got = hh.heavy_query(h, eps);
    const auto expected = brute_heavy(f.g, f.weights, h, eps);
    // Everything truly heavy must be found (one-sided guarantee); false
    // positives are filtered by the final exact check, so sets match.
    EXPECT_EQ(got, expected) << "trial " << trial;
  }
}

TEST(HeavyHitterTest, ScaleChangesAnswers) {
  HhFixture f(20, 80, 97);
  HeavyHitter hh(pmcf::core::default_context(), f.g, f.weights);
  Vec h(20);
  par::Rng rng(98);
  for (auto& x : h) x = rng.next_double();
  // Boost one row's weight so it becomes heavy.
  const std::size_t target = 5;
  hh.scale({target}, {50.0});
  Vec w2 = f.weights;
  w2[target] = 50.0;
  const auto got = hh.heavy_query(h, 1.0);
  const auto expected = brute_heavy(f.g, w2, h, 1.0);
  EXPECT_EQ(got, expected);
}

TEST(HeavyHitterTest, ZeroWeightRowsNeverReturned) {
  HhFixture f(15, 50, 99);
  f.weights[3] = 0.0;
  HeavyHitter hh(pmcf::core::default_context(), f.g, f.weights);
  Vec h(15, 0.0);
  h[0] = 100.0;
  const auto got = hh.heavy_query(h, 1e-9);
  EXPECT_TRUE(std::find(got.begin(), got.end(), std::size_t{3}) == got.end());
}

TEST(HeavyHitterTest, SampleCoversLargeEntries) {
  // Rows carrying most of ||GAh||² must be sampled with high probability.
  HhFixture f(25, 100, 100);
  HeavyHitter hh(pmcf::core::default_context(), f.g, f.weights);
  Vec h(25, 0.0);
  par::Rng rng(101);
  for (auto& x : h) x = 0.05 * rng.next_double();
  h[3] = 5.0;  // make arcs at vertex 3 dominate
  const auto probs_all = hh.probability({0, 1, 2, 3, 4}, h, 100.0);
  for (const double p : probs_all) {
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
  // An arc adjacent to the dominating vertex should be near-certain.
  std::size_t dom = 0;
  double best = -1.0;
  for (std::size_t e = 0; e < 100; ++e) {
    const auto& a = f.g.arc(static_cast<graph::EdgeId>(e));
    const double val = f.weights[e] * std::abs(h[static_cast<std::size_t>(a.to)] -
                                               h[static_cast<std::size_t>(a.from)]);
    if (val > best) {
      best = val;
      dom = e;
    }
  }
  const auto p = hh.probability({dom}, h, 100.0);
  EXPECT_GT(p[0], 0.9);
  int hits = 0;
  for (int t = 0; t < 50; ++t) {
    const auto s = hh.sample(h, 100.0);
    hits += std::count(s.begin(), s.end(), dom);
  }
  EXPECT_GE(hits, 40);
}

TEST(HeavyHitterTest, LeverageSampleBoundsAndCoverage) {
  HhFixture f(20, 90, 102);
  HeavyHitter hh(pmcf::core::default_context(), f.g, f.weights);
  const auto bound = hh.leverage_bound({0, 5, 10}, 0.2);
  for (const double p : bound) {
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
  const auto s = hh.leverage_sample(0.2);
  for (const std::size_t e : s) EXPECT_LT(e, 90u);
}

TEST(HeavyHitterTest, QueryWorkIsOutputSensitive) {
  // With a localized h, the query must not scan all m arcs.
  HhFixture f(400, 2400, 103);
  HeavyHitter hh(pmcf::core::default_context(), f.g, f.weights);
  Vec h(400, 0.0);  // all-zero: nothing heavy, scans ~ cluster vertex sums
  const auto got = hh.heavy_query(h, 0.5);
  EXPECT_TRUE(got.empty());
  EXPECT_LT(hh.last_query_scans(), 6000u) << "scan count must be Õ(n), not O(m)";
}

TEST(HeavyHitterTest, LazyClassesKeepQueryExact) {
  // Rows stay in their class while their exponent moves by at most one, so a
  // class spans a factor 8 of weights; the query must still find every heavy
  // row. Weights start at 2^k·(0.9..1.1) and random rows drift by factors up
  // to 3.5 each round.
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    par::Rng rng(700 + seed);
    const Digraph g = graph::random_flow_network(30, 180, 5, 5, rng);
    const auto m = static_cast<std::size_t>(g.num_arcs());
    Vec w(m);
    for (auto& x : w)
      x = std::ldexp(0.9 + 0.2 * rng.next_double(), static_cast<int>(rng.next_below(6)) - 3);
    HeavyHitter hh(pmcf::core::default_context(), g, w);
    for (int round = 0; round < 30; ++round) {
      std::vector<std::size_t> idx;
      Vec vals;
      for (std::size_t e = 0; e < m; ++e) {
        if (rng.next_double() >= 0.3) continue;
        w[e] *= std::pow(3.5, 2.0 * rng.next_double() - 1.0);
        idx.push_back(e);
        vals.push_back(w[e]);
      }
      hh.scale(idx, vals);
      Vec h(30);
      for (auto& x : h) x = rng.next_double() * 2.0 - 1.0;
      EXPECT_EQ(hh.heavy_query(h, 0.5), brute_heavy(g, w, h, 0.5))
          << "seed " << seed << " round " << round;
    }
  }

  // A row oscillating across 2^0 never moves; a row scaled ×8 moves once.
  HhFixture f(20, 80, 104);
  Vec w(80, 1.0);
  HeavyHitter hh(pmcf::core::default_context(), f.g, w);
  for (int t = 0; t < 10; ++t) hh.scale({4}, {t % 2 == 0 ? 0.9 : 1.1});
  EXPECT_EQ(hh.class_moves(), 0u);
  hh.scale({9}, {8.0});
  EXPECT_EQ(hh.class_moves(), 1u);
  w[4] = 1.1;
  w[9] = 8.0;
  Vec h(20);
  par::Rng rng(105);
  for (auto& x : h) x = rng.next_double();
  EXPECT_EQ(hh.heavy_query(h, 0.5), brute_heavy(f.g, w, h, 0.5));
}

}  // namespace
}  // namespace pmcf::ds
