// Tests for vectors, CSR, incidence operator, Laplacians, the SDD solver,
// dense oracle, leverage scores and Lewis weights.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "graph/generators.hpp"
#include "core/solver_context.hpp"
#include "linalg/accel_cache.hpp"
#include "linalg/csr.hpp"
#include "linalg/dense.hpp"
#include "linalg/incidence.hpp"
#include "linalg/laplacian.hpp"
#include "linalg/leverage.hpp"
#include "linalg/lewis.hpp"
#include "linalg/sdd_solver.hpp"
#include "linalg/kernels.hpp"
#include "parallel/rng.hpp"
#include "parallel/scheduler.hpp"

namespace pmcf::linalg {
namespace {

TEST(VecOpsTest, ElementwiseAlgebra) {
  const Vec a{1, 2, 3};
  const Vec b{4, 5, 6};
  EXPECT_EQ(add(a, b), (Vec{5, 7, 9}));
  EXPECT_EQ(sub(b, a), (Vec{3, 3, 3}));
  EXPECT_EQ(mul(a, b), (Vec{4, 10, 18}));
  EXPECT_EQ(scale(a, 2.0), (Vec{2, 4, 6}));
  EXPECT_DOUBLE_EQ(dot(a, b), 32.0);
  EXPECT_DOUBLE_EQ(sum(a), 6.0);
  EXPECT_DOUBLE_EQ(norm_inf(Vec{-7, 3}), 7.0);
  EXPECT_DOUBLE_EQ(norm2(Vec{3, 4}), 5.0);
}

TEST(VecOpsTest, TauNorms) {
  const Vec v{1, 2};
  const Vec tau{0.25, 1.0};
  EXPECT_DOUBLE_EQ(norm_tau(v, tau), std::sqrt(0.25 + 4.0));
  EXPECT_DOUBLE_EQ(norm_tau_inf(v, tau, 2.0), 2.0 + 2.0 * std::sqrt(4.25));
}

TEST(VecOpsTest, ApproxEq) {
  EXPECT_TRUE(approx_eq({1.0, 2.0}, {1.01, 1.99}, 0.02));
  EXPECT_FALSE(approx_eq({1.0, 2.0}, {1.5, 2.0}, 0.02));
  EXPECT_TRUE(approx_eq({0.0}, {0.0}, 0.1));
  EXPECT_FALSE(approx_eq({1.0}, {0.0}, 0.1));
}

TEST(CsrTest, FromTripletsSumsDuplicates) {
  const Csr m = Csr::from_triplets(2, {0, 0, 1, 0}, {0, 1, 1, 0}, {1.0, 2.0, 3.0, 4.0});
  EXPECT_EQ(m.nnz(), 3u);
  const Vec y = m.apply({1.0, 1.0});
  EXPECT_DOUBLE_EQ(y[0], 7.0);  // (1+4) + 2
  EXPECT_DOUBLE_EQ(y[1], 3.0);
}

TEST(CsrTest, DiagonalExtraction) {
  const Csr m = Csr::from_triplets(3, {0, 1, 1, 2}, {0, 1, 2, 2}, {5.0, 6.0, 1.0, 7.0});
  EXPECT_EQ(m.diagonal(), (Vec{5.0, 6.0, 7.0}));
}

graph::Digraph triangle() {
  graph::Digraph g(3);
  g.add_arc(0, 1, 1, 0);
  g.add_arc(1, 2, 1, 0);
  g.add_arc(2, 0, 1, 0);
  return g;
}

TEST(IncidenceTest, ApplyMatchesDefinition) {
  const graph::Digraph g = triangle();
  const IncidenceOp a(g);  // drops vertex 2
  const Vec h{3.0, 5.0, 100.0};  // h[2] ignored (dropped)
  const Vec y = a.apply(h);
  EXPECT_DOUBLE_EQ(y[0], 5.0 - 3.0);   // arc 0->1
  EXPECT_DOUBLE_EQ(y[1], 0.0 - 5.0);   // arc 1->2, column 2 dropped
  EXPECT_DOUBLE_EQ(y[2], 3.0 - 0.0);   // arc 2->0
}

TEST(IncidenceTest, TransposeAdjoint) {
  // <Ah, x> == <h, A^T x> for random vectors.
  par::Rng rng(3);
  const graph::Digraph g = graph::random_flow_network(20, 80, 5, 5, rng);
  const IncidenceOp a(g);
  Vec h(a.cols()), x(a.rows());
  for (auto& v : h) v = rng.next_double();
  h[static_cast<std::size_t>(a.dropped())] = 0.0;
  for (auto& v : x) v = rng.next_double();
  const double lhs = dot(a.apply(h), x);
  const double rhs = dot(h, a.apply_transpose(x));
  EXPECT_NEAR(lhs, rhs, 1e-9);
}

TEST(LaplacianTest, MatchesOperatorComposition) {
  // A^T D A h computed via CSR equals apply_transpose(d .* apply(h)).
  par::Rng rng(4);
  const graph::Digraph g = graph::random_flow_network(15, 60, 5, 5, rng);
  const IncidenceOp a(g);
  Vec d(a.rows());
  for (auto& v : d) v = 0.1 + rng.next_double();
  const Csr lap = reduced_laplacian(g, d, a.dropped());
  Vec h(a.cols());
  for (auto& v : h) v = rng.next_double() - 0.5;
  h[static_cast<std::size_t>(a.dropped())] = 0.0;
  const Vec lhs = lap.apply(h);
  const Vec rhs = a.apply_transpose(mul(d, a.apply(h)));
  for (std::size_t i = 0; i < h.size(); ++i) {
    if (i == static_cast<std::size_t>(a.dropped())) continue;
    EXPECT_NEAR(lhs[i], rhs[i], 1e-9);
  }
}

TEST(SddSolverTest, SolvesRandomLaplacianSystems) {
  par::Rng rng(5);
  for (int trial = 0; trial < 5; ++trial) {
    const graph::Digraph g = graph::random_flow_network(30, 120, 5, 5, rng);
    const IncidenceOp a(g);
    Vec d(a.rows());
    for (auto& v : d) v = 0.1 + rng.next_double();
    const Csr lap = reduced_laplacian(g, d, a.dropped());
    Vec xtrue(a.cols());
    for (auto& v : xtrue) v = rng.next_double() - 0.5;
    const Vec b = lap.apply(xtrue);
    const auto res = solve_sdd(pmcf::core::default_context(), lap, b, {.tolerance = 1e-12, .max_iters = 5000});
    EXPECT_TRUE(res.converged);
    for (std::size_t i = 0; i < xtrue.size(); ++i) EXPECT_NEAR(res.x[i], xtrue[i], 1e-6);
  }
}

TEST(SddSolverTest, ZeroRhsReturnsZero) {
  const graph::Digraph g = triangle();
  const IncidenceOp a(g);
  const Csr lap = reduced_laplacian(g, {1.0, 1.0, 1.0}, a.dropped());
  const auto res = solve_sdd(pmcf::core::default_context(), lap, Vec(3, 0.0));
  EXPECT_TRUE(res.converged);
  EXPECT_EQ(res.x, Vec(3, 0.0));
}

/// ‖L x − b‖ / ‖b‖ over the grounded rows, in long double.
long double grounded_residual(const graph::Digraph& g, const Vec& c, graph::Vertex dropped,
                              const Vec& x, const Vec& b) {
  std::vector<long double> r(b.size(), 0.0L);
  for (graph::EdgeId e = 0; e < g.num_arcs(); ++e) {
    const auto u = static_cast<std::size_t>(g.arc(e).from);
    const auto v = static_cast<std::size_t>(g.arc(e).to);
    const long double i = static_cast<long double>(c[static_cast<std::size_t>(e)]) *
                          (static_cast<long double>(x[u]) - static_cast<long double>(x[v]));
    r[u] += i;
    r[v] -= i;
  }
  long double rr = 0.0L;
  long double bb = 0.0L;
  for (std::size_t i = 0; i < b.size(); ++i) {
    if (i == static_cast<std::size_t>(dropped)) continue;
    const long double t = r[i] - static_cast<long double>(b[i]);
    rr += t * t;
    bb += static_cast<long double>(b[i]) * b[i];
  }
  return std::sqrt(rr / bb);
}

TEST(GroundedFactorTest, SolvesAcrossTwelveDecadesOfConductance) {
  // The Newton systems' shape late on the path: conductances log-uniform
  // over 1e12. The factor's every entry is a sum of non-negative terms, so
  // its solve keeps the residual at the rounding level.
  GroundedFactor fac;
  for (const std::uint64_t seed : {1, 2, 3, 4, 5, 6}) {
    par::Rng rng(seed);
    const auto n = static_cast<graph::Vertex>(8 + 8 * (seed % 6));
    const graph::Digraph g = graph::random_flow_network(n, 6 * n, 5, 5, rng);
    const IncidenceOp a(g);
    Vec c(a.rows());
    for (auto& x : c) x = std::pow(10.0, -12.0 * rng.next_double());
    Vec b(a.cols());
    for (auto& x : b) x = rng.next_double() - 0.5;
    fac.factor(a, c, 0.0);
    Vec x(a.cols(), 1.0);
    fac.solve(b, x);
    EXPECT_EQ(x[static_cast<std::size_t>(a.dropped())], 0.0);
    EXPECT_LE(grounded_residual(g, c, a.dropped(), x, b), 1e-12L) << "seed " << seed;
  }
}

TEST(GroundedFactorTest, PinnedVertexIsSolvedAsGround) {
  // Vertex 10 hangs off vertex 3 by a 1e-29 conductance, far under the
  // floor, and its right-hand side entry is noise: δy is 0 there, and the
  // other entries solve the system in which vertex 10 is ground.
  par::Rng rng(8);
  const graph::Digraph g = graph::random_flow_network(10, 40, 5, 5, rng);
  const graph::Vertex hung = 10;
  graph::Digraph with_hung(11);
  for (const auto& arc : g.arcs()) with_hung.add_arc(arc.from, arc.to, arc.cap, arc.cost);
  with_hung.add_arc(3, hung, 1, 1);
  const IncidenceOp a(with_hung, 0);
  Vec c(a.rows());
  for (auto& x : c) x = 0.1 + rng.next_double();
  c.back() = 1e-29;
  Vec b(a.cols());
  for (auto& x : b) x = rng.next_double() - 0.5;
  b[0] = 0.0;
  b[static_cast<std::size_t>(hung)] = 1e-20;
  GroundedFactor fac;
  fac.factor(a, c, 1e-14);
  Vec x(a.cols());
  fac.solve(b, x);
  EXPECT_EQ(fac.pivot(fac.row(hung)), 0.0);
  EXPECT_EQ(x[static_cast<std::size_t>(hung)], 0.0);

  // The reference: dense elimination of L with the hung vertex's row and
  // column removed (its conductance stays on vertex 3's diagonal).
  const Csr lap = reduced_laplacian(with_hung, c, a.dropped());
  const std::size_t keep = a.cols() - 1;  // every vertex but the hung one
  Dense dense(keep, keep);
  for (std::size_t r = 0; r < keep; ++r)
    for (std::int64_t k = lap.offsets()[r]; k < lap.offsets()[r + 1]; ++k) {
      const auto col = static_cast<std::size_t>(lap.cols()[static_cast<std::size_t>(k)]);
      if (col < keep) dense.at(r, col) += lap.vals()[static_cast<std::size_t>(k)];
    }
  const Vec want = dense.solve(Vec(b.begin(), b.begin() + static_cast<std::ptrdiff_t>(keep)));
  for (std::size_t i = 1; i < keep; ++i)
    EXPECT_NEAR(x[i], want[i], 1e-12 * norm_inf(want)) << "vertex " << i;
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

TEST(DenseTest, Solve) {
  Dense m(2, 2);
  m.at(0, 0) = 4;
  m.at(0, 1) = 1;
  m.at(1, 0) = 1;
  m.at(1, 1) = 3;
  const Vec x = m.solve({9.0, 7.0});
  EXPECT_NEAR(x[0], 20.0 / 11.0, 1e-12);
  EXPECT_NEAR(x[1], 19.0 / 11.0, 1e-12);
}

TEST(DenseTest, SingularThrows) {
  Dense m(2, 2);
  m.at(0, 0) = 1;
  m.at(0, 1) = 2;
  m.at(1, 0) = 2;
  m.at(1, 1) = 4;
  EXPECT_THROW((void)m.solve({1.0, 1.0}), std::runtime_error);
}

TEST(LeverageTest, SumsToRankAndBounded) {
  // sum of leverage scores = rank(A) = n-1 (one column dropped);
  // each score in [0, 1].
  par::Rng rng(6);
  const graph::Digraph g = graph::random_flow_network(12, 50, 5, 5, rng);
  const IncidenceOp a(g);
  Vec v(a.rows());
  for (auto& x : v) x = 0.2 + rng.next_double();
  const Vec sigma = leverage_scores_exact(a, v);
  double total = 0.0;
  for (const double s : sigma) {
    EXPECT_GE(s, -1e-9);
    EXPECT_LE(s, 1.0 + 1e-9);
    total += s;
  }
  EXPECT_NEAR(total, static_cast<double>(a.cols() - 1), 1e-6);
}

TEST(LeverageTest, ExactOracleSurvivesWeightSpread) {
  // Two heavy triangles hung off the ground vertex 6 by light arcs:
  // {0,1,2} with conductance h on each arc, {3,4,5} with h, 2h, h. As h
  // grows the scores tend to effective resistances of the light network;
  // a dense inverse of A^T V^2 A loses them at h = 1e16 and leaves [0, 1].
  graph::Digraph g(7);
  const graph::Vertex arcs[][2] = {{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5},
                                 {5, 3}, {2, 6}, {5, 6}, {0, 3}};
  for (const auto& arc : arcs) g.add_arc(arc[0], arc[1], 1, 1);
  const IncidenceOp a(g);
  const Vec want{2.0 / 3.0, 2.0 / 3.0, 2.0 / 3.0, 0.6, 0.8, 0.6, 0.7, 0.9, 0.4};
  for (const double h : {1e12, 1e16, 1e20}) {
    const double c[] = {h, h, h, h, 2 * h, h, 1, 3, 0.5};
    Vec v(9);
    for (std::size_t e = 0; e < 9; ++e) v[e] = std::sqrt(c[e]);
    const Vec sigma = leverage_scores_exact(a, v);
    for (std::size_t e = 0; e < 9; ++e)
      EXPECT_NEAR(sigma[e], want[e], 1e-9) << "h = " << h << " arc " << e;
  }

  // Scores of any weighting sum to the rank n - 1, also when the weights
  // span 24 decades.
  for (const std::uint64_t seed : {1, 2, 3}) {
    par::Rng rng(seed);
    const graph::Digraph net = graph::random_flow_network(24, 160, 5, 5, rng);
    const IncidenceOp an(net);
    Vec v(an.rows());
    for (auto& x : v) x = std::pow(10.0, 12.0 * rng.next_double());  // v² spans 1e24
    const Vec sigma = leverage_scores_exact(an, v);
    const auto n = static_cast<double>(an.cols());
    EXPECT_NEAR(sum(sigma), n - 1.0, 1e-12 * n) << "seed " << seed;
  }
}

/// One JL pass of width `k` over the context's cached Laplacian and
/// leverage factor, as leverage_scores runs it on graphs wider than k.
Vec sketch_pass(core::SolverContext& ctx, const IncidenceOp& a, const Vec& v, std::size_t k,
                par::Rng& rng, const SolveOptions& solve) {
  const Vec w = mul(v, v);
  AccelCache& cache = accel_cache(ctx);
  const Csr& lap = cache.laplacian(ctx, a.graph(), w, a.dropped());
  const SddPreconditioner& precond = cache.preconditioner(ctx, AccelSite::kLeverage, lap, w);
  return sketched_leverage(ctx, a, v, lap, precond, k, rng, solve);
}

TEST(LeverageTest, SketchedApproximatesExact) {
  par::Rng rng(7);
  const graph::Digraph g = graph::random_flow_network(12, 60, 5, 5, rng);
  const IncidenceOp a(g);
  Vec v(a.rows());
  for (auto& x : v) x = 0.2 + rng.next_double();
  const Vec exact = leverage_scores_exact(a, v);
  par::Rng rng2(77);
  core::SolverContext ctx;
  const Vec approx = sketch_pass(ctx, a, v, 400, rng2, {});
  for (std::size_t i = 0; i < exact.size(); ++i)
    EXPECT_NEAR(approx[i], exact[i], 0.25 * std::max(exact[i], 0.05));
}

TEST(LeverageTest, SolveToleranceStaysBelowSketchError) {
  // The default sketch solve stops CG far short of 1e-10; that must cost no
  // accuracy the JL estimate has. Row weights spread over six decades, the
  // shape 1/sqrt(phi'') takes late on the central path. The solves draw no
  // randomness, so both runs see the same Rademacher rows.
  for (const std::uint64_t seed : {1, 2, 3}) {
    par::Rng rng(seed);
    const graph::Digraph g = graph::random_flow_network(16, 96, 5, 5, rng);
    const IncidenceOp a(g);
    Vec v(a.rows());
    for (auto& x : v) x = std::pow(10.0, -6.0 * rng.next_double());
    const Vec exact = leverage_scores_exact(a, v);
    const auto mean_error = [&](const SolveOptions& solve) {
      core::SolverContext ctx;
      par::Rng sketch_rng(100 + seed);
      const auto k = static_cast<std::size_t>(LeverageOptions{}.sketch_dim);
      const Vec sigma = sketch_pass(ctx, a, v, k, sketch_rng, solve);
      double err = 0.0;
      for (std::size_t i = 0; i < exact.size(); ++i) err += std::abs(sigma[i] - exact[i]);
      return err / static_cast<double>(exact.size());
    };
    SolveOptions tight = LeverageOptions{}.solve;
    tight.tolerance = 1e-10;
    const double loose_err = mean_error(LeverageOptions{}.solve);
    const double tight_err = mean_error(tight);
    EXPECT_LE(loose_err, 1.1 * tight_err) << "seed " << seed << ": default " << loose_err
                                          << " vs 1e-10 " << tight_err;
  }
}

TEST(LeverageTest, SketchOnlyWhenWiderThanItsRows) {
  // Up to sketch_dim columns leverage_scores is the exact oracle bit for
  // bit and draws nothing; one column more and it sketches.
  par::Rng rng(12);
  const graph::Digraph g = graph::random_flow_network(12, 60, 5, 5, rng);
  const IncidenceOp a(g);
  Vec v(a.rows());
  for (auto& x : v) x = 0.2 + rng.next_double();
  const Vec exact = leverage_scores_exact(a, v);
  const auto cols = static_cast<std::int32_t>(a.cols());
  core::SolverContext ctx;
  par::Rng draws(5);
  const Vec at_width = leverage_scores(ctx, a, v, draws, {.sketch_dim = cols, .solve = {}});
  ASSERT_EQ(at_width.size(), exact.size());
  for (std::size_t e = 0; e < exact.size(); ++e) EXPECT_EQ(bits(at_width[e]), bits(exact[e]));
  EXPECT_EQ(draws.next_u64(), par::Rng(5).next_u64());
  const Vec narrower = leverage_scores(ctx, a, v, draws, {.sketch_dim = cols - 1, .solve = {}});
  EXPECT_NE(narrower, exact);
  EXPECT_NEAR(sum(narrower), sum(exact), 0.5 * sum(exact));
}

/// The per-row JL pass sketched_leverage replaced, kept as its twin: row r
/// is drawn, multiplied by v and sent through A^T on its own, the k columns
/// go through solve_sdd_multi, and each solution comes back through A
/// before its squares are added to sigma; then the clamp. `zero_rhs`
/// counts the right-hand sides that came out exactly zero.
Vec per_row_sketch(core::SolverContext& ctx, const IncidenceOp& a, const Vec& v, const Csr& lap,
                   const SddPreconditioner& precond, std::size_t k, par::Rng& rng,
                   const SolveOptions& solve, std::size_t& zero_rhs) {
  const std::size_t m = a.rows();
  Vec sigma(m, 0.0);
  const double inv_sqrt_k = 1.0 / std::sqrt(static_cast<double>(k));
  Vec jr(m);
  Vec vj(m);
  Vec z(m);
  std::vector<Vec> rhs(k, Vec(a.cols()));
  zero_rhs = 0;
  for (std::size_t r = 0; r < k; ++r) {
    for (std::size_t e = 0; e < m; ++e) jr[e] = rng.rademacher() * inv_sqrt_k;
    par::charge(m, 1);
    mul_into(v, jr, vj);
    a.apply_transpose_into(vj, rhs[r]);
    rhs[r][static_cast<std::size_t>(a.dropped())] = 0.0;
    if (std::all_of(rhs[r].begin(), rhs[r].end(), [](double x) { return x == 0.0; })) ++zero_rhs;
  }
  const std::vector<SolveResult> sols = solve_sdd_multi(ctx, lap, rhs, precond, solve);
  for (std::size_t r = 0; r < k; ++r) {
    a.apply_into(sols[r].x, z);
    par::parallel_for(0, m, [&](std::size_t e) {
      const double t = v[e] * z[e];
      sigma[e] += t * t;
    });
  }
  par::parallel_for(0, m, [&](std::size_t e) { sigma[e] = std::clamp(sigma[e], 0.0, 1.0); });
  return sigma;
}

struct SketchCase {
  const char* name;
  graph::Digraph g;
  Vec v;
};

/// Every shape the blocked pass must reproduce: a random network, the same
/// network with parallel copies of some arcs, and a star around `hub` whose
/// spokes come in equal-weight pairs (so a right-hand side vanishes whenever
/// every pair's signs cancel) beside zero-weight arcs.
std::vector<SketchCase> sketch_cases(graph::Vertex hub) {
  std::vector<SketchCase> out;
  par::Rng rng(41);
  graph::Digraph g = graph::random_flow_network(12, 60, 5, 5, rng);
  Vec v(static_cast<std::size_t>(g.num_arcs()));
  for (auto& x : v) x = 0.2 + rng.next_double();
  out.push_back({"random", g, v});
  for (graph::EdgeId e = 0; e < 60; e += 7) {
    const auto arc = g.arc(e);
    g.add_arc(arc.from, arc.to, arc.cap, arc.cost);
    v.push_back(v[static_cast<std::size_t>(e)]);
  }
  out.push_back({"parallel_arcs", g, v});
  graph::Digraph star(3);
  Vec sv;
  for (graph::Vertex u = 0; u < 3; ++u) {
    if (u == hub) continue;
    const double w = 0.5 + 0.25 * u;
    star.add_arc(u, hub, 1, 1);
    star.add_arc(hub, u, 1, 1);
    sv.insert(sv.end(), {w, w});
  }
  star.add_arc(hub == 0 ? 1 : 0, hub == 2 ? 1 : 2, 1, 1);
  sv.push_back(0.0);
  out.push_back({"zero_weights", star, sv});
  return out;
}

TEST(LeverageTest, BlockedSketchMatchesPerRowPass) {
  // The blocked pass must be the per-row pass bit for bit: the same draws
  // in the same order, the same sigma, and the same PRAM charges, at every
  // sketch width, dropped vertex and context mode, with and without
  // injected CG stagnation.
  const SolveOptions solve = LeverageOptions{}.solve;
  std::size_t zero_rhs_seen = 0;
  std::uint64_t stagnations = 0;
  for (const bool stagnate : {false, true}) {
    for (const bool instrument : {true, false}) {
      for (const graph::Vertex drop_at : {0, 1, 2}) {
        for (const SketchCase& c : sketch_cases(drop_at)) {
          const graph::Vertex n = c.g.num_vertices();
          const graph::Vertex dropped = drop_at == 0 ? 0 : drop_at == 1 ? n / 2 : n - 1;
          const IncidenceOp a(c.g, dropped);
          const Vec w = mul(c.v, c.v);
          for (const std::size_t k : {1, 3, 8, 12, 48, 96}) {
            SCOPED_TRACE(testing::Message() << c.name << " dropped=" << dropped << " k=" << k
                                            << " instrument=" << instrument
                                            << " stagnate=" << stagnate);
            core::SolverContext ctx_twin({.instrument = instrument});
            core::SolverContext ctx_new({.instrument = instrument});
            if (stagnate) {
              ctx_twin.fault().arm(par::FaultKind::kCgStagnation, 0.3, 17 + k);
              ctx_new.fault().arm(par::FaultKind::kCgStagnation, 0.3, 17 + k);
            }
            AccelCache& cache = accel_cache(ctx_twin);
            const Csr& lap = cache.laplacian(ctx_twin, c.g, w, a.dropped());
            const SddPreconditioner& precond =
                cache.preconditioner(ctx_twin, AccelSite::kLeverage, lap, w);

            par::Rng rng_twin(1000 + k);
            par::Rng rng_new(1000 + k);
            std::size_t zero_rhs = 0;
            Vec twin;
            Vec blocked;
            par::Cost cost_twin;
            par::Cost cost_new;
            {
              const core::ContextScope scope(ctx_twin);
              const par::CostScope cs;
              twin = per_row_sketch(ctx_twin, a, c.v, lap, precond, k, rng_twin, solve, zero_rhs);
              cost_twin = cs.elapsed();
            }
            {
              const core::ContextScope scope(ctx_new);
              const par::CostScope cs;
              blocked = sketched_leverage(ctx_new, a, c.v, lap, precond, k, rng_new, solve);
              cost_new = cs.elapsed();
            }
            zero_rhs_seen += zero_rhs;
            stagnations += ctx_new.fault().fired_total();

            ASSERT_EQ(blocked.size(), twin.size());
            for (std::size_t e = 0; e < twin.size(); ++e)
              ASSERT_EQ(bits(blocked[e]), bits(twin[e])) << "arc " << e;
            EXPECT_EQ(cost_new, cost_twin);
            if (instrument) {
              EXPECT_GT(cost_new.work, 0u);
            }
            EXPECT_EQ(ctx_new.fault().fired_total(), ctx_twin.fault().fired_total());
            for (int t = 0; t < 4; ++t) ASSERT_EQ(rng_new.next_u64(), rng_twin.next_u64());
          }
        }
      }
    }
  }
  EXPECT_GT(zero_rhs_seen, 0u) << "no case exercised a zero right-hand side";
  EXPECT_GT(stagnations, 0u) << "the armed runs never injected a stagnation";
}

TEST(LewisTest, ExponentFormula) {
  EXPECT_NEAR(lewis_p(400, 100), 1.0 - 1.0 / (4.0 * std::log(16.0)), 1e-12);
}

TEST(LewisTest, FixedPointResidualSmall) {
  // tau should satisfy tau ~= sigma(T^{1/2-1/p} V A) + z after convergence.
  par::Rng rng(8);
  const graph::Digraph g = graph::random_flow_network(12, 60, 5, 5, rng);
  const IncidenceOp a(g);
  Vec v(a.rows());
  for (auto& x : v) x = 0.2 + rng.next_double();
  par::Rng r2(9);
  LewisOptions opts;  // 12 columns, no wider than the sketch: exact scores
  opts.max_rounds = 200;
  opts.fixpoint_tol = 1e-10;
  const Vec tau = ipm_lewis_weights(pmcf::core::default_context(), a, v, r2, opts);
  // Recompute one fixed-point application and compare.
  const double p = lewis_p(a.rows(), a.cols());
  const double expo = 0.5 - 1.0 / p;
  Vec scaled(a.rows());
  for (std::size_t i = 0; i < tau.size(); ++i) scaled[i] = std::pow(tau[i], expo) * v[i];
  const Vec sigma = leverage_scores_exact(a, scaled);
  const double reg = static_cast<double>(a.cols()) / static_cast<double>(a.rows());
  for (std::size_t i = 0; i < tau.size(); ++i)
    EXPECT_NEAR(tau[i], sigma[i] + reg, 1e-6 + 1e-4 * tau[i]);
}

TEST(LewisTest, WeightsAboveRegularizer) {
  par::Rng rng(10);
  const graph::Digraph g = graph::random_flow_network(10, 40, 5, 5, rng);
  const IncidenceOp a(g);
  Vec v(a.rows(), 1.0);
  par::Rng r2(11);
  const Vec tau = ipm_lewis_weights(pmcf::core::default_context(), a, v, r2);
  const double reg = static_cast<double>(a.cols()) / static_cast<double>(a.rows());
  for (const double t : tau) EXPECT_GE(t, reg - 1e-9);
}

}  // namespace
}  // namespace pmcf::linalg
