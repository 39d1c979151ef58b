// Tests for the solver acceleration layer (DESIGN.md §10):
//  - solve_sdd and solve_sdd_multi compute the same bits in every execution
//    mode (serial wall, pooled wall, instrumented): each multi-RHS column
//    equals its own k = 1 solve, under both preconditioner kinds, with fault
//    injection armed (the draw streams line up column by column), and under
//    the one warm-start rule (kept, zero and rejected seeds, a zero
//    right-hand side, a block with no seed);
//  - the SddPreconditioner cache reuses a factor while weight drift stays
//    under the threshold and rebuilds past it;
//  - Laplacian::refresh_values produces bitwise the same matrix as a fresh
//    build at the new weights (the canonical contribution-map summation);
//  - warm-started escalation rungs recover from injected kCgStagnation with
//    fewer total CG iterations than cold rungs;
//  - SolveStats surfaces the acceleration telemetry of a full MCF solve.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/solver_context.hpp"
#include "graph/generators.hpp"
#include "linalg/accel_cache.hpp"
#include "linalg/incidence.hpp"
#include "linalg/laplacian.hpp"
#include "linalg/preconditioner.hpp"
#include "linalg/sdd_solver.hpp"
#include "linalg/kernels.hpp"
#include "mcf/min_cost_flow.hpp"
#include "parallel/fault_injection.hpp"
#include "parallel/rng.hpp"
#include "parallel/thread_pool.hpp"
#include "parallel/work_depth.hpp"

namespace pmcf {
namespace {

using linalg::Vec;

struct Problem {
  graph::Digraph g{0};
  graph::Vertex dropped = 0;
  Vec d;
  linalg::Csr lap;
  std::vector<Vec> rhs;
};

Problem make_problem(std::uint64_t seed, std::size_t k, graph::Vertex n = 48,
                     std::int64_t m = 320) {
  par::Rng rng(seed);
  Problem p;
  p.g = graph::random_flow_network(n, m, 40, 40, rng);
  const linalg::IncidenceOp a(p.g);
  p.dropped = a.dropped();
  p.d.resize(a.rows());
  for (auto& x : p.d) x = 0.25 + rng.next_double();
  p.lap = linalg::reduced_laplacian(p.g, p.d, p.dropped);
  p.rhs.assign(k, Vec(a.cols()));
  for (auto& b : p.rhs) {
    for (auto& x : b) x = rng.next_double() - 0.5;
    b[static_cast<std::size_t>(p.dropped)] = 0.0;
  }
  return p;
}

void expect_bit_identical(const linalg::SolveResult& single, const linalg::SolveResult& multi,
                          std::size_t j) {
  EXPECT_EQ(single.iterations, multi.iterations) << "column " << j;
  EXPECT_EQ(single.converged, multi.converged) << "column " << j;
  EXPECT_EQ(single.status, multi.status) << "column " << j;
  EXPECT_EQ(single.relative_residual, multi.relative_residual) << "column " << j;
  ASSERT_EQ(single.x.size(), multi.x.size()) << "column " << j;
  for (std::size_t i = 0; i < single.x.size(); ++i)
    EXPECT_EQ(single.x[i], multi.x[i]) << "column " << j << " entry " << i;
}

class AccelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    par::ThreadPool::configure(1);
    par::Tracker::instance().set_enabled(false);
  }
  void TearDown() override {
    par::ThreadPool::configure(1);
    par::Tracker::instance().set_enabled(true);
  }
};

enum class Mode { kWallSerial, kWallPool, kInstrumented };

/// Singles solved once in serial wall mode are the reference; under `mode`
/// each single solve and each solve_sdd_multi column must reproduce them
/// bit for bit.
void run_mode(graph::Vertex n, std::int64_t m, linalg::PrecondKind kind, Mode mode) {
  const std::size_t k = 7;
  const Problem p = make_problem(1234, k, n, m);
  linalg::SddPreconditioner precond;
  precond.build(p.lap, kind);
  ASSERT_EQ(precond.effective_kind(), kind);
  linalg::SolveOptions opts;
  opts.tolerance = 1e-10;
  opts.max_iters = 400;

  par::ThreadPool::configure(1);
  par::Tracker::instance().set_enabled(false);
  std::vector<linalg::SolveResult> reference;
  core::SolverContext ctx_ref;
  for (std::size_t j = 0; j < k; ++j) {
    reference.push_back(linalg::solve_sdd(ctx_ref, p.lap, p.rhs[j], precond, opts));
    EXPECT_TRUE(reference[j].converged) << "column " << j;
  }

  par::ThreadPool::configure(mode == Mode::kWallPool ? 4 : 1);
  par::Tracker::instance().set_enabled(mode == Mode::kInstrumented);
  core::SolverContext ctx_single, ctx_multi;
  for (std::size_t j = 0; j < k; ++j)
    expect_bit_identical(reference[j],
                         linalg::solve_sdd(ctx_single, p.lap, p.rhs[j], precond, opts), j);
  const auto multi = linalg::solve_sdd_multi(ctx_multi, p.lap, p.rhs, precond, opts);
  ASSERT_EQ(multi.size(), k);
  for (std::size_t j = 0; j < k; ++j) expect_bit_identical(reference[j], multi[j], j);
}

/// Runs `mode` at n = 48 and at n = 2000, where the 4-thread pool has enough
/// nonzeros to split the SpMV rows.
void run_mode_at_both_sizes(linalg::PrecondKind kind, Mode mode) {
  for (const auto& [n, m] : {std::pair<graph::Vertex, std::int64_t>{48, 320}, {2000, 13000}}) {
    SCOPED_TRACE(n);
    run_mode(n, m, kind, mode);
  }
}

TEST_F(AccelTest, MultiRhsMatchesSinglesBitwiseJacobiWallSerial) {
  run_mode_at_both_sizes(linalg::PrecondKind::kJacobi, Mode::kWallSerial);
}

TEST_F(AccelTest, MultiRhsMatchesSinglesBitwiseIncompleteCholeskyWallSerial) {
  run_mode_at_both_sizes(linalg::PrecondKind::kIncompleteCholesky, Mode::kWallSerial);
}

TEST_F(AccelTest, MultiRhsMatchesSinglesBitwiseWallPool) {
  run_mode_at_both_sizes(linalg::PrecondKind::kJacobi, Mode::kWallPool);
  run_mode_at_both_sizes(linalg::PrecondKind::kIncompleteCholesky, Mode::kWallPool);
}

TEST_F(AccelTest, MultiRhsMatchesSinglesBitwiseInstrumented) {
  run_mode_at_both_sizes(linalg::PrecondKind::kJacobi, Mode::kInstrumented);
  run_mode_at_both_sizes(linalg::PrecondKind::kIncompleteCholesky, Mode::kInstrumented);
}

TEST_F(AccelTest, MultiRhsMatchesSinglesUnderFaultInjection) {
  // Two identically-armed contexts: the multi-RHS path must consume its
  // stagnation draws once per column in ascending order, exactly as k
  // successive single solves would — so the injected failure pattern (and
  // every surviving column's trajectory) is bit-identical.
  const std::size_t k = 8;
  const Problem p = make_problem(555, k);
  linalg::SddPreconditioner precond;
  precond.build(p.lap, linalg::PrecondKind::kJacobi);
  linalg::SolveOptions opts;
  opts.tolerance = 1e-10;
  opts.max_iters = 400;

  core::SolverContext ctx_single, ctx_multi;
  ctx_single.fault().arm(par::FaultKind::kCgStagnation, 0.5, 99);
  ctx_multi.fault().arm(par::FaultKind::kCgStagnation, 0.5, 99);

  std::vector<linalg::SolveResult> singles;
  singles.reserve(k);
  for (std::size_t j = 0; j < k; ++j)
    singles.push_back(linalg::solve_sdd(ctx_single, p.lap, p.rhs[j], precond, opts));
  const auto multi = linalg::solve_sdd_multi(ctx_multi, p.lap, p.rhs, precond, opts);

  ASSERT_EQ(multi.size(), k);
  std::size_t failed = 0;
  for (std::size_t j = 0; j < k; ++j) {
    if (multi[j].status == SolveStatus::kNumericalFailure) ++failed;
    expect_bit_identical(singles[j], multi[j], j);
  }
  EXPECT_GE(failed, 1u) << "rate-0.5 injection should hit at least one of 8 columns";
  EXPECT_LT(failed, k) << "and at least one column should survive";
  EXPECT_EQ(ctx_single.fault().fired_total(), ctx_multi.fault().fired_total());
}

/// The CG loop's one warm-start rule, block against singles: a k = 6 block
/// mixing kept seeds (columns 0 and 4), zero seeds (1 and 5), a zero
/// right-hand side under a nonzero seed (2) and a rejected seed (3), then the
/// same block with no seeded column, which starts without an SpMV. Under
/// `mode` every column must equal its own k = 1 solve in serial wall mode bit
/// for bit, and the block must count the singles' warm-start hits.
void run_warm_start_rule(graph::Vertex nv, std::int64_t m, linalg::PrecondKind kind, Mode mode) {
  const std::size_t k = 6;
  Problem p = make_problem(4321, k, nv, m);
  const std::size_t n = p.lap.dim();
  std::fill(p.rhs[2].begin(), p.rhs[2].end(), 0.0);
  linalg::SddPreconditioner precond;
  precond.build(p.lap, kind);
  ASSERT_EQ(precond.effective_kind(), kind);
  linalg::SolveOptions opts;
  opts.tolerance = 1e-10;
  opts.max_iters = 400;

  par::ThreadPool::configure(1);
  par::Tracker::instance().set_enabled(false);
  std::vector<Vec> seeds(k, Vec(n, 0.0));
  for (const std::size_t j : {0u, 4u}) {
    core::SolverContext ctx;
    seeds[j] = linalg::solve_sdd(ctx, p.lap, p.rhs[j], precond, {.tolerance = 1e-3}).x;
  }
  seeds[2].assign(n, 0.5);
  seeds[3].assign(n, 1e6);

  for (const bool seeded : {true, false}) {
    SCOPED_TRACE(seeded ? "mixed block" : "unseeded block");
    if (!seeded) seeds.assign(k, Vec(n, 0.0));
    par::ThreadPool::configure(1);
    par::Tracker::instance().set_enabled(false);
    std::vector<linalg::SolveResult> singles;
    std::uint64_t hits = 0;
    for (std::size_t j = 0; j < k; ++j) {
      core::SolverContext ctx;
      singles.push_back(linalg::solve_sdd(ctx, p.lap, p.rhs[j], precond, opts, &seeds[j]));
      const std::uint64_t want = seeded && (j == 0 || j == 4) ? 1 : 0;
      EXPECT_EQ(ctx.accel().warm_start_hits, want) << "column " << j;
      hits += ctx.accel().warm_start_hits;
    }

    par::ThreadPool::configure(mode == Mode::kWallPool ? 4 : 1);
    par::Tracker::instance().set_enabled(mode == Mode::kInstrumented);
    Vec bb(n * k), bx(n * k);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < k; ++j) {
        bb[i * k + j] = p.rhs[j][i];
        bx[i * k + j] = seeds[j][i];
      }
    }
    core::SolverContext ctx_block;
    const auto info = linalg::solve_sdd_block(ctx_block, p.lap, bb, bx, k, precond, opts);
    EXPECT_EQ(ctx_block.accel().warm_start_hits, hits);
    EXPECT_EQ(ctx_block.accel().multi_rhs_solves, 1u);
    const auto column = [&](const Vec& x, std::size_t stride, std::size_t j,
                            const linalg::SolveInfo& in) {
      linalg::SolveResult col;
      col.x.resize(n);
      for (std::size_t i = 0; i < n; ++i) col.x[i] = x[i * stride + j];
      col.relative_residual = in.relative_residual;
      col.iterations = in.iterations;
      col.converged = in.converged;
      col.status = in.status;
      return col;
    };
    for (std::size_t j = 0; j < k; ++j) {
      expect_bit_identical(singles[j], column(bx, k, j, info[j]), j);
      core::SolverContext ctx;
      expect_bit_identical(singles[j],
                           linalg::solve_sdd(ctx, p.lap, p.rhs[j], precond, opts, &seeds[j]), j);
      // The runtime-k instance at k = 1 is the same solve, and not multi-RHS.
      Vec x1 = seeds[j];
      const auto one = linalg::solve_sdd_block(ctx, p.lap, p.rhs[j], x1, 1, precond, opts);
      expect_bit_identical(singles[j], column(x1, 1, 0, one[0]), j);
      EXPECT_EQ(ctx.accel().multi_rhs_solves, 0u);
    }
  }
}

TEST_F(AccelTest, BlockWarmStartRuleMatchesSingleSolves) {
  for (const Mode mode : {Mode::kWallSerial, Mode::kWallPool, Mode::kInstrumented}) {
    for (const auto kind : {linalg::PrecondKind::kJacobi, linalg::PrecondKind::kIncompleteCholesky}) {
      for (const auto& [n, m] : {std::pair<graph::Vertex, std::int64_t>{48, 320}, {2000, 13000}}) {
        SCOPED_TRACE(testing::Message() << "mode " << static_cast<int>(mode) << " kind "
                                        << static_cast<int>(kind) << " n " << n);
        run_warm_start_rule(n, m, kind, mode);
      }
    }
  }
}

TEST_F(AccelTest, PreconditionerCacheTracksWeightDrift) {
  const Problem p = make_problem(321, 1);
  core::SolverContext ctx;
  linalg::AccelCache& cache = linalg::accel_cache(ctx);

  const auto& p1 = cache.preconditioner(ctx, linalg::AccelSite::kNewton, p.lap, p.d);
  EXPECT_TRUE(p1.valid());
  EXPECT_EQ(ctx.accel().precond_builds, 1u);
  EXPECT_EQ(ctx.accel().precond_reuses, 0u);

  // Identical weights: served from cache.
  (void)cache.preconditioner(ctx, linalg::AccelSite::kNewton, p.lap, p.d);
  EXPECT_EQ(ctx.accel().precond_builds, 1u);
  EXPECT_EQ(ctx.accel().precond_reuses, 1u);

  // Small drift (1%) stays under the 0.5 threshold: still a cache hit.
  Vec drifted = p.d;
  for (auto& x : drifted) x *= 1.01;
  const linalg::Csr lap_small = linalg::reduced_laplacian(p.g, drifted, p.dropped);
  (void)cache.preconditioner(ctx, linalg::AccelSite::kNewton, lap_small, drifted);
  EXPECT_EQ(ctx.accel().precond_builds, 1u);
  EXPECT_EQ(ctx.accel().precond_reuses, 2u);

  // Large drift (2x) exceeds the threshold: forced rebuild.
  Vec doubled = p.d;
  for (auto& x : doubled) x *= 2.0;
  const linalg::Csr lap_big = linalg::reduced_laplacian(p.g, doubled, p.dropped);
  (void)cache.preconditioner(ctx, linalg::AccelSite::kNewton, lap_big, doubled);
  EXPECT_EQ(ctx.accel().precond_builds, 2u);
  EXPECT_EQ(ctx.accel().precond_reuses, 2u);

  // Distinct sites cache independently.
  (void)cache.preconditioner(ctx, linalg::AccelSite::kLeverage, p.lap, p.d);
  EXPECT_EQ(ctx.accel().precond_builds, 3u);
}

TEST_F(AccelTest, LaplacianRefreshMatchesFreshBuildBitwise) {
  par::Rng rng(777);
  const graph::Digraph g = graph::random_flow_network(40, 280, 30, 30, rng);
  const linalg::IncidenceOp a(g);
  Vec d1(a.rows()), d2(a.rows());
  for (auto& x : d1) x = 0.1 + rng.next_double();
  for (auto& x : d2) x = 0.1 + 2.0 * rng.next_double();

  linalg::Laplacian refreshed;
  refreshed.build(g, d1, a.dropped());
  ASSERT_TRUE(refreshed.matches(g, a.dropped()));
  refreshed.refresh_values(d2);

  linalg::Laplacian fresh;
  fresh.build(g, d2, a.dropped());

  const linalg::Csr& ra = refreshed.matrix();
  const linalg::Csr& rb = fresh.matrix();
  ASSERT_EQ(ra.dim(), rb.dim());
  ASSERT_EQ(ra.nnz(), rb.nnz());
  for (std::size_t r = 0; r <= ra.dim(); ++r) EXPECT_EQ(ra.offsets()[r], rb.offsets()[r]);
  for (std::size_t i = 0; i < ra.nnz(); ++i) {
    EXPECT_EQ(ra.cols()[i], rb.cols()[i]) << "slot " << i;
    EXPECT_EQ(ra.vals()[i], rb.vals()[i]) << "slot " << i;
  }

  // And the cache-level counters distinguish the two paths.
  core::SolverContext ctx;
  linalg::AccelCache& cache = linalg::accel_cache(ctx);
  (void)cache.laplacian(ctx, g, d1, a.dropped());
  EXPECT_EQ(ctx.accel().laplacian_builds, 1u);
  EXPECT_EQ(ctx.accel().laplacian_refreshes, 0u);
  (void)cache.laplacian(ctx, g, d2, a.dropped());
  EXPECT_EQ(ctx.accel().laplacian_builds, 1u);
  EXPECT_EQ(ctx.accel().laplacian_refreshes, 1u);
}

TEST_F(AccelTest, WarmRungsRecoverFromStagnationWithFewerIterations) {
  // Arm stagnation so that the first resilient rung is killed by injection.
  // A good caller seed must survive that rung (it ran zero CG iterations and
  // may not clobber the seed) and make the retry converge in fewer total
  // iterations than the cold ladder pays on the identical draw pattern.
  const Problem p = make_problem(2024, 1);
  linalg::SddPreconditioner precond;
  precond.build(p.lap, linalg::PrecondKind::kJacobi);
  linalg::ResilientSolveOptions ropts;
  ropts.base.tolerance = 1e-10;
  ropts.base.max_iters = 400;

  // Reference solution (no faults) to use as the warm seed.
  core::SolverContext clean;
  const auto exact = linalg::solve_sdd_resilient(clean, p.lap, p.rhs[0], ropts, &precond, nullptr);
  ASSERT_EQ(exact.status, SolveStatus::kOk);
  const std::int32_t cold_iters_clean = exact.iterations;

  // Find an injection seed whose first two draws are (fire, pass): rung 0
  // stagnates, rung 1 runs.
  std::uint64_t inj_seed = 0;
  for (std::uint64_t s = 1; s < 200; ++s) {
    core::SolverContext probe;
    probe.fault().arm(par::FaultKind::kCgStagnation, 0.5, s);
    const bool first = probe.fault().should_fire(par::FaultKind::kCgStagnation);
    const bool second = probe.fault().should_fire(par::FaultKind::kCgStagnation);
    if (first && !second) {
      inj_seed = s;
      break;
    }
  }
  ASSERT_NE(inj_seed, 0u) << "no (fire, pass) pattern in 200 seeds";

  core::SolverContext ctx_warm, ctx_cold;
  ctx_warm.fault().arm(par::FaultKind::kCgStagnation, 0.5, inj_seed);
  ctx_cold.fault().arm(par::FaultKind::kCgStagnation, 0.5, inj_seed);

  const auto warm =
      linalg::solve_sdd_resilient(ctx_warm, p.lap, p.rhs[0], ropts, &precond, &exact.x);
  const auto cold = linalg::solve_sdd_resilient(ctx_cold, p.lap, p.rhs[0], ropts, &precond, nullptr);

  ASSERT_EQ(warm.status, SolveStatus::kOk);
  ASSERT_EQ(cold.status, SolveStatus::kOk);
  EXPECT_GE(ctx_warm.fault().fired(par::FaultKind::kCgStagnation), 1u);
  // The cold ladder re-pays a full solve (at the escalated tolerance) on its
  // surviving rung; the warm ladder starts from the cached iterate and must
  // beat it. cold_iters_clean just documents the baseline cost.
  EXPECT_GT(cold_iters_clean, 0);
  EXPECT_LT(warm.iterations, cold.iterations)
      << "warm-started escalation should save CG iterations under stagnation";
  EXPECT_EQ(ctx_warm.accel().warm_start_hits, 1u);
}

TEST_F(AccelTest, SolveStatsSurfacesAccelTelemetry) {
  par::Rng rng(31);
  const graph::Digraph g = graph::random_flow_network(20, 90, 8, 8, rng);
  mcf::SolveOptions opts;
  opts.ipm.mu_end = 1e-3;
  opts.ipm.max_iters = 4000;
  opts.ipm.leverage.sketch_dim = 8;
  const auto res = mcf::min_cost_max_flow(g, 0, 19, opts);
  ASSERT_EQ(res.status, SolveStatus::kOk);
  ASSERT_GT(res.stats.ipm_iterations, 0);

  // The Laplacian pattern is built once and refreshed every iteration after
  // that; preconditioners are built at least once; the leverage sketch goes
  // through the blocked multi-RHS path.
  EXPECT_GE(res.stats.laplacian_builds, 1u);
  EXPECT_GT(res.stats.laplacian_refreshes, 0u);
  EXPECT_GT(res.stats.precond_builds, 0u);
  EXPECT_GT(res.stats.precond_reuses, 0u);
  EXPECT_GT(res.stats.multi_rhs_solves, 0u);
  EXPECT_GT(res.stats.multi_rhs_columns, res.stats.multi_rhs_solves);
  EXPECT_GT(res.stats.precond_hit_rate(), 0.0);
  EXPECT_LE(res.stats.precond_hit_rate(), 1.0);

  // Newton warm starts hit after the first iteration once the Newton
  // systems run CG: 49 columns, one past the exact solve.
  const graph::Digraph wide = graph::random_flow_network(48, 192, 8, 8, rng);
  const auto wide_res = mcf::min_cost_max_flow(wide, 0, 47, opts);
  ASSERT_EQ(wide_res.status, SolveStatus::kOk);
  EXPECT_GT(wide_res.stats.warm_start_hits, 0u);
}

TEST_F(AccelTest, SmallReferenceSolveBuildsNoLaplacian) {
  // 17 columns: every τ comes from the exact leverage oracle and every
  // Newton system from the exact factor, so the solve never assembles a
  // sparse Laplacian or a preconditioner, and runs no CG.
  par::Rng rng(42);
  const graph::Digraph g = graph::random_flow_network(16, 128, 6, 6, rng);
  mcf::SolveOptions opts;
  opts.method = mcf::Method::kReferenceIpm;
  const auto res = mcf::min_cost_max_flow(g, 0, 15, opts);
  ASSERT_EQ(res.status, SolveStatus::kOk);
  EXPECT_GT(res.stats.ipm_iterations, 0);
  EXPECT_EQ(res.stats.laplacian_builds, 0u);
  EXPECT_EQ(res.stats.laplacian_refreshes, 0u);
  EXPECT_EQ(res.stats.precond_builds, 0u);
  EXPECT_EQ(res.stats.cg_tolerance_escalations, 0u);
  EXPECT_EQ(res.stats.dense_fallbacks, 0u);
}

}  // namespace
}  // namespace pmcf
