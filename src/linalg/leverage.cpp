#include "linalg/leverage.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>

#include "core/solve_status.hpp"
#include "linalg/accel_cache.hpp"
#include "linalg/kernels.hpp"
#include "linalg/laplacian.hpp"
#include "parallel/fault_injection.hpp"
#include "parallel/scheduler.hpp"

namespace pmcf::linalg {

Vec leverage_scores_exact(const IncidenceOp& a, const Vec& v) {
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();
  const auto& g = a.graph();
  const auto drop = static_cast<std::size_t>(a.dropped());

  // M = A^T V^2 A as dense (with the dropped row/col pinned to identity).
  Dense mat(n, n);
  for (std::size_t e = 0; e < m; ++e) {
    const auto& arc = g.arc(static_cast<graph::EdgeId>(e));
    const auto u = static_cast<std::size_t>(arc.from);
    const auto w = static_cast<std::size_t>(arc.to);
    const double d = v[e] * v[e];
    if (u != drop) mat.at(u, u) += d;
    if (w != drop) mat.at(w, w) += d;
    if (u != drop && w != drop) {
      mat.at(u, w) -= d;
      mat.at(w, u) -= d;
    }
  }
  mat.at(drop, drop) += 1.0;
  const Dense minv = mat.inverse();

  Vec sigma(m, 0.0);
  for (std::size_t e = 0; e < m; ++e) {
    const auto& arc = g.arc(static_cast<graph::EdgeId>(e));
    const auto u = static_cast<std::size_t>(arc.from);
    const auto w = static_cast<std::size_t>(arc.to);
    // b = v_e * (e_w - e_u) restricted away from the dropped column.
    double quad = 0.0;
    if (u != drop) quad += minv.at(u, u);
    if (w != drop) quad += minv.at(w, w);
    if (u != drop && w != drop) quad -= 2.0 * minv.at(u, w);
    sigma[e] = v[e] * v[e] * quad;
  }
  return sigma;
}

Vec sketched_leverage(core::SolverContext& ctx, const IncidenceOp& a, const Vec& v,
                      const Csr& lap, const SddPreconditioner& precond, std::size_t k,
                      par::Rng& rng, const SolveOptions& solve) {
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();
  const std::int32_t* from = a.from().data();
  const std::int32_t* to = a.to().data();
  const auto drop = static_cast<std::size_t>(a.dropped());
  const double inv_sqrt_k = 1.0 / std::sqrt(static_cast<double>(k));
  // The k sketch rows are independent; in the PRAM model they run in parallel
  // (depth is one solve batch + O(log)). The whole pass lives in the blocked
  // CG's row-major n×k blocks: column r of `b` is the right-hand side
  // B^T J_r = A^T (v .* J_r) and column r of `y` its solution. Each column
  // is charged what one sketch row costs as separate passes: its m draws, the
  // v .* J_r product, A^T, a pack into and an unpack out of the CG block, A
  // and the sigma accumulation; the clamp is one more pass.
  for (std::size_t r = 0; r < k; ++r) {
    par::charge(m, 1);
    charge_passes(m, 1, 0);
    a.charge_apply_transpose();
    charge_passes(n, 2, 0);
    a.charge_apply();
    charge_passes(m, 1, 0);
  }
  charge_passes(m, 1, 0);

  auto& scr = accel_cache(ctx).scratch();
  Vec& b = scr.bb;
  Vec& y = scr.bx;
  b.assign(n * k, 0.0);
  y.assign(n * k, 0.0);
  // Row r of J (scaled by 1/sqrt(k)) is drawn after row r-1, arcs in order,
  // and scattered into column r as it is drawn: every column accumulates in
  // arc order, as IncidenceOp's transpose scatter does.
  for (std::size_t r = 0; r < k; ++r) {
    for (std::size_t e = 0; e < m; ++e) {
      const double t = v[e] * (rng.rademacher() * inv_sqrt_k);
      b[static_cast<std::size_t>(from[e]) * k + r] -= t;
      b[static_cast<std::size_t>(to[e]) * k + r] += t;
    }
    b[drop * k + r] = 0.0;
  }
  (void)solve_sdd_block(ctx, lap, b, y, k, precond, solve);

  // sigma_e = sum_r (B y_r)_e^2 = sum_r (v_e (A y_r)_e)^2, r ascending, with
  // y[dropped] reading as +0.0 as in IncidenceOp's gather.
  std::fill_n(y.begin() + static_cast<std::ptrdiff_t>(drop * k), k, 0.0);
  Vec sigma(m);
  par::wall_for(0, m, [&](std::size_t e) {
    const double* yu = y.data() + static_cast<std::size_t>(from[e]) * k;
    const double* yv = y.data() + static_cast<std::size_t>(to[e]) * k;
    double s = 0.0;
    for (std::size_t r = 0; r < k; ++r) {
      const double t = v[e] * (yv[r] - yu[r]);
      s += t * t;
    }
    sigma[e] = std::clamp(s, 0.0, 1.0);
  });
  return sigma;
}

namespace {

/// Leverage scores of any row scaling of the incidence matrix sum to its
/// rank (n-1); a sketch whose (clamped) sum lands far outside that is
/// corrupted beyond what JL noise explains. Loose enough that honest
/// sketches at small sketch_dim never trip it.
bool plausible_leverage(const Vec& sigma, std::size_t cols) {
  double sum = 0.0;
  for (const double s : sigma) sum += s;
  if (!std::isfinite(sum)) return false;
  const double rank = static_cast<double>(cols) - 1.0;
  return sum >= 0.2 * rank && sum <= 5.0 * rank + 1.0;
}

}  // namespace

Vec leverage_scores(core::SolverContext& ctx, const IncidenceOp& a, const Vec& v_in, par::Rng& rng,
                    const LeverageOptions& opts) {
  if (opts.sketch_dim < 1)
    throw ComponentError(SolveStatus::kInvalidInput, "linalg::leverage_scores",
                         "sketch_dim must be >= 1");
  // Leverage scores are invariant under uniform scaling of v; normalize so
  // the dropped row's unit pin stays commensurate with the weights.
  const double vmax = std::max(norm_inf(v_in), 1e-300);
  const Vec v = scale(v_in, 1.0 / vmax);
  const Vec w = mul(v, v);
  // Cached assembly + preconditioner: across IPM iterations the pattern is
  // fixed (value-only refresh) and the weights drift slowly, so the site's
  // incomplete-Cholesky factor usually survives several refreshes.
  AccelCache& cache = accel_cache(ctx);
  const Csr& lap = cache.laplacian(ctx, a.graph(), w, a.dropped());
  const SddPreconditioner& precond = cache.preconditioner(ctx, AccelSite::kLeverage, lap, w);

  // Retry-with-reseed recovery: each retry widens the sketch (doubling the
  // JL rows) and draws fresh Rademacher rows from a split stream.
  const core::SketchIngredient& skt = core::default_ingredients().sketch;
  auto k = static_cast<std::size_t>(opts.sketch_dim);
  for (std::int32_t attempt = 0; attempt < skt.max_attempts; ++attempt, k *= 2) {
    if (attempt > 0) ctx.recovery().note(RecoveryEvent::kSketchRetry);
    // Attempt 0 consumes `rng` exactly as the non-resilient version did;
    // retries keep drawing from the same stream, i.e. fresh Rademacher rows.
    // The kSketchCorruption injection point simulates a silently wrong
    // sketch by zeroing the estimate.
    Vec sigma = ctx.fault().should_fire(par::FaultKind::kSketchCorruption)
                    ? Vec(a.rows(), 0.0)
                    : sketched_leverage(ctx, a, v, lap, precond, k, rng, opts.solve);
    if (plausible_leverage(sigma, a.cols())) return sigma;
  }

  // Sketch persistently implausible: fall back to the dense oracle when the
  // O(n^3) cost is affordable, else report a typed sketch failure.
  if (a.cols() <= skt.dense_oracle_max_cols) {
    ctx.recovery().note(RecoveryEvent::kExactLeverageFallback);
    return leverage_scores_exact(a, v);
  }
  throw ComponentError(SolveStatus::kSketchFailure, "linalg::leverage_scores",
                       "JL sketch failed validation after reseeded retries");
}

}  // namespace pmcf::linalg
