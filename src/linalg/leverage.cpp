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

namespace {

/// PRAM cost of leverage_scores_exact past its GroundedFactor, as the
/// passes it runs: step k of the forward substitution, one pass over the
/// r = d − 1 − k rows after k in each of the k + 1 columns it reaches (the
/// columns run side by side); the p^{-1/2} scaling; and one reduction of
/// length at most d per arc, all arcs side by side.
void charge_exact(std::size_t d, std::size_t m) {
  PassTally cost;
  for (std::size_t k = 0; k < d; ++k) cost.add((k + 1) * (d - 1 - k), 1, 0);
  cost.add(d * (d + 1) / 2, 1, 0);
  cost.work += m * d;
  cost.depth += 2 * par::ceil_log2(std::max<std::size_t>(d, 1)) + 1;
  cost.charge();
}

}  // namespace

Vec leverage_scores_exact(const IncidenceOp& a, const Vec& v) {
  const std::size_t m = a.rows();
  const std::size_t d = a.cols() - 1;  // grounded vertices; the dropped one is ground
  const std::int32_t* from = a.from().data();
  const std::int32_t* to = a.to().data();
  // Leverage scores are invariant under uniform scaling of v; conductances
  // (v_e / max v)² lie in [0, 1], so none overflows.
  const double vmax = std::max(norm_inf(v), 1e-300);
  Vec conductance(m);
  for (std::size_t e = 0; e < m; ++e) {
    const double t = v[e] / vmax;
    conductance[e] = t * t;
  }
  // Floor 0 pins only the vertices cut off from ground: no current passes
  // through them.
  GroundedFactor fac;
  fac.factor(a, conductance, 0.0);
  charge_exact(d, m);

  // Row j of q is column j of D^{-1/2} (I − F)^{-1}, where the grounded
  // Laplacian is (I − F) D (I − F)ᵀ. (I − F)^{-1} = I + F + F² + … has no
  // negative entry, so the forward substitution only adds. Row d, ground,
  // stays zero.
  Vec rsqrt_pivot(d, 0.0);
  for (std::size_t k = 0; k < d; ++k)
    if (fac.pivot(k) > 0.0) rsqrt_pivot[k] = 1.0 / std::sqrt(fac.pivot(k));
  Vec q((d + 1) * d, 0.0);
  for (std::size_t j = 0; j < d; ++j) {
    double* qj = q.data() + j * d;
    qj[j] = 1.0;
    for (std::size_t k = j; k + 1 < d; ++k) {
      const double t = qj[k];
      if (t == 0.0) continue;
      const double* fk = fac.multipliers(k);
      for (std::size_t i = k + 1; i < d; ++i) qj[i] += fk[i] * t;
    }
    for (std::size_t i = j; i < d; ++i) qj[i] *= rsqrt_pivot[i];
  }

  // sigma_e = c_e ||D^{-1/2} (I − F)^{-1} (e_to − e_from)||², entries
  // before the earlier endpoint's row being zero. Only this difference
  // can cancel.
  Vec sigma(m);
  for (std::size_t e = 0; e < m; ++e) {
    const std::size_t u = fac.row(from[e]);
    const std::size_t x = fac.row(to[e]);
    const double* qu = q.data() + u * d;
    const double* qx = q.data() + x * d;
    double s = 0.0;
    for (std::size_t i = std::min(u, x); i < d; ++i) {
      const double t = qx[i] - qu[i];
      s += t * t;
    }
    sigma[e] = std::clamp(conductance[e] * s, 0.0, 1.0);
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
  // No wider than the sketch: k solves cost more than one elimination.
  if (a.cols() <= static_cast<std::size_t>(opts.sketch_dim)) return leverage_scores_exact(a, v_in);
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

  // Sketch persistently implausible: fall back to the exact oracle when its
  // O(n^3) cost is affordable, else report a typed sketch failure.
  if (a.cols() <= skt.dense_oracle_max_cols) {
    ctx.recovery().note(RecoveryEvent::kExactLeverageFallback);
    return leverage_scores_exact(a, v);
  }
  throw ComponentError(SolveStatus::kSketchFailure, "linalg::leverage_scores",
                       "JL sketch failed validation after reseeded retries");
}

}  // namespace pmcf::linalg
