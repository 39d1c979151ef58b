#include "linalg/sdd_solver.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <string>
#include <utility>

#include "linalg/accel_cache.hpp"
#include "linalg/dense.hpp"
#include "linalg/kernels.hpp"
#include "parallel/fault_injection.hpp"
#include "parallel/scheduler.hpp"

namespace pmcf::linalg {

namespace {

/// The escalation ladder's fixed choices: each rung doubles the iteration
/// budget and warm-starts from the best earlier iterate; the dense fallback
/// is affordable up to this dimension (O(dim^3) work).
constexpr std::int32_t kLadderIterGrowth = 2;
constexpr std::size_t kDenseFallbackMaxDim = 2048;

/// Per-call Jacobi for the legacy entry points: the diagonal is refreshed
/// into cached storage (no allocation after the first call at a given dim),
/// preserving the seed solver's semantics for callers that don't manage a
/// preconditioner themselves. Not counted as a telemetry "build" — the
/// hit-rate metric tracks the AccelCache slots, not this fallback.
const SddPreconditioner& adhoc_jacobi(core::SolverContext& ctx, const Csr& m) {
  SddPreconditioner& p = accel_cache(ctx).scratch().adhoc;
  p.build(m, PrecondKind::kJacobi);
  return p;
}

/// Warm-start rule shared by the single- and multi-RHS paths: a seed is only
/// *attempted* when it has a nonzero entry (a zeroed slot is just a cold
/// start and must not count as a hit).
bool has_nonzero(const Vec& v) {
  for (const double x : v)
    if (x != 0.0) return true;
  return false;
}

/// has_nonzero over column j of a row-major n×k block.
bool column_has_nonzero(const Vec& x, std::size_t k, std::size_t j, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i)
    if (x[i * k + j] != 0.0) return true;
  return false;
}

void copy_info(const SolveInfo& info, SolveResult& res) {
  res.relative_residual = info.relative_residual;
  res.iterations = info.iterations;
  res.converged = info.converged;
  res.status = info.status;
}

}  // namespace

SolveInfo solve_sdd_into(core::SolverContext& ctx, const Csr& m, const Vec& b,
                         const SddPreconditioner& precond, const SolveOptions& opts, Vec& x) {
  const std::size_t n = m.dim();
  SolveInfo res;
  const double bnorm = norm2(b);
  if (bnorm == 0.0) {
    std::fill(x.begin(), x.end(), 0.0);
    res.converged = true;
    res.status = SolveStatus::kOk;
    return res;
  }
  if (ctx.fault().should_fire(par::FaultKind::kCgStagnation)) {
    // Injected stagnation: report the zero iterate as a hard breakdown.
    std::fill(x.begin(), x.end(), 0.0);
    res.relative_residual = 1.0;
    res.status = SolveStatus::kNumericalFailure;
    return res;
  }

  // All CG state lives in the context's cache; the loop below performs no
  // heap allocation (asserted by tests/alloc_count_test.cpp).
  auto& scr = accel_cache(ctx).scratch();
  scr.r.resize(n);
  scr.z.resize(n);
  scr.p.resize(n);
  scr.mp.resize(n);
  Vec& r = scr.r;
  Vec& z = scr.z;
  Vec& p = scr.p;
  Vec& mp = scr.mp;

  if (has_nonzero(x)) {
    // Warm start: keep the seed only if it is no worse than the zero start
    // (its residual norm does not exceed ||b||); NaN-poisoned or stale seeds
    // fail the predicate and fall back to cold.
    m.apply_into(x, mp);
    sub_into(b, mp, r);
    const double rnorm = norm2(r);
    if (!(rnorm <= bnorm)) {
      std::fill(x.begin(), x.end(), 0.0);
      std::copy(b.begin(), b.end(), r.begin());
    } else {
      ++ctx.accel().warm_start_hits;
    }
  } else {
    std::copy(b.begin(), b.end(), r.begin());
  }
  double rz = precond.apply(r, z);
  std::copy(z.begin(), z.end(), p.begin());

  for (std::int32_t it = 0; it < opts.max_iters; ++it) {
    // Lifecycle poll at CG-iteration granularity (DESIGN.md §11); the check
    // is two relaxed branches when no deadline/cancel/fault is armed and
    // performs no allocation (alloc_count_test still covers this loop).
    if (const SolveStatus ls = ctx.check_lifecycle(); ls != SolveStatus::kOk) {
      res.status = ls;
      res.relative_residual = norm2(r) / bnorm;
      return res;
    }
    m.apply_into(p, mp);
    const double pmp = dot(p, mp);
    if (pmp <= 0.0 || !std::isfinite(pmp)) {
      // Numerical breakdown; return best iterate with a typed status.
      res.status = SolveStatus::kNumericalFailure;
      break;
    }
    const double alpha = rz / pmp;
    const double rr = cg_step_residual(x, r, p, mp, alpha);
    res.iterations = it + 1;
    const double rn = std::sqrt(rr);
    if (rn <= opts.tolerance * bnorm) {
      res.converged = true;
      res.relative_residual = rn / bnorm;
      res.status = SolveStatus::kOk;
      return res;
    }
    const double rz_new = precond.apply(r, z);
    const double beta = rz_new / rz;
    rz = rz_new;
    axpby(p, 1.0, z, beta);  // p = z + beta * p
  }
  res.relative_residual = norm2(r) / bnorm;
  if (!std::isfinite(res.relative_residual)) res.status = SolveStatus::kNumericalFailure;
  return res;
}

SolveResult solve_sdd(core::SolverContext& ctx, const Csr& m, const Vec& b,
                      const SddPreconditioner& precond, const SolveOptions& opts,
                      const Vec* x0) {
  SolveResult res;
  if (x0 != nullptr && x0->size() == m.dim()) {
    res.x = *x0;
  } else {
    res.x.assign(m.dim(), 0.0);
  }
  copy_info(solve_sdd_into(ctx, m, b, precond, opts, res.x), res);
  return res;
}

SolveResult solve_sdd(core::SolverContext& ctx, const Csr& m, const Vec& b,
                      const SolveOptions& opts) {
  return solve_sdd(ctx, m, b, adhoc_jacobi(ctx, m), opts, nullptr);
}

std::vector<SolveInfo> solve_sdd_block(core::SolverContext& ctx, const Csr& m, const Vec& b,
                                       Vec& x, std::size_t k, const SddPreconditioner& precond,
                                       const SolveOptions& opts) {
  const std::size_t n = m.dim();
  std::vector<SolveInfo> out(k);
  if (k == 0) return out;
  ++ctx.accel().multi_rhs_solves;
  ctx.accel().multi_rhs_columns += k;

  auto& scr = accel_cache(ctx).scratch();
  scr.br.resize(n * k);
  scr.bz.resize(n * k);
  scr.bp.resize(n * k);
  scr.bmp.resize(n * k);
  scr.bnorm.assign(k, 0.0);
  scr.rz.assign(k, 0.0);
  scr.done_iter.assign(k, 0);
  scr.active.assign(k, 0);
  Vec& br = scr.br;
  Vec& bz = scr.bz;
  Vec& bp = scr.bp;
  Vec& bmp = scr.bmp;
  // Zeroes column j of x; charged as one parallel_for over the column.
  const auto zero_column = [&](std::size_t j) {
    charge_passes(n, 1, 0);
    for (std::size_t i = 0; i < n; ++i) x[i * k + j] = 0.0;
  };

  // Column entry, in ascending j: the ||b|| early-out, then the injection
  // draw — the same order k successive solve_sdd calls would consume draws
  // in, which is what keeps fault-injected runs bit-identical too. One
  // dot_cols pass takes every ||b_j||² (each column charged its reduction).
  charge_passes(n, 0, k);
  simd::dot_cols(b.data(), b.data(), n, k, scr.bnorm.data());
  std::size_t live = 0;
  for (std::size_t j = 0; j < k; ++j) {
    scr.bnorm[j] = std::sqrt(scr.bnorm[j]);
    if (scr.bnorm[j] == 0.0) {
      out[j].converged = true;
      out[j].status = SolveStatus::kOk;
      zero_column(j);
      continue;
    }
    if (ctx.fault().should_fire(par::FaultKind::kCgStagnation)) {
      out[j].relative_residual = 1.0;
      out[j].status = SolveStatus::kNumericalFailure;
      zero_column(j);
      continue;
    }
    scr.active[j] = 1;
    ++live;
  }

  // Per-column scalars for one blocked iteration, the masks feeding the
  // masked column kernels, and the n×k forward-sweep scratch of the IC(0)
  // apply_cols.
  scr.alpha.assign(k, 0.0);
  scr.beta.assign(k, 0.0);
  scr.pmp.assign(k, 0.0);
  scr.rr.assign(k, 0.0);
  scr.rz_new.assign(k, 0.0);
  scr.step_mask.assign(k, 0);
  scr.refresh_mask.assign(k, 0);
  if (precond.effective_kind() == PrecondKind::kIncompleteCholesky) scr.bfwd.resize(n * k);

  // Initial residuals for all live columns from one block SpMV (columns with
  // a zero seed get r = b - M·0 = b, bit-equal to the cold start) and one
  // masked pass, their norms from one dot_cols pass (rr holds ||r_j||² until
  // the first step overwrites it), then one preconditioner apply and one
  // masked p = z pass over the live columns.
  if (live > 0) {
    m.apply_block_into(x, bmp, k);
    charge_passes(n, live, 0);
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < k; ++j)
        if (scr.active[j]) br[i * k + j] = b[i * k + j] - bmp[i * k + j];
    charge_passes(n, 0, live);
    simd::dot_cols(br.data(), br.data(), n, k, scr.rr.data());
    for (std::size_t j = 0; j < k; ++j) {
      if (!scr.active[j]) continue;
      if (!(std::sqrt(scr.rr[j]) <= scr.bnorm[j])) {
        // Warm-start rule: a seed worse than the zero start falls back cold.
        charge_passes(n, 1, 0);
        for (std::size_t i = 0; i < n; ++i) {
          x[i * k + j] = 0.0;
          br[i * k + j] = b[i * k + j];
        }
      } else if (column_has_nonzero(x, k, j, n)) {
        ++ctx.accel().warm_start_hits;
      }
    }
    precond.apply_cols(br, bz, k, scr.active.data(), scr.bfwd, scr.rz.data());
    charge_passes(n, live, 0);
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < k; ++j)
        if (scr.active[j]) bp[i * k + j] = bz[i * k + j];
  }

  // Blocked CG: one shared SpMV over the n×k block per iteration, then the
  // per-column recurrences as masked SIMD column kernels (one pass over the
  // block per kernel, all live columns at once). Every column kernel uses the
  // stripe-4 order of the single-RHS kernels, so each column is bitwise a
  // lone solve_sdd. Each live column is charged what the single-RHS
  // iteration charges it; one that breaks down is charged only its p.Mp dot.
  for (std::int32_t it = 0; live > 0 && it < opts.max_iters; ++it) {
    // One lifecycle poll per blocked iteration: every still-live column
    // reports the typed status, matching what k sequential canceled solves
    // would have returned.
    if (const SolveStatus ls = ctx.check_lifecycle(); ls != SolveStatus::kOk) {
      for (std::size_t j = 0; j < k; ++j) {
        if (!scr.active[j]) continue;
        out[j].status = ls;
        scr.active[j] = 0;
      }
      live = 0;
      break;
    }
    m.apply_block_into(bp, bmp, k);
    // p.Mp for every column in one pass (dead lanes produce garbage that is
    // never read), then the per-column breakdown check and step size.
    charge_passes(n, 0, live);
    simd::dot_cols(bp.data(), bmp.data(), n, k, scr.pmp.data());
    for (std::size_t j = 0; j < k; ++j) {
      scr.step_mask[j] = 0;
      if (!scr.active[j]) continue;
      if (scr.pmp[j] <= 0.0 || !std::isfinite(scr.pmp[j])) {
        out[j].status = SolveStatus::kNumericalFailure;
        scr.active[j] = 0;
        --live;
        continue;
      }
      scr.alpha[j] = scr.rz[j] / scr.pmp[j];
      scr.step_mask[j] = 1;
    }
    charge_passes(n, 2 * live, live);
    simd::cg_step_cols(x.data(), br.data(), bp.data(), bmp.data(), scr.alpha.data(),
                       scr.step_mask.data(), n, k, scr.rr.data());
    for (std::size_t j = 0; j < k; ++j) {
      scr.refresh_mask[j] = 0;
      if (!scr.step_mask[j]) continue;
      scr.done_iter[j] = it + 1;
      const double rn = std::sqrt(scr.rr[j]);
      if (rn <= opts.tolerance * scr.bnorm[j]) {
        out[j].converged = true;
        out[j].status = SolveStatus::kOk;
        out[j].relative_residual = rn / scr.bnorm[j];
        scr.active[j] = 0;
        --live;
        continue;
      }
      scr.refresh_mask[j] = 1;
    }
    if (live == 0) break;
    precond.apply_cols(br, bz, k, scr.refresh_mask.data(), scr.bfwd, scr.rz_new.data());
    for (std::size_t j = 0; j < k; ++j) {
      if (!scr.refresh_mask[j]) continue;
      scr.beta[j] = scr.rz_new[j] / scr.rz[j];
      scr.rz[j] = scr.rz_new[j];
    }
    charge_passes(n, live, 0);
    simd::axpby_cols(bp.data(), 1.0, bz.data(), scr.beta.data(), scr.refresh_mask.data(), n, k);
  }

  // Finalize: unconverged columns report the residual of their last iterate
  // exactly as the single-RHS epilogue does.
  for (std::size_t j = 0; j < k; ++j) {
    out[j].iterations = scr.done_iter[j];
    if (!out[j].converged && out[j].relative_residual == 0.0 && scr.bnorm[j] > 0.0) {
      out[j].relative_residual = std::sqrt(dot_strided(br, br, k, j, n)) / scr.bnorm[j];
      if (!std::isfinite(out[j].relative_residual))
        out[j].status = SolveStatus::kNumericalFailure;
    }
  }
  return out;
}

std::vector<SolveResult> solve_sdd_multi(core::SolverContext& ctx, const Csr& m,
                                         const std::vector<Vec>& rhs,
                                         const SddPreconditioner& precond,
                                         const SolveOptions& opts,
                                         const std::vector<const Vec*>& x0) {
  const std::size_t n = m.dim();
  const std::size_t k = rhs.size();
  std::vector<SolveResult> out(k);
  if (k == 0) return out;

  // Pack the right-hand sides and warm seeds into row-major n×k blocks.
  auto& scr = accel_cache(ctx).scratch();
  scr.bb.resize(n * k);
  scr.bx.resize(n * k);
  charge_passes(n, k, 0);
  for (std::size_t j = 0; j < k; ++j) {
    const Vec* seed = j < x0.size() ? x0[j] : nullptr;
    const bool warm = seed != nullptr && seed->size() == n && has_nonzero(*seed);
    for (std::size_t i = 0; i < n; ++i) {
      scr.bb[i * k + j] = rhs[j][i];
      scr.bx[i * k + j] = warm ? (*seed)[i] : 0.0;
    }
  }
  const std::vector<SolveInfo> info = solve_sdd_block(ctx, m, scr.bb, scr.bx, k, precond, opts);
  charge_passes(n, k, 0);
  for (std::size_t j = 0; j < k; ++j) {
    copy_info(info[j], out[j]);
    out[j].x.resize(n);
    for (std::size_t i = 0; i < n; ++i) out[j].x[i] = scr.bx[i * k + j];
  }
  return out;
}

std::string validate(const ResilientSolveOptions& opts) {
  std::ostringstream bad;
  if (!(std::isfinite(opts.base.tolerance) && opts.base.tolerance > 0.0)) {
    bad << "base.tolerance must be > 0 (got " << opts.base.tolerance << ")";
  } else if (opts.base.max_iters < 1) {
    bad << "base.max_iters must be >= 1 (got " << opts.base.max_iters << ")";
  } else if (opts.max_escalations < 0) {
    bad << "max_escalations must be >= 0 (got " << opts.max_escalations << ")";
  } else if (!(std::isfinite(opts.escalation_factor) && opts.escalation_factor > 1.0)) {
    // A factor <= 1 never relaxes the target: the ladder would retry the
    // same (or a harder) solve and burn the whole budget to no effect.
    bad << "escalation_factor must be > 1.0 (got " << opts.escalation_factor << ")";
  }
  return bad.str();
}

ResilientSolveResult solve_sdd_resilient(core::SolverContext& ctx, const Csr& m, const Vec& b,
                                         const ResilientSolveOptions& opts,
                                         const SddPreconditioner* precond, const Vec* x0) {
  if (std::string defect = validate(opts); !defect.empty()) {
    throw ComponentError(SolveStatus::kInvalidInput,
                               "linalg::solve_sdd_resilient", std::move(defect));
  }
  ResilientSolveResult out;
  const SddPreconditioner& pc = precond != nullptr ? *precond : adhoc_jacobi(ctx, m);
  // Escalation rungs warm-start from the best iterate produced so far: the
  // seed survives even across a rung that stagnated outright (zero
  // iterations), so injected kCgStagnation can no longer erase progress.
  Vec& best = accel_cache(ctx).scratch().resilient_best;
  const Vec* seed = x0;
  SolveOptions attempt = opts.base;
  for (std::int32_t k = 0; k <= opts.max_escalations; ++k) {
    if (k > 0) {
      attempt.tolerance *= opts.escalation_factor;
      attempt.max_iters *= kLadderIterGrowth;
      ctx.recovery().note(RecoveryEvent::kCgToleranceEscalation);
      ++out.tolerance_escalations;
    }
    SolveResult r = solve_sdd(ctx, m, b, pc, attempt, seed);
    out.iterations += r.iterations;
    if (r.converged) {
      out.x = std::move(r.x);
      out.relative_residual = r.relative_residual;
      out.status = SolveStatus::kOk;
      return out;
    }
    if (is_lifecycle_error(r.status)) {
      // The request expired, not the numerics: stop the ladder — escalating
      // or falling back to dense would spend exactly the budget the caller
      // just withdrew.
      out.x = std::move(r.x);
      out.relative_residual = r.relative_residual;
      out.status = r.status;
      return out;
    }
    if (r.iterations > 0) {
      best = std::move(r.x);
      seed = &best;
    }
  }

  // Last rung: exact dense solve. The reduced Laplacian pins the dropped
  // row/column, so the system is nonsingular in exact arithmetic; extreme
  // reweightings can still underflow whole rows, so pinned elimination
  // zeroes those degenerate coordinates instead of failing the solve. The
  // O(dim^3) cost is gated by the guardrail.
  if (m.dim() <= kDenseFallbackMaxDim) {
    Dense dense(m.dim(), m.dim());
    for (std::size_t r = 0; r < m.dim(); ++r)
      for (std::int64_t k = m.offsets()[r]; k < m.offsets()[r + 1]; ++k)
        dense.at(r, static_cast<std::size_t>(m.cols()[static_cast<std::size_t>(k)])) +=
            m.vals()[static_cast<std::size_t>(k)];
    ctx.recovery().note(RecoveryEvent::kDenseFallback);
    out.x = dense.solve_pinned(b);
    bool finite = true;
    for (const double v : out.x) finite = finite && std::isfinite(v);
    if (finite) {
      out.used_dense_fallback = true;
      out.status = SolveStatus::kOk;
      const Vec resid = sub(m.apply(out.x), b);
      const double bn = norm2(b);
      out.relative_residual = bn > 0.0 ? norm2(resid) / bn : 0.0;
      return out;
    }
  }
  out.x.assign(m.dim(), 0.0);
  out.status = SolveStatus::kNumericalFailure;
  out.relative_residual = 1.0;
  return out;
}

}  // namespace pmcf::linalg
