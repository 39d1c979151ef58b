#include "linalg/sdd_solver.hpp"

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

/// True when v has a nonzero entry. A seed is only *attempted* then: a
/// zeroed slot is just a cold start and must not count as a hit.
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

/// One per-column array of a CG block (a scalar per column, or a mask
/// feeding the masked column kernels). A column count K fixed at compile
/// time keeps it on the stack, which a small k = 1 solve measurably prefers
/// to scratch vectors; K = 0 makes it a zeroed view of `store` in the
/// context's scratch.
template <class T, std::size_t K>
struct Lane {
  Lane(std::vector<T>& /*store*/, std::size_t /*k*/) {}
  T& operator[](std::size_t j) { return v[j]; }
  T* data() { return v; }
  T v[K]{};
};

template <class T>
struct Lane<T, 0> {
  Lane(std::vector<T>& store, std::size_t k) : p((store.assign(k, T{}), store.data())) {}
  T& operator[](std::size_t j) { return p[j]; }
  T* data() { return p; }
  T* p;
};

/// The one CG loop: solves M x_j = b_j for the k columns of the row-major
/// n×k blocks `b` and `x` (slot i*k+j) and writes column j's SolveInfo to
/// out[j], which the caller value-initializes. K > 0 fixes k at compile
/// time: the k = 1 instance behind solve_sdd_into folds every per-column
/// loop, and its simd::*_cols calls reach the contiguous kernels. K = 0
/// reads the runtime `k_arg` (solve_sdd_block).
///
/// One SpMV over the block per iteration, then the per-column recurrences
/// as masked column kernels, all live columns at once; each column is
/// charged its own passes (DESIGN.md §10), and a column that breaks down is
/// charged only its p.Mp dot.
template <std::size_t K>
void cg_block(core::SolverContext& ctx, const Csr& m, const Vec& b, Vec& x, std::size_t k_arg,
              const SddPreconditioner& precond, const SolveOptions& opts, SolveInfo* out) {
  const std::size_t k = K > 0 ? K : k_arg;
  const std::size_t n = m.dim();
  // All CG state lives in the context's cache (or on the stack), so
  // repeated solves perform no heap allocation (tests/alloc_count_test.cpp).
  auto& scr = accel_cache(ctx).scratch();
  scr.br.resize(n * k);
  scr.bz.resize(n * k);
  scr.bp.resize(n * k);
  scr.bmp.resize(n * k);
  if (precond.effective_kind() == PrecondKind::kIncompleteCholesky) scr.bfwd.resize(n * k);
  Vec& br = scr.br;
  Vec& bz = scr.bz;
  Vec& bp = scr.bp;
  Vec& bmp = scr.bmp;
  Lane<double, K> bnorm(scr.bnorm, k), rz(scr.rz, k), rz_new(scr.rz_new, k),
      alpha(scr.alpha, k), beta(scr.beta, k), pmp(scr.pmp, k), rr(scr.rr, k);
  Lane<std::uint8_t, K> active(scr.active, k), step(scr.step, k), refresh(scr.refresh, k);
  // Zeroes column j of x; charged as one parallel_for over the column.
  const auto zero_column = [&](std::size_t j) {
    charge_passes(n, 1, 0);
    for (std::size_t i = 0; i < n; ++i) x[i * k + j] = 0.0;
  };
  // Runs f(i*k+j) over the live columns' slots; charged as one pass each.
  const auto live_pass = [&](std::size_t live, auto&& f) {
    charge_passes(n, live, 0);
    if (live == k) {
      for (std::size_t s = 0; s < n * k; ++s) f(s);
      return;
    }
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < k; ++j)
        if (active[j]) f(i * k + j);
  };

  // Column entry, in ascending j: the ||b|| early-out, then the injection
  // draw — the order k successive k = 1 solves consume draws in, which is
  // what keeps fault-injected blocks bit-identical to them.
  charge_passes(n, 0, k);
  simd::dot_cols(b.data(), b.data(), n, k, bnorm.data());
  std::size_t live = 0;
  for (std::size_t j = 0; j < k; ++j) {
    bnorm[j] = std::sqrt(bnorm[j]);
    if (bnorm[j] == 0.0) {
      out[j].converged = true;
      out[j].status = SolveStatus::kOk;
      zero_column(j);
      continue;
    }
    if (ctx.fault().should_fire(par::FaultKind::kCgStagnation)) {
      // Injected stagnation: report the zero iterate as a hard breakdown.
      out[j].relative_residual = 1.0;
      out[j].status = SolveStatus::kNumericalFailure;
      zero_column(j);
      continue;
    }
    active[j] = 1;
    ++live;
  }
  if (live == 0) return;

  // Initial residuals. The columns that left above are zero, so a block
  // without a nonzero entry has no seeded live column and starts at r = b
  // without an SpMV. Otherwise one block SpMV gives r = b - M x for every
  // live column (a zero column gets b - M·0 = b, bit for bit the cold
  // start) and one dot_cols pass the norms; a seed is kept only when its
  // residual does not exceed ||b_j|| (a warm-start hit), and NaN-poisoned
  // or stale seeds fail the test and restart cold.
  if (has_nonzero(x)) {
    m.apply_block_into(x, bmp, k);
    live_pass(live, [&](std::size_t s) { br[s] = b[s] - bmp[s]; });
    charge_passes(n, 0, live);
    simd::dot_cols(br.data(), br.data(), n, k, rr.data());
    for (std::size_t j = 0; j < k; ++j) {
      if (!active[j]) continue;
      if (!(std::sqrt(rr[j]) <= bnorm[j])) {
        zero_column(j);
        for (std::size_t i = 0; i < n; ++i) br[i * k + j] = b[i * k + j];
      } else if (column_has_nonzero(x, k, j, n)) {
        ++ctx.accel().warm_start_hits;
      }
    }
  } else {
    live_pass(live, [&](std::size_t s) { br[s] = b[s]; });
  }
  precond.apply_cols(br, bz, k, active.data(), scr.bfwd, rz.data());
  live_pass(live, [&](std::size_t s) { bp[s] = bz[s]; });

  for (std::int32_t it = 0; live > 0 && it < opts.max_iters; ++it) {
    // Lifecycle poll at CG-iteration granularity (DESIGN.md §11): every
    // live column reports the typed status. Two relaxed branches when no
    // deadline, cancel or fault is armed, and no allocation.
    if (const SolveStatus ls = ctx.check_lifecycle(); ls != SolveStatus::kOk) {
      for (std::size_t j = 0; j < k; ++j)
        if (active[j]) out[j].status = ls;
      break;
    }
    m.apply_block_into(bp, bmp, k);
    // p.Mp for every column in one pass (dead lanes produce garbage that is
    // never read), then the per-column breakdown check and step size.
    charge_passes(n, 0, live);
    simd::dot_cols(bp.data(), bmp.data(), n, k, pmp.data());
    for (std::size_t j = 0; j < k; ++j) {
      step[j] = 0;
      if (!active[j]) continue;
      if (pmp[j] <= 0.0 || !std::isfinite(pmp[j])) {
        // Numerical breakdown: the column keeps its best iterate.
        out[j].status = SolveStatus::kNumericalFailure;
        active[j] = 0;
        --live;
        continue;
      }
      alpha[j] = rz[j] / pmp[j];
      step[j] = 1;
    }
    charge_passes(n, 2 * live, live);
    simd::cg_step_cols(x.data(), br.data(), bp.data(), bmp.data(), alpha.data(), step.data(), n,
                       k, rr.data());
    for (std::size_t j = 0; j < k; ++j) {
      refresh[j] = 0;
      if (!step[j]) continue;
      out[j].iterations = it + 1;
      const double rn = std::sqrt(rr[j]);
      if (rn <= opts.tolerance * bnorm[j]) {
        out[j].converged = true;
        out[j].status = SolveStatus::kOk;
        out[j].relative_residual = rn / bnorm[j];
        active[j] = 0;
        --live;
        continue;
      }
      refresh[j] = 1;
    }
    if (live == 0) break;
    precond.apply_cols(br, bz, k, refresh.data(), scr.bfwd, rz_new.data());
    for (std::size_t j = 0; j < k; ++j) {
      if (!refresh[j]) continue;
      beta[j] = rz_new[j] / rz[j];
      rz[j] = rz_new[j];
    }
    // p = z + beta * p
    charge_passes(n, live, 0);
    simd::axpby_cols(bp.data(), 1.0, bz.data(), beta.data(), refresh.data(), n, k);
  }

  // Epilogue: an unconverged column reports the residual of its last
  // iterate; a non-finite one is a breakdown unless the lifecycle stopped it.
  for (std::size_t j = 0; j < k; ++j) {
    if (!out[j].converged && out[j].relative_residual == 0.0) {
      out[j].relative_residual = std::sqrt(dot_strided(br, br, k, j, n)) / bnorm[j];
      if (!std::isfinite(out[j].relative_residual) && !is_lifecycle_error(out[j].status))
        out[j].status = SolveStatus::kNumericalFailure;
    }
  }
}

}  // namespace

SolveInfo solve_sdd_into(core::SolverContext& ctx, const Csr& m, const Vec& b,
                         const SddPreconditioner& precond, const SolveOptions& opts, Vec& x) {
  SolveInfo info;
  cg_block<1>(ctx, m, b, x, 1, precond, opts, &info);
  return info;
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
  std::vector<SolveInfo> out(k);
  if (k == 0) return out;
  if (k >= 2) {
    ++ctx.accel().multi_rhs_solves;
    ctx.accel().multi_rhs_columns += k;
  }
  cg_block<0>(ctx, m, b, x, k, precond, opts, out.data());
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
