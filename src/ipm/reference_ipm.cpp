#include "ipm/reference_ipm.hpp"

#include <algorithm>
#include <cmath>

#include "ipm/barrier.hpp"
#include "linalg/accel_cache.hpp"
#include "linalg/kernels.hpp"
#include "linalg/laplacian.hpp"
#include "parallel/scheduler.hpp"

namespace pmcf::ipm {

namespace {
using linalg::Vec;
}  // namespace

double initial_mu(const IpmLp& lp, double target_centrality) {
  // At x0 = u/2 we have φ'(x0) = 0 and √φ''(x0) = 2√2/u, so the centrality
  // vector is z_e = s_e / (μ τ_e √φ''_e) with s = c (y0 = 0) and τ_e >= n/m.
  // Choosing μ >= max_e |c_e| u_e m / (2√2 n ε) gives ||z||_inf <= ε.
  const std::size_t m = lp.cost.size();
  const auto n = static_cast<double>(lp.graph->num_vertices());
  double max_cu = 0.0;
  for (std::size_t e = 0; e < m; ++e) max_cu = std::max(max_cu, std::abs(lp.cost[e]) * lp.cap[e]);
  par::charge(m, par::ceil_log2(std::max<std::size_t>(m, 2)));
  return max_cu * static_cast<double>(m) / (2.0 * std::sqrt(2.0) * n * target_centrality) + 1.0;
}

IpmResult reference_ipm(core::SolverContext& ctx, const IpmLp& lp, Vec x0, Vec y0, double mu0,
                        const IpmOptions& opts) {
  const graph::Digraph& g = *lp.graph;
  const linalg::IncidenceOp a(g, lp.dropped);
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();
  par::Rng rng(opts.seed);

  IpmResult res;
  res.x = std::move(x0);
  res.y = std::move(y0);
  res.mu = mu0;

  const core::IpmStepIngredient& stp = core::default_ingredients().step;

  // Warm-started Lewis weights: keep τ between iterations, refresh with a
  // few fixed-point rounds against the current scaling. A caller-provided
  // tau_io of the right size resumes the fixed point from a previous solve
  // (cross-solve warm start); anything else gets the flat cold start.
  const bool tau_from_caller = opts.tau_io != nullptr && opts.tau_io->size() == m &&
                               std::all_of(opts.tau_io->begin(), opts.tau_io->end(), [](double t) {
                                 return std::isfinite(t) && t > 0.0;
                               });
  Vec tau = tau_from_caller ? *opts.tau_io
                            : Vec(m, static_cast<double>(n) / static_cast<double>(m) + 0.5);
  const double p = linalg::lewis_p(m, n);
  const double expo = 0.5 - 1.0 / p;
  const double reg = static_cast<double>(n) / static_cast<double>(m);

  // Per-iteration work buffers, allocated once. The Newton loop itself is
  // allocation-free apart from the sparse Laplacian rebuild and the CG
  // solver's own (per-solve) state.
  Vec hess(m), grad(m), v(m), scaled(m), s(m), z(m), d(m), resid(m), dresid(m),
      dn(m), ay(m), a_dy(m), dx(m);
  Vec atx(n), rp(n), rhs(n), rhsn(n);

  for (std::int32_t it = 0; it < opts.max_iters; ++it) {
    // Cooperative lifecycle check (DESIGN.md §11): a canceled or expired
    // solve winds down here, at outer-iteration granularity, with the typed
    // status — never a partial kOk.
    if (const SolveStatus ls = ctx.check_lifecycle(); ls != SolveStatus::kOk) {
      res.status = ls;
      res.detail = "ipm::reference_ipm: solve lifecycle expired";
      return res;
    }
    res.iterations = it + 1;
    barrier_hess_into(res.x, lp.cap, hess);
    barrier_grad_into(res.x, lp.cap, grad);
    linalg::map_into(hess, v, [](double h) { return 1.0 / std::sqrt(h); });

    // Refresh τ (Lewis fixed point, warm start) every lewis_every iterations;
    // Lewis weights drift slowly along the path (Theorem C.1's premise).
    // leverage_scores retries a corrupted sketch internally (reseed + widen);
    // a persistent sketch failure surfaces here as a typed status.
    const bool refresh_tau = (it % std::max<std::int32_t>(stp.ref_lewis_every, 1)) == 0;
    for (std::int32_t round = 0; refresh_tau && round < stp.ref_lewis_rounds; ++round) {
      par::parallel_for(0, m, [&](std::size_t i) { scaled[i] = std::pow(tau[i], expo) * v[i]; });
      Vec sigma;
      try {
        sigma = opts.exact_leverage ? linalg::leverage_scores_exact(a, scaled)
                                    : linalg::leverage_scores(ctx, a, scaled, rng, opts.leverage);
      } catch (const ComponentError& err) {
        res.status = err.status();
        res.detail = err.what();
        return res;
      }
      par::parallel_for(0, m, [&](std::size_t i) { tau[i] = sigma[i] + reg; });
    }
    const double tau_sum = linalg::sum(tau);

    // Dual slack and centrality.
    a.apply_into(res.y, ay);
    linalg::sub_into(lp.cost, ay, s);
    par::parallel_for(0, m, [&](std::size_t i) {
      z[i] = (s[i] + res.mu * tau[i] * grad[i]) / (res.mu * tau[i] * std::sqrt(hess[i]));
    });
    const double centrality = linalg::norm_inf(z);
    res.final_centrality = centrality;

    // Primal residual r_p = b - A^T x.
    a.apply_transpose_into(res.x, atx);
    linalg::sub_into(lp.b, atx, rp);
    rp[static_cast<std::size_t>(a.dropped())] = 0.0;
    res.max_primal_residual = std::max(res.max_primal_residual, linalg::norm_inf(rp));

    // Only shrink mu when sufficiently centered; otherwise re-center first.
    if (centrality < stp.ref_centrality_slack) {
      if (res.mu <= opts.mu_end) {
        res.converged = true;
        break;
      }
      res.mu *= 1.0 - stp.ref_step_fraction / std::sqrt(std::max(tau_sum, 1.0));
      res.mu = std::max(res.mu, opts.mu_end * 0.5);
    }

    // Newton step for: s + A δy + μτ(φ' + Φ'' δx) = 0, A^T δx = r_p.
    // D = (μ τ Φ'')^{-1};  L δy = -r_p - A^T D (s + μτφ').
    par::parallel_for(0, m, [&](std::size_t i) { d[i] = 1.0 / (res.mu * tau[i] * hess[i]); });
    par::parallel_for(0, m,
                      [&](std::size_t i) { resid[i] = s[i] + res.mu * tau[i] * grad[i]; });
    linalg::mul_into(d, resid, dresid);
    a.apply_transpose_into(dresid, rhs);
    par::parallel_for(0, n, [&](std::size_t i) { rhs[i] = -rp[i] - rhs[i]; });
    rhs[static_cast<std::size_t>(a.dropped())] = 0.0;
    // Normalize the weight scale so the dropped row's unit pin is
    // commensurate with the Laplacian diagonal (keeps CG well conditioned).
    const double dmax = linalg::norm_inf(d);
    linalg::scale_into(d, 1.0 / dmax, dn);
    linalg::scale_into(rhs, 1.0 / dmax, rhsn);
    // Acceleration layer (DESIGN.md §10): the Laplacian pattern is fixed
    // across iterations (value-only refresh), the incomplete-Cholesky
    // preconditioner survives while the normalized weights drift slowly
    // along the path, and δy warm-starts from the previous iteration's
    // direction.
    linalg::AccelCache& cache = linalg::accel_cache(ctx);
    const linalg::Csr& lap = cache.laplacian(ctx, g, dn, a.dropped());
    const linalg::SddPreconditioner& precond =
        cache.preconditioner(ctx, linalg::AccelSite::kNewton, lap, dn);
    linalg::Vec& warm_dy = cache.warm_start(linalg::AccelSite::kNewton, 0, n);
    // Newton system with the full recovery ladder: CG, tolerance
    // escalation, dense elimination. A rung that still fails ends the solve
    // with a typed status instead of stepping on a garbage direction.
    linalg::ResilientSolveOptions rso;
    rso.base = opts.solve;
    auto sol = linalg::solve_sdd_resilient(ctx, lap, rhsn, rso, &precond, &warm_dy);
    res.cg_escalations += sol.tolerance_escalations;
    res.dense_fallbacks += sol.used_dense_fallback ? 1 : 0;
    if (sol.status != SolveStatus::kOk) {
      // Lifecycle statuses pass through untouched — they describe the
      // request, not the instance or the numerics.
      res.status = is_lifecycle_error(sol.status) ? sol.status : SolveStatus::kNumericalFailure;
      res.detail = is_lifecycle_error(sol.status)
                       ? "ipm::reference_ipm: solve lifecycle expired during Newton solve"
                       : "linalg::solve_sdd: Newton system solve failed after escalation + fallback";
      return res;
    }
    Vec dy = std::move(sol.x);
    dy[static_cast<std::size_t>(a.dropped())] = 0.0;
    warm_dy = dy;  // seed the next iteration's Newton solve
    a.apply_into(dy, a_dy);
    par::parallel_for(0, m, [&](std::size_t i) { dx[i] = -d[i] * (resid[i] + a_dy[i]); });

    // Damping: stay ref_boundary_margin away from the walls multiplicatively.
    const double keep = 1.0 - stp.ref_boundary_margin;
    double alpha = 1.0;
    for (std::size_t i = 0; i < m; ++i) {
      if (dx[i] < 0.0) {
        alpha = std::min(alpha, keep * res.x[i] / -dx[i]);
      } else if (dx[i] > 0.0) {
        alpha = std::min(alpha, keep * (lp.cap[i] - res.x[i]) / dx[i]);
      }
    }
    if (!std::isfinite(alpha)) {
      res.status = SolveStatus::kNumericalFailure;
      res.detail = "ipm::reference_ipm: non-finite Newton step";
      return res;
    }
    par::charge(m, par::ceil_log2(std::max<std::size_t>(m, 2)));
    par::parallel_for(0, m, [&](std::size_t i) { res.x[i] += alpha * dx[i]; });
    // With s = c - Ay the solved system's direction enters the dual with a
    // minus sign: y_new = y - δy (while δx above is already consistent).
    par::parallel_for(0, n, [&](std::size_t i) { res.y[i] -= alpha * dy[i]; });
    res.y[static_cast<std::size_t>(a.dropped())] = 0.0;
  }
  if (!res.converged) {
    res.status = SolveStatus::kIterationLimit;
    res.detail = "ipm::reference_ipm: max_iters reached before mu_end";
  }
  if (opts.tau_io != nullptr && res.converged) *opts.tau_io = tau;
  return res;
}

}  // namespace pmcf::ipm
