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

double duality_gap(const IpmLp& lp, const Vec& x, const Vec& y, const Vec& s, const Vec& rp) {
  const double arcs = par::parallel_reduce<double>(
      0, x.size(), 0.0,
      [&](std::size_t e) {
        return s[e] > 0.0 ? x[e] * s[e] : (lp.cap[e] - x[e]) * -s[e];
      },
      [](double p, double q) { return p + q; });
  const double residual = par::parallel_reduce<double>(
      0, y.size(), 0.0, [&](std::size_t v) { return y[v] * rp[v]; },
      [](double p, double q) { return p + q; });
  return arcs - residual;
}

NewtonSystem::NewtonSystem(const IpmLp& lp, const linalg::IncidenceOp& a) : lp_(lp), a_(a) {
  for (Vec* v : {&hess_, &grad_, &s_, &z_, &d_, &resid_, &dresid_, &ay_, &a_dy_, &dx_, &dn_})
    v->resize(a.rows());
  for (Vec* v : {&atx_, &rp_, &rhs_, &rhsn_, &dy_}) v->resize(a.cols());
}

void NewtonSystem::eval_barrier(const Vec& x) {
  barrier_hess_into(x, lp_.cap, hess_);
  barrier_grad_into(x, lp_.cap, grad_);
}

double NewtonSystem::eval_center(const Vec& x, const Vec& y, double mu, const Vec& tau) {
  a_.apply_into(y, ay_);
  linalg::sub_into(lp_.cost, ay_, s_);
  par::parallel_for(0, s_.size(), [&](std::size_t i) {
    z_[i] = (s_[i] + mu * tau[i] * grad_[i]) / (mu * tau[i] * std::sqrt(hess_[i]));
  });
  const double centrality = linalg::norm_inf(z_);
  a_.apply_transpose_into(x, atx_);
  linalg::sub_into(lp_.b, atx_, rp_);
  rp_[static_cast<std::size_t>(a_.dropped())] = 0.0;
  return centrality;
}

NewtonStep NewtonSystem::step(core::SolverContext& ctx, Vec& x, Vec& y, double mu,
                              const Vec& tau, double keep, const linalg::SolveOptions& solve) {
  const std::size_t m = a_.rows();
  const std::size_t n = a_.cols();
  const auto dropped = static_cast<std::size_t>(a_.dropped());
  // D = (μ τ Φ'')^{-1};  L δy = -r_p - A^T D (s + μτφ').
  par::parallel_for(0, m, [&](std::size_t i) { d_[i] = 1.0 / (mu * tau[i] * hess_[i]); });
  par::parallel_for(0, m, [&](std::size_t i) { resid_[i] = s_[i] + mu * tau[i] * grad_[i]; });
  linalg::mul_into(d_, resid_, dresid_);
  a_.apply_transpose_into(dresid_, rhs_);
  par::parallel_for(0, n, [&](std::size_t i) { rhs_[i] = -rp_[i] - rhs_[i]; });
  rhs_[dropped] = 0.0;
  // Normalize the weight scale so the largest conductance is 1: the pin
  // floor and the dropped row's unit pin are relative to it.
  const double dmax = linalg::norm_inf(d_);
  linalg::scale_into(d_, 1.0 / dmax, dn_);
  linalg::scale_into(rhs_, 1.0 / dmax, rhsn_);
  NewtonStep out;
  const core::IpmStepIngredient& stp = core::default_ingredients().step;
  if (n <= stp.newton_exact_max_cols) {
    // Exact solve (DESIGN.md §10): the GTH factor of the grounded Laplacian
    // costs less than one CG solve at these sizes. Late on the path whole
    // vertices hang by conductances near 1e-29; the pin floor grounds them
    // (δy = 0 there) instead of dividing noise by their pivots.
    factor_.factor(a_, dn_, stp.newton_pin_floor);
    factor_.solve(rhsn_, dy_);
    if (!std::all_of(dy_.begin(), dy_.end(), [](double t) { return std::isfinite(t); })) {
      out.status = SolveStatus::kNumericalFailure;
      return out;
    }
  } else {
    // Acceleration layer (DESIGN.md §10): the Laplacian pattern is fixed
    // across steps (value-only refresh), the incomplete-Cholesky
    // preconditioner survives while the normalized weights drift slowly
    // along the path, and δy warm-starts from the previous step's direction.
    linalg::AccelCache& cache = linalg::accel_cache(ctx);
    const linalg::Csr& lap = cache.laplacian(ctx, a_.graph(), dn_, a_.dropped());
    const linalg::SddPreconditioner& precond =
        cache.preconditioner(ctx, linalg::AccelSite::kNewton, lap, dn_);
    Vec& warm_dy = cache.warm_start(linalg::AccelSite::kNewton, 0, n);
    // Newton system with the full recovery ladder: CG, tolerance
    // escalation, dense elimination. A rung that still fails ends the step
    // with a typed status instead of stepping on a garbage direction.
    linalg::ResilientSolveOptions rso;
    rso.base = solve;
    auto sol = linalg::solve_sdd_resilient(ctx, lap, rhsn_, rso, &precond, &warm_dy);
    out.cg_escalations = sol.tolerance_escalations;
    out.dense_fallback = sol.used_dense_fallback;
    if (sol.status != SolveStatus::kOk) {
      // Lifecycle statuses pass through untouched — they describe the
      // request, not the instance or the numerics.
      out.status = is_lifecycle_error(sol.status) ? sol.status : SolveStatus::kNumericalFailure;
      return out;
    }
    sol.x[dropped] = 0.0;
    warm_dy = sol.x;  // seed the next step's Newton solve
    dy_.swap(sol.x);
  }
  a_.apply_into(dy_, a_dy_);
  par::parallel_for(0, m, [&](std::size_t i) { dx_[i] = -d_[i] * (resid_[i] + a_dy_[i]); });

  // Damping: stay a factor `keep` inside the walls multiplicatively.
  double alpha = 1.0;
  for (std::size_t i = 0; i < m; ++i) {
    if (dx_[i] < 0.0) {
      alpha = std::min(alpha, keep * x[i] / -dx_[i]);
    } else if (dx_[i] > 0.0) {
      alpha = std::min(alpha, keep * (lp_.cap[i] - x[i]) / dx_[i]);
    }
  }
  if (!std::isfinite(alpha)) {
    out.status = SolveStatus::kNumericalFailure;
    return out;
  }
  par::charge(m, par::ceil_log2(std::max<std::size_t>(m, 2)));
  par::parallel_for(0, m, [&](std::size_t i) { x[i] += alpha * dx_[i]; });
  // With s = c - Ay the solved system's direction enters the dual with a
  // minus sign: y_new = y - δy (while δx above is already consistent).
  par::parallel_for(0, n, [&](std::size_t i) { y[i] -= alpha * dy_[i]; });
  y[dropped] = 0.0;
  return out;
}

IpmResult reference_ipm(core::SolverContext& ctx, const IpmLp& lp, Vec x0, Vec y0, double mu0,
                        const IpmOptions& opts) {
  const linalg::IncidenceOp a(*lp.graph, lp.dropped);
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

  // Per-iteration work buffers, allocated once; the Newton step owns its own.
  NewtonSystem newton(lp, a);
  Vec v(m), scaled(m);

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
    newton.eval_barrier(res.x);
    linalg::map_into(newton.hess(), v, [](double h) { return 1.0 / std::sqrt(h); });

    // Refresh τ (Lewis fixed point, warm start) every lewis_every iterations;
    // Lewis weights drift slowly along the path (Theorem C.1's premise).
    // leverage_scores retries a corrupted sketch internally (reseed + widen);
    // a persistent sketch failure surfaces here as a typed status.
    const bool refresh_tau = (it % std::max<std::int32_t>(stp.ref_lewis_every, 1)) == 0;
    for (std::int32_t round = 0; refresh_tau && round < stp.ref_lewis_rounds; ++round) {
      par::parallel_for(0, m, [&](std::size_t i) { scaled[i] = std::pow(tau[i], expo) * v[i]; });
      Vec sigma;
      try {
        sigma = linalg::leverage_scores(ctx, a, scaled, rng, opts.leverage);
      } catch (const ComponentError& err) {
        res.status = err.status();
        res.detail = err.what();
        return res;
      }
      par::parallel_for(0, m, [&](std::size_t i) { tau[i] = sigma[i] + reg; });
    }
    const double tau_sum = linalg::sum(tau);

    // Dual slack, centrality, and the primal residual r_p = b - A^T x.
    res.final_centrality = newton.eval_center(res.x, res.y, res.mu, tau);
    res.max_primal_residual =
        std::max(res.max_primal_residual, linalg::norm_inf(newton.primal_residual()));

    // Only shrink mu when sufficiently centered; otherwise re-center first.
    // A centred iterate stops the path at mu_end or as soon as its duality
    // gap pins the integral optimum.
    if (res.final_centrality < stp.ref_centrality_slack) {
      if (res.mu <= opts.mu_end ||
          duality_gap(lp, res.x, res.y, newton.slack(), newton.primal_residual()) < 1.0) {
        res.converged = true;
        break;
      }
      res.mu *= 1.0 - stp.ref_step_fraction / std::sqrt(std::max(tau_sum, 1.0));
      res.mu = std::max(res.mu, opts.mu_end * 0.5);
    }

    const NewtonStep st = newton.step(ctx, res.x, res.y, res.mu, tau,
                                      1.0 - stp.ref_boundary_margin, opts.solve);
    res.cg_escalations += st.cg_escalations;
    res.dense_fallbacks += st.dense_fallback ? 1 : 0;
    if (st.status != SolveStatus::kOk) {
      res.status = st.status;
      res.detail = is_lifecycle_error(st.status)
                       ? "ipm::reference_ipm: solve lifecycle expired during Newton solve"
                       : "ipm::reference_ipm: Newton step failed (solve ladder exhausted or "
                         "non-finite direction)";
      return res;
    }
  }
  if (!res.converged) {
    res.status = SolveStatus::kIterationLimit;
    res.detail = "ipm::reference_ipm: max_iters reached before mu_end";
  }
  if (opts.tau_io != nullptr && res.converged) *opts.tau_io = tau;
  return res;
}

}  // namespace pmcf::ipm
