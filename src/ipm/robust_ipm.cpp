#include "ipm/robust_ipm.hpp"

#include <algorithm>
#include <cmath>

#include "ds/dual_maintenance.hpp"
#include "ds/gradient_maintenance.hpp"
#include "ds/heavy_hitter.hpp"
#include "ds/heavy_sampler.hpp"
#include "ds/lewis_maintenance.hpp"
#include "ipm/barrier.hpp"
#include "linalg/accel_cache.hpp"
#include "linalg/csr.hpp"
#include "linalg/kernels.hpp"
#include "linalg/laplacian.hpp"
#include "linalg/lewis.hpp"
#include "parallel/scheduler.hpp"

namespace pmcf::ipm {

namespace {

/// Master seed of the ds stack's randomized structures; each structure adds
/// its own offset, and a rebuild shifts them all.
constexpr std::uint64_t kSeed = 37;
/// Leverage oversampling K' of the first sparsifier draw.
constexpr double kSparsifierOversampling = 1.0;
/// Recovery policy: reseeded rebuilds of a failed randomized structure
/// (expander certificate violation, sketch failure) before the solve gives
/// up with a typed status.
constexpr std::int32_t kMaxStructureRebuilds = 3;
/// Recovery policy: redraws of a degenerate sparsifier sample (heavy-hitter
/// false negatives), each with 4x the oversampling, before the Newton solve
/// falls back to the dense edge set.
constexpr std::int32_t kMaxSparsifierRetries = 2;

}  // namespace

using linalg::Vec;

RobustIpmResult robust_ipm(core::SolverContext& ctx, const IpmLp& lp, Vec x0, Vec y0,
                           double mu0, const RobustIpmOptions& opts) {
  const graph::Digraph& g = *lp.graph;
  const linalg::IncidenceOp a(g, lp.dropped);
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();
  par::Rng rng(kSeed);

  RobustIpmResult res;
  res.x = std::move(x0);
  res.y = std::move(y0);
  res.mu = mu0;

  const core::IpmStepIngredient& stp = core::default_ingredients().step;
  const core::SketchIngredient& skt = core::default_ingredients().sketch;

  const auto resync_every = static_cast<std::int32_t>(
      stp.rob_resync_multiplier * std::ceil(std::sqrt(static_cast<double>(n))));

  // Exact Lewis weights at epoch boundaries; kept as the epoch's τ reference.
  linalg::LewisOptions lw;
  lw.max_rounds = skt.robust_epoch_lewis_rounds;
  lw.leverage.sketch_dim = skt.robust_epoch_sketch_dim;
  Vec tau(m, static_cast<double>(n) / static_cast<double>(m) + 0.5);

  // The epoch-boundary re-centering takes the reference IPM's exact step.
  NewtonSystem newton(lp, a);

  // Recovery state: a ComponentError thrown by any randomized structure
  // (expander certificate violation, sketch failure) aborts the epoch; the
  // structures are rebuilt from the exact iterate with fresh seeds a bounded
  // number of times before the failure surfaces as a typed status.
  std::uint64_t seed_shift = 0;
  std::int32_t failed_epochs = 0;

  while (res.iterations < opts.max_iters) {
    // Lifecycle poll at epoch granularity (the robust-step loop below polls
    // per step as well); a canceled/expired solve winds down with the typed
    // status, never a partial kOk.
    if (const SolveStatus ls = ctx.check_lifecycle(); ls != SolveStatus::kOk) {
      res.status = ls;
      res.detail = "ipm::robust_ipm: solve lifecycle expired";
      return res;
    }
    try {
      // ---------------- epoch resync (exact, amortized over resync_every) ----
      {
        const Vec hess = barrier_hess(res.x, lp.cap);
        const Vec v = linalg::map(hess, [](double h) { return 1.0 / std::sqrt(h); });
        tau = linalg::ipm_lewis_weights(ctx, a, v, rng, lw);
      }
      // Re-center until the iterate is genuinely close to the path again; the
      // robust steps in between only keep it coarsely centered.
      for (std::int32_t c = 0; c < stp.rob_recenter_max; ++c) {
        newton.eval_barrier(res.x);
        res.final_centrality = newton.eval_center(res.x, res.y, res.mu, tau);
        if (res.final_centrality < stp.rob_recenter_threshold) break;
        const NewtonStep st = newton.step(ctx, res.x, res.y, res.mu, tau,
                                          stp.rob_center_damping, opts.solve);
        if (st.status != SolveStatus::kOk) {
          res.status = st.status;
          res.detail = is_lifecycle_error(st.status)
                           ? "ipm::robust_ipm: solve lifecycle expired during re-centering"
                           : "ipm::robust_ipm: exact re-centering step failed";
          return res;
        }
      }
      // The gap stop reads eval_center's s and r_p, which belong to the
      // current (x, y) only when the loop above ended on a centred point.
      const bool centred = res.final_centrality < stp.rob_recenter_threshold;
      if ((res.mu <= opts.mu_end && res.final_centrality < 1.0) ||
          (centred &&
           duality_gap(lp, res.x, res.y, newton.slack(), newton.primal_residual()) < 1.0)) {
        res.converged = true;
        break;
      }

      // ---------------- build the robust structures for this epoch ----------
      Vec hess = barrier_hess(res.x, lp.cap);
      Vec g_primal(m);  // Φ''^{-1/2}
      par::parallel_for(0, m, [&](std::size_t i) { g_primal[i] = 1.0 / std::sqrt(hess[i]); });
      Vec s_exact = linalg::sub(lp.cost, a.apply(res.y));

      // z̄ centrality coordinates (clamped to the bucketing range).
      ds::GradientOptions gopts;
      gopts.eps = stp.rob_bucket_eps;
      gopts.c_norm = 4.0 * std::log(4.0 * static_cast<double>(m) / static_cast<double>(n) + 2.72);
      auto z_of = [&](std::size_t i, double s_i, double x_i, double tau_i, double mu) {
        const double h2 = 1.0 / x_i / x_i + 1.0 / (lp.cap[i] - x_i) / (lp.cap[i] - x_i);
        const double gr = -1.0 / x_i + 1.0 / (lp.cap[i] - x_i);
        const double z = (s_i + mu * tau_i * gr) / (mu * tau_i * std::sqrt(h2));
        return std::clamp(z, -gopts.z_max, gopts.z_max);
      };
      Vec z_bar(m);
      for (std::size_t i = 0; i < m; ++i)
        z_bar[i] = z_of(i, s_exact[i], res.x[i], tau[i], res.mu);

      // Primal accuracy budget: fraction of the distance to the walls.
      Vec accuracy(m);
      for (std::size_t i = 0; i < m; ++i)
        accuracy[i] = stp.rob_primal_eps * std::min(res.x[i], lp.cap[i] - res.x[i]);

      ds::PrimalGradientMaintenance pg(a, res.x, g_primal, tau, z_bar, accuracy, gopts);

      ds::DualMaintenanceOptions dopts;
      dopts.eps = stp.rob_dual_eps;
      dopts.hh.decomp.static_opts.power_iters = 24;
      dopts.hh.seed += seed_shift;
      Vec dual_weights(m);
      for (std::size_t i = 0; i < m; ++i)
        dual_weights[i] = res.mu * tau[i] * std::sqrt(hess[i]);
      ds::DualMaintenance dual(ctx, a, s_exact, dual_weights, dopts);

      ds::LeverageMaintenanceOptions lmo;
      lmo.leverage.sketch_dim = skt.lewis_maint_sketch_dim;
      lmo.seed = kSeed + 101 + seed_shift;
      ds::LewisMaintenance lewis(ctx, a, g_primal,
                                 linalg::constant(m, static_cast<double>(n) / m), lmo);

      // One heavy hitter on d = (τ Φ'')^{-1} answers both the sparsifier's
      // leverage sampling and the primal sampler's ℓ2 sampling.
      Vec d_weights(m);
      for (std::size_t i = 0; i < m; ++i) d_weights[i] = 1.0 / (tau[i] * hess[i]);
      ds::HeavyHitter hh(ctx, g, d_weights, {.seed = kSeed + 304 + seed_shift});
      ds::HeavySampler sampler(hh, g, tau, kSeed + 303 + seed_shift);

      // Mirror of x̄ for incremental residual updates.
      Vec x_mirror = res.x;
      Vec rp = linalg::sub(lp.b, a.apply_transpose(res.x));
      rp[static_cast<std::size_t>(a.dropped())] = 0.0;
      double tau_sum = linalg::sum(tau);
      Vec tau_cur = tau;

      std::vector<std::size_t> stale;  // coordinates whose z̄ needs refresh

      // ---------------- robust steps ----------------------------------------
      for (std::int32_t step = 0; step < resync_every && res.iterations < opts.max_iters; ++step) {
        if (const SolveStatus ls = ctx.check_lifecycle(); ls != SolveStatus::kOk) {
          res.status = ls;
          res.detail = "ipm::robust_ipm: solve lifecycle expired mid-epoch";
          return res;
        }
        ++res.iterations;
        ++res.robust_steps;
        const par::CostScope step_scope;

        // 1. Refresh z̄ and the bucket assignment of stale coordinates.
        if (!stale.empty()) {
          std::sort(stale.begin(), stale.end());
          stale.erase(std::unique(stale.begin(), stale.end()), stale.end());
          Vec b(stale.size()), c(stale.size()), dnew(stale.size());
          for (std::size_t k = 0; k < stale.size(); ++k) {
            const std::size_t i = stale[k];
            const double xi = x_mirror[i];
            const double h2 = 1.0 / xi / xi + 1.0 / (lp.cap[i] - xi) / (lp.cap[i] - xi);
            b[k] = 1.0 / std::sqrt(h2);
            c[k] = tau_cur[i];
            dnew[k] = z_of(i, dual.approx()[i], xi, tau_cur[i], res.mu);
          }
          pg.update(stale, b, c, dnew);
          stale.clear();
        }

        // 2. Steepest descent direction over buckets (eq. (4)).
        const Vec v1 = pg.query_product();  // A^T G ∇Ψ(z̄)^♭(τ̄)

        // 3. Sparsified Newton solves: H ≈ A^T T̄^{-1} Φ''^{-1} A from
        //    leverage-sampled edges (Lemma B.1 LeverageScoreSample). The
        //    rows are √d·a_e; hh's classes are keyed on d, so √d inside a
        //    cluster spans at most 2^1.5 (DESIGN §6 item 7).
        //    Heavy-hitter false negatives can leave the sample too thin to
        //    span a connected sparsifier; redraw with widened oversampling,
        //    then fall back to the dense edge set rather than solve a
        //    near-singular system.
        double k_prime = kSparsifierOversampling;
        auto sampled = hh.leverage_sample(k_prime);
        for (std::int32_t redraw = 0;
             sampled.size() + 1 < n && redraw < kMaxSparsifierRetries; ++redraw) {
          ++res.sparsifier_retries;
          ctx.recovery().note(RecoveryEvent::kSketchRetry);
          k_prime *= 4.0;
          sampled = hh.leverage_sample(k_prime);
        }
        Vec d_sparse(m, 0.0);
        if (sampled.size() + 1 < n) {
          ++res.dense_fallbacks;
          ctx.recovery().note(RecoveryEvent::kDenseFallback);
          d_sparse = d_weights;
        } else {
          const Vec qs = hh.leverage_bound(sampled, k_prime);
          for (std::size_t k = 0; k < sampled.size(); ++k)
            d_sparse[sampled[k]] = d_weights[sampled[k]] / std::max(qs[k], 1e-12);
        }
        const double dmax = std::max(linalg::norm_inf(d_sparse), 1e-300);
        const Vec d_scaled = linalg::scale(d_sparse, 1.0 / dmax);
        // Cached assembly (value-only refresh of the epoch-stable pattern).
        // The sparsifier resamples its edge support every step, so the
        // weight vector changes wholesale — the drift gate correctly
        // refactors the (cheap, Jacobi) preconditioner nearly every step,
        // while the two RHS of this step share one blocked CG: the δy
        // steepest-descent system and its feasibility-corrected twin q
        // solve against the same sparsified Laplacian.
        linalg::AccelCache& cache = linalg::accel_cache(ctx);
        const linalg::Csr& lap = cache.laplacian(ctx, g, d_scaled, a.dropped());
        const linalg::SddPreconditioner& precond =
            cache.preconditioner(ctx, linalg::AccelSite::kRobustStep, lap, d_scaled);

        //    δy = H^{-1} A^T Φ''^{-1/2} g  with g = -γ ∇Ψ^♭  (dual step)
        std::vector<Vec> step_rhs(2);
        step_rhs[0] = linalg::scale(v1, -stp.rob_gamma / dmax);
        step_rhs[0][static_cast<std::size_t>(a.dropped())] = 0.0;
        //    δy + δc adds the feasibility correction H^{-1}(A^T x̄ - b).
        step_rhs[1].resize(n);
        par::parallel_for(0, n, [&](std::size_t i) {
          step_rhs[1][i] = (-stp.rob_gamma * v1[i] - rp[i]) / dmax;
        });
        step_rhs[1][static_cast<std::size_t>(a.dropped())] = 0.0;
        linalg::Vec& warm_dy = cache.warm_start(linalg::AccelSite::kRobustStep, 0, n);
        linalg::Vec& warm_q = cache.warm_start(linalg::AccelSite::kRobustStep, 1, n);
        auto sols = linalg::solve_sdd_multi(ctx, lap, step_rhs, precond, opts.solve,
                                            {&warm_dy, &warm_q});
        for (const auto& s : sols) {
          if (is_lifecycle_error(s.status)) {
            res.status = s.status;
            res.detail = "ipm::robust_ipm: solve lifecycle expired during robust-step solve";
            return res;
          }
        }
        Vec dy = std::move(sols[0].x);
        dy[static_cast<std::size_t>(a.dropped())] = 0.0;
        Vec q = std::move(sols[1].x);
        q[static_cast<std::size_t>(a.dropped())] = 0.0;
        warm_dy = dy;
        warm_q = q;

        // 4. Sampled primal correction (the R matrix of eq. (5)).
        const auto r_entries = sampler.sample(q);
        std::vector<std::size_t> h_idx;
        Vec h_val;
        h_idx.reserve(r_entries.size());
        for (const auto& entry : r_entries) {
          const std::size_t i = entry.index;
          const auto& arc = g.arc(static_cast<graph::EdgeId>(i));
          const double qu =
              static_cast<std::size_t>(arc.from) == static_cast<std::size_t>(a.dropped())
                  ? 0.0
                  : q[static_cast<std::size_t>(arc.from)];
          const double qv = static_cast<std::size_t>(arc.to) == static_cast<std::size_t>(a.dropped())
                                ? 0.0
                                : q[static_cast<std::size_t>(arc.to)];
          double hv = -entry.inv_prob * d_weights[i] * (qv - qu);
          // Interior safeguard: a sampled update never crosses half the
          // remaining distance to a wall.
          const double cap_room = 0.5 * std::min(x_mirror[i], lp.cap[i] - x_mirror[i]);
          hv = std::clamp(hv, -cap_room, cap_room);
          h_idx.push_back(i);
          h_val.push_back(hv);
        }
        const auto sum_res = pg.query_sum(h_idx, h_val, -stp.rob_gamma);

        // 5. Propagate x̄ changes: residual, Lewis scaling, sampler weights.
        {
          std::vector<std::size_t> moved;
          Vec lw_vals, d_vals, tau_vals;
          for (const std::size_t i : sum_res.changed) {
            double xi = (*sum_res.approx)[i];
            xi = std::clamp(xi, 0.02 * lp.cap[i], 0.98 * lp.cap[i]);
            const double delta = xi - x_mirror[i];
            if (delta == 0.0) continue;
            const auto& arc = g.arc(static_cast<graph::EdgeId>(i));
            rp[static_cast<std::size_t>(arc.from)] += delta;
            rp[static_cast<std::size_t>(arc.to)] -= delta;
            x_mirror[i] = xi;
            moved.push_back(i);
            const double h2 = 1.0 / xi / xi + 1.0 / (lp.cap[i] - xi) / (lp.cap[i] - xi);
            lw_vals.push_back(1.0 / std::sqrt(h2));
            d_weights[i] = 1.0 / (tau_cur[i] * h2);
            d_vals.push_back(d_weights[i]);
            tau_vals.push_back(tau_cur[i]);
          }
          rp[static_cast<std::size_t>(a.dropped())] = 0.0;
          if (!moved.empty()) {
            lewis.scale(moved, lw_vals);
            hh.scale(moved, d_vals);
            sampler.scale(moved, tau_vals);
            stale.insert(stale.end(), moved.begin(), moved.end());
          }
        }

        // 6. Dual step δs = μ A δy (eq. (3)); y tracked explicitly.
        const Vec dual_h = linalg::scale(dy, res.mu);
        const auto dual_res = dual.add(dual_h);
        par::parallel_for(0, n, [&](std::size_t i) { res.y[i] -= res.mu * dy[i]; });
        res.y[static_cast<std::size_t>(a.dropped())] = 0.0;
        stale.insert(stale.end(), dual_res.changed.begin(), dual_res.changed.end());

        // 7. τ̄ refresh.
        const auto lres = lewis.query();
        for (const std::size_t i : lres.changed) {
          tau_sum += (*lres.approx)[i] - tau_cur[i];
          tau_cur[i] = (*lres.approx)[i];
          stale.push_back(i);
        }

        // 8. Shrink μ.
        res.mu *= 1.0 - stp.rob_step_fraction / std::sqrt(std::max(tau_sum, 1.0));
        res.mu = std::max(res.mu, opts.mu_end * 0.5);
        if (!std::isfinite(res.mu) || !std::isfinite(tau_sum)) {
          res.status = SolveStatus::kNumericalFailure;
          res.detail = "ipm::robust_ipm: non-finite path parameter";
          return res;
        }
        res.robust_step_work += step_scope.elapsed().work;
        if (res.mu <= opts.mu_end) break;
      }

      // Epoch end: pull the exact x out of the accumulator and clamp interior.
      res.x = pg.compute_exact_sum();
      for (std::size_t i = 0; i < m; ++i) {
        if (!std::isfinite(res.x[i])) {
          res.status = SolveStatus::kNumericalFailure;
          res.detail = "ipm::robust_ipm: non-finite primal iterate at epoch end";
          return res;
        }
        res.x[i] = std::clamp(res.x[i], 0.02 * lp.cap[i], 0.98 * lp.cap[i]);
      }
      par::charge(m, 1);
      failed_epochs = 0;
    } catch (const ComponentError& err) {
      // A canceled/expired solve is not a broken certificate: the rebuild
      // loop must not burn the budget the caller just withdrew. Pass the
      // lifecycle status straight through.
      if (is_lifecycle_error(err.status())) {
        res.status = err.status();
        res.detail = err.what();
        return res;
      }
      // A randomized structure failed its certificate mid-epoch. The exact
      // iterate res.x/res.y is still valid (x-bar progress since the last
      // resync is discarded); rebuild everything with fresh seeds.
      if (++failed_epochs > kMaxStructureRebuilds) {
        res.status = err.status();
        res.detail = err.what();
        return res;
      }
      ++res.structure_rebuilds;
      ctx.recovery().note(RecoveryEvent::kStructureRebuild);
      seed_shift += 7919;  // fresh seeds for every randomized structure
    }
  }
  if (!res.converged) {
    res.status = SolveStatus::kIterationLimit;
    res.detail = "ipm::robust_ipm: max_iters reached before mu_end";
  }
  return res;
}

}  // namespace pmcf::ipm
