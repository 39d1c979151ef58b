#include "ds/lewis_maintenance.hpp"

#include <algorithm>
#include <cmath>

#include "linalg/accel_cache.hpp"
#include "linalg/lewis.hpp"
#include "parallel/rng.hpp"
#include "parallel/scheduler.hpp"

namespace pmcf::ds {

namespace {
using linalg::Vec;

/// Theorem C.1's accuracy ε: a rebuild reports the τ̄ entries that moved by
/// more than ε/10.
constexpr double kEps = 0.1;
}  // namespace

LeverageMaintenance::LeverageMaintenance(core::SolverContext& ctx, const linalg::IncidenceOp& a,
                                         const Vec& v, Vec z, LeverageMaintenanceOptions opts)
    : ctx_(&ctx), a_(&a), opts_(opts), z_(std::move(z)) {
  if (opts_.leverage.sketch_dim < 1)
    throw ComponentError(SolveStatus::kInvalidInput, "ds::LeverageMaintenance",
                         "leverage.sketch_dim must be >= 1");
  rebuild(v);
}

void LeverageMaintenance::rebuild(const Vec& v) {
  // Normalize scale (leverage scores are scale invariant).
  const double vmax = std::max(linalg::norm_inf(v), 1e-300);
  const Vec vn = linalg::scale(v, 1.0 / vmax);
  const Vec w = linalg::mul(vn, vn);
  // Shared assembly/preconditioner cache: rebuilds happen every few robust
  // steps against slowly drifting weights, so the pattern refresh + cached
  // factor amortize well here too.
  linalg::AccelCache& cache = linalg::accel_cache(*ctx_);
  const linalg::Csr& lap = cache.laplacian(*ctx_, a_->graph(), w, a_->dropped());
  const linalg::SddPreconditioner& precond =
      cache.preconditioner(*ctx_, linalg::AccelSite::kLewisMaint, lap, w);
  // Re-seeding draws the same JL matrix at every rebuild, so sketch noise
  // does not move σ̄ where v did not move.
  par::Rng rng(opts_.seed);
  sigma_bar_ = linalg::sketched_leverage(*ctx_, *a_, vn, lap, precond,
                                         static_cast<std::size_t>(opts_.leverage.sketch_dim),
                                         rng, opts_.leverage.solve);
  par::parallel_for(0, sigma_bar_.size(), [&](std::size_t i) { sigma_bar_[i] += z_[i]; });
}

LewisMaintenance::LewisMaintenance(core::SolverContext& ctx, const linalg::IncidenceOp& a, Vec g,
                                   Vec z, LeverageMaintenanceOptions opts)
    : expo_(0.5 - 1.0 / linalg::lewis_p(a.rows(), a.cols())),
      period_(static_cast<std::int32_t>(std::ceil(std::sqrt(static_cast<double>(a.cols()))))),
      g_(std::move(g)),
      // The first fixed-point round: τ = 1 gives v = τ^{1/2-1/p} g = g.
      leverage_(ctx, a, g_, std::move(z), opts),
      tau_bar_(leverage_.approx()) {
  // One more warm-started round lands τ̄ near the Lewis fixed point.
  rebuild();
  tau_bar_ = leverage_.approx();
}

void LewisMaintenance::rebuild() {
  Vec v(g_.size());
  par::parallel_for(0, v.size(),
                    [&](std::size_t i) { v[i] = std::pow(tau_bar_[i], expo_) * g_[i]; });
  leverage_.rebuild(v);
}

void LewisMaintenance::scale(const std::vector<std::size_t>& idx, const Vec& b) {
  for (std::size_t k = 0; k < idx.size(); ++k) g_[idx[k]] = b[k];
  par::charge(idx.size() + 1, par::ceil_log2(idx.size() + 2));
}

LewisMaintenance::QueryResult LewisMaintenance::query() {
  QueryResult res{&tau_bar_, {}};
  if (++t_ < period_) return res;
  t_ = 0;
  rebuild();
  // τ̄ takes the new estimate on the entries that moved.
  const Vec& sigma = leverage_.approx();
  for (std::size_t i = 0; i < tau_bar_.size(); ++i) {
    if (std::abs(sigma[i] - tau_bar_[i]) > 0.1 * kEps * std::max(tau_bar_[i], 1e-9)) {
      tau_bar_[i] = sigma[i];
      res.changed.push_back(i);
    }
  }
  par::charge(tau_bar_.size() + 1, par::ceil_log2(tau_bar_.size() + 2));
  return res;
}

}  // namespace pmcf::ds
