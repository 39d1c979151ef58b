#include "ds/lewis_maintenance.hpp"

#include <algorithm>
#include <cmath>

#include "linalg/accel_cache.hpp"
#include "linalg/laplacian.hpp"
#include "linalg/lewis.hpp"
#include "linalg/sdd_solver.hpp"
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
                                         Vec v, Vec z, LeverageMaintenanceOptions opts)
    : ctx_(&ctx),
      a_(&a),
      opts_(opts),
      period_(static_cast<std::int32_t>(std::ceil(std::sqrt(static_cast<double>(a.cols()))))),
      v_(std::move(v)),
      z_(std::move(z)) {
  if (opts_.leverage.sketch_dim < 1)
    throw ComponentError(SolveStatus::kInvalidInput, "ds::LeverageMaintenance",
                         "leverage.sketch_dim must be >= 1");
  rebuild();
}

void LeverageMaintenance::rebuild() {
  const std::size_t m = a_->rows();
  const auto k = static_cast<std::size_t>(opts_.leverage.sketch_dim);
  // Normalize scale (leverage scores are scale invariant).
  const double vmax = std::max(linalg::norm_inf(v_), 1e-300);
  const Vec vn = linalg::scale(v_, 1.0 / vmax);
  const Vec w = linalg::mul(vn, vn);
  // Shared assembly/preconditioner cache: rebuilds happen every few robust
  // steps against slowly drifting weights, so the pattern refresh + cached
  // factor amortize well here too. All k sketch solves share one blocked CG.
  linalg::AccelCache& cache = linalg::accel_cache(*ctx_);
  const linalg::Csr& lap = cache.laplacian(*ctx_, a_->graph(), w, a_->dropped());
  const linalg::SddPreconditioner& precond =
      cache.preconditioner(*ctx_, linalg::AccelSite::kLewisMaint, lap, w);
  // Re-seeding draws the same JL matrix at every rebuild, so sketch noise
  // does not move σ̄ where v did not move.
  par::Rng rng(opts_.seed);
  const double inv_sqrt_k = 1.0 / std::sqrt(static_cast<double>(k));
  std::vector<Vec> rhs(k);
  Vec jr(m);
  for (std::size_t r = 0; r < k; ++r) {
    for (std::size_t e = 0; e < m; ++e) jr[e] = rng.rademacher() * inv_sqrt_k;
    rhs[r] = a_->apply_transpose(linalg::mul(vn, jr));
    rhs[r][static_cast<std::size_t>(a_->dropped())] = 0.0;
  }
  const auto sols = linalg::solve_sdd_multi(*ctx_, lap, rhs, precond, opts_.leverage.solve);
  // σ̄_i = Σ_r (v_i (A y_r)_i)², in normalized units.
  sigma_bar_.assign(m, 0.0);
  for (const auto& sol : sols) {
    const Vec proj = a_->apply(sol.x);
    par::parallel_for(0, m, [&](std::size_t i) {
      const double t = vn[i] * proj[i];
      sigma_bar_[i] += t * t;
    });
  }
  par::parallel_for(0, m, [&](std::size_t i) {
    sigma_bar_[i] = std::clamp(sigma_bar_[i], 0.0, 1.0) + z_[i];
  });
  t_ = 0;
  par::charge(k * m, par::ceil_log2(std::max<std::size_t>(m, 2)));
}

void LeverageMaintenance::scale(const std::vector<std::size_t>& idx, const Vec& c) {
  for (std::size_t k = 0; k < idx.size(); ++k) v_[idx[k]] = c[k];
  par::charge(idx.size() + 1, par::ceil_log2(idx.size() + 2));
}

bool LeverageMaintenance::query() {
  if (++t_ < period_) return false;
  rebuild();
  return true;
}

LewisMaintenance::LewisMaintenance(core::SolverContext& ctx, const linalg::IncidenceOp& a, Vec g,
                                   Vec z, LeverageMaintenanceOptions opts)
    : expo_(0.5 - 1.0 / linalg::lewis_p(a.rows(), a.cols())),
      g_(std::move(g)),
      // The first fixed-point round: τ = 1 gives v = τ^{1/2-1/p} g = g.
      leverage_(ctx, a, g_, std::move(z), opts),
      tau_bar_(leverage_.approx()) {
  // One more warm-started round lands τ̄ near the Lewis fixed point.
  std::vector<std::size_t> all(g_.size());
  Vec scaled(g_.size());
  for (std::size_t i = 0; i < all.size(); ++i) {
    all[i] = i;
    scaled[i] = std::pow(tau_bar_[i], expo_) * g_[i];
  }
  leverage_.scale(all, scaled);
  leverage_.rebuild();
  tau_bar_ = leverage_.approx();
}

void LewisMaintenance::scale(const std::vector<std::size_t>& idx, const Vec& b) {
  Vec scaled(idx.size());
  for (std::size_t k = 0; k < idx.size(); ++k) {
    g_[idx[k]] = b[k];
    scaled[k] = std::pow(tau_bar_[idx[k]], expo_) * b[k];
  }
  leverage_.scale(idx, scaled);
}

LewisMaintenance::QueryResult LewisMaintenance::query() {
  QueryResult res{&tau_bar_, {}};
  if (!leverage_.query()) return res;
  // One warm-started fixed-point application on the entries that moved.
  const Vec& sigma = leverage_.approx();
  Vec rescale_val;
  for (std::size_t i = 0; i < tau_bar_.size(); ++i) {
    if (std::abs(sigma[i] - tau_bar_[i]) > 0.1 * kEps * std::max(tau_bar_[i], 1e-9)) {
      tau_bar_[i] = sigma[i];
      res.changed.push_back(i);
      rescale_val.push_back(std::pow(tau_bar_[i], expo_) * g_[i]);
    }
  }
  if (!res.changed.empty()) leverage_.scale(res.changed, rescale_val);
  par::charge(tau_bar_.size() + 1, par::ceil_log2(tau_bar_.size() + 2));
  return res;
}

}  // namespace pmcf::ds
