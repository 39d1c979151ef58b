#include "ds/lewis_maintenance.hpp"

#include <algorithm>
#include <cmath>

#include "linalg/accel_cache.hpp"
#include "linalg/laplacian.hpp"
#include "linalg/lewis.hpp"
#include "linalg/sdd_solver.hpp"
#include "parallel/scheduler.hpp"

namespace pmcf::ds {

namespace {
using linalg::Vec;
}

LeverageMaintenance::LeverageMaintenance(core::SolverContext& ctx, const linalg::IncidenceOp& a,
                                         Vec v, Vec z, LeverageMaintenanceOptions opts)
    : ctx_(&ctx), a_(&a), opts_(opts), v_(std::move(v)), z_(std::move(z)), rng_(opts.seed) {
  if (opts_.leverage.sketch_dim < 1)
    throw ComponentError(SolveStatus::kInvalidInput, "ds::LeverageMaintenance",
                         "leverage.sketch_dim must be >= 1");
  period_ = opts_.period > 0
                ? opts_.period
                : static_cast<std::int32_t>(std::ceil(std::sqrt(static_cast<double>(a.cols()))));
  dirty_flag_.assign(a.rows(), 0);
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
  projections_.assign(k, Vec());
  const double inv_sqrt_k = 1.0 / std::sqrt(static_cast<double>(k));
  std::vector<Vec> rhs(k);
  for (std::size_t r = 0; r < k; ++r) {
    Vec jr(m);
    for (std::size_t e = 0; e < m; ++e) jr[e] = rng_.rademacher() * inv_sqrt_k;
    rhs[r] = a_->apply_transpose(linalg::mul(vn, jr));
    rhs[r][static_cast<std::size_t>(a_->dropped())] = 0.0;
  }
  const auto sols = linalg::solve_sdd_multi(*ctx_, lap, rhs, precond, opts_.leverage.solve);
  for (std::size_t r = 0; r < k; ++r) {
    // Cache A y_r scaled back: projections are in normalized units, matching
    // estimate_entry's use of v_i / vmax.
    projections_[r] = a_->apply(sols[r].x);
  }
  norm_scale_ = vmax;
  sigma_bar_.assign(m, 0.0);
  for (std::size_t i = 0; i < m; ++i) sigma_bar_[i] = estimate_entry(i);
  dirty_.clear();
  std::fill(dirty_flag_.begin(), dirty_flag_.end(), 0);
  t_ = 0;
  drift_ = 0.0;
  par::charge(k * m, par::ceil_log2(std::max<std::size_t>(m, 2)));
}

double LeverageMaintenance::estimate_entry(std::size_t i) const {
  double acc = 0.0;
  const double vi = v_[i] / norm_scale_;
  for (const Vec& proj : projections_) {
    const double t = vi * proj[i];
    acc += t * t;
  }
  par::charge(projections_.size(), 1);
  return std::clamp(acc, 0.0, 1.0) + z_[i];
}

void LeverageMaintenance::scale(const std::vector<std::size_t>& idx, const Vec& c) {
  for (std::size_t k = 0; k < idx.size(); ++k) {
    const double old = std::max(std::abs(v_[idx[k]]), 1e-12);
    drift_ += std::abs(c[k] - v_[idx[k]]) / old;
    v_[idx[k]] = c[k];
    if (!dirty_flag_[idx[k]]) {
      dirty_flag_[idx[k]] = 1;
      dirty_.push_back(idx[k]);
    }
  }
  par::charge(idx.size() + 1, par::ceil_log2(idx.size() + 2));
}

LeverageMaintenance::QueryResult LeverageMaintenance::query() {
  QueryResult res;
  ++t_;
  if (t_ >= period_ || drift_ > opts_.drift_budget) {
    rebuild();
    res.rebuilt = true;
    res.changed.resize(sigma_bar_.size());
    for (std::size_t i = 0; i < res.changed.size(); ++i) res.changed[i] = i;
    res.approx = &sigma_bar_;
    return res;
  }
  for (const std::size_t i : dirty_) {
    const double fresh = estimate_entry(i);
    if (std::abs(fresh - sigma_bar_[i]) > 0.1 * opts_.eps * std::max(sigma_bar_[i], 1e-9)) {
      sigma_bar_[i] = fresh;
      res.changed.push_back(i);
    }
    dirty_flag_[i] = 0;
  }
  dirty_.clear();
  res.approx = &sigma_bar_;
  par::charge(res.changed.size() + 1, par::ceil_log2(res.changed.size() + 2));
  return res;
}

LewisMaintenance::LewisMaintenance(core::SolverContext& ctx, const linalg::IncidenceOp& a, Vec g,
                                   Vec z, LewisMaintenanceOptions opts)
    : a_(&a),
      opts_(opts),
      expo_(0.5 - 1.0 / (opts.p > 0.0 ? opts.p : linalg::lewis_p(a.rows(), a.cols()))),
      g_(std::move(g)),
      z_(std::move(z)),
      tau_bar_(a.rows(), 1.0),
      leverage_(ctx, a,
                [&] {
                  // Initial scaling uses τ = 1: v = τ^{1/2-1/p} g = g.
                  return g_;
                }(),
                z_, opts.leverage) {
  // A few warm-up fixed-point rounds to land near the Lewis fixed point.
  for (int round = 0; round < 2; ++round) {
    Vec scaled(g_.size());
    for (std::size_t i = 0; i < g_.size(); ++i)
      scaled[i] = std::pow(tau_bar_[i], expo_) * g_[i];
    std::vector<std::size_t> all(g_.size());
    for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
    leverage_.scale(all, scaled);
    const auto q = leverage_.query();
    for (std::size_t i = 0; i < tau_bar_.size(); ++i) tau_bar_[i] = (*q.approx)[i];
  }
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
  const auto lq = leverage_.query();
  QueryResult res;
  // One warm-started fixed-point application on the touched entries.
  std::vector<std::size_t> rescale_idx;
  Vec rescale_val;
  for (const std::size_t i : lq.changed) {
    const double fresh = (*lq.approx)[i];
    if (std::abs(fresh - tau_bar_[i]) > 0.1 * opts_.eps * std::max(tau_bar_[i], 1e-9)) {
      tau_bar_[i] = fresh;
      res.changed.push_back(i);
      rescale_idx.push_back(i);
      rescale_val.push_back(std::pow(tau_bar_[i], expo_) * g_[i]);
    }
  }
  if (!rescale_idx.empty()) leverage_.scale(rescale_idx, rescale_val);
  res.approx = &tau_bar_;
  par::charge(lq.changed.size() + 1, par::ceil_log2(lq.changed.size() + 2));
  return res;
}

}  // namespace pmcf::ds
