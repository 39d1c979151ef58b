#include "ds/dual_maintenance.hpp"

#include <algorithm>
#include <cmath>

#include "parallel/scheduler.hpp"

namespace pmcf::ds {

namespace {
using linalg::Vec;

/// HeavyHitter rows weighted by 1/w: a drift of 0.2 w_i ε shows up as a
/// weighted magnitude of 0.2 ε.
Vec inverse_weights(const Vec& w) {
  Vec inv_w(w.size());
  for (std::size_t i = 0; i < w.size(); ++i) inv_w[i] = w[i] > 0.0 ? 1.0 / w[i] : 0.0;
  return inv_w;
}
}  // namespace

DualMaintenance::DualMaintenance(core::SolverContext& ctx, const linalg::IncidenceOp& a,
                                 Vec v_init, Vec w, DualMaintenanceOptions opts)
    : a_(&a),
      opts_(opts),
      w_(std::move(w)),
      hh_(ctx, a.graph(), inverse_weights(w_), opts_.hh),
      v_init_(std::move(v_init)),
      v_bar_(v_init_),
      f_hat_(a.cols(), 0.0) {
  const std::size_t n = a.cols();
  period_ = static_cast<std::int32_t>(
      std::uint64_t{1}
      << par::ceil_log2(static_cast<std::uint64_t>(std::ceil(std::sqrt(static_cast<double>(n)))) + 1));
  levels_ = static_cast<std::int32_t>(par::ceil_log2(static_cast<std::uint64_t>(period_))) + 1;
  f_level_.assign(static_cast<std::size_t>(levels_), Vec(n, 0.0));
}

std::vector<std::size_t> DualMaintenance::verify(const std::vector<std::size_t>& idx) {
  std::vector<std::size_t> changed;
  const double tol = 0.2 * opts_.eps / static_cast<double>(std::max(levels_, 1));
  for (const std::size_t i : idx) {
    const auto& arc = a_->graph().arc(static_cast<graph::EdgeId>(i));
    const auto u = static_cast<std::size_t>(arc.from);
    const auto v = static_cast<std::size_t>(arc.to);
    const double fu = u == static_cast<std::size_t>(a_->dropped()) ? 0.0 : f_hat_[u];
    const double fv = v == static_cast<std::size_t>(a_->dropped()) ? 0.0 : f_hat_[v];
    const double exact = v_init_[i] + (fv - fu);
    if (std::abs(v_bar_[i] - exact) >= tol * w_[i]) {
      v_bar_[i] = exact;
      changed.push_back(i);
    }
  }
  par::charge(idx.size() + 1, par::ceil_log2(idx.size() + 2));
  return changed;
}

DualMaintenance::AddResult DualMaintenance::add(const Vec& h) {
  if (t_ == period_) {
    // Periodic re-base from the exact current vector. Every dyadic window
    // fired and restarted at step T, so nothing else needs resetting.
    v_init_ = compute_exact();
    v_bar_ = v_init_;
    f_hat_.assign(f_hat_.size(), 0.0);
    t_ = 0;
  }
  ++t_;
  par::parallel_for(0, f_hat_.size(), [&](std::size_t i) { f_hat_[i] += h[i]; });

  // Dyadic windows: add h to every level; levels j with 2^j | t fire a
  // heavy query against their window sum and then reset.
  std::vector<std::size_t> candidates;
  const double threshold = 0.2 * opts_.eps / static_cast<double>(std::max(levels_, 1));
  for (std::int32_t j = 0; j < levels_; ++j) {
    auto& fj = f_level_[static_cast<std::size_t>(j)];
    par::parallel_for(0, fj.size(), [&](std::size_t i) { fj[i] += h[i]; });
    if (t_ % (std::int32_t{1} << j) == 0) {
      const auto heavy = hh_.heavy_query(fj, threshold);
      candidates.insert(candidates.end(), heavy.begin(), heavy.end());
      fj.assign(fj.size(), 0.0);
    }
  }
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()), candidates.end());

  AddResult res;
  res.changed = verify(candidates);
  res.approx = &v_bar_;
  return res;
}

Vec DualMaintenance::compute_exact() const {
  Vec out(v_init_.size());
  const Vec af = a_->apply(f_hat_);
  par::parallel_for(0, out.size(), [&](std::size_t i) { out[i] = v_init_[i] + af[i]; });
  return out;
}

}  // namespace pmcf::ds
