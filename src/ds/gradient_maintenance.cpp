#include "ds/gradient_maintenance.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "parallel/scheduler.hpp"

namespace pmcf::ds {

namespace {
using linalg::Vec;
}

// ---------------- GradientReduction ----------------

GradientReduction::GradientReduction(const linalg::IncidenceOp& a, Vec g, Vec tau, Vec z,
                                     GradientOptions opts)
    : a_(&a), opts_(opts), g_(std::move(g)), tau_(std::move(tau)), z_(std::move(z)) {
  const std::size_t m = a.rows();
  assert(g_.size() == m && tau_.size() == m && z_.size() == m);
  // τ classes: (1-ε)^{k+1} <= τ <= (1-ε)^k for τ in [n/m / 2, 2].
  const double tau_min = 0.25 * static_cast<double>(a.cols()) / static_cast<double>(m);
  num_tau_classes_ =
      static_cast<std::int32_t>(std::ceil(std::log(tau_min / 2.0) / std::log(1.0 - opts_.eps))) + 2;
  num_z_classes_ = static_cast<std::int32_t>(std::ceil(4.0 * opts_.z_max / opts_.eps)) + 2;
  num_buckets_ = num_tau_classes_ * num_z_classes_;

  bucket_.assign(m, 0);
  bucket_size_.assign(static_cast<std::size_t>(num_buckets_), 0);
  aggregate_.assign(static_cast<std::size_t>(num_buckets_), Vec());
  for (std::size_t i = 0; i < m; ++i) {
    bucket_[i] = flat_bucket(tau_[i], z_[i]);
    ++bucket_size_[static_cast<std::size_t>(bucket_[i])];
    add_to_aggregate(i, g_[i]);
  }
  par::charge(m, par::ceil_log2(std::max<std::size_t>(m, 2)));
}

std::int32_t GradientReduction::tau_class(double tau) const {
  const double t = std::max(tau, 1e-12);
  const auto k = static_cast<std::int32_t>(std::floor(std::log(t / 2.0) / std::log(1.0 - opts_.eps)));
  return std::clamp(k, 0, num_tau_classes_ - 1);
}

std::int32_t GradientReduction::z_class(double z) const {
  const auto l = static_cast<std::int32_t>(std::floor((z + opts_.z_max) / (opts_.eps / 2.0)));
  return std::clamp(l, 0, num_z_classes_ - 1);
}

std::int32_t GradientReduction::flat_bucket(double tau, double z) const {
  return tau_class(tau) * num_z_classes_ + z_class(z);
}

std::pair<double, double> GradientReduction::bucket_reps(std::int32_t bucket) const {
  const std::int32_t k = bucket / num_z_classes_;
  const std::int32_t l = bucket % num_z_classes_;
  const double tau_rep = 2.0 * std::pow(1.0 - opts_.eps, k + 0.5);
  const double z_rep = -opts_.z_max + (static_cast<double>(l) + 0.5) * (opts_.eps / 2.0);
  return {tau_rep, z_rep};
}

void GradientReduction::add_to_aggregate(std::size_t i, double coeff) {
  auto& agg = aggregate_[static_cast<std::size_t>(bucket_[i])];
  if (agg.empty()) agg.assign(a_->cols(), 0.0);
  // Row i of A has exactly two non-zeros (±1); unit work per update.
  const auto& arc = a_->graph().arc(static_cast<graph::EdgeId>(i));
  const auto d = static_cast<std::size_t>(a_->dropped());
  if (static_cast<std::size_t>(arc.from) != d) agg[static_cast<std::size_t>(arc.from)] -= coeff;
  if (static_cast<std::size_t>(arc.to) != d) agg[static_cast<std::size_t>(arc.to)] += coeff;
  par::charge(2, 1);
}

std::vector<std::int32_t> GradientReduction::update(const std::vector<std::size_t>& idx,
                                                    const Vec& b, const Vec& c, const Vec& d) {
  std::vector<std::int32_t> out(idx.size());
  for (std::size_t k = 0; k < idx.size(); ++k) {
    const std::size_t i = idx[k];
    add_to_aggregate(i, -g_[i]);
    --bucket_size_[static_cast<std::size_t>(bucket_[i])];
    g_[i] = b[k];
    tau_[i] = c[k];
    z_[i] = d[k];
    bucket_[i] = flat_bucket(tau_[i], z_[i]);
    ++bucket_size_[static_cast<std::size_t>(bucket_[i])];
    add_to_aggregate(i, g_[i]);
    out[k] = bucket_[i];
  }
  par::charge(idx.size() + 1, par::ceil_log2(idx.size() + 2));
  return out;
}

GradientReduction::QueryResult GradientReduction::query() const {
  // Low-dimensional representation: per *non-empty* bucket, the gradient of
  // Ψ at the z representative scaled by the bucket size, and the τ-norm
  // weight sqrt(|I| τ_rep)/C (Algorithm 6 lines 27-29). Only the occupied
  // buckets (at most min(m, K)) enter the K-dimensional maximizer.
  const auto kk = static_cast<std::size_t>(num_buckets_);
  std::vector<std::size_t> occupied;
  for (std::size_t bidx = 0; bidx < kk; ++bidx)
    if (bucket_size_[bidx] != 0) occupied.push_back(bidx);
  Vec x(occupied.size(), 0.0), v2(occupied.size(), 0.0);
  for (std::size_t t = 0; t < occupied.size(); ++t) {
    const std::size_t bidx = occupied[t];
    const auto [tau_rep, z_rep] = bucket_reps(static_cast<std::int32_t>(bidx));
    x[t] = static_cast<double>(bucket_size_[bidx]) * opts_.lambda *
           std::sinh(opts_.lambda * z_rep);
    const double v = std::sqrt(static_cast<double>(bucket_size_[bidx]) * tau_rep) / opts_.c_norm;
    v2[t] = v * v;
  }
  // s = argmax_{||v y||_2 + ||y||_inf <= 1} <x, y> — the mixed norm with
  // c_norm = 1 and weights v² (Corollary D.3).
  const auto fn = flat_norm_argmax(x, v2, 1.0);
  QueryResult res;
  res.s.assign(kk, 0.0);
  res.v.assign(a_->cols(), 0.0);
  std::size_t combined = 0;
  for (std::size_t t = 0; t < occupied.size(); ++t) {
    const std::size_t bidx = occupied[t];
    res.s[bidx] = fn.w[t];
    if (aggregate_[bidx].empty() || fn.w[t] == 0.0) continue;
    for (std::size_t j = 0; j < res.v.size(); ++j) res.v[j] += fn.w[t] * aggregate_[bidx][j];
    ++combined;
  }
  // The K-bucket scan and s's K slots, 4 per occupied bucket, v's n slots
  // and n per aggregate combined into it.
  const std::size_t work = 2 * kk + occupied.size() * 4 + res.v.size() * (1 + combined);
  par::charge(work, par::ceil_log2(work + 2));
  return res;
}

// ---------------- GradientAccumulator ----------------

GradientAccumulator::GradientAccumulator(Vec x_init, Vec g, std::vector<std::int32_t> bucket,
                                         std::int32_t num_buckets, Vec accuracy)
    : x_bar_(std::move(x_init)),
      g_(std::move(g)),
      accuracy_(std::move(accuracy)),
      bucket_(std::move(bucket)) {
  const std::size_t m = x_bar_.size();
  f_.assign(static_cast<std::size_t>(num_buckets), 0.0);
  base_.assign(m, 0.0);
  high_.assign(static_cast<std::size_t>(num_buckets), {});
  low_.assign(static_cast<std::size_t>(num_buckets), {});
  for (std::size_t i = 0; i < m; ++i) rearm(i);
  par::charge(m, par::ceil_log2(std::max<std::size_t>(m, 2)));
}

void GradientAccumulator::refresh(std::size_t i) {
  const auto b = static_cast<std::size_t>(bucket_[i]);
  x_bar_[i] += g_[i] * (f_[b] - base_[i]);
  base_[i] = f_[b];
}

void GradientAccumulator::rearm(std::size_t i) {
  const auto b = static_cast<std::size_t>(bucket_[i]);
  const double slack = std::abs(accuracy_[i] / (10.0 * (g_[i] == 0.0 ? 1e-12 : g_[i])));
  high_[b].insert({base_[i] + slack, i});
  low_[b].insert({base_[i] - slack, i});
}

void GradientAccumulator::disarm(std::size_t i) {
  const auto b = static_cast<std::size_t>(bucket_[i]);
  const double slack = std::abs(accuracy_[i] / (10.0 * (g_[i] == 0.0 ? 1e-12 : g_[i])));
  high_[b].erase(high_[b].find({base_[i] + slack, i}));
  low_[b].erase(low_[b].find({base_[i] - slack, i}));
}

void GradientAccumulator::update(const std::vector<std::size_t>& idx, const Vec& g,
                                 const std::vector<std::int32_t>& bucket) {
  for (std::size_t k = 0; k < idx.size(); ++k) {
    const std::size_t i = idx[k];
    disarm(i);
    refresh(i);
    g_[i] = g[k];
    bucket_[i] = bucket[k];
    base_[i] = f_[static_cast<std::size_t>(bucket_[i])];
    rearm(i);
  }
  par::charge(idx.size() + 1, par::ceil_log2(idx.size() + 2));
}

GradientAccumulator::QueryResult GradientAccumulator::query(const Vec& s,
                                                            const std::vector<std::size_t>& h_idx,
                                                            const Vec& h_val) {
  assert(s.size() == f_.size());
  std::vector<std::size_t> changed;
  for (std::size_t b = 0; b < f_.size(); ++b) f_[b] += s[b];
  par::charge(f_.size(), 1);

  // Sparse additive term h: refresh those coordinates and add h directly.
  for (std::size_t k = 0; k < h_idx.size(); ++k) {
    const std::size_t i = h_idx[k];
    disarm(i);
    refresh(i);
    x_bar_[i] += h_val[k];
    rearm(i);
    changed.push_back(i);
  }

  // Pop all violated triggers: f_b above a high threshold or below a low one.
  for (std::size_t b = 0; b < f_.size(); ++b) {
    while (!high_[b].empty() && high_[b].begin()->first < f_[b]) {
      const std::size_t i = high_[b].begin()->second;
      disarm(i);
      refresh(i);
      rearm(i);
      changed.push_back(i);
    }
    while (!low_[b].empty() && std::prev(low_[b].end())->first > f_[b]) {
      const std::size_t i = std::prev(low_[b].end())->second;
      disarm(i);
      refresh(i);
      rearm(i);
      changed.push_back(i);
    }
  }
  std::sort(changed.begin(), changed.end());
  changed.erase(std::unique(changed.begin(), changed.end()), changed.end());
  par::charge(changed.size() + f_.size(), par::ceil_log2(changed.size() + 2));
  return {&x_bar_, std::move(changed)};
}

Vec GradientAccumulator::compute_exact() const {
  Vec out = x_bar_;
  for (std::size_t i = 0; i < out.size(); ++i)
    out[i] += g_[i] * (f_[static_cast<std::size_t>(bucket_[i])] - base_[i]);
  par::charge(out.size(), 1);
  return out;
}

// ---------------- PrimalGradientMaintenance ----------------

PrimalGradientMaintenance::PrimalGradientMaintenance(const linalg::IncidenceOp& a, Vec x_init,
                                                     Vec g, Vec tau, Vec z, Vec accuracy,
                                                     GradientOptions opts)
    : reduction_(a, g, tau, z, opts),
      accumulator_(std::move(x_init), std::move(g),
                   [&] {
                     std::vector<std::int32_t> b(a.rows());
                     for (std::size_t i = 0; i < b.size(); ++i)
                       b[i] = reduction_.bucket_of_index(i);
                     return b;
                   }(),
                   reduction_.num_buckets(), std::move(accuracy)) {}

void PrimalGradientMaintenance::update(const std::vector<std::size_t>& idx, const Vec& b,
                                       const Vec& c, const Vec& d) {
  const auto buckets = reduction_.update(idx, b, c, d);
  accumulator_.update(idx, b, buckets);
}

Vec PrimalGradientMaintenance::query_product() {
  auto res = reduction_.query();
  last_s_ = std::move(res.s);
  return std::move(res.v);
}

GradientAccumulator::QueryResult PrimalGradientMaintenance::query_sum(
    const std::vector<std::size_t>& h_idx, const Vec& h_val, double step_scale) {
  Vec scaled = last_s_;
  for (auto& v : scaled) v *= step_scale;
  return accumulator_.query(scaled, h_idx, h_val);
}

}  // namespace pmcf::ds
