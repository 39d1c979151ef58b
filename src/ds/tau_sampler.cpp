#include "ds/tau_sampler.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "parallel/scheduler.hpp"

namespace pmcf::ds {

TauSampler::TauSampler(std::vector<double> tau, std::size_t n, std::uint64_t seed)
    : tau_(std::move(tau)), n_(n), rng_(seed) {
  const std::size_t m = tau_.size();
  bucket_.assign(m, 0);
  members_.assign(static_cast<std::size_t>(kMaxExp - kMinExp + 1), {});
  position_.assign(m, -1);
  for (std::size_t i = 0; i < m; ++i) {
    assert(tau_[i] > 0.0);
    const std::int32_t b = bucket_of(tau_[i]);
    bucket_[i] = b;
    position_[i] = static_cast<std::int32_t>(members_[static_cast<std::size_t>(b - kMinExp)].size());
    members_[static_cast<std::size_t>(b - kMinExp)].push_back(i);
    tau_sum_ += tau_[i];
  }
  par::charge(m, par::ceil_log2(std::max<std::size_t>(m, 2)));
}

std::int32_t TauSampler::bucket_of(double t) const {
  const auto b = static_cast<std::int32_t>(std::floor(std::log2(t)));
  return std::clamp(b, kMinExp, kMaxExp);
}

void TauSampler::scale(const std::vector<std::size_t>& idx, const std::vector<double>& a) {
  assert(idx.size() == a.size());
  for (std::size_t k = 0; k < idx.size(); ++k) {
    const std::size_t i = idx[k];
    tau_sum_ += a[k] - tau_[i];
    tau_[i] = a[k];
    const std::int32_t nb = bucket_of(a[k]);
    if (nb == bucket_[i]) continue;
    // Swap-remove from the old bucket.
    auto& old_list = members_[static_cast<std::size_t>(bucket_[i] - kMinExp)];
    const auto pos = static_cast<std::size_t>(position_[i]);
    if (pos + 1 != old_list.size()) {
      old_list[pos] = old_list.back();
      position_[old_list[pos]] = static_cast<std::int32_t>(pos);
    }
    old_list.pop_back();
    bucket_[i] = nb;
    auto& new_list = members_[static_cast<std::size_t>(nb - kMinExp)];
    position_[i] = static_cast<std::int32_t>(new_list.size());
    new_list.push_back(i);
  }
  par::charge(idx.size() + 1, par::ceil_log2(idx.size() + 2));
}

double TauSampler::bucket_prob(std::int32_t b, double k) const {
  // Every member of bucket b is sampled with the bucket's upper-bound rate
  // p = min(1, K n 2^{b+1} / ||τ||_1) >= K n τ_i / ||τ||_1.
  const double upper = std::ldexp(1.0, b + 1);
  return std::min(1.0, k * static_cast<double>(n_) * upper / std::max(tau_sum_, 1e-300));
}

std::vector<std::size_t> TauSampler::sample(double k) {
  std::vector<std::size_t> out;
  for (std::int32_t b = kMinExp; b <= kMaxExp; ++b) {
    const auto& list = members_[static_cast<std::size_t>(b - kMinExp)];
    if (list.empty()) continue;
    const double p = bucket_prob(b, k);
    if (p <= 0.0) continue;
    if (p >= 1.0) {
      out.insert(out.end(), list.begin(), list.end());
      continue;
    }
    // Geometric skipping: work proportional to the number of hits.
    const double log1mp = std::log1p(-p);
    double j = -1.0;
    for (;;) {
      double u = rng_.next_double();
      while (u <= 0.0) u = rng_.next_double();
      j += 1.0 + std::floor(std::log(u) / log1mp);
      if (j >= static_cast<double>(list.size())) break;
      out.push_back(list[static_cast<std::size_t>(j)]);
    }
  }
  par::charge(out.size() + static_cast<std::size_t>(kMaxExp - kMinExp + 1),
              par::ceil_log2(out.size() + 2));
  return out;
}

double TauSampler::probability(std::size_t i, double k) const {
  return bucket_prob(bucket_[i], k);
}

}  // namespace pmcf::ds
