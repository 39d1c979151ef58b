#include "ds/heavy_sampler.hpp"

#include <algorithm>
#include <cmath>

#include "parallel/scheduler.hpp"

namespace pmcf::ds {

namespace {
using linalg::Vec;

/// Theorem E.2's constants C1 (ℓ2 term), C2 (uniform term), C3 (τ term).
constexpr double kC1 = 1.0;
constexpr double kC2 = 1.0;
constexpr double kC3 = 1.0;
}  // namespace

HeavySampler::HeavySampler(HeavyHitter& hh, const graph::Digraph& g, Vec tau, std::uint64_t seed)
    : hh_(&hh),
      tau_sampler_(std::move(tau), static_cast<std::size_t>(g.num_vertices()), seed + 2),
      rng_(seed),
      m_(static_cast<std::size_t>(g.num_arcs())),
      n_(static_cast<std::size_t>(g.num_vertices())) {}

void HeavySampler::scale(const std::vector<std::size_t>& idx, const Vec& tau) {
  tau_sampler_.scale(idx, tau);
}

std::vector<HeavySampler::Entry> HeavySampler::sample(const Vec& h) {
  const double sqrt_n = std::sqrt(static_cast<double>(n_));
  // Component samplers (each oversamples by 3x as in Algorithm 10).
  const auto i_u = tau_sampler_.sample(3.0 * kC3);
  const auto i_v = hh_->sample(h, 3.0 * kC1 * static_cast<double>(m_) / sqrt_n);
  std::vector<std::size_t> i_w;
  const double p_unif = std::min(3.0 * kC2 / sqrt_n, 1.0);
  if (p_unif >= 1.0) {
    i_w.resize(m_);
    for (std::size_t i = 0; i < m_; ++i) i_w[i] = i;
  } else if (p_unif > 0.0) {
    const double log1mp = std::log1p(-p_unif);
    double j = -1.0;
    for (;;) {
      double u = rng_.next_double();
      while (u <= 0.0) u = rng_.next_double();
      j += 1.0 + std::floor(std::log(u) / log1mp);
      if (j >= static_cast<double>(m_)) break;
      i_w.push_back(static_cast<std::size_t>(j));
    }
  }

  std::vector<std::size_t> merged;
  merged.reserve(i_u.size() + i_v.size() + i_w.size());
  merged.insert(merged.end(), i_u.begin(), i_u.end());
  merged.insert(merged.end(), i_v.begin(), i_v.end());
  merged.insert(merged.end(), i_w.begin(), i_w.end());
  std::sort(merged.begin(), merged.end());
  merged.erase(std::unique(merged.begin(), merged.end()), merged.end());

  // The three component draws are independent, so i is in `merged` with
  // probability hit = 1-(1-u)(1-v)(1-w), at least each component's rate;
  // R_ii = 1/hit makes E[R] = I.
  const Vec pv = hh_->probability(merged, h, 3.0 * kC1 * static_cast<double>(m_) / sqrt_n);
  std::vector<Entry> out;
  out.reserve(merged.size());
  for (std::size_t k = 0; k < merged.size(); ++k) {
    const std::size_t i = merged[k];
    const double u = tau_sampler_.probability(i, 3.0 * kC3);
    const double v = pv[k];
    const double w = p_unif;
    const double hit = 1.0 - (1.0 - u) * (1.0 - v) * (1.0 - w);
    if (hit > 0.0) out.push_back({i, 1.0 / hit});
  }
  par::charge(merged.size() + 1, par::ceil_log2(merged.size() + 2));
  return out;
}

}  // namespace pmcf::ds
