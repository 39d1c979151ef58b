#pragma once
// Parallel τ-sampler (Theorem A.3): maintain weights τ ∈ R^m_{>0} bucketed by
// powers of two; SAMPLE(K) returns each index i independently with
// probability >= K n τ_i / ||τ||_1 in work proportional to the output size
// (one binomial draw per bucket), PROBABILITY reports the exact per-index
// sampling probabilities.

#include <cstdint>
#include <vector>

#include "parallel/rng.hpp"

namespace pmcf::ds {

class TauSampler {
 public:
  TauSampler(std::vector<double> tau, std::size_t n, std::uint64_t seed);

  /// τ_i <- a_i for i in `idx`.
  void scale(const std::vector<std::size_t>& idx, const std::vector<double>& a);

  /// Each i included independently with prob >= min(1, K n τ_i / ||τ||_1).
  [[nodiscard]] std::vector<std::size_t> sample(double k);

  /// The probability with which index i is included by sample(k).
  [[nodiscard]] double probability(std::size_t i, double k) const;

  [[nodiscard]] double tau_sum() const { return tau_sum_; }
  [[nodiscard]] std::size_t size() const { return tau_.size(); }

 private:
  [[nodiscard]] std::int32_t bucket_of(double t) const;
  [[nodiscard]] double bucket_prob(std::int32_t b, double k) const;

  std::vector<double> tau_;
  std::vector<std::int32_t> bucket_;                 // per index
  std::vector<std::vector<std::size_t>> members_;    // per bucket: index list
  std::vector<std::int32_t> position_;               // inverse of members_
  double tau_sum_ = 0.0;
  std::size_t n_;
  par::Rng rng_;
  static constexpr std::int32_t kMinExp = -64;
  static constexpr std::int32_t kMaxExp = 64;
};

}  // namespace pmcf::ds
