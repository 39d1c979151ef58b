#pragma once
// Deterministic counter-based randomness.
//
// All randomized components (sampling matrices R, JL sketches, τ-samplers,
// graph generators) draw from named Rng streams so reruns are bit-identical
// and independent parallel lanes can split without coordination.

#include <cstdint>

namespace pmcf::par {

/// SplitMix64 — used both as a standalone generator and to seed streams.
inline std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Small, fast, splittable generator (xoshiro256** core).
class Rng {
 public:
  explicit Rng(std::uint64_t seed) {
    std::uint64_t sm = seed;
    for (auto& si : s_) si = splitmix64(sm);
  }

  std::uint64_t next_u64() {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform in [0, 1).
  double next_double() { return static_cast<double>(next_u64() >> 11) * 0x1.0p-53; }

  /// Uniform in [0, n).
  std::uint64_t next_below(std::uint64_t n) { return n == 0 ? 0 : next_u64() % n; }

  /// True with probability p.
  bool bernoulli(double p) { return next_double() < p; }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    return lo + static_cast<std::int64_t>(next_below(static_cast<std::uint64_t>(hi - lo + 1)));
  }

  /// +1 or -1 with equal probability (Rademacher; used by JL sketches): the
  /// low bit's sign, (next_u64() & 1) ? 1.0 : -1.0, without a data-dependent
  /// branch.
  double rademacher() { return static_cast<double>(static_cast<int>(next_u64() & 1) * 2 - 1); }

  /// Standard normal via Box–Muller (cached spare dropped for determinism).
  double normal();

  /// Derive an independent stream (for a parallel lane or sub-component).
  Rng split() { return Rng(next_u64() ^ 0xd1342543de82ef95ULL); }

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }
  std::uint64_t s_[4];
};

}  // namespace pmcf::par
