#pragma once
// HeavyHitter data structure (Lemma B.1 / Corollary B.2).
//
// Rows of Diag(g)·A (A the incidence matrix of a digraph) are grouped into
// weight classes; each class maintains a dynamic expander decomposition of
// its (undirected view) edge set (Lemma 3.1). A row enters class
// i = ⌊log₂ g_e⌋ and stays there while ⌊log₂ g_e⌋ ∈ {i−1, i, i+1}, so class
// i holds weights in [2^{i−1}, 2^{i+2}) and a row that oscillates around a
// power of two is not erased from one decomposition and re-inserted into
// another. Because each cluster is an expander, an edge with
// |g_e (Ah)_e| >= ε must have an endpoint whose degree-shifted potential h'_v
// is >= ε/2^{i+3}, so HEAVYQUERY only scans the incident edges of those few
// vertices — work Õ(||Diag(g)Ah||² ε^{-2} + n log W) instead of O(m).
//
// SAMPLE / PROBABILITY / LEVERAGESCORESAMPLE implement the ℓ2-proportional
// and leverage-score-overestimate sampling of Lemma B.1 with work
// proportional to the expected output size.

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "expander/dynamic_decomp.hpp"
#include "graph/digraph.hpp"
#include "linalg/kernels.hpp"
#include "parallel/rng.hpp"

namespace pmcf::core {
class SolverContext;
}

namespace pmcf::ds {

/// Options for HeavyHitter.
struct HeavyHitterOptions {
  double phi = 0.125;
  std::uint64_t seed = 17;
  expander::DynamicDecompOptions decomp;  ///< phi overwritten with `phi`
};

class HeavyHitter {
 public:
  using Options = HeavyHitterOptions;

  /// Rows indexed by arc id of `g` (held by reference; topology must outlive
  /// this object). `weights` = the diagonal g (non-negative). `ctx` scopes
  /// fault injection (kHeavyHitterMiss) to the owning solve.
  HeavyHitter(core::SolverContext& ctx, const graph::Digraph& g, linalg::Vec weights,
              Options opts = {});

  /// weights[idx[k]] <- vals[k]; moves a row to its exact class only when
  /// its exponent leaves its class's ±1 window or it turns zero or non-zero.
  void scale(const std::vector<std::size_t>& idx, const linalg::Vec& vals);

  /// All arcs e with |g_e (Ah)_e| >= eps. `h` has one entry per vertex (set
  /// the dropped coordinate to 0 to model the reduced incidence matrix).
  [[nodiscard]] std::vector<std::size_t> heavy_query(const linalg::Vec& h, double eps);

  /// ℓ2-proportional sampling of Diag(g)Ah (Lemma B.1 SAMPLE).
  [[nodiscard]] std::vector<std::size_t> sample(const linalg::Vec& h, double big_k);

  /// Per-arc inclusion probabilities matching sample().
  [[nodiscard]] linalg::Vec probability(const std::vector<std::size_t>& idx, const linalg::Vec& h,
                                        double big_k) const;

  /// Leverage-score-overestimate sampling (Lemma B.1 LEVERAGESCORESAMPLE).
  [[nodiscard]] std::vector<std::size_t> leverage_sample(double k_prime);

  /// Per-arc inclusion probabilities matching leverage_sample().
  [[nodiscard]] linalg::Vec leverage_bound(const std::vector<std::size_t>& idx,
                                           double k_prime) const;

  [[nodiscard]] std::uint64_t last_query_scans() const { return last_query_scans_; }
  /// Rows scale() has moved between classes since construction.
  [[nodiscard]] std::uint64_t class_moves() const { return class_moves_; }

 private:
  struct Bucket {
    std::int32_t exponent = 0;
    std::unique_ptr<expander::DynamicExpanderDecomposition> decomp;
    std::size_t count = 0;
  };
  static std::int32_t exponent_of(double w);
  Bucket& bucket_for(std::int32_t exp);
  /// Normalization Σ_{clusters} 2^{2i} Σ_v h'_v² deg(v) used by sample().
  [[nodiscard]] double sample_mass(const linalg::Vec& h) const;
  [[nodiscard]] double vertex_sample_prob(const linalg::Vec& h, double big_k, std::size_t arc,
                                          double mass) const;

  core::SolverContext* ctx_;
  const graph::Digraph* g_;
  linalg::Vec weights_;
  Options opts_;
  std::unordered_map<std::int32_t, std::size_t> bucket_index_;
  std::vector<Bucket> buckets_;
  std::vector<std::int32_t> row_bucket_;  ///< exponent per arc; INT32_MIN = zero weight
  par::Rng rng_;
  std::uint64_t last_query_scans_ = 0;
  std::uint64_t class_moves_ = 0;
};

}  // namespace pmcf::ds
