#pragma once
// Parallel primal and gradient maintenance (Appendix D).
//
// GradientReduction (Lemma D.4, Algorithm 6): buckets the m coordinates by
// (τ̃_i, z_i) into K = O(ε^{-2} log n) classes, maintains the n-dimensional
// bucket aggregates w^{(k,ℓ)} = A^T G 1_{I^{(k,ℓ)}}, and answers
// QueryProduct with A^T G ∇Ψ(z̄)^♭(τ̄) in Õ(n) work by solving the K-dim
// mixed-norm maximizer (Corollary D.3) over bucket representatives.
//
// GradientAccumulator (Lemma D.5, Algorithm 7): maintains the primal iterate
//   x^(t) = x^(init) + Σ_ℓ (G · bucket-step^(ℓ) + h^(ℓ))
// lazily: each coordinate stores the bucket-offset at its last refresh, and
// per-bucket ordered trigger sets surface exactly the coordinates whose
// accumulated drift exceeds their accuracy budget w_i ε.
//
// PrimalGradientMaintenance (Theorem D.1, Algorithm 8) composes the two.

#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "ds/flat_norm.hpp"
#include "linalg/incidence.hpp"
#include "linalg/kernels.hpp"

namespace pmcf::ds {

struct GradientOptions {
  double eps = 0.1;      ///< bucket granularity
  double lambda = 8.0;   ///< Ψ(z) = Σ cosh(λ z_i)
  double z_max = 2.0;    ///< |z_i| <= z_max assumed
  double c_norm = 4.0;   ///< mixed-norm constant C log(4m/n)
};

class GradientReduction {
 public:
  GradientReduction(const linalg::IncidenceOp& a, linalg::Vec g, linalg::Vec tau, linalg::Vec z,
                    GradientOptions opts = {});

  /// Set g_i=b_k, τ̃_i=c_k, z_i=d_k for i = idx[k]. Returns the new flat
  /// bucket index of each touched coordinate.
  std::vector<std::int32_t> update(const std::vector<std::size_t>& idx, const linalg::Vec& b,
                                   const linalg::Vec& c, const linalg::Vec& d);

  struct QueryResult {
    linalg::Vec v;          ///< A^T G ∇Ψ(z̄)^♭(τ̄) ∈ R^n
    linalg::Vec s;          ///< per-bucket step values (length K)
  };
  [[nodiscard]] QueryResult query() const;

  [[nodiscard]] std::int32_t num_buckets() const { return num_buckets_; }
  [[nodiscard]] std::int32_t bucket_of_index(std::size_t i) const { return bucket_[i]; }
  /// Bucket representatives (test oracle): returns (tau_rep, z_rep).
  [[nodiscard]] std::pair<double, double> bucket_reps(std::int32_t bucket) const;

 private:
  [[nodiscard]] std::int32_t tau_class(double tau) const;
  [[nodiscard]] std::int32_t z_class(double z) const;
  [[nodiscard]] std::int32_t flat_bucket(double tau, double z) const;
  void add_to_aggregate(std::size_t i, double coeff);

  const linalg::IncidenceOp* a_;
  GradientOptions opts_;
  linalg::Vec g_, tau_, z_;
  std::int32_t num_tau_classes_ = 0;
  std::int32_t num_z_classes_ = 0;
  std::int32_t num_buckets_ = 0;
  std::vector<std::int32_t> bucket_;       // per coordinate
  std::vector<std::int64_t> bucket_size_;  // per bucket
  std::vector<linalg::Vec> aggregate_;     // per bucket: A^T G 1_I ∈ R^n
};

class GradientAccumulator {
 public:
  GradientAccumulator(linalg::Vec x_init, linalg::Vec g, std::vector<std::int32_t> bucket,
                      std::int32_t num_buckets, linalg::Vec accuracy);

  /// Set g_i = g[k] and move i to bucket[k] for i = idx[k]: one disarm,
  /// refresh and rearm per coordinate.
  void update(const std::vector<std::size_t>& idx, const linalg::Vec& g,
              const std::vector<std::int32_t>& bucket);

  struct QueryResult {
    const linalg::Vec* approx;         ///< pointer to x̄
    std::vector<std::size_t> changed;  ///< coordinates refreshed this call
  };
  /// Accumulate one step: x += G * (per-bucket s) + h (h sparse: idx/val).
  QueryResult query(const linalg::Vec& s, const std::vector<std::size_t>& h_idx,
                    const linalg::Vec& h_val);

  [[nodiscard]] linalg::Vec compute_exact() const;
  [[nodiscard]] const linalg::Vec& approx() const { return x_bar_; }

 private:
  void refresh(std::size_t i);   ///< fold pending bucket drift into x̄_i
  void rearm(std::size_t i);     ///< (re)insert i's triggers
  void disarm(std::size_t i);

  linalg::Vec x_bar_;
  linalg::Vec g_;
  linalg::Vec accuracy_;
  std::vector<std::int32_t> bucket_;
  linalg::Vec f_;                           // cumulative per-bucket offsets
  linalg::Vec base_;                        // f_{bucket(i)} at i's last refresh
  // Trigger sets per bucket: ordered by threshold so violated prefixes pop.
  std::vector<std::multiset<std::pair<double, std::size_t>>> high_;
  std::vector<std::multiset<std::pair<double, std::size_t>>> low_;
};

class PrimalGradientMaintenance {
 public:
  PrimalGradientMaintenance(const linalg::IncidenceOp& a, linalg::Vec x_init, linalg::Vec g,
                            linalg::Vec tau, linalg::Vec z, linalg::Vec accuracy,
                            GradientOptions opts = {});

  /// UPDATE of Theorem D.1: g, τ̃, z at idx.
  void update(const std::vector<std::size_t>& idx, const linalg::Vec& b, const linalg::Vec& c,
              const linalg::Vec& d);

  /// QUERYPRODUCT: returns A^T G ∇Ψ(z̄)^♭(τ̄); remembers s for QuerySum.
  [[nodiscard]] linalg::Vec query_product();
  /// QUERYSUM: advances x by the remembered bucket step (times `step_scale`,
  /// e.g. the IPM's -γ) plus sparse h.
  GradientAccumulator::QueryResult query_sum(const std::vector<std::size_t>& h_idx,
                                             const linalg::Vec& h_val,
                                             double step_scale = 1.0);
  [[nodiscard]] linalg::Vec compute_exact_sum() const { return accumulator_.compute_exact(); }

 private:
  GradientReduction reduction_;
  GradientAccumulator accumulator_;
  linalg::Vec last_s_;
};

}  // namespace pmcf::ds
