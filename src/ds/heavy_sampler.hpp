#pragma once
// HeavySampler (Theorem E.2, Algorithm 10): the random diagonal matrix R
// used to sparsify the primal step (eq. (5)). Each row i is kept with
// probability at least
//   min{1, C1 (m/√n) (GAh)_i² / ||GAh||² + C2/√n + C3 n τ_i/||τ||_1},
// and R_{i,i} = 1/p_i so that E[R] = I. Composes three samplers:
// HeavyHitter ℓ2-sampling, a uniform m/√n Bernoulli, and the τ-sampler.

#include <cstdint>
#include <vector>

#include "ds/heavy_hitter.hpp"
#include "ds/tau_sampler.hpp"
#include "graph/digraph.hpp"
#include "linalg/kernels.hpp"
#include "parallel/rng.hpp"

namespace pmcf::ds {

class HeavySampler {
 public:
  /// One entry of the sampled diagonal.
  struct Entry {
    std::size_t index;
    double inv_prob;  ///< R_{i,i} = 1/p_i
  };

  /// `hh` holds the rows' weights g and is borrowed, not owned: the caller
  /// scales it (it may answer other queries too) and it must outlive this
  /// structure. `seed` drives the uniform draw and the τ-sampler.
  HeavySampler(HeavyHitter& hh, const graph::Digraph& g, linalg::Vec tau,
               std::uint64_t seed = 23);

  /// τ_i <- tau[k] for i = idx[k].
  void scale(const std::vector<std::size_t>& idx, const linalg::Vec& tau);

  /// Draw R for direction h (vertex potentials; dropped coordinate 0).
  [[nodiscard]] std::vector<Entry> sample(const linalg::Vec& h);

 private:
  HeavyHitter* hh_;
  TauSampler tau_sampler_;
  par::Rng rng_;
  std::size_t m_;
  std::size_t n_;
};

}  // namespace pmcf::ds
