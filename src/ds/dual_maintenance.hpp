#pragma once
// Dual maintenance (Theorem E.1, Algorithm 9).
//
// Maintains v^(t) = v_init + A Σ_k h^(k) implicitly and an explicit
// approximation v̄ with ||w^{-1}(v̄ - v^(t))||_∞ <= ε, returning after each
// ADD the set of indices whose v̄ changed. Drift detection uses log T dyadic
// accumulators f^(j) = Σ of the last 2^j step vectors, each checked by one
// HeavyHitter (Lemma B.1) with row weights 1/w every 2^j steps — so an entry
// is re-read as soon as any dyadic window moved it by > 0.2 w_i ε / log T.
// Every T = Θ(√n) steps the structure re-bases: v_init takes the exact
// v^(t), v̄ takes v_init and Σh restarts at 0 (amortized Õ(m/√n)). The row
// weights never change, so the HeavyHitter is built once.

#include <cstdint>
#include <vector>

#include "ds/heavy_hitter.hpp"
#include "linalg/incidence.hpp"
#include "linalg/kernels.hpp"

namespace pmcf::ds {

/// T, the re-base period, is 2^⌈log₂(⌈√n⌉+1)⌉.
struct DualMaintenanceOptions {
  double eps = 0.05;
  HeavyHitterOptions hh;
};

class DualMaintenance {
 public:
  /// `a` (its graph and dropped column) is borrowed and must outlive this
  /// structure. `ctx` scopes fault injection inside the drift-detection
  /// HeavyHitter to the owning solve; it must outlive this structure too.
  DualMaintenance(core::SolverContext& ctx, const linalg::IncidenceOp& a, linalg::Vec v_init,
                  linalg::Vec w, DualMaintenanceOptions opts = {});

  struct AddResult {
    const linalg::Vec* approx;          ///< pointer to v̄
    std::vector<std::size_t> changed;   ///< indices updated this call
  };

  /// Accumulate one step h ∈ R^n (the dropped coordinate must be 0).
  AddResult add(const linalg::Vec& h);

  /// The exact v^(t) (O(m) work).
  [[nodiscard]] linalg::Vec compute_exact() const;

  [[nodiscard]] const linalg::Vec& approx() const { return v_bar_; }

 private:
  std::vector<std::size_t> verify(const std::vector<std::size_t>& idx);

  const linalg::IncidenceOp* a_;
  DualMaintenanceOptions opts_;
  std::int32_t period_ = 0;
  std::int32_t levels_ = 0;

  linalg::Vec w_;
  HeavyHitter hh_;
  linalg::Vec v_init_;
  linalg::Vec v_bar_;
  linalg::Vec f_hat_;                       // Σ h since the last re-base
  std::vector<linalg::Vec> f_level_;        // dyadic window sums
  std::int32_t t_ = 0;
};

}  // namespace pmcf::ds
