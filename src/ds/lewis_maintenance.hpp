#pragma once
// Dynamic leverage scores and regularized Lewis weights (Theorems C.2 / C.1).
//
// Contract-level implementation of Algorithms 4/5: the structures maintain
//   σ̄ ≈_ε σ(VA) + z      resp.      τ̄ ≈_ε τ(GA)
// under entrywise Scale updates, with amortized Õ(m/√n) work per Query.
// Mechanism (simplified from the paper's JL + dyadic HeavyHitter machinery,
// justified by the same slow-drift conditions (10)-(14)):
//   - a rebuild estimates every entry as σ_i ≈ Σ_r (v_i (A y_r)_i)² from k
//     JL rows (linalg::sketched_leverage), redrawn from the structure's
//     seed, so every rebuild uses the same JL matrix and σ̄ moves only where
//     v moved;
//   - Scale only records the new g; τ̄ ignores it until the next rebuild;
//   - every T = ⌈√n⌉-th Query forms v = τ̄^{1/2−1/p} ⊙ g over all m rows and
//     rebuilds from it (the paper's periodic re-initialization), amortizing
//     the O(m·k) rebuild to Õ(m/√n).

#include <cstdint>
#include <vector>

#include "linalg/incidence.hpp"
#include "linalg/leverage.hpp"
#include "linalg/kernels.hpp"

namespace pmcf::ds {

struct LeverageMaintenanceOptions {
  linalg::LeverageOptions leverage;
  std::uint64_t seed = 29;  ///< seeds the one JL matrix of every rebuild
};

/// σ̄ = a JL estimate of σ(VA) plus z, re-estimated from one JL matrix at
/// every rebuild.
class LeverageMaintenance {
 public:
  /// `ctx` scopes the rebuild SDD solves (fault injection + PRAM accounting)
  /// to the owning solve; it must outlive this structure. Builds σ̄ from `v`.
  LeverageMaintenance(core::SolverContext& ctx, const linalg::IncidenceOp& a,
                      const linalg::Vec& v, linalg::Vec z, LeverageMaintenanceOptions opts = {});

  /// Re-estimates all m entries of σ̄ from `v`.
  void rebuild(const linalg::Vec& v);

  [[nodiscard]] const linalg::Vec& approx() const { return sigma_bar_; }

 private:
  core::SolverContext* ctx_;
  const linalg::IncidenceOp* a_;
  LeverageMaintenanceOptions opts_;
  linalg::Vec z_, sigma_bar_;
};

/// Theorem C.1: maintain τ̄ ≈_ε regularized Lewis weights of Diag(g)A under
/// Scale updates (warm-started fixed point over the leverage structure).
class LewisMaintenance {
 public:
  /// `ctx` threads through to the inner LeverageMaintenance.
  LewisMaintenance(core::SolverContext& ctx, const linalg::IncidenceOp& a, linalg::Vec g,
                   linalg::Vec z, LeverageMaintenanceOptions opts = {});

  /// g_i <- b_k for i = idx[k].
  void scale(const std::vector<std::size_t>& idx, const linalg::Vec& b);

  struct QueryResult {
    const linalg::Vec* approx;         ///< τ̄
    std::vector<std::size_t> changed;  ///< entries whose τ̄ moved > ε/10
  };
  /// Counts one query and rebuilds on every ⌈√n⌉-th; τ̄ changes only then.
  QueryResult query();

  [[nodiscard]] const linalg::Vec& approx() const { return tau_bar_; }

 private:
  /// One fixed-point application: rebuilds from v = τ̄^{1/2−1/p} ⊙ g.
  void rebuild();

  double expo_;
  std::int32_t period_;
  std::int32_t t_ = 0;
  linalg::Vec g_;
  LeverageMaintenance leverage_;
  linalg::Vec tau_bar_;
};

}  // namespace pmcf::ds
