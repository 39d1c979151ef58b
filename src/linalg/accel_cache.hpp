#pragma once
// Per-solve solver acceleration cache (DESIGN.md §10).
//
// Owns the state the CG stack reuses across IPM iterations:
//
//   - a pattern-cached reduced Laplacian (full build once per graph,
//     value-only refresh per reweighting),
//   - one SddPreconditioner slot per call site, rebuilt only when the site's
//     weight vector has drifted past a threshold since the factorization,
//   - warm-start iterates per (site, RHS slot),
//   - the CG loop's block scratch (k = 1 for single solves), so repeated
//     solves are allocation-free.
//
// Exactly one cache hangs off each core::SolverContext (created on first
// use through the context's type-erased scratch slot, destroyed with it).
// Contexts are per-solve, so Engine::solve_batch's concurrent solves never
// share preconditioners or warm iterates and stay bit-exact, and no cache
// survives into another solve: an Engine::resolve restarts from the retained
// central-path point alone (DESIGN.md §15) and builds its own cache. All
// telemetry goes to ctx.accel() where TelemetryScope picks it up per solve.

#include <array>
#include <cstdint>
#include <vector>

#include "core/solver_context.hpp"
#include "graph/digraph.hpp"
#include "linalg/laplacian.hpp"
#include "linalg/preconditioner.hpp"
#include "linalg/kernels.hpp"

namespace pmcf::linalg {

/// Call sites with independent preconditioner/warm-start slots. Keeping the
/// sites separate means the Newton system's IC(0) factor is never evicted by
/// a leverage-sketch solve against different weights in the same iteration.
enum class AccelSite : std::uint8_t {
  kNewton = 0,     ///< Newton/centering systems of more than 48 columns (both IPMs)
  kLeverage = 1,   ///< JL leverage-score sketch solves
  kLewisMaint = 2, ///< LeverageMaintenance rebuild solves
  kRobustStep = 3, ///< robust-step sparsified dy/q systems
};
inline constexpr std::size_t kNumAccelSites = 4;

class AccelCache {
 public:
  /// The reduced Laplacian of (g, d, dropped): a value-only in-place refresh
  /// when the cached pattern already belongs to (g, dropped), else a full
  /// build. The reference stays valid (values included) until the next call.
  const Csr& laplacian(core::SolverContext& ctx, const graph::Digraph& g, const Vec& d,
                       graph::Vertex dropped);

  /// The site's preconditioner for matrix `m` whose weights are `w`: Jacobi
  /// for kRobustStep (its sparsified support is resampled every step, so a
  /// factorization would be discarded immediately), IC(0) elsewhere. Reused
  /// while the matrix shape matches and the relative drift of `w` from the
  /// weights the factor was built from, max_i |w_i - ref_i| / max(|ref_i|, τ),
  /// stays under the cache's threshold; refactored otherwise. Telemetry
  /// lands in ctx.accel().
  const SddPreconditioner& preconditioner(core::SolverContext& ctx, AccelSite site, const Csr& m,
                                          const Vec& w);

  /// Persistent warm-start iterate for (site, slot); zeroed when (re)sized.
  /// Callers pass it as x0 and write the converged iterate back.
  Vec& warm_start(AccelSite site, std::size_t slot, std::size_t n);

  /// CG working set, owned here so repeated solve_sdd / solve_sdd_block
  /// calls on one context never touch the heap (alloc_count_test).
  struct SolverScratch {
    SddPreconditioner adhoc;  ///< Jacobi built per-call when none is passed
    Vec resilient_best;       ///< best iterate carried across escalation rungs
    // The CG loop's row-major n×k blocks (k = 1 for solve_sdd_into): bb/bx
    // are the right-hand sides and iterates solve_sdd_multi and the JL
    // sketch pass hand to solve_sdd_block; br/bz/bp/bmp hold r, z, p and
    // M·p, and bfwd the IC(0) forward sweep.
    Vec bb, bx, br, bz, bp, bmp, bfwd;
    // A runtime-k block's per-column scalars and the lane masks feeding the
    // masked column kernels (DESIGN.md §13).
    std::vector<double> bnorm, rz, rz_new, alpha, beta, pmp, rr;
    std::vector<std::uint8_t> active, step, refresh;
  };
  [[nodiscard]] SolverScratch& scratch() { return scratch_; }

 private:
  struct PrecondSlot {
    SddPreconditioner precond;
    Vec w_ref;
    std::size_t dim = 0;
    std::size_t nnz = 0;
    bool built = false;
  };

  Laplacian lap_;
  std::array<PrecondSlot, kNumAccelSites> precond_;
  std::array<std::vector<Vec>, kNumAccelSites> warm_;
  SolverScratch scratch_;
};

/// The context's acceleration cache, created on first use. Each context owns
/// exactly one, so nothing here is ever shared between concurrent solves.
AccelCache& accel_cache(core::SolverContext& ctx);

}  // namespace pmcf::linalg
