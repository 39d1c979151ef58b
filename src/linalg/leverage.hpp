#pragma once
// Leverage scores sigma(VA)_i = (v_i a_i)^T (A^T V^2 A)^{-1} (v_i a_i).
//
// Two implementations:
//  - exact: the GroundedFactor (GTH elimination, laplacian.hpp) of the
//    grounded Laplacian at pin floor 0, then D^{-1/2}(I − F)^{-1}, O(n^3 +
//    mn) work on the calling thread. leverage_scores takes it whenever the
//    graph has no more columns than the JL sketch has rows (k solves would
//    cost more), and after a sketch fails its validation;
//  - sketched: the standard JL estimator [LS13 App. B.2, as cited in C.1] —
//    O~(1/eps^2) SDD solves plus O(km) work, O~(1) depth per solve batch.
//    sketched_leverage is its one JL pass: leverage_scores validates it and
//    retries with wider sketches, and ds::LeverageMaintenance runs it at
//    every rebuild.

#include "core/solver_context.hpp"
#include "linalg/incidence.hpp"
#include "linalg/sdd_solver.hpp"
#include "linalg/kernels.hpp"
#include "parallel/rng.hpp"

namespace pmcf::linalg {

/// Exact leverage scores, clamped to [0, 1]: sigma_e = v_e² ‖D^{-1/2}
/// (I − F)^{-1} (e_to − e_from)‖² from the GroundedFactor (I − F) D
/// (I − F)ᵀ of A^T V^2 A with the dropped column removed. Every pivot is a
/// sum of conductances and every factor entry a sum of positive terms, so
/// the only cancellation is the final difference of two columns: the scores
/// hold to ~1e-12 at weight spreads of 1e20 where a dense inverse returns
/// scores outside [0, 1]. About n³/3 + mn flops and 2n² doubles.
Vec leverage_scores_exact(const IncidenceOp& a, const Vec& v);

struct LeverageOptions {
  /// JL rows, >= 1; error ~ 1/sqrt(k).
  std::int32_t sketch_dim = core::default_ingredients().sketch.sketch_dim;
  /// Per-column CG target: the sketch's accuracy scale, not SolveOptions'
  /// 1e-10 (see SketchIngredient::solve_tolerance).
  SolveOptions solve{.tolerance = core::default_ingredients().sketch.solve_tolerance};
};

/// One JL estimate of σ(VA) from `k` Rademacher rows drawn from `rng`,
/// clamped to [0, 1]: one pass over the context's n×k CG blocks draws the
/// right-hand sides Aᵀ(v ⊙ J_r) into them, solves the k systems against
/// `lap` (the Laplacian AᵀV²A with the dropped row pinned) in one
/// solve_sdd_block, and accumulates σ_e = Σ_r (v_e (A y_r)_e)² per arc.
/// Its heap allocations are σ and the solve's per-column results.
/// Monte-Carlo and unvalidated, so it may be silently wrong;
/// leverage_scores wraps it with validation and retries,
/// ds::LeverageMaintenance re-seeds `rng` to redraw the same JL matrix at
/// every rebuild.
Vec sketched_leverage(core::SolverContext& ctx, const IncidenceOp& a, const Vec& v,
                      const Csr& lap, const SddPreconditioner& precond, std::size_t k,
                      par::Rng& rng, const SolveOptions& solve);

/// Leverage scores, clamped to [0, 1]: leverage_scores_exact when
/// a.cols() <= opts.sketch_dim (no sketch, no solve, `rng` untouched), else
/// the JL sketch, validated against sum(sigma) = n - 1 and retried wider on
/// a fresh draw, with leverage_scores_exact as the last resort up to
/// SketchIngredient::dense_oracle_max_cols columns. Sketch-retry recovery
/// and the kSketchCorruption injection point are scoped to `ctx`. Throws
/// ComponentError(kInvalidInput) when opts.sketch_dim < 1.
Vec leverage_scores(core::SolverContext& ctx, const IncidenceOp& a, const Vec& v, par::Rng& rng,
                    const LeverageOptions& opts = {});

}  // namespace pmcf::linalg
