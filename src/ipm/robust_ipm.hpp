#pragma once
// Robust interior point method (Section 2.2 steps (4)-(5), Algorithms 11/12).
//
// The reference IPM recomputes all m coordinates of x, s, τ and the exact
// Laplacian every iteration — Θ(m) work per step. This solver replaces each
// of those with the paper's sublinear data structures:
//
//   s̄  — DualMaintenance (Theorem E.1): dyadic drift detection by one
//         HeavyHitter on 1/w; only coordinates that moved are re-read, and
//         every T = Θ(√n) steps the vectors re-base on the exact s;
//   τ̄  — LewisMaintenance (Theorem C.1): warm-started sketched leverage
//         scores, held still between rebuilds; every ⌈√n⌉ steps it forms
//         v = τ̄^{1/2−1/p} ⊙ g once and re-estimates from one JL matrix;
//   x̄, gradient — PrimalGradientMaintenance (Theorem D.1): the centrality
//         vector z̄ is bucketed, the steepest-descent step ∇Ψ(z̄)^♭(τ̄) is
//         computed over O(ε⁻² log n) buckets, and x̄ accumulates per-bucket
//         steps lazily;
//   Newton system and primal sparsification — one HeavyHitter (Lemma B.1)
//         per epoch, keyed on d = (τ̄Φ'')^{-1}, answers both samplers: its
//         LEVERAGESCORESAMPLE picks the Õ(n) edges of the spectral
//         sparsifier the Newton system is solved on, and the HeavySampler
//         (Theorem E.2) borrows it to draw R so that only Õ(m/√n + n)
//         coordinates of the dense part of δx are touched.
//
// Every 4⌈√n⌉ iterations (rob_resync_multiplier) the structures are rebuilt
// from the exact state and the iterate is re-centered with the reference
// IPM's exact Newton step (NewtonSystem; the paper's periodic
// re-initialization, amortized Õ(m/√n) per iteration). Inside an epoch no
// heavy hitter is built twice: on their own √n periods the dual structure
// only re-bases its vectors and the Lewis structure only re-estimates σ̄.
// Work is measured by the PRAM tracker; bench_table1_mincostflow compares
// the per-iteration work of this solver against the reference IPM.

#include <cstdint>

#include "ipm/reference_ipm.hpp"

namespace pmcf::ipm {

/// The step schedule (step fraction, γ, the bucketing/dual/primal ε
/// accuracies, re-centering, resync cadence) is fixed:
/// core::IpmStepIngredient's rob_* fields. The seed, the first sparsifier
/// oversampling and the recovery budgets are constants in robust_ipm.cpp.
struct RobustIpmOptions {
  double mu_end = 1e-4;
  std::int32_t max_iters = 20000;
  linalg::SolveOptions solve;
};

struct RobustIpmResult {
  linalg::Vec x;
  linalg::Vec y;
  double mu = 0.0;
  std::int32_t iterations = 0;
  bool converged = false;
  double final_centrality = 0.0;
  /// Work charged during non-resync iterations / their count — the
  /// sublinear-per-iteration quantity of the paper.
  std::uint64_t robust_step_work = 0;
  std::int32_t robust_steps = 0;
  /// kOk when converged; otherwise the typed failure that ended the solve
  /// (kSketchFailure after exhausted rebuilds, kNumericalFailure, ...).
  SolveStatus status = SolveStatus::kOk;
  std::string detail;
  std::int32_t structure_rebuilds = 0;   ///< reseeded ds-stack rebuilds
  std::int32_t sparsifier_retries = 0;   ///< redrawn degenerate samples
  /// Robust steps solved on the dense edge set after the sparsifier redraws
  /// stayed too thin. Re-centring Newton fallbacks are not counted here; the
  /// solve's recovery sink counts both kinds as kDenseFallback.
  std::int32_t dense_fallbacks = 0;
};

/// Follow the central path with the sublinear ds stack, stopping at the
/// first epoch boundary whose re-centred iterate has duality_gap < 1 (or at
/// mu_end). `ctx` scopes fault injection, recovery telemetry, and PRAM
/// accounting for the whole ds stack to the calling solve; randomness
/// derives from a fixed seed, so results are a function of
/// (lp, x0, y0, mu0, opts) alone.
RobustIpmResult robust_ipm(core::SolverContext& ctx, const IpmLp& lp, linalg::Vec x0,
                           linalg::Vec y0, double mu0, const RobustIpmOptions& opts = {});

}  // namespace pmcf::ipm
