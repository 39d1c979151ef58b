#pragma once
// The solver's tuned constants (DESIGN.md §14).
//
// The paper's IPMs follow one parameter schedule fixed by the analysis: the
// step r/√(Στ), the ε accuracies of the maintained approximations, the
// Lewis fixed point and the sketch widths behind its leverage estimates.
// This table is the one home of those constants. The IPM and sketch layers
// read default_ingredients() directly; the option fields callers may set
// (LeverageOptions::sketch_dim and ::solve, LewisOptions) take their
// defaults from it.

#include <cstddef>
#include <cstdint>

namespace pmcf::core {

/// IPM step strategy / barrier schedule (ipm/*.cpp). `ref_` fields feed
/// reference_ipm, `rob_` fields feed robust_ipm.
struct IpmStepIngredient {
  double ref_step_fraction = 0.25;    ///< r in mu <- mu(1 - r/sqrt(Στ))
  double ref_centrality_slack = 0.5;  ///< re-center (no mu decrease) above this
  double ref_boundary_margin = 0.05;  ///< damping keeps x this fraction off walls
  std::int32_t ref_lewis_rounds = 1;  ///< warm-started Lewis rounds per refresh
  std::int32_t ref_lewis_every = 3;   ///< refresh τ every this many iterations
  double rob_step_fraction = 0.4;
  double rob_gamma = 0.5;       ///< steepest-descent step scale
  double rob_bucket_eps = 0.1;  ///< bucketing granularity (ds stack)
  double rob_dual_eps = 0.05;   ///< s̄ accuracy (relative to μτ√φ'')
  double rob_primal_eps = 0.02; ///< x̄ accuracy (relative to capacity)
  /// The robust IPM resyncs every multiplier * ceil(sqrt(n)) iterations.
  double rob_resync_multiplier = 4.0;
  double rob_center_damping = 0.95;     ///< exact re-centering step damping
  std::int32_t rob_recenter_max = 30;   ///< re-centering steps per epoch
  double rob_recenter_threshold = 0.5;  ///< centrality target at epoch start
  /// NewtonSystem (both IPMs) solves exactly, by GroundedFactor, on graphs
  /// of at most this many columns, and by the CG ladder above it.
  std::size_t newton_exact_max_cols = 48;
  /// The exact Newton solve pins a vertex whose pivot is at or below this
  /// fraction of the largest normalized conductance (which is 1): the
  /// dense rung's Dense::solve_pinned rule.
  double newton_pin_floor = 1e-14;
};

/// Sketch dimension / leverage sampling config (linalg/leverage.cpp,
/// linalg/lewis.cpp, ipm/robust_ipm.cpp).
struct SketchIngredient {
  /// JL rows: the default of LeverageOptions::sketch_dim.
  std::int32_t sketch_dim = 48;
  /// Relative CG residual of every sketch column: the default of
  /// LeverageOptions::solve.tolerance. A k-row sketch is only accurate to
  /// ~1/sqrt(k) (14% at k = 48, 7% at 192 after two retries), so a tighter
  /// solve buys no accuracy; 1e-4 sits mid-plateau of the sweep in
  /// EXPERIMENTS.md ("Sketch solve tolerance"). Newton solves keep 1e-10.
  double solve_tolerance = 1e-4;
  /// Sketch-retry recovery attempts (each retry doubles the JL rows and
  /// reseeds) before the dense oracle / typed kSketchFailure.
  std::int32_t max_attempts = 3;
  /// Dense exact-leverage fallback guardrail: only instances with at most
  /// this many columns pay the O(n³) oracle.
  std::size_t dense_oracle_max_cols = 512;
  /// Lewis fixed-point defaults (LewisOptions).
  std::int32_t lewis_fixpoint_rounds = 40;
  double lewis_fixpoint_tol = 1e-3;
  /// Robust IPM epoch boundaries: Lewis rounds / JL rows for the epoch τ
  /// reference, and the LewisMaintenance sketch width.
  std::int32_t robust_epoch_lewis_rounds = 6;
  std::int32_t robust_epoch_sketch_dim = 12;
  std::int32_t lewis_maint_sketch_dim = 8;
};

struct Ingredients {
  IpmStepIngredient step;
  SketchIngredient sketch;
};

/// The library's constants: the one table, every field at its default.
[[nodiscard]] inline const Ingredients& default_ingredients() {
  static constexpr Ingredients kTable{};
  return kTable;
}

}  // namespace pmcf::core
