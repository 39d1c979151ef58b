#pragma once
// Reference interior point method: dense per-iteration Lewis-weight path
// following (Section 2.2, steps (3)).
//
// Serves two roles in the reproduction (DESIGN.md §5.2):
//   1. It is the Õ(m)-work-per-iteration, Õ(√n)-iteration method — i.e. the
//      Lee–Sidford [LS14] row of Table 1 (Õ(m√n) work, Õ(√n) depth).
//   2. It is the exact central-path computation that the robust IPM
//      (robust_ipm.hpp, steps (4)-(5)) approximates; tests cross-check the
//      two on identical instances.
//
// One iteration = recompute s = c - Ay, the regularized Lewis weights τ, the
// centrality vector z = (s + μτφ'(x)) / (μτ√φ''(x)), then take a damped
// primal-dual Newton step for the weighted barrier system and shrink μ by
// (1 - r/√(Στ)).

#include <cstdint>
#include <string>
#include <vector>

#include "core/solve_status.hpp"
#include "core/solver_context.hpp"
#include "graph/digraph.hpp"
#include "linalg/incidence.hpp"
#include "linalg/lewis.hpp"
#include "linalg/sdd_solver.hpp"
#include "linalg/kernels.hpp"
#include "parallel/rng.hpp"

namespace pmcf::ipm {

/// The LP min c^T x s.t. A^T x = b, 0 <= x <= u over a digraph's incidence
/// matrix (column of `dropped` removed; b[dropped] must be 0).
struct IpmLp {
  const graph::Digraph* graph = nullptr;
  linalg::Vec b;     ///< size n, b[dropped] = 0
  linalg::Vec cost;  ///< size m
  linalg::Vec cap;   ///< size m (strictly positive)
  graph::Vertex dropped = -1;  ///< column removed for full rank (-1: last)
};

/// The step schedule (step fraction, centrality slack, boundary margin,
/// Lewis refresh cadence) is fixed: core::IpmStepIngredient's ref_* fields.
struct IpmOptions {
  double mu_end = 1e-4;          ///< terminate when mu drops below this
  std::int32_t max_iters = 20000;
  bool exact_leverage = false;         ///< dense oracle (tiny instances only)
  linalg::LeverageOptions leverage;    ///< JL estimator settings
  linalg::SolveOptions solve;          ///< Newton system solver
  std::uint64_t seed = 7;
  /// Cross-solve Lewis-weight slot (DESIGN.md §15): when non-null and sized
  /// m, *tau_io seeds the regularized Lewis weights τ instead of the flat
  /// n/m + 1/2 start, and the converged τ is written back on success — so an
  /// incremental re-solve resumes the fixed point where the last solve left
  /// it. Borrowed; must outlive the call. nullptr (the default) keeps the
  /// historical cold start bit-identically.
  linalg::Vec* tau_io = nullptr;
};

struct IpmResult {
  linalg::Vec x;            ///< final (near-central) primal iterate
  linalg::Vec y;            ///< final dual iterate
  double mu = 0.0;
  std::int32_t iterations = 0;
  bool converged = false;
  double final_centrality = 0.0;
  double max_primal_residual = 0.0;  ///< max ||A^T x - b||_inf seen
  /// kOk when converged; kIterationLimit / kNumericalFailure /
  /// kSketchFailure otherwise, with the failing component in `detail`.
  SolveStatus status = SolveStatus::kOk;
  std::string detail;
  std::int32_t cg_escalations = 0;   ///< Newton solves retried at looser tol
  std::int32_t dense_fallbacks = 0;  ///< Newton solves done by dense elimination
};

/// Closed-form initial mu making x0 (with φ'(x0)=0, e.g. x0=u/2) ε-centered
/// for y0 = 0 (Definition F.1 approximate centrality).
double initial_mu(const IpmLp& lp, double target_centrality = 0.1);

/// Follow the central path from (x0, y0, mu0) down to opts.mu_end. `ctx`
/// scopes the Newton-system recovery ladder, sketch retries, and PRAM
/// accounting to the calling solve; randomness still derives from opts.seed
/// so results are a function of (lp, x0, y0, mu0, opts) alone.
IpmResult reference_ipm(core::SolverContext& ctx, const IpmLp& lp, linalg::Vec x0, linalg::Vec y0,
                        double mu0, const IpmOptions& opts = {});

}  // namespace pmcf::ipm
