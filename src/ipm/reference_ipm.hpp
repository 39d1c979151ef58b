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
// (1 - r/√(Στ)). The Newton step is NewtonSystem, which the robust IPM's
// epoch re-centering takes too. On graphs of at most
// IpmStepIngredient::newton_exact_max_cols (48) columns it solves the
// Newton system exactly with linalg::GroundedFactor; above that it runs the
// CG recovery ladder (DESIGN.md §10).

#include <cstdint>
#include <string>
#include <vector>

#include "core/solve_status.hpp"
#include "core/solver_context.hpp"
#include "graph/digraph.hpp"
#include "linalg/incidence.hpp"
#include "linalg/laplacian.hpp"
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
  double mu_end = 1e-4;          ///< path floor; duality_gap < 1 may stop sooner
  std::int32_t max_iters = 20000;
  linalg::LeverageOptions leverage;    ///< τ oracle: exact up to sketch_dim columns, else JL
  /// Newton system CG target on graphs wider than the exact solve's 48
  /// columns; narrower systems are solved exactly and ignore it.
  linalg::SolveOptions solve;
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

/// Outcome of one NewtonSystem::step.
struct NewtonStep {
  /// kOk; the request's lifecycle status when it expired during the Newton
  /// solve; kNumericalFailure when the solve ladder failed or the direction
  /// is non-finite. (x, y) only move on kOk.
  SolveStatus status = SolveStatus::kOk;
  std::int32_t cg_escalations = 0;  ///< tolerance escalations of the CG Newton solve
  bool dense_fallback = false;      ///< CG Newton solve finished by dense elimination
};

/// The exact damped primal-dual Newton step of both IPMs: reference_ipm takes
/// it every iteration, robust_ipm when it re-centers at an epoch boundary.
/// Up to newton_exact_max_cols columns the step factors the grounded
/// Laplacian with GroundedFactor and solves L δy = rhs by substitution,
/// pinning to 0 every vertex whose pivot is at or below newton_pin_floor of
/// the largest normalized conductance; it touches no AccelCache and, once
/// the first step has sized its buffers, allocates nothing. Wider systems
/// go through the context's cached Laplacian, the kNewton IC(0) factor, the
/// Newton warm start and the CG recovery ladder, whose result is the one
/// allocation of such a step. Each step reads the point of the last
/// eval_barrier and eval_center calls.
class NewtonSystem {
 public:
  /// Borrows `lp` and `a`; both must outlive the system.
  NewtonSystem(const IpmLp& lp, const linalg::IncidenceOp& a);

  /// φ''(x) and φ'(x).
  void eval_barrier(const linalg::Vec& x);
  /// The dual slack s = c - Ay, the centrality vector
  /// z = (s + μτφ') / (μτ√φ'') at the last eval_barrier point, and the
  /// primal residual r_p = b - A^T x. Returns ||z||_inf.
  double eval_center(const linalg::Vec& x, const linalg::Vec& y, double mu,
                     const linalg::Vec& tau);
  /// Solves s + A δy + μτ(φ' + Φ''δx) = 0, A^T δx = r_p (μ may differ from
  /// the one eval_center saw) and moves (x, y) along the direction, damped to
  /// keep each x_e a factor `keep` of its distance inside the walls.
  NewtonStep step(core::SolverContext& ctx, linalg::Vec& x, linalg::Vec& y, double mu,
                  const linalg::Vec& tau, double keep, const linalg::SolveOptions& solve);

  [[nodiscard]] const linalg::Vec& hess() const { return hess_; }
  /// s = c - Ay at the last eval_center point.
  [[nodiscard]] const linalg::Vec& slack() const { return s_; }
  [[nodiscard]] const linalg::Vec& primal_residual() const { return rp_; }

 private:
  const IpmLp& lp_;
  const linalg::IncidenceOp& a_;
  linalg::Vec hess_, grad_, s_, z_, d_, resid_, dresid_, ay_, a_dy_, dx_, dn_;  // size m
  linalg::Vec atx_, rp_, rhs_, rhsn_, dy_;                                   // size n
  linalg::GroundedFactor factor_;  // the exact solve's factor, refactored every step
};

/// Duality gap of (x, y) from s = c - Ay and r_p = b - A^T x:
///   Σ_e [x_e·max(s_e, 0) + (u_e - x_e)·max(-s_e, 0)] - y^T r_p,
/// which equals c^T x - L(y) for the Lagrangian bound
/// L(y) = b^T y + Σ_e u_e·min(0, s_e) <= OPT. Every arc term is non-negative
/// for 0 <= x <= u, so only the residual term can pull the sum down. With
/// integral data the LP optimum is integral, so once the gap of a feasible
/// x falls below 1 no integer lies between OPT and c^T x other than OPT
/// itself: both IPMs stop there (DESIGN.md §6) and round.
double duality_gap(const IpmLp& lp, const linalg::Vec& x, const linalg::Vec& y,
                   const linalg::Vec& s, const linalg::Vec& rp);

/// Closed-form initial mu making x0 (with φ'(x0)=0, e.g. x0=u/2) ε-centered
/// for y0 = 0 (Definition F.1 approximate centrality).
double initial_mu(const IpmLp& lp, double target_centrality = 0.1);

/// Follow the central path from (x0, y0, mu0) until a centred iterate has
/// duality_gap < 1 or mu <= opts.mu_end. `ctx` scopes the Newton-system
/// recovery ladder, sketch retries, and PRAM accounting to the calling solve;
/// randomness still derives from opts.seed so results are a function of
/// (lp, x0, y0, mu0, opts) alone.
IpmResult reference_ipm(core::SolverContext& ctx, const IpmLp& lp, linalg::Vec x0, linalg::Vec y0,
                        double mu0, const IpmOptions& opts = {});

}  // namespace pmcf::ipm
