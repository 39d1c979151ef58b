#pragma once
// SDD / Laplacian system solver (substitute for Lemma A.1).
//
// The paper's IPM calls a parallel SDD solver [PS14] as a black box returning
// an eps-approximate solution to (A^T D A) x = b with near-linear work and
// polylog depth. We provide the same contract via preconditioned conjugate
// gradients (Jacobi or a cached incomplete-Cholesky hybrid, see
// preconditioner.hpp). CG's iteration count is instance-dependent; the solver
// reports it so benches can separate the (substituted) inner-solver cost from
// the outer algorithm's cost. See DESIGN.md §2 and §10.
//
// Because CG can stall outright on ill-conditioned systems (and the
// fault-injection point kCgStagnation simulates exactly that), results carry
// a typed SolveStatus and `solve_sdd_resilient` wraps the recovery policy
// used by the IPM layers: a bounded escalation ladder — each rung relaxes the
// tolerance ×100, doubles the iteration budget, and warm-starts from the best
// iterate any earlier rung produced — then a dense Gaussian-elimination
// fallback for systems of dimension <= 2048 (ResilientSolveOptions sets the
// rung count and factor; the rest are constants in sdd_solver.cpp).
//
// One CG loop serves every entry point (sdd_solver.cpp): a template over
// the column count of row-major n×k blocks, compiled with k fixed at 1
// behind solve_sdd_into (so solve_sdd, solve_sdd_resilient and every Newton
// CG solve) and with a runtime k behind solve_sdd_block, solve_sdd_multi and
// the JL leverage sketch. The k columns share one nnz-balanced SpMV per
// iteration; each column's iterate, SolveInfo and fault-injection draws are
// bit for bit those of its own k = 1 solve (tests/accel_test.cpp), and each
// column is charged its own passes (DESIGN.md §10).

#include <cstdint>
#include <string>
#include <vector>

#include "core/solve_status.hpp"
#include "core/solver_context.hpp"
#include "linalg/csr.hpp"
#include "linalg/preconditioner.hpp"
#include "linalg/kernels.hpp"

namespace pmcf::linalg {

struct SolveOptions {
  double tolerance = 1e-10;   // relative residual target ||Mx-b|| <= tol*||b||
  std::int32_t max_iters = 4000;
};

struct SolveResult {
  Vec x;
  double relative_residual = 0.0;
  std::int32_t iterations = 0;
  bool converged = false;
  SolveStatus status = SolveStatus::kIterationLimit;  ///< kOk iff converged
};

/// Scalar metadata of a solve whose iterate lives in a caller-owned buffer.
struct SolveInfo {
  double relative_residual = 0.0;
  std::int32_t iterations = 0;
  bool converged = false;
  SolveStatus status = SolveStatus::kIterationLimit;
};

/// Solve M x = b for SPD M by Jacobi-preconditioned CG. `ctx` scopes the
/// fault-injection points, PRAM accounting, and the solver's scratch cache
/// to the calling solve. (The Jacobi diagonal is refreshed into cached
/// storage each call; pass a prebuilt preconditioner to skip even that.)
SolveResult solve_sdd(core::SolverContext& ctx, const Csr& m, const Vec& b,
                      const SolveOptions& opts = {});

/// Preconditioned variant. `x0` (optional) seeds the iterate: a nonzero seed
/// whose initial residual does not exceed ||b|| is kept (a warm-start hit in
/// ctx telemetry), otherwise the solve falls back to the zero start — so a
/// stale seed can never make the result worse than a cold solve.
SolveResult solve_sdd(core::SolverContext& ctx, const Csr& m, const Vec& b,
                      const SddPreconditioner& precond, const SolveOptions& opts,
                      const Vec* x0 = nullptr);

/// Allocation-free k = 1 form: `x` carries the start iterate in (see the x0
/// rules above; pass a zeroed vector for a cold start) and the solution out.
/// All other working state lives in the context's acceleration cache, so
/// repeated calls perform no heap allocation (alloc_count_test).
SolveInfo solve_sdd_into(core::SolverContext& ctx, const Csr& m, const Vec& b,
                         const SddPreconditioner& precond, const SolveOptions& opts, Vec& x);

/// Blocked multi-RHS CG on caller-owned row-major n×k blocks (slot i*k+j):
/// solve M x_j = b_j for all j against one shared preconditioner, with one
/// nnz-balanced SpMV over the block per iteration instead of k separate
/// passes. `x` carries the start iterates in (a column with a nonzero entry
/// is a warm seed under the x0 rules above; zero it for a cold start) and
/// the solutions out; a block with no seeded column starts at r = b without
/// an SpMV. Every column's iterate and SolveInfo are those of its own
/// solve_sdd_into (columns draw injection points in ascending j at entry).
/// The working set lives in the context's acceleration cache; the
/// only allocation is the returned vector. Calls with k >= 2 count in
/// ctx.accel()'s multi_rhs_* telemetry.
std::vector<SolveInfo> solve_sdd_block(core::SolverContext& ctx, const Csr& m, const Vec& b,
                                       Vec& x, std::size_t k, const SddPreconditioner& precond,
                                       const SolveOptions& opts = {});

/// solve_sdd_block over separate vectors: packs `rhs` and the seeds into the
/// context's n×k blocks, solves, and unpacks, charging each column one
/// elementwise pass in and one out. `x0[j]` (when provided and non-null)
/// seeds column j under the warm-start rules above.
std::vector<SolveResult> solve_sdd_multi(core::SolverContext& ctx, const Csr& m,
                                         const std::vector<Vec>& rhs,
                                         const SddPreconditioner& precond,
                                         const SolveOptions& opts = {},
                                         const std::vector<const Vec*>& x0 = {});

struct ResilientSolveOptions {
  SolveOptions base;
  std::int32_t max_escalations = 2;   ///< retries after rung 0
  double escalation_factor = 100.0;   ///< tolerance *= per rung
};

struct ResilientSolveResult {
  Vec x;
  SolveStatus status = SolveStatus::kOk;
  double relative_residual = 0.0;
  std::int32_t iterations = 0;          ///< CG iterations across attempts
  std::int32_t tolerance_escalations = 0;
  bool used_dense_fallback = false;
};

/// "" when `opts` is sane; otherwise a defect description (negative rung
/// count, escalation_factor <= 1, non-positive tolerance or iteration
/// budget). solve_sdd_resilient rejects a non-empty answer with
/// ComponentError(kInvalidInput).
std::string validate(const ResilientSolveOptions& opts);

/// Solve M x = b with the Newton-system recovery policy: CG at the requested
/// tolerance, then the bounded escalation ladder — each rung multiplies the
/// tolerance by `escalation_factor` (×100 by default: a stalled CG needs a
/// materially easier target, not a nudge), doubles the iteration budget, and
/// warm-starts from the best iterate any earlier rung produced, so progress
/// is never discarded — then dense Gaussian elimination when dim <= 2048.
/// Returns kNumericalFailure only when every rung fails; throws
/// ComponentError(kInvalidInput) when `opts` fails validate(). Recovery
/// events are recorded against `ctx`'s log. `precond` (optional) replaces
/// the per-call Jacobi; `x0` (optional) seeds rung 0.
ResilientSolveResult solve_sdd_resilient(core::SolverContext& ctx, const Csr& m, const Vec& b,
                                         const ResilientSolveOptions& opts = {},
                                         const SddPreconditioner* precond = nullptr,
                                         const Vec* x0 = nullptr);

}  // namespace pmcf::linalg
