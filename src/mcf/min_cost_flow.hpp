#pragma once
// Public API of the paper's headline result (Theorem 1.2): exact minimum
// cost maximum s-t flow for integer capacities and costs.
//
// Construction (Appendix F):
//  - add the arc (t, s) with capacity >= max possible flow and cost -K where
//    K exceeds the total cost range, turning min-cost max-flow into a
//    min-cost circulation;
//  - add an auxiliary vertex z (the dropped incidence column) with one arc
//    per imbalanced vertex so that x0 = u/2 is a feasible interior point
//    with phi'(x0) = 0, giving a closed-form eps-centered start;
//  - follow the central path (reference or robust IPM) until its duality
//    gap is below 1, which pins the integral optimum, or mu reaches mu_end;
//  - round to the exact integral optimum (ipm/rounding.hpp).

#include <cstdint>
#include <string>
#include <vector>

#include "core/solve_status.hpp"
#include "core/solver_context.hpp"
#include "graph/digraph.hpp"
#include "ipm/reference_ipm.hpp"

namespace pmcf::mcf {

enum class Method {
  kReferenceIpm,   ///< dense per-iteration path following (LS14-style)
  kRobustIpm,      ///< sublinear-per-iteration robust IPM (the paper)
  kCombinatorial,  ///< successive shortest path (baseline oracle)
};

/// Stable name ("ReferenceIpm", ...), for stats reporting.
const char* to_string(Method m);

/// Cross-solve central-path warm start (DESIGN.md §15), the only solver
/// state that crosses solves. Captured over the *augmented* LP (core arcs
/// [+ t->s circulation arc] + auxiliary arcs) at the end of a successful IPM
/// run, and offered back to a later solve of a value-perturbed instance with
/// the same structure. The solver validates it before use — matching sizes,
/// strict interiority after clamping, and a tiny conservation residual —
/// and silently falls back to the cold start otherwise, so a stale or
/// mismatched point can degrade speed but never correctness
/// (round_and_repair + certification close the loop regardless).
struct WarmStart {
  linalg::Vec x;    ///< final fractional primal iterate (strictly interior)
  linalg::Vec y;    ///< final dual iterate
  linalg::Vec tau;  ///< converged regularized Lewis weights
  double mu = 0.0;  ///< the mu the iterate was centered at

  [[nodiscard]] bool empty() const { return x.empty(); }
};

struct SolveOptions {
  Method method = Method::kReferenceIpm;
  ipm::IpmOptions ipm;
  /// Degradation cascade: when the selected tier fails with a solver
  /// malfunction (numerical/sketch/internal failure), silently retry with the
  /// next lower tier — kRobustIpm -> kReferenceIpm -> kCombinatorial. Instance
  /// errors (infeasible/invalid input) are terminal and never cascade. When
  /// false, the selected tier's typed failure is returned as-is. Lifecycle
  /// statuses (kCanceled / kDeadlineExceeded) are terminal like instance
  /// errors: the cascade stops instead of spending budget the caller has
  /// already withdrawn.
  bool allow_degradation = true;
  /// Independent certification (DESIGN.md §11): every kOk result is
  /// re-verified from the input instance in exact arithmetic (conservation,
  /// capacity bounds, cost, optimality via negative-residual-cycle absence,
  /// maximality for max-flow). A failure fires
  /// RecoveryEvent::kCertificationFailure and re-enters the degradation
  /// cascade as a solver failure — a wrong answer never escapes as kOk.
  bool certify = true;
  /// Cross-solve warm start offered to the IPM tiers (borrowed; must outlive
  /// the call). Ignored by the combinatorial tier and whenever validation
  /// rejects it. nullptr — the default everywhere outside Engine::resolve —
  /// keeps every existing call path bit-identical.
  const WarmStart* warm = nullptr;
  /// When non-null, a successful IPM tier writes its final central-path
  /// point (augmented x/y, converged Lewis weights, final mu) here for the
  /// caller to retain across solves. Left untouched by the combinatorial
  /// tier and on failure.
  WarmStart* warm_out = nullptr;
};

struct SolveStats {
  std::int32_t ipm_iterations = 0;
  double final_mu = 0.0;
  double final_centrality = 0.0;
  std::int64_t imbalance_routed = 0;  ///< repair work: rounding imbalance
  std::int64_t cycles_canceled = 0;   ///< repair work: negative cycles
  /// Robust IPM only: PRAM work charged inside the incremental steps (the
  /// paper's Õ(m/√n + n) per-iteration quantity) and their count; epoch
  /// rebuild costs are excluded (amortized separately).
  std::uint64_t robust_step_work = 0;
  std::int32_t robust_steps = 0;
  /// Robust IPM only: robust steps whose sparsifier sample stayed too thin
  /// after its redraws and solved on the dense edge set. `dense_fallbacks`
  /// below counts these together with the Newton solves' fallbacks.
  std::int32_t robust_step_dense_fallbacks = 0;
  // --- resilience telemetry (DESIGN.md "Failure model and recovery") ------
  Method answered_by = Method::kReferenceIpm;  ///< tier that produced the answer
  std::int32_t tiers_attempted = 0;            ///< 1 = no degradation happened
  /// Recovery events fired during this solve (all tiers combined). Counted
  /// from the solve's own SolverContext sink, so the numbers are exact even
  /// when many solves run concurrently on other threads.
  std::uint64_t cg_tolerance_escalations = 0;
  std::uint64_t dense_fallbacks = 0;
  std::uint64_t sketch_retries = 0;
  std::uint64_t structure_rebuilds = 0;
  std::uint64_t injected_faults = 0;  ///< fault-injection firings (testing)
  // --- solve lifecycle & certification (DESIGN.md §11) --------------------
  /// True iff the returned kOk flow passed the independent certification
  /// pass (always false when SolveOptions::certify is off or status != kOk).
  bool certified = false;
  /// Certification failures across the solve's tier attempts (each one also
  /// fired RecoveryEvent::kCertificationFailure and degraded the tier).
  std::uint64_t certification_failures = 0;
  // --- solver-acceleration telemetry (DESIGN.md §10) ----------------------
  /// Preconditioner lifecycle across the solve's CG call sites: `builds`
  /// counts factorizations, `reuses` counts solves served by a cached
  /// factor whose weight drift stayed under the threshold.
  std::uint64_t precond_builds = 0;
  std::uint64_t precond_reuses = 0;
  std::uint64_t precond_fallbacks = 0;    ///< IC(0) breakdowns degraded to Jacobi
  std::uint64_t laplacian_builds = 0;     ///< full CSR pattern constructions
  std::uint64_t laplacian_refreshes = 0;  ///< value-only in-place rewrites
  std::uint64_t multi_rhs_solves = 0;     ///< blocked multi-RHS CG calls
  std::uint64_t multi_rhs_columns = 0;    ///< RHS columns across those calls
  std::uint64_t warm_start_hits = 0;      ///< CG solves seeded from a cached iterate
  // --- cross-solve warm-start provenance (DESIGN.md §15) ------------------
  /// True when this result was produced with cross-solve warm state (an
  /// accepted central-path restart or a cached-result replay). Always false
  /// on a plain cold solve, and on a resolve whose offered central-path
  /// point the solver rejected.
  bool warm_started = false;
  /// Where the warm state came from: "central-path" (IPM restarted from the
  /// previous solve's final iterate), "cached-result" (the engine replayed
  /// and re-certified a stored optimum), "" when cold.
  std::string warm_source;
  /// The mu the IPM actually (re)started from; 0 when no IPM tier ran warm.
  double warm_mu0 = 0.0;

  /// Fraction of preconditioner requests served from cache.
  [[nodiscard]] double precond_hit_rate() const {
    const std::uint64_t total = precond_builds + precond_reuses;
    return total == 0 ? 0.0
                      : static_cast<double>(precond_reuses) / static_cast<double>(total);
  }
};

struct MinCostFlowResult {
  std::int64_t flow_value = 0;
  std::int64_t cost = 0;
  std::vector<std::int64_t> arc_flow;  ///< per arc of the input graph
  SolveStats stats;
  /// kOk iff `arc_flow` is an exactly optimal integral flow. Any other value
  /// means `flow_value`/`cost`/`arc_flow` must not be trusted: kInfeasible /
  /// kInvalidInput describe the instance; the solver-failure statuses can
  /// only surface when the degradation cascade is disabled or exhausted.
  SolveStatus status = SolveStatus::kOk;
  std::string failure_component;  ///< empty when status == kOk
  std::string failure_detail;     ///< empty when status == kOk
};

/// Exact min-cost max-flow from s to t. `ctx` scopes the solve's PRAM
/// tracker, fault injector, recovery-event sink, and pool binding; many
/// solves with distinct contexts may run concurrently from different
/// threads. The ctx-less overload delegates to core::default_context() for
/// single-solve callers and existing code.
MinCostFlowResult min_cost_max_flow(core::SolverContext& ctx, const graph::Digraph& g,
                                    graph::Vertex s, graph::Vertex t,
                                    const SolveOptions& opts = {});
MinCostFlowResult min_cost_max_flow(const graph::Digraph& g, graph::Vertex s, graph::Vertex t,
                                    const SolveOptions& opts = {});

/// Exact min-cost b-flow: route integer demands (A^T x = b, sum(b) = 0,
/// b[v] = net inflow required at v). Returns feasibility via flow_value ==
/// total positive demand (kept for existing callers) and, equivalently,
/// status == kOk vs kInfeasible. Context semantics as in min_cost_max_flow.
MinCostFlowResult min_cost_b_flow(core::SolverContext& ctx, const graph::Digraph& g,
                                  const std::vector<std::int64_t>& b,
                                  const SolveOptions& opts = {});
MinCostFlowResult min_cost_b_flow(const graph::Digraph& g, const std::vector<std::int64_t>& b,
                                  const SolveOptions& opts = {});

}  // namespace pmcf::mcf
