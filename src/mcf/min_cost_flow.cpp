#include "mcf/min_cost_flow.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>
#include <optional>

#include "baselines/ssp.hpp"
#include "ipm/robust_ipm.hpp"
#include "ipm/rounding.hpp"
#include "mcf/certify.hpp"
#include "parallel/fault_injection.hpp"
#include "parallel/scheduler.hpp"

namespace pmcf::mcf {

namespace {

using graph::Digraph;
using graph::Vertex;
using linalg::Vec;

/// Largest cost/capacity mass the augmented LP may carry: the auxiliary arcs
/// cost 4x the mass and the rounding stage sums flow*cost products up to it,
/// so capping at max/8 keeps every downstream int64 computation exact.
constexpr std::int64_t kMassLimit = std::numeric_limits<std::int64_t>::max() / 8;

/// 1 + sum(|cost_e| * cap_e) evaluated in 128-bit, or nullopt once it
/// exceeds kMassLimit (the instance would overflow the -K circulation arc,
/// the auxiliary-arc costs, or the final cost accumulation).
std::optional<std::int64_t> checked_cost_mass(const Digraph& g) {
  __int128 acc = 1;
  for (const auto& a : g.arcs()) {
    __int128 c = a.cost;
    if (c < 0) c = -c;
    acc += c * static_cast<__int128>(a.cap);
    if (acc > kMassLimit) return std::nullopt;
  }
  return static_cast<std::int64_t>(acc);
}

/// sum(cap_e) in 128-bit with the same limit (auxiliary arc capacities are
/// sums of capacities and must stay exact).
std::optional<std::int64_t> checked_cap_mass(const Digraph& g) {
  __int128 acc = 0;
  for (const auto& a : g.arcs()) {
    acc += static_cast<__int128>(a.cap);
    if (acc > kMassLimit) return std::nullopt;
  }
  return static_cast<std::int64_t>(acc);
}

MinCostFlowResult invalid_input(std::string component, std::string detail) {
  MinCostFlowResult res;
  res.status = SolveStatus::kInvalidInput;
  res.failure_component = std::move(component);
  res.failure_detail = std::move(detail);
  return res;
}

/// Admission check at the public entry points: a request whose deadline has
/// already passed (or whose token is already canceled) returns the typed
/// status without touching the instance. Also drops stale per-solve scratch
/// so a reused context — including one whose previous solve was canceled
/// mid-flight — behaves bit-identically to a fresh one.
std::optional<MinCostFlowResult> admit(core::SolverContext& ctx, const char* component) {
  ctx.reset_scratch();
  const SolveStatus ls = ctx.check_lifecycle();
  if (ls == SolveStatus::kOk) return std::nullopt;
  MinCostFlowResult res;
  res.status = ls;
  res.failure_component = component;
  res.failure_detail = ls == SolveStatus::kCanceled ? "request canceled before the solve started"
                                                    : "request deadline expired before the solve started";
  return res;
}

/// Post-tier certification (DESIGN.md §11): re-derives every claim of a kOk
/// result from the instance in exact arithmetic, independent of the solver.
/// On failure, downgrades the result to a solver failure so the degradation
/// cascade treats the tier as broken (a wrong answer never escapes as kOk).
template <typename Check>
void certify_or_degrade(core::SolverContext& ctx, MinCostFlowResult& res, const Check& check) {
  if (res.status != SolveStatus::kOk) return;
  const CertifyReport report = check();
  if (report.certified) {
    res.stats.certified = true;
    return;
  }
  ctx.recovery().note(RecoveryEvent::kCertificationFailure);
  res.status = SolveStatus::kInternalError;
  res.failure_component = "mcf::certify";
  res.failure_detail = report.detail;
}

/// The tiers the degradation cascade will try, strongest first: the suffix of
/// Robust → Reference → Combinatorial starting at the requested method.
std::vector<Method> cascade_tiers(const SolveOptions& opts) {
  static constexpr Method kCascade[] = {Method::kRobustIpm, Method::kReferenceIpm,
                                        Method::kCombinatorial};
  if (!opts.allow_degradation) return {opts.method};
  return std::vector<Method>(std::find(std::begin(kCascade), std::end(kCascade), opts.method),
                             std::end(kCascade));
}

/// Entry-point option vetting: nonsensical option fields are rejected before
/// any work happens. Returns the defect description, "" when all are sane.
std::string validate(const SolveOptions& opts) {
  const ipm::IpmOptions& io = opts.ipm;
  if (!(std::isfinite(io.mu_end) && io.mu_end > 0.0)) return "ipm.mu_end must be > 0";
  if (io.max_iters < 1) return "ipm.max_iters must be >= 1";
  if (io.leverage.sketch_dim < 1) return "ipm.leverage.sketch_dim must be >= 1";
  if (!(std::isfinite(io.solve.tolerance) && io.solve.tolerance > 0.0))
    return "ipm.solve.tolerance must be > 0";
  if (io.solve.max_iters < 1) return "ipm.solve.max_iters must be >= 1";
  if (!(std::isfinite(io.leverage.solve.tolerance) && io.leverage.solve.tolerance > 0.0))
    return "ipm.leverage.solve.tolerance must be > 0";
  if (io.leverage.solve.max_iters < 1) return "ipm.leverage.solve.max_iters must be >= 1";
  return "";
}

/// Captures the solve context's recovery/fault counters at construction and
/// writes the per-solve deltas into SolveStats at the end. Reading from the
/// context's own sink (not any process-global registry) keeps the counts
/// exact under concurrent solves.
struct TelemetryScope {
  core::SolverContext* ctx;
  RecoverySnapshot rec0;
  std::uint64_t faults0;
  core::AccelTelemetry accel0;

  explicit TelemetryScope(core::SolverContext& c)
      : ctx(&c),
        rec0(c.recovery().snapshot()),
        faults0(c.fault().fired_total()),
        accel0(c.accel()) {}

  void finish(SolveStats& stats) const {
    const RecoverySnapshot d = ctx->recovery().snapshot().since(rec0);
    stats.cg_tolerance_escalations = d.of(RecoveryEvent::kCgToleranceEscalation);
    stats.dense_fallbacks = d.of(RecoveryEvent::kDenseFallback);
    stats.sketch_retries = d.of(RecoveryEvent::kSketchRetry);
    stats.structure_rebuilds = d.of(RecoveryEvent::kStructureRebuild);
    stats.certification_failures = d.of(RecoveryEvent::kCertificationFailure);
    stats.injected_faults = ctx->fault().fired_total() - faults0;
    const core::AccelTelemetry& a = ctx->accel();
    stats.precond_builds = a.precond_builds - accel0.precond_builds;
    stats.precond_reuses = a.precond_reuses - accel0.precond_reuses;
    stats.precond_fallbacks = a.precond_fallbacks - accel0.precond_fallbacks;
    stats.laplacian_builds = a.laplacian_builds - accel0.laplacian_builds;
    stats.laplacian_refreshes = a.laplacian_refreshes - accel0.laplacian_refreshes;
    stats.multi_rhs_solves = a.multi_rhs_solves - accel0.multi_rhs_solves;
    stats.multi_rhs_columns = a.multi_rhs_columns - accel0.multi_rhs_columns;
    stats.warm_start_hits = a.warm_start_hits - accel0.warm_start_hits;
  }
};

struct AugmentedLp {
  Digraph graph;        ///< original arcs [+ ts arc] + auxiliary arcs
  ipm::IpmLp lp;        ///< views into graph (b, cost, cap, dropped = z)
  Vec x0;               ///< interior feasible start (u/2 everywhere)
  std::size_t num_core; ///< arcs that belong to the rounding problem
};

/// Build the augmented LP: core graph (original arcs, plus the t->s arc for
/// max-flow instances) + auxiliary vertex z absorbing the imbalance of
/// x0 = u/2. z is the dropped incidence column, so its conservation row is
/// free and the auxiliary arcs only fix the real vertices' rows.
/// Callers have validated the cost/capacity masses, so the k_aux = 4 * mass
/// auxiliary costs below cannot overflow.
AugmentedLp augment(const Digraph& core, const std::vector<std::int64_t>& b) {
  const Vertex n = core.num_vertices();
  AugmentedLp out;
  out.graph = Digraph(n + 1);
  const Vertex z = n;
  for (const auto& a : core.arcs()) out.graph.add_arc(a.from, a.to, a.cap, a.cost);
  out.num_core = static_cast<std::size_t>(core.num_arcs());

  // Imbalance of x0 = u/2 against the demands, in halves to stay integral:
  // r2[v] = 2*((A^T x0)_v - b_v).
  std::vector<std::int64_t> r2(static_cast<std::size_t>(n), 0);
  for (const auto& a : core.arcs()) {
    r2[static_cast<std::size_t>(a.to)] += a.cap;
    r2[static_cast<std::size_t>(a.from)] -= a.cap;
  }
  for (Vertex v = 0; v < n; ++v) r2[static_cast<std::size_t>(v)] -= 2 * b[static_cast<std::size_t>(v)];

  std::int64_t cost_mass = 1;
  for (const auto& a : core.arcs()) cost_mass += std::abs(a.cost) * a.cap;
  const std::int64_t k_aux = 4 * cost_mass;

  std::vector<double> x0;
  x0.reserve(out.num_core + static_cast<std::size_t>(n));
  for (const auto& a : core.arcs()) x0.push_back(static_cast<double>(a.cap) / 2.0);
  for (Vertex v = 0; v < n; ++v) {
    const std::int64_t r = r2[static_cast<std::size_t>(v)];
    if (r == 0) continue;
    // Excess inflow (r > 0) leaves through v -> z; deficit enters via z -> v.
    if (r > 0) {
      out.graph.add_arc(v, z, r, k_aux);
    } else {
      out.graph.add_arc(z, v, -r, k_aux);
    }
    x0.push_back(static_cast<double>(std::abs(r)) / 2.0);
  }

  out.lp.graph = &out.graph;
  out.lp.dropped = z;
  out.lp.b.assign(static_cast<std::size_t>(n) + 1, 0.0);
  for (Vertex v = 0; v < n; ++v) out.lp.b[static_cast<std::size_t>(v)] = static_cast<double>(b[static_cast<std::size_t>(v)]);
  out.lp.cost.assign(static_cast<std::size_t>(out.graph.num_arcs()), 0.0);
  out.lp.cap.assign(static_cast<std::size_t>(out.graph.num_arcs()), 0.0);
  for (graph::EdgeId e = 0; e < out.graph.num_arcs(); ++e) {
    out.lp.cost[static_cast<std::size_t>(e)] = static_cast<double>(out.graph.arc(e).cost);
    out.lp.cap[static_cast<std::size_t>(e)] = static_cast<double>(out.graph.arc(e).cap);
  }
  out.x0 = Vec(x0.begin(), x0.end());
  par::charge(static_cast<std::uint64_t>(out.graph.num_arcs()) + static_cast<std::uint64_t>(n),
              par::ceil_log2(static_cast<std::uint64_t>(out.graph.num_arcs()) + 2));
  return out;
}

/// Validate a cross-solve warm start against the freshly built augmented LP
/// and, when it passes, overwrite the cold start (x0, y0, mu0) in place.
/// Acceptance needs (a) matching augmented sizes — a structural change (or a
/// capacity change that moved the auxiliary-arc set) fails here, (b) strict
/// interiority after clamping into (0, u), and (c) a near-zero conservation
/// residual A^T x = b away from the dropped row — a capacity change that
/// kept the aux structure but moved the walls far enough to force a real
/// clamp fails here. Rejection is silent: the caller keeps the cold start.
bool accept_warm_start(const AugmentedLp& aug, const WarmStart& warm, double mu_end, Vec& x0,
                       Vec& y0, double& mu0) {
  const std::size_t m = aug.lp.cap.size();
  const std::size_t n = static_cast<std::size_t>(aug.graph.num_vertices());
  if (warm.x.size() != m || warm.y.size() != n) return false;
  constexpr double kWallMargin = 1e-9;
  Vec x(m);
  double max_cap = 1.0;
  for (std::size_t e = 0; e < m; ++e) {
    const double u = aug.lp.cap[e];
    if (!(u > 0.0) || !std::isfinite(warm.x[e])) return false;
    x[e] = std::clamp(warm.x[e], kWallMargin * u, (1.0 - kWallMargin) * u);
    max_cap = std::max(max_cap, u);
  }
  Vec net(n, 0.0);
  for (graph::EdgeId e = 0; e < aug.graph.num_arcs(); ++e) {
    const auto& a = aug.graph.arc(e);
    net[static_cast<std::size_t>(a.to)] += x[static_cast<std::size_t>(e)];
    net[static_cast<std::size_t>(a.from)] -= x[static_cast<std::size_t>(e)];
  }
  const double tol = 1e-6 * max_cap * std::sqrt(static_cast<double>(std::max<std::size_t>(m, 1)));
  for (std::size_t v = 0; v < n; ++v) {
    if (v == static_cast<std::size_t>(aug.lp.dropped)) continue;
    if (std::abs(net[v] - aug.lp.b[v]) > tol) return false;
  }
  for (const double yv : warm.y)
    if (!std::isfinite(yv)) return false;
  // Restart where the previous solve stopped: the duality-gap stop (DESIGN.md
  // §6) leaves that point centred and a few octaves above mu_end, so the
  // Newton re-centring absorbs a value-only perturbation from there. A
  // restart that proves too aggressive is caught by certification and
  // retried cold, never served wrong.
  mu0 = std::min(mu0, std::max(warm.mu, mu_end));
  x0 = std::move(x);
  y0 = warm.y;
  par::charge(static_cast<std::uint64_t>(m) + n, par::ceil_log2(std::max<std::size_t>(m, 2)));
  return true;
}

/// Run one IPM tier on the augmented LP and round. Returns kOk with an
/// exactly optimal integral flow, kInfeasible when the rounding imbalance is
/// unroutable, or a solver-failure status for the cascade to act on.
/// kIterationLimit is soft: round_and_repair produces the exact optimum from
/// any finite fractional iterate, so a truncated path-following run still
/// yields a correct answer. Nothing escapes as an exception.
MinCostFlowResult solve_core(core::SolverContext& ctx, const Digraph& core,
                             const std::vector<std::int64_t>& b, Method tier,
                             const SolveOptions& opts) {
  MinCostFlowResult res;
  try {
    AugmentedLp aug = augment(core, b);
    double mu0 = ipm::initial_mu(aug.lp);
    Vec x0 = std::move(aug.x0);
    Vec y0(static_cast<std::size_t>(aug.graph.num_vertices()), 0.0);

    // Cross-solve warm start (DESIGN.md §15): restart the path following from
    // the previous solve's final central-path point when it still fits this
    // augmented LP. Validation failure silently keeps the cold start.
    Vec warm_tau;
    if (opts.warm != nullptr && !opts.warm->empty() &&
        accept_warm_start(aug, *opts.warm, opts.ipm.mu_end, x0, y0, mu0)) {
      res.stats.warm_started = true;
      res.stats.warm_source = "central-path";
      res.stats.warm_mu0 = mu0;
      warm_tau = opts.warm->tau;  // may be empty; sizes vetted by the IPM
    }

    Vec x_final, y_final;
    double mu_final = 0.0;
    if (tier == Method::kRobustIpm) {
      ipm::RobustIpmOptions ropts;
      ropts.mu_end = opts.ipm.mu_end;
      ropts.max_iters = opts.ipm.max_iters;
      ropts.solve = opts.ipm.solve;
      const auto r = ipm::robust_ipm(ctx, aug.lp, std::move(x0), std::move(y0), mu0, ropts);
      res.stats.ipm_iterations = r.iterations;
      res.stats.final_mu = r.mu;
      res.stats.final_centrality = r.final_centrality;
      res.stats.robust_step_work = r.robust_step_work;
      res.stats.robust_steps = r.robust_steps;
      res.stats.robust_step_dense_fallbacks = r.dense_fallbacks;
      res.status = r.status;
      if (r.status != SolveStatus::kOk) {
        res.failure_component = "ipm::robust_ipm";
        res.failure_detail = r.detail;
      }
      x_final = r.x;
      y_final = r.y;
      mu_final = r.mu;
    } else {
      ipm::IpmOptions ipo = opts.ipm;
      // Seed τ from the warm start when one was accepted; even without one,
      // point tau_io at our local slot when the caller wants the converged
      // weights captured (reference_ipm ignores a wrong-sized seed).
      if (ipo.tau_io == nullptr && (!warm_tau.empty() || opts.warm_out != nullptr))
        ipo.tau_io = &warm_tau;
      ipm::IpmResult r = ipm::reference_ipm(ctx, aug.lp, std::move(x0), std::move(y0), mu0, ipo);
      res.stats.ipm_iterations = r.iterations;
      res.stats.final_mu = r.mu;
      res.stats.final_centrality = r.final_centrality;
      res.status = r.status;
      if (r.status != SolveStatus::kOk) {
        res.failure_component = "ipm::reference_ipm";
        res.failure_detail = r.detail;
      }
      x_final = std::move(r.x);
      y_final = std::move(r.y);
      mu_final = r.mu;
      if (ipo.tau_io == &warm_tau && res.status != SolveStatus::kOk) warm_tau.clear();
    }
    if (res.status != SolveStatus::kOk && res.status != SolveStatus::kIterationLimit) return res;

    // Capture the central-path point for the caller's cross-solve store
    // before the auxiliary arcs are dropped. Only a converged run is worth
    // retaining — a truncated iterate would seed the next solve poorly.
    if (opts.warm_out != nullptr && res.status == SolveStatus::kOk) {
      opts.warm_out->x = x_final;
      opts.warm_out->y = y_final;
      opts.warm_out->tau = std::move(warm_tau);  // filled by tau_io on success
      opts.warm_out->mu = mu_final;
    }

    // Drop auxiliary arcs and round on the core problem.
    Vec x_core(x_final.begin(), x_final.begin() + static_cast<std::ptrdiff_t>(aug.num_core));
    const auto repaired = ipm::round_and_repair(ctx, core, b, x_core);
    res.stats.imbalance_routed = repaired.imbalance_routed;
    res.stats.cycles_canceled = repaired.cycles_canceled;
    res.arc_flow = repaired.flow;
    res.cost = repaired.cost;
    res.status = repaired.status;
    if (res.status == SolveStatus::kOk) {
      res.failure_component.clear();
      res.failure_detail.clear();
    } else {
      res.failure_component = "ipm::round_and_repair";
      res.failure_detail = "no feasible routing of the rounding imbalance";
    }
    return res;
  } catch (const ComponentError& err) {
    res.status = err.status();
    res.failure_component = err.component();
    res.failure_detail = err.what();
    return res;
  } catch (const std::exception& ex) {
    res.status = SolveStatus::kInternalError;
    res.failure_component = "mcf::solve_core";
    res.failure_detail = ex.what();
    return res;
  }
}

/// The degradation cascade of both entry points (SolveOptions::
/// allow_degradation): answer each tier of cascade_tiers(opts) in turn with
/// `solve_tier(tier)`, certify the answer with `check(res)`, and stop at the
/// first kOk, instance error or lifecycle status. solve_core reports its own
/// failures, so an exception can only come from the combinatorial tier; it
/// becomes a typed failure of `ssp_component`.
template <typename SolveTier, typename Check>
MinCostFlowResult run_cascade(core::SolverContext& ctx, const SolveOptions& opts,
                              const char* ssp_component, const SolveTier& solve_tier,
                              const Check& check) {
  const TelemetryScope scope(ctx);
  const std::vector<Method> tiers = cascade_tiers(opts);
  MinCostFlowResult res;
  for (std::size_t attempt = 0; attempt < tiers.size(); ++attempt) {
    const Method tier = tiers[attempt];
    try {
      res = solve_tier(tier);
    } catch (const ComponentError& err) {
      res = MinCostFlowResult{};
      res.status = err.status();
      res.failure_component = err.component();
      res.failure_detail = err.what();
    } catch (const std::exception& ex) {
      res = MinCostFlowResult{};
      res.status = SolveStatus::kInternalError;
      res.failure_component = ssp_component;
      res.failure_detail = ex.what();
    }
    if (opts.certify) certify_or_degrade(ctx, res, [&] { return check(res); });
    res.stats.answered_by = tier;
    res.stats.tiers_attempted = static_cast<std::int32_t>(attempt + 1);
    if (res.status == SolveStatus::kOk || is_instance_error(res.status) ||
        is_lifecycle_error(res.status))
      break;
    if (attempt + 1 < tiers.size()) ctx.recovery().note(RecoveryEvent::kTierDegradation);
  }
  scope.finish(res.stats);
  return res;
}

}  // namespace

const char* to_string(Method m) {
  switch (m) {
    case Method::kReferenceIpm: return "ReferenceIpm";
    case Method::kRobustIpm: return "RobustIpm";
    case Method::kCombinatorial: return "Combinatorial";
  }
  return "?";
}

MinCostFlowResult min_cost_max_flow(core::SolverContext& ctx, const Digraph& g, Vertex s,
                                    Vertex t, const SolveOptions& opts) {
  // Bind the context for the duration of the solve: every par::charge,
  // injection draw, and note_recovery below (including from pool workers,
  // which inherit the forker's bindings) resolves to `ctx`.
  const core::ContextScope ctx_scope(ctx);
  if (auto shed = admit(ctx, "mcf::min_cost_max_flow")) return std::move(*shed);
  const Vertex nv = g.num_vertices();
  if (s < 0 || s >= nv || t < 0 || t >= nv)
    return invalid_input("mcf::min_cost_max_flow", "source or sink vertex out of range");
  if (s == t) return invalid_input("mcf::min_cost_max_flow", "source equals sink");
  for (const auto& a : g.arcs())
    if (a.cap < 0) return invalid_input("mcf::min_cost_max_flow", "negative arc capacity");
  const auto cost_mass = checked_cost_mass(g);
  const auto cap_mass = checked_cap_mass(g);
  if (!cost_mass || !cap_mass)
    return invalid_input("mcf::min_cost_max_flow",
                         "cost/capacity mass overflows the safe integer range");

  if (std::string defect = validate(opts); !defect.empty())
    return invalid_input("mcf::min_cost_max_flow", std::move(defect));

  // Circulation formulation: t -> s with reward -K dominating all costs.
  // Only the IPM tiers need it, and the cascade never climbs above
  // opts.method.
  Digraph core(nv);
  graph::EdgeId ts = 0;
  if (opts.method != Method::kCombinatorial) {
    std::int64_t out_cap = 0;
    for (const auto& a : g.arcs())
      if (a.from == s) out_cap += a.cap;  // <= cap_mass, exact
    const std::int64_t ts_cap = std::max<std::int64_t>(out_cap, 1);
    if (static_cast<__int128>(*cost_mass) * (1 + static_cast<__int128>(ts_cap)) > kMassLimit)
      return invalid_input("mcf::min_cost_max_flow",
                           "-K circulation arc overflows the safe integer range");
    for (const auto& a : g.arcs()) core.add_arc(a.from, a.to, a.cap, a.cost);
    ts = core.add_arc(t, s, ts_cap, -*cost_mass);
  }

  const auto solve_tier = [&](Method tier) {
    MinCostFlowResult res;
    if (tier == Method::kCombinatorial) {
      const auto r = baselines::ssp_min_cost_max_flow(g, s, t);
      res.flow_value = r.flow;
      res.cost = r.cost;
      res.arc_flow = r.arc_flow;
      return res;
    }
    res = solve_core(ctx, core, std::vector<std::int64_t>(static_cast<std::size_t>(nv), 0), tier,
                     opts);
    if (res.status == SolveStatus::kOk) {
      // The t->s arc carries the flow value; drop it and re-price the rest.
      res.flow_value = res.arc_flow[static_cast<std::size_t>(ts)];
      res.arc_flow.resize(static_cast<std::size_t>(g.num_arcs()));
      res.cost = 0;
      for (std::size_t k = 0; k < res.arc_flow.size(); ++k)
        res.cost += res.arc_flow[k] * g.arc(static_cast<graph::EdgeId>(k)).cost;
    }
    return res;
  };
  return run_cascade(ctx, opts, "baselines::ssp_min_cost_max_flow", solve_tier,
                     [&](const MinCostFlowResult& res) {
                       return certify_max_flow(g, s, t, res.arc_flow, res.flow_value, res.cost);
                     });
}

MinCostFlowResult min_cost_b_flow(core::SolverContext& ctx, const Digraph& g,
                                  const std::vector<std::int64_t>& b,
                                  const SolveOptions& opts) {
  const core::ContextScope ctx_scope(ctx);
  if (auto shed = admit(ctx, "mcf::min_cost_b_flow")) return std::move(*shed);
  const auto n = static_cast<std::size_t>(g.num_vertices());
  if (b.size() != n)
    return invalid_input("mcf::min_cost_b_flow", "demand vector size does not match vertex count");
  __int128 b_sum = 0;
  for (const std::int64_t bv : b) {
    if (bv > kMassLimit || bv < -kMassLimit)
      return invalid_input("mcf::min_cost_b_flow", "demand overflows the safe integer range");
    b_sum += bv;
  }
  if (b_sum != 0) return invalid_input("mcf::min_cost_b_flow", "demands do not sum to zero");
  for (const auto& a : g.arcs())
    if (a.cap < 0) return invalid_input("mcf::min_cost_b_flow", "negative arc capacity");
  if (!checked_cost_mass(g) || !checked_cap_mass(g))
    return invalid_input("mcf::min_cost_b_flow",
                         "cost/capacity mass overflows the safe integer range");

  if (std::string defect = validate(opts); !defect.empty())
    return invalid_input("mcf::min_cost_b_flow", std::move(defect));

  std::int64_t demand_total = 0;
  for (const std::int64_t bv : b)
    if (bv > 0) demand_total += bv;

  const auto solve_tier = [&](Method tier) {
    MinCostFlowResult res;
    if (tier == Method::kCombinatorial) {
      // ssp's convention is supply-positive; ours is net-inflow-positive.
      std::vector<std::int64_t> supply(b.size());
      for (std::size_t v = 0; v < b.size(); ++v) supply[v] = -b[v];
      auto r = baselines::ssp_min_cost_b_flow(g, supply);
      res.cost = r.cost;
      res.arc_flow = std::move(r.arc_flow);
    } else {
      res = solve_core(ctx, g, b, tier, opts);
    }
    if (res.status == SolveStatus::kOk) {
      // Feasibility check: A^T x must equal b exactly.
      std::vector<std::int64_t> net(n, 0);
      for (std::size_t k = 0; k < res.arc_flow.size(); ++k) {
        const auto& a = g.arc(static_cast<graph::EdgeId>(k));
        net[static_cast<std::size_t>(a.to)] += res.arc_flow[k];
        net[static_cast<std::size_t>(a.from)] -= res.arc_flow[k];
      }
      res.flow_value = demand_total;
      for (std::size_t v = 0; v < n; ++v) {
        if (net[v] != b[v]) {
          res.flow_value = 0;  // kept: legacy infeasibility convention
          res.status = SolveStatus::kInfeasible;
          res.failure_component = "mcf::min_cost_b_flow";
          res.failure_detail = "demands are not routable (no feasible b-flow)";
          break;
        }
      }
    } else if (res.status == SolveStatus::kInfeasible) {
      res.flow_value = 0;
    }
    return res;
  };
  return run_cascade(ctx, opts, "baselines::ssp_min_cost_b_flow", solve_tier,
                     [&](const MinCostFlowResult& res) {
                       return certify_b_flow(g, b, res.arc_flow, res.cost);
                     });
}

MinCostFlowResult min_cost_max_flow(const Digraph& g, Vertex s, Vertex t,
                                    const SolveOptions& opts) {
  return min_cost_max_flow(core::default_context(), g, s, t, opts);
}

MinCostFlowResult min_cost_b_flow(const Digraph& g, const std::vector<std::int64_t>& b,
                                  const SolveOptions& opts) {
  return min_cost_b_flow(core::default_context(), g, b, opts);
}

}  // namespace pmcf::mcf
