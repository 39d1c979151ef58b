#include "layers.hpp"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <memory>

#include "baselines/cost_scaling.hpp"
#include "baselines/ssp.hpp"
#include "core/solver_context.hpp"
#include "ds/flat_norm.hpp"
#include "expander/defs.hpp"
#include "expander/dynamic_decomp.hpp"
#include "expander/static_decomp.hpp"
#include "expander/unit_flow.hpp"
#include "ipm/reference_ipm.hpp"
#include "ipm/robust_ipm.hpp"
#include "ipm/rounding.hpp"
#include "linalg/incidence.hpp"
#include "linalg/laplacian.hpp"
#include "linalg/leverage.hpp"
#include "linalg/preconditioner.hpp"
#include "linalg/sdd_solver.hpp"
#include "mcf/certify.hpp"
#include "mcf/engine.hpp"
#include "parallel/rng.hpp"
#include "parallel/scheduler.hpp"
#include "parallel/thread_pool.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

using namespace pmcf;
using linalg::Vec;

/// Times one call into a library module under a span named after that
/// module and call ("<layer>.<call>"), so the span covers the call alone.
template <class F>
double time_ms(const char* span_name, F&& f) {
  const SpanScope span(span_name);
  const auto t0 = Clock::now();
  f();
  return ms_since(t0);
}

template <class F>
double median_ms(const char* span_name, int reps, F&& f) {
  std::vector<double> v;
  for (int r = 0; r < reps; ++r) v.push_back(time_ms(span_name, f));
  return median(v);
}

/// The benchmark's own SSP oracle, traced as benchmark time.
Oracle traced_oracle(const graph::Digraph& g) {
  const SpanScope span("bench.oracle");
  return solve_oracle(g);
}

/// The LP the mcf entry point hands its IPM tiers, rebuilt from the public
/// description in min_cost_flow.hpp: the instance plus a t->s return arc
/// whose reward -K outweighs every cost, then an auxiliary vertex z (the
/// dropped incidence column) absorbing the imbalance of the interior start
/// x0 = u/2.
struct AugmentedLp {
  graph::Digraph core;   ///< instance arcs + return arc: the rounding problem
  graph::Digraph graph;  ///< core + auxiliary arcs
  ipm::IpmLp lp;         ///< views into `graph`
  Vec x0;
  std::size_t num_core = 0;
};

void build_lp(const graph::Digraph& g, AugmentedLp& out) {
  const graph::Vertex n = g.num_vertices();
  const graph::Vertex s = 0;
  const graph::Vertex t = n - 1;
  std::int64_t cost_mass = 1;
  std::int64_t out_cap = 0;
  out.core = graph::Digraph(n);
  for (const auto& a : g.arcs()) {
    cost_mass += std::abs(a.cost) * a.cap;
    if (a.from == s) out_cap += a.cap;
    out.core.add_arc(a.from, a.to, a.cap, a.cost);
  }
  out.core.add_arc(t, s, std::max<std::int64_t>(out_cap, 1), -cost_mass);
  out.num_core = static_cast<std::size_t>(out.core.num_arcs());

  const graph::Vertex z = n;
  out.graph = graph::Digraph(n + 1);
  std::vector<std::int64_t> r2(static_cast<std::size_t>(n), 0);  // 2 * imbalance of u/2
  std::int64_t core_mass = 1;
  for (const auto& a : out.core.arcs()) {
    out.graph.add_arc(a.from, a.to, a.cap, a.cost);
    r2[static_cast<std::size_t>(a.to)] += a.cap;
    r2[static_cast<std::size_t>(a.from)] -= a.cap;
    core_mass += std::abs(a.cost) * a.cap;
    out.x0.push_back(static_cast<double>(a.cap) / 2.0);
  }
  for (graph::Vertex v = 0; v < n; ++v) {
    const std::int64_t r = r2[static_cast<std::size_t>(v)];
    if (r == 0) continue;
    if (r > 0) {
      out.graph.add_arc(v, z, r, 4 * core_mass);
    } else {
      out.graph.add_arc(z, v, -r, 4 * core_mass);
    }
    out.x0.push_back(static_cast<double>(std::abs(r)) / 2.0);
  }
  out.lp.graph = &out.graph;
  out.lp.dropped = z;
  out.lp.b.assign(static_cast<std::size_t>(n) + 1, 0.0);
  for (const auto& a : out.graph.arcs()) {
    out.lp.cost.push_back(static_cast<double>(a.cost));
    out.lp.cap.push_back(static_cast<double>(a.cap));
  }
}

core::SolverContext make_wall_context(par::ThreadPool* pool) {
  core::ContextOptions o;
  o.instrument = false;
  o.pool = pool;
  o.use_global_pool = false;
  return core::SolverContext(o);
}

/// A context in the execution mode a default Engine solves in. Probes that
/// call below the mcf entry point bind it with a ContextScope, as that entry
/// point does, so kernels pick the same execution path.
core::ContextOptions engine_mode() {
  core::ContextOptions o;
  o.instrument = EngineConfig{}.instrument;
  return o;
}

class Probes {
 public:
  Probes(const ProbeInput& in, MetricMap& out)
      : in_(in), p_(*in.probe), out_(out), pool_(in.pool_threads), rng_(in.seed ^ 0x9b0beULL) {}

  std::string run() {
    run_parallel();
    run_linalg_ds();
    run_expander();
    run_ipm();
    run_mcf();
    run_baselines();
    return defect_;
  }

 private:
  void note(const std::string& defect) {
    if (defect_.empty() && !defect.empty()) defect_ = defect;
  }
  Instance instance(const Problem& p) const { return Instance::max_flow(p.g, 0, p.sink()); }

  /// One direct solve of the probe instance in `ctx`, checked.
  double direct_solve_ms(core::SolverContext& ctx, const mcf::SolveOptions& opts) {
    mcf::MinCostFlowResult r;
    const double ms = time_ms("mcf.min_cost_max_flow",
                              [&] { r = mcf::min_cost_max_flow(ctx, p_.g, 0, p_.sink(), opts); });
    note(check_answer(p_.g, r, p_.oracle));
    return ms;
  }

  void run_parallel() {
    {
      EngineConfig cfg;
      cfg.pool = &pool_;
      cfg.use_global_pool = false;
      const Engine engine(cfg);
      std::vector<Instance> batch;
      for (const Problem* q : in_.batch) batch.push_back(instance(*q));
      std::vector<EngineSolveResult> res(batch.size());
      double serial = 0.0;
      for (std::size_t i = 0; i < batch.size(); ++i)
        serial += time_ms("mcf.engine_solve", [&] { res[i] = engine.solve(batch[i], in_.opts); });
      for (std::size_t i = 0; i < res.size(); ++i)
        note(check_answer(in_.batch[i]->g, res[i].result, in_.batch[i]->oracle));
      const double fanned =
          time_ms("mcf.engine_solve_batch", [&] { res = engine.solve_batch(batch, in_.opts); });
      for (std::size_t i = 0; i < res.size(); ++i)
        note(check_answer(in_.batch[i]->g, res[i].result, in_.batch[i]->oracle));
      out_["parallel.batch_speedup"] = serial / fanned;
    }
    {
      const Engine engine;
      std::vector<double> via_engine;
      std::vector<double> direct;
      for (int r = 0; r < 2; ++r) {
        via_engine.push_back(time_ms(
            "mcf.engine_solve", [&] { solution_ = engine.solve(instance(p_), in_.opts).result; }));
        note(check_answer(p_.g, solution_, p_.oracle));
        core::SolverContext ctx = make_wall_context(nullptr);
        direct.push_back(direct_solve_ms(ctx, in_.opts));
      }
      engine_ms_ = median(via_engine);
      wall1_ms_ = median(direct);
      out_["parallel.instrument_overhead"] = engine_ms_ / wall1_ms_;
    }
    {
      std::vector<double> pooled;
      for (int r = 0; r < 2; ++r) {
        core::SolverContext ctx = make_wall_context(&pool_);
        pooled.push_back(direct_solve_ms(ctx, in_.opts));
      }
      out_["parallel.wall_speedup_4t"] = wall1_ms_ / median(pooled);
    }
    {
      core::SolverContext ctx = make_wall_context(&pool_);
      const core::ContextScope scope(ctx);
      Vec v(static_cast<std::size_t>(p_.g.num_arcs()));
      for (auto& x : v) x = rng_.next_double();
      std::vector<double> us;
      double sink = 0.0;
      for (int r = 0; r < 2000; ++r) {
        us.push_back(1e3 * time_ms("parallel.parallel_reduce", [&] {
                       sink += par::parallel_reduce<double>(
                           0, v.size(), 0.0, [&](std::size_t i) { return v[i]; },
                           [](double a, double b) { return a + b; });
                     }));
      }
      if (!(sink > 0.0)) note("parallel_reduce returned a non-positive sum of positives");
      out_["parallel.small_reduce_us"] = median(us);
    }
  }

  void run_linalg_ds() {
    // Late-iteration weights from the instance's own central path: solve
    // once capturing the final augmented iterate, then weight each arc by
    // 1 / phi''(x) of the log barrier, as the Newton systems near mu_end do.
    mcf::WarmStart final_point;
    {
      core::SolverContext ctx = make_wall_context(nullptr);
      mcf::SolveOptions opts;
      opts.warm_out = &final_point;
      (void)direct_solve_ms(ctx, opts);
    }
    build_lp(p_.g, aug_);
    const std::size_t m = aug_.lp.cap.size();
    const Vec& x = final_point.x.size() == m ? final_point.x : aug_.x0;
    Vec d(m);
    for (std::size_t e = 0; e < m; ++e) {
      const double u = aug_.lp.cap[e];
      const double xe = std::clamp(x[e], 1e-9 * u, (1.0 - 1e-9) * u);
      d[e] = 1.0 / (1.0 / (xe * xe) + 1.0 / ((u - xe) * (u - xe)));
    }
    linalg::Csr lap;
    (void)time_ms("linalg.reduced_laplacian",
                  [&] { lap = linalg::reduced_laplacian(aug_.graph, d, aug_.lp.dropped); });
    Vec b(lap.dim());
    for (auto& v : b) v = rng_.next_double() - 0.5;
    b[static_cast<std::size_t>(aug_.lp.dropped)] = 0.0;

    core::SolverContext ctx(engine_mode());
    const core::ContextScope scope(ctx);
    linalg::SddPreconditioner pc;
    out_["linalg.precond_build_ms"] = median_ms(
        "linalg.precond_build", 5, [&] { pc.build(lap, linalg::PrecondKind::kIncompleteCholesky); });
    linalg::SolveResult sol;
    // CG may stop at its iteration cap on these ill-conditioned systems, as
    // it does inside the IPM before the escalation ladder takes over; the
    // probe measures that cost as it is.
    out_["linalg.solve_sdd_ms"] =
        median_ms("linalg.solve_sdd", 5, [&] { sol = linalg::solve_sdd(ctx, lap, b, pc, {}); });
    out_["linalg.cg_iters"] = sol.iterations;

    const auto k = static_cast<std::size_t>(core::default_ingredients().sketch.sketch_dim);
    std::vector<Vec> rhs(k, Vec(lap.dim()));
    for (auto& col : rhs) {
      for (auto& v : col) v = rng_.next_double() - 0.5;
      col[static_cast<std::size_t>(aug_.lp.dropped)] = 0.0;
    }
    out_["linalg.solve_sdd_multi_ms"] = median_ms(
        "linalg.solve_sdd_multi", 3, [&] { (void)linalg::solve_sdd_multi(ctx, lap, rhs, pc, {}); });

    Vec y(lap.dim());
    std::vector<double> us;
    for (int r = 0; r < 200; ++r)
      us.push_back(1e3 * time_ms("linalg.spmv", [&] { lap.apply_into(b, y); }));
    out_["linalg.spmv_us"] = median(us);

    const linalg::IncidenceOp a(aug_.graph, aug_.lp.dropped);
    Vec v(m);
    for (std::size_t e = 0; e < m; ++e) v[e] = std::sqrt(d[e]);
    out_["linalg.leverage_ms"] = median_ms("linalg.leverage_scores", 3, [&] {
      par::Rng rng(in_.seed);
      (void)linalg::leverage_scores(ctx, a, v, rng, {});
    });

    Vec dir(m);
    for (auto& e : dir) e = rng_.next_double() * 2.0 - 1.0;
    const Vec tau = final_point.tau.size() == m
                        ? final_point.tau
                        : Vec(m, static_cast<double>(aug_.graph.num_vertices()) /
                                         static_cast<double>(m) + 0.5);
    us.clear();
    for (int r = 0; r < 50; ++r) {
      ds::FlatNormResult fn;
      us.push_back(1e3 * time_ms("ds.flat_norm_argmax",
                                 [&] { fn = ds::flat_norm_argmax(dir, tau, 1.0); }));
      if (fn.w.size() != m) note("flat_norm_argmax returned the wrong dimension");
    }
    out_["ds.flat_norm_us"] = median(us);
  }

  void run_expander() {
    core::SolverContext ctx(engine_mode());
    const core::ContextScope scope(ctx);
    const graph::Vertex n = p_.g.num_vertices();
    graph::UndirectedGraph ug(n);
    std::vector<expander::DynamicExpanderDecomposition::EdgeSpec> specs;
    for (graph::EdgeId e = 0; e < p_.g.num_arcs(); ++e) {
      const auto& a = p_.g.arc(e);
      if (a.from == a.to) continue;
      ug.add_edge(a.from, a.to);
      specs.push_back({a.from, a.to, e});
    }
    std::vector<expander::DynamicExpanderDecomposition::ExtId> erase;
    for (std::size_t i = 0; i < specs.size(); i += 10) erase.push_back(specs[i].id);
    out_["expander.decomp_ms"] = median_ms("expander.dynamic_decomposition", 3, [&] {
      expander::DynamicExpanderDecomposition dec(ctx, n);
      dec.insert(specs);
      dec.erase(erase);
    });

    // The exact cut runs on the small clusters of the static decomposition;
    // an instance that is one expander contributes its first 14 vertices.
    par::Rng rng(in_.seed);
    std::vector<std::vector<graph::Vertex>> all;
    (void)time_ms("expander.vertex_expander_decomposition",
                  [&] { all = expander::vertex_expander_decomposition(ug, rng); });
    std::vector<std::vector<graph::Vertex>> clusters;
    for (auto& c : all)
      if (c.size() >= 3 && c.size() <= 14) clusters.push_back(std::move(c));
    if (clusters.empty()) {
      clusters.emplace_back();
      for (graph::Vertex v = 0; v < std::min<graph::Vertex>(n, 14); ++v) clusters.back().push_back(v);
    }
    std::vector<double> us;
    for (const auto& c : clusters) {
      expander::InducedSubgraph sub;
      (void)time_ms("expander.induced_subgraph", [&] { sub = expander::induced_subgraph(ug, c); });
      for (int r = 0; r < 3; ++r)
        us.push_back(1e3 * time_ms("expander.exact_min_expansion_cut",
                                   [&] { (void)expander::exact_min_expansion_cut(sub.graph); }));
    }
    out_["expander.min_cut_us"] = mean(us);

    expander::UnitFlowProblem up;
    up.g = &ug;
    up.cap.assign(ug.edge_slots(), 8);
    up.source.assign(static_cast<std::size_t>(n), 0);
    up.sink.assign(static_cast<std::size_t>(n), 0);
    up.source[0] = 6 * 8;
    for (graph::Vertex v = 0; v < n; ++v) up.sink[static_cast<std::size_t>(v)] = ug.degree(v) / 2;
    up.height = 24;
    std::vector<double> ms;
    for (int r = 0; r < 3; ++r) {
      std::size_t dim = 0;
      ms.push_back(time_ms("expander.parallel_unit_flow",
                           [&] { dim = expander::parallel_unit_flow(up).flow.size(); }));
      if (dim != ug.edge_slots()) note("parallel_unit_flow returned the wrong dimension");
    }
    out_["expander.unit_flow_ms"] = median(ms);
  }

  void run_ipm() {
    core::SolverContext ctx(engine_mode());
    const core::ContextScope scope(ctx);
    const double mu0 = ipm::initial_mu(aug_.lp);
    const Vec y0(static_cast<std::size_t>(aug_.graph.num_vertices()), 0.0);
    // A tier that stops short is the mcf cascade's business; here only the
    // time is measured, and rounding below must still reach the optimum.
    ipm::IpmResult ref;
    out_["ipm.reference_ms"] = time_ms(
        "ipm.reference_ipm", [&] { ref = ipm::reference_ipm(ctx, aug_.lp, aug_.x0, y0, mu0, {}); });
    out_["ipm.robust_ms"] = time_ms(
        "ipm.robust_ipm", [&] { (void)ipm::robust_ipm(ctx, aug_.lp, aug_.x0, y0, mu0, {}); });
    const Vec x_core(ref.x.begin(), ref.x.begin() + static_cast<std::ptrdiff_t>(aug_.num_core));
    const std::vector<std::int64_t> b(static_cast<std::size_t>(aug_.core.num_vertices()), 0);
    std::vector<double> ms;
    for (int r = 0; r < 5; ++r) {
      ipm::RoundRepairResult rounded;
      ms.push_back(time_ms("ipm.round_and_repair",
                           [&] { rounded = ipm::round_and_repair(ctx, aug_.core, b, x_core); }));
      // The return arc carries the flow value; its -K reward makes the
      // circulation's cost the max-flow cost minus K times the value.
      const std::int64_t value = rounded.flow.back();
      if (rounded.status != SolveStatus::kOk || value != p_.oracle.flow ||
          rounded.cost - value * aug_.core.arcs().back().cost != p_.oracle.cost)
        note("round_and_repair missed the optimum on the probe LP");
    }
    out_["ipm.round_repair_ms"] = median(ms);
  }

  void run_mcf() {
    {
      // A tiny instance with default options keeps the solver's own
      // run-to-run noise small next to the engine's per-call cost.
      Problem tiny{make_graph({8, 24, 6, 6}, in_.seed, 0x7e11), {}};
      tiny.oracle = traced_oracle(tiny.g);
      const Engine engine;
      std::vector<double> via_engine;
      std::vector<double> direct;
      for (int r = 0; r < 41; ++r) {
        mcf::MinCostFlowResult res;
        via_engine.push_back(
            time_ms("mcf.engine_solve", [&] { res = engine.solve(instance(tiny)).result; }));
        note(check_answer(tiny.g, res, tiny.oracle));
        core::SolverContext ctx(engine_mode());
        direct.push_back(time_ms("mcf.min_cost_max_flow", [&] {
          res = mcf::min_cost_max_flow(ctx, tiny.g, 0, tiny.sink());
        }));
        note(check_answer(tiny.g, res, tiny.oracle));
      }
      out_["mcf.engine_overhead_us"] = (median(via_engine) - median(direct)) * 1e3;
    }
    std::vector<double> ms;
    for (int r = 0; r < 20; ++r) {
      bool ok = false;
      ms.push_back(time_ms("mcf.certify_max_flow", [&] {
        ok = mcf::certify_max_flow(p_.g, 0, p_.sink(), solution_.arc_flow, solution_.flow_value,
                                   solution_.cost)
                 .certified;
      }));
      if (!ok) note("certify_max_flow rejected a checked optimum");
    }
    out_["mcf.certify_ms"] = median(ms);
    if (in_.resolve_paths) run_resolve_paths();
  }

  /// The serving path on a persisted one-slot cache: cold solve, replay,
  /// warm re-solve after a one-arc cost change, snapshot, recovery.
  void run_resolve_paths() {
    const std::string dir = in_.work_dir + "/probe-persist";
    std::filesystem::remove_all(dir);
    EngineConfig cfg;
    cfg.persist_dir = dir;
    cfg.instance_cache_capacity = 1;
    std::unique_ptr<Engine> engine;
    (void)time_ms("mcf.engine_construct", [&] { engine = std::make_unique<Engine>(cfg); });
    InstanceHandle h = 0;
    (void)time_ms("mcf.register_instance", [&] { h = engine->register_instance(instance(p_)); });
    EngineSolveResult r;
    out_["mcf.cold_resolve_ms"] =
        time_ms("mcf.engine_resolve", [&] { r = engine->resolve(h, {}, in_.opts); });
    note(check_answer(p_.g, r.result, p_.oracle));
    out_["mcf.replay_ms"] =
        time_ms("mcf.engine_resolve", [&] { r = engine->resolve(h, {}, in_.opts); });
    note(check_answer(p_.g, r.result, p_.oracle));
    graph::Digraph mirror = p_.g;
    const std::int64_t c0 = mirror.arc(0).cost;
    InstanceDelta delta;
    delta.cost_changes.push_back({0, c0 > 0 ? c0 - 1 : c0 + 1});
    mirror.set_cost(0, delta.cost_changes[0].cost);
    out_["mcf.warm_resolve_ms"] =
        time_ms("mcf.engine_resolve", [&] { r = engine->resolve(h, delta, in_.opts); });
    note(check_answer(mirror, r.result, traced_oracle(mirror)));
    bool persisted = false;
    out_["mcf.persist_snapshot_ms"] =
        time_ms("mcf.persist_snapshot", [&] { persisted = engine->persist_snapshot(); });
    if (!persisted) note("persist_snapshot failed");
    engine.reset();
    out_["mcf.recovery_ms"] =
        time_ms("mcf.engine_construct", [&] { engine = std::make_unique<Engine>(cfg); });
    if (engine->num_instances() != 1) note("recovery lost the registered instance");
    engine.reset();
    std::filesystem::remove_all(dir);
  }

  void run_baselines() {
    const double ssp = median_ms("baselines.ssp_min_cost_max_flow", 20, [&] {
      const auto r = baselines::ssp_min_cost_max_flow(p_.g, 0, p_.sink());
      if (r.flow != p_.oracle.flow || r.cost != p_.oracle.cost) note("ssp disagrees with itself");
    });
    const double cs = median_ms("baselines.cost_scaling_max_flow", 20, [&] {
      const auto r = baselines::cost_scaling_max_flow(p_.g, 0, p_.sink());
      if (r.flow_value != p_.oracle.flow || r.cost != p_.oracle.cost)
        note("cost scaling disagrees with ssp");
    });
    out_["baselines.ssp_ms"] = ssp;
    out_["baselines.cost_scaling_ms"] = cs;
    out_["baselines.ipm_over_ssp"] = engine_ms_ / ssp;
  }

  const ProbeInput& in_;
  const Problem& p_;
  MetricMap& out_;
  par::ThreadPool pool_;
  par::Rng rng_;
  std::string defect_;
  AugmentedLp aug_;
  mcf::MinCostFlowResult solution_;  ///< the probe instance's checked optimum
  double engine_ms_ = 0.0;           ///< default Engine::solve of the probe instance
  double wall1_ms_ = 0.0;            ///< direct 1-thread wall-clock solve of it
};

}  // namespace

std::string run_layer_probes(const ProbeInput& in, MetricMap& out) {
  return Probes(in, out).run();
}

}  // namespace perfbench
