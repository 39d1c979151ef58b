// Perf-trajectory driver: wall-clock scaling of the real runtime.
//
// Unlike the google-benchmark binaries (which report PRAM counters under the
// instrumented tracker), this driver measures the *actual* shared-memory
// runtime: every workload is first run once in instrumented mode to capture
// the model-level work/depth, then timed with the tracker disabled across a
// sweep of thread-pool sizes. The output is a single JSON document
// (schema "pmcf-perf-trajectory-v1", checked in as BENCH_pr<N>.json per PR)
// so perf trajectories can be diffed across PRs.
//
// Usage:
//   perf_trajectory [--out=FILE] [--threads=1,2,8] [--scale=tiny|full]
//                   [--reps=N]
//
// `--scale=tiny` shrinks every instance so the whole sweep finishes in a few
// seconds; CI uses it as a smoke test. Reported wall times are the minimum
// over `reps` runs (after one warmup) — minimum, not mean, because scheduler
// noise is strictly additive.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <functional>
#include <iostream>
#include <numeric>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "expander/unit_flow.hpp"
#include "core/solver_context.hpp"
#include "graph/generators.hpp"
#include "mcf/engine.hpp"
#include "linalg/accel_cache.hpp"
#include "linalg/incidence.hpp"
#include "linalg/laplacian.hpp"
#include "linalg/preconditioner.hpp"
#include "linalg/sdd_solver.hpp"
#include "core/deadline.hpp"
#include "mcf/certify.hpp"
#include "mcf/min_cost_flow.hpp"
#include "mcf/reachability.hpp"
#include "parallel/rng.hpp"
#include "parallel/scheduler.hpp"
#include "parallel/thread_pool.hpp"
#include "parallel/work_depth.hpp"
#include "soak_harness.hpp"

namespace {

using namespace pmcf;
using Clock = std::chrono::steady_clock;

struct Options {
  std::string out = "BENCH_pr9.json";
  std::vector<int> threads = {1, 2, 8};
  bool tiny = false;
  int reps = 5;
  bool list = false;
};

struct ThreadPoint {
  int threads = 1;
  double wall_ms = 0.0;
  double speedup = 1.0;
};

struct WorkloadReport {
  std::string name;
  std::string kind;  // "table1" | "component" | "serving" | "soak"
  std::uint64_t work = 0;
  std::uint64_t depth = 0;
  std::vector<ThreadPoint> points;
  /// Pre-rendered JSON object with workload-specific metrics (soak reports:
  /// latency percentiles, shed rate, per-priority goodput). Empty = absent.
  std::string extras_json;
};

/// A workload is (setup-once state captured in the closure) + a body that can
/// be run repeatedly. Bodies must be deterministic and self-contained. A
/// workload with `standalone` set manages its own threads and timing (the
/// soak harness drives client threads against a shared Engine); it is run
/// once instead of going through the instrumented pass + thread sweep.
struct Workload {
  std::string name;
  std::string kind;
  std::function<void()> body;
  std::function<WorkloadReport()> standalone;
};

double time_once_ms(const std::function<void()>& body) {
  const auto t0 = Clock::now();
  body();
  const auto t1 = Clock::now();
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

WorkloadReport measure(const Workload& w, const Options& opt) {
  WorkloadReport rep;
  rep.name = w.name;
  rep.kind = w.kind;

  // Instrumented pass: single-threaded, deterministic PRAM counters.
  par::ThreadPool::configure(1);
  par::Tracker::instance().set_enabled(true);
  par::Tracker::instance().reset();
  w.body();
  const par::Cost c = par::snapshot();
  rep.work = c.work;
  rep.depth = c.depth;

  // Wall-clock sweep: tracker off, pool per thread count.
  par::Tracker::instance().set_enabled(false);
  for (const int t : opt.threads) {
    par::ThreadPool::configure(static_cast<std::size_t>(t));
    w.body();  // warmup (first-touch, pool spin-up)
    double best = 1e300;
    for (int r = 0; r < opt.reps; ++r) best = std::min(best, time_once_ms(w.body));
    rep.points.push_back({t, best, 1.0});
  }
  par::ThreadPool::configure(1);
  par::Tracker::instance().set_enabled(true);

  const double base = rep.points.empty() ? 0.0 : rep.points.front().wall_ms;
  for (auto& p : rep.points) p.speedup = p.wall_ms > 0.0 ? base / p.wall_ms : 0.0;
  return rep;
}

// ---------------------------------------------------------------------------
// Workload definitions. Sizes mirror the largest google-benchmark Args so the
// JSON rows line up with the EXPERIMENTS.md tables.

Workload make_sdd_solver(bool tiny) {
  const auto n = static_cast<graph::Vertex>(tiny ? 64 : 512);
  const std::int64_t m = static_cast<std::int64_t>(n) * 8;
  par::Rng rng(12345);
  auto g = std::make_shared<graph::Digraph>(graph::random_flow_network(n, m, 100, 100, rng));
  const linalg::IncidenceOp a(*g);
  auto d = std::make_shared<linalg::Vec>(a.rows());
  for (auto& x : *d) x = 0.5 + rng.next_double();
  auto b = std::make_shared<linalg::Vec>(a.cols());
  for (auto& x : *b) x = rng.next_double() - 0.5;
  (*b)[static_cast<std::size_t>(a.dropped())] = 0.0;
  const auto dropped = a.dropped();
  return {"sdd_solver_cg", "component", [g, d, b, dropped] {
            const linalg::Csr lap = linalg::reduced_laplacian(*g, *d, dropped);
            const auto res = linalg::solve_sdd(pmcf::core::default_context(), lap, *b, {.tolerance = 1e-8, .max_iters = 2000});
            if (res.x.empty()) std::abort();
          }};
}

Workload make_unit_flow(bool tiny) {
  const auto n = static_cast<graph::Vertex>(tiny ? 500 : 8000);
  par::Rng rng(17);
  auto g = std::make_shared<graph::UndirectedGraph>(graph::random_regular_expander(n, 4, rng));
  auto p = std::make_shared<expander::UnitFlowProblem>();
  p->g = g.get();
  p->cap.assign(g->edge_slots(), 8);
  p->source.assign(static_cast<std::size_t>(n), 0);
  p->sink.assign(static_cast<std::size_t>(n), 0);
  for (std::size_t k = 0; k < 2; ++k)
    p->source[rng.next_below(static_cast<std::uint64_t>(n))] += 6 * 8;
  for (graph::Vertex v = 0; v < n; ++v) p->sink[static_cast<std::size_t>(v)] = g->degree(v) / 2;
  p->height = 24;
  return {"unit_flow", "component", [g, p] {
            const auto r = expander::parallel_unit_flow(*p);
            if (r.flow.empty()) std::abort();
          }};
}

Workload make_table1_mincostflow(bool tiny) {
  const auto n = static_cast<graph::Vertex>(tiny ? 12 : 32);
  par::Rng rng(42);
  auto g = std::make_shared<graph::Digraph>(graph::random_flow_network(n, 8 * n, 6, 6, rng));
  return {"table1_mincostflow_reference_ipm", "table1", [g, n] {
            mcf::SolveOptions opts;
            opts.ipm.mu_end = 1e-3;
            opts.ipm.leverage.sketch_dim = 8;
            const auto res = mcf::min_cost_max_flow(*g, 0, n - 1, opts);
            (void)res.cost;
          }};
}

Workload make_table1_reachability(bool tiny) {
  const auto layers = static_cast<graph::Vertex>(tiny ? 8 : 16);
  par::Rng rng(7);
  auto g = std::make_shared<graph::Digraph>(graph::layered_digraph(layers, 4, 0.3, rng));
  return {"table1_reachability_flow", "table1", [g] {
            mcf::SolveOptions opts;
            opts.ipm.mu_end = 1e-3;
            opts.ipm.leverage.sketch_dim = 8;
            const auto res = mcf::reachability(*g, 0, opts);
            (void)res.reachable;
          }};
}

Workload make_reduce(bool tiny) {
  const std::size_t n = tiny ? (1u << 14) : (1u << 22);
  auto v = std::make_shared<std::vector<double>>(n);
  par::Rng rng(3);
  for (auto& x : *v) x = rng.next_double();
  return {"parallel_reduce", "component", [v, n] {
            double acc = 0.0;
            for (int rep = 0; rep < 8; ++rep)
              acc += par::parallel_reduce<double>(
                  0, n, 0.0, [&](std::size_t i) { return (*v)[i]; },
                  [](double a, double b) { return a + b; });
            if (acc < 0.0) std::abort();
          }};
}

Workload make_sort(bool tiny) {
  const std::size_t n = tiny ? (1u << 14) : (1u << 21);
  auto v = std::make_shared<std::vector<std::uint64_t>>(n);
  par::Rng rng(11);
  for (auto& x : *v) x = rng.next_below(~0ull);
  return {"parallel_sort", "component", [v] {
            std::vector<std::uint64_t> copy = *v;
            par::parallel_sort(copy.begin(), copy.end());
            if (!std::is_sorted(copy.begin(), copy.end())) std::abort();
          }};
}

Workload make_spmv(bool tiny) {
  const auto n = static_cast<graph::Vertex>(tiny ? 128 : 2048);
  const std::int64_t m = static_cast<std::int64_t>(n) * 16;
  par::Rng rng(23);
  auto g = std::make_shared<graph::Digraph>(graph::random_flow_network(n, m, 100, 100, rng));
  const linalg::IncidenceOp a(*g);
  linalg::Vec d(a.rows());
  for (auto& x : d) x = 0.5 + rng.next_double();
  auto lap = std::make_shared<linalg::Csr>(linalg::reduced_laplacian(*g, d, a.dropped()));
  auto x = std::make_shared<linalg::Vec>(a.cols());
  for (auto& xi : *x) xi = rng.next_double() - 0.5;
  return {"csr_spmv", "component", [lap, x] {
            linalg::Vec y(x->size());
            for (int rep = 0; rep < 64; ++rep) lap->apply_into(rep % 2 ? y : *x, rep % 2 ? *x : y);
          }};
}

Workload make_kernel_spmv(bool tiny) {
  // The raw SpMV kernel through Csr::apply_into (DESIGN.md §13): in the
  // serial wall configuration and under the tracker it is the CSR row walk
  // on the calling thread, with or without the AVX2 kernels.
  // Values are rewritten through vals_mut() between reps, as inside an IPM.
  const auto n = static_cast<graph::Vertex>(tiny ? 128 : 1536);
  const std::int64_t m = static_cast<std::int64_t>(n) * 24;
  par::Rng rng(29);
  auto g = std::make_shared<graph::Digraph>(graph::random_flow_network(n, m, 100, 100, rng));
  const linalg::IncidenceOp a(*g);
  linalg::Vec d(a.rows());
  for (auto& x : d) x = 0.5 + rng.next_double();
  auto lap = std::make_shared<linalg::Csr>(linalg::reduced_laplacian(*g, d, a.dropped()));
  auto x = std::make_shared<linalg::Vec>(a.cols());
  for (auto& xi : *x) xi = rng.next_double() - 0.5;
  return {"kernel_spmv", "component", [lap, x] {
            linalg::Vec y(x->size());
            for (int chunk = 0; chunk < 4; ++chunk) {
              for (auto& v : lap->vals_mut()) v *= chunk % 2 ? 0.5 : 2.0;
              for (int rep = 0; rep < 24; ++rep)
                lap->apply_into(rep % 2 ? y : *x, rep % 2 ? *x : y);
            }
          }};
}

Workload make_kernel_fused_cg(bool tiny) {
  // One CG iteration's kernels in isolation, in the k = 1 sequence and with
  // the charges of the CG loop (sdd_solver.cpp): SpMV, p.Mp, the fused x/r
  // step with r.r, the Jacobi refresh with r.z, and the direction update,
  // minus convergence control. The update is p += beta z, so the 200
  // iterations never converge into 0/0. Isolating the kernels makes
  // kernel-layer regressions visible without the solver iteration count in
  // the way.
  const auto n = static_cast<graph::Vertex>(tiny ? 128 : 1024);
  const std::int64_t m = static_cast<std::int64_t>(n) * 16;
  par::Rng rng(31);
  auto g = std::make_shared<graph::Digraph>(graph::random_flow_network(n, m, 100, 100, rng));
  const linalg::IncidenceOp a(*g);
  linalg::Vec d(a.rows());
  for (auto& x : d) x = 0.5 + rng.next_double();
  auto lap = std::make_shared<linalg::Csr>(linalg::reduced_laplacian(*g, d, a.dropped()));
  auto precond = std::make_shared<linalg::SddPreconditioner>();
  precond->build(*lap, linalg::PrecondKind::kJacobi);
  auto b = std::make_shared<linalg::Vec>(lap->dim());
  for (auto& x : *b) x = rng.next_double() - 0.5;
  return {"kernel_fused_cg", "component", [lap, precond, b] {
            namespace simd = linalg::simd;
            const std::size_t n2 = lap->dim();
            const unsigned char on = 1;
            const double one = 1.0;
            linalg::Vec x(n2, 0.0), r = *b, z(n2), p(n2), mp(n2), fwd;
            double rz = 0.0;
            precond->apply_cols(r, z, 1, &on, fwd, &rz);
            p = z;
            for (int it = 0; it < 200; ++it) {
              lap->apply_into(p, mp);
              const double alpha = rz / linalg::dot(p, mp);
              double rr = 0.0;
              linalg::charge_passes(n2, 2, 1);
              simd::cg_step_cols(x.data(), r.data(), p.data(), mp.data(), &alpha, &on, n2, 1, &rr);
              if (rr < 0.0) std::abort();
              double rz_new = 0.0;
              precond->apply_cols(r, z, 1, &on, fwd, &rz_new);
              linalg::charge_passes(n2, 1, 0);
              simd::axpby_cols(p.data(), rz_new / rz, z.data(), &one, &on, n2, 1);
              rz = rz_new;
            }
            if (!(linalg::dot(x, x) >= 0.0)) std::abort();
          }};
}

Workload make_sdd_multi_rhs(bool tiny) {
  // The blocked multi-RHS CG path (DESIGN.md §10): k right-hand sides against
  // one Laplacian share a single nnz-balanced SpMV per iteration instead of k
  // serial solves — the shape of the leverage-score sketch and the robust
  // step's dy/q pair.
  const auto n = static_cast<graph::Vertex>(tiny ? 64 : 512);
  const std::int64_t m = static_cast<std::int64_t>(n) * 8;
  const std::size_t k = tiny ? 8 : 32;
  par::Rng rng(606);
  auto g = std::make_shared<graph::Digraph>(graph::random_flow_network(n, m, 100, 100, rng));
  const linalg::IncidenceOp a(*g);
  linalg::Vec d(a.rows());
  for (auto& x : d) x = 0.5 + rng.next_double();
  auto lap = std::make_shared<linalg::Csr>(linalg::reduced_laplacian(*g, d, a.dropped()));
  auto precond = std::make_shared<linalg::SddPreconditioner>();
  precond->build(*lap, linalg::PrecondKind::kIncompleteCholesky);
  auto rhs = std::make_shared<std::vector<linalg::Vec>>(k, linalg::Vec(a.cols()));
  for (auto& b : *rhs) {
    for (auto& x : b) x = rng.next_double() - 0.5;
    b[static_cast<std::size_t>(a.dropped())] = 0.0;
  }
  return {"sdd_multi_rhs", "component", [lap, precond, rhs] {
            const auto sols =
                linalg::solve_sdd_multi(pmcf::core::default_context(), *lap, *rhs, *precond,
                                        {.tolerance = 1e-8, .max_iters = 2000});
            for (const auto& s : sols)
              if (!s.converged) std::abort();
          }};
}

Workload make_precond_reuse(bool tiny) {
  // The preconditioner/Laplacian lifecycle across IPM-style iterations:
  // weights drift 5% per step, the Laplacian is value-refreshed in place,
  // the incomplete-Cholesky factor is reused until drift crosses the
  // staleness threshold, and each solve warm-starts from the previous
  // iterate — the per-iteration pattern of the Newton loop.
  const auto n = static_cast<graph::Vertex>(tiny ? 64 : 384);
  const std::int64_t m = static_cast<std::int64_t>(n) * 8;
  const int steps = tiny ? 6 : 16;
  par::Rng rng(707);
  auto g = std::make_shared<graph::Digraph>(graph::random_flow_network(n, m, 100, 100, rng));
  const linalg::IncidenceOp a(*g);
  auto d0 = std::make_shared<linalg::Vec>(a.rows());
  for (auto& x : *d0) x = 0.5 + rng.next_double();
  auto b = std::make_shared<linalg::Vec>(a.cols());
  for (auto& x : *b) x = rng.next_double() - 0.5;
  (*b)[static_cast<std::size_t>(a.dropped())] = 0.0;
  const auto dropped = a.dropped();
  return {"precond_reuse", "component", [g, d0, b, dropped, steps] {
            auto& ctx = pmcf::core::default_context();
            linalg::AccelCache& cache = linalg::accel_cache(ctx);
            linalg::Vec w = *d0;
            for (int step = 0; step < steps; ++step) {
              for (auto& x : w) x *= 1.05;
              const linalg::Csr& lap = cache.laplacian(ctx, *g, w, dropped);
              const linalg::SddPreconditioner& pc =
                  cache.preconditioner(ctx, linalg::AccelSite::kNewton, lap, w);
              linalg::Vec& warm = cache.warm_start(linalg::AccelSite::kNewton, 0, lap.dim());
              const auto res = linalg::solve_sdd(ctx, lap, *b, pc,
                                                 {.tolerance = 1e-8, .max_iters = 2000}, &warm);
              if (!res.converged) std::abort();
              warm = res.x;
            }
          }};
}

Workload make_ipm_iterations(bool tiny) {
  // IPM-iteration-dominated end-to-end solve: bigger than the table1 row so
  // the per-iteration costs (Laplacian refresh, cached preconditioner,
  // batched leverage sketch, warm-started Newton) dominate setup/rounding.
  const auto n = static_cast<graph::Vertex>(tiny ? 14 : 48);
  par::Rng rng(53);
  auto g = std::make_shared<graph::Digraph>(graph::random_flow_network(n, 8 * n, 6, 6, rng));
  return {"ipm_iterations", "table1", [g, n] {
            mcf::SolveOptions opts;
            opts.ipm.mu_end = 1e-3;
            opts.ipm.leverage.sketch_dim = 12;
            const auto res = mcf::min_cost_max_flow(*g, 0, n - 1, opts);
            if (res.status != SolveStatus::kOk) std::abort();
          }};
}

Workload make_engine_batch(bool tiny) {
  // Serving scenario: many independent small instances fanned across the
  // pool via Engine::solve_batch, one solve per task. Each solve runs under
  // its own instrumented SolverContext (single-threaded inside), so scaling
  // comes purely from solving instances concurrently — the throughput shape
  // a batch-serving deployment sees.
  const std::size_t batch_size = tiny ? 8 : 24;
  const auto n = static_cast<graph::Vertex>(tiny ? 10 : 14);
  auto graphs = std::make_shared<std::deque<graph::Digraph>>();
  for (std::size_t i = 0; i < batch_size; ++i) {
    par::Rng rng(9000 + 31 * i);
    graphs->push_back(graph::random_flow_network(n, 4 * n, 6, 6, rng));
  }
  auto batch = std::make_shared<std::vector<Instance>>();
  for (const auto& g : *graphs)
    batch->push_back(Instance::max_flow(g, 0, g.num_vertices() - 1));
  return {"engine_solve_batch", "serving", [graphs, batch] {
            const Engine engine({.seed = 4242});
            mcf::SolveOptions opts;
            opts.ipm.mu_end = 1e-3;
            opts.ipm.leverage.sketch_dim = 8;
            const auto results = engine.solve_batch(*batch, opts);
            // A batch of independent solves is PRAM work = sum, depth = max;
            // aggregate the per-solve trackers into the ambient one so the
            // instrumented pass reports the batch-level counters.
            std::uint64_t work = 0;
            std::uint64_t depth = 0;
            for (const auto& r : results) {
              if (r.result.status != SolveStatus::kOk) std::abort();
              work += r.pram.work;
              depth = std::max(depth, r.pram.depth);
            }
            par::charge(work, depth);
          }};
}

Workload make_engine_deadline_shed(bool tiny) {
  // Serving under pressure (DESIGN.md §11): a batch where half the items
  // carry already-expired deadlines and admission control only has slots for
  // half of the rest. The measured path is the full lifecycle machinery —
  // armed polls inside the admitted solves, typed deadline shedding at
  // admission, and kLoadShed back-pressure — which must stay cheap relative
  // to the solves themselves.
  const std::size_t batch_size = tiny ? 8 : 24;
  const auto n = static_cast<graph::Vertex>(tiny ? 10 : 14);
  auto graphs = std::make_shared<std::deque<graph::Digraph>>();
  for (std::size_t i = 0; i < batch_size; ++i) {
    par::Rng rng(9500 + 31 * i);
    graphs->push_back(graph::random_flow_network(n, 4 * n, 6, 6, rng));
  }
  auto batch = std::make_shared<std::vector<Instance>>();
  for (std::size_t i = 0; i < batch_size; ++i) {
    Instance inst = Instance::max_flow((*graphs)[i], 0, (*graphs)[i].num_vertices() - 1);
    // Odd items expired before the batch was even submitted; even items get a
    // generous (but armed) budget so every poll site pays the live-check cost.
    inst.deadline = i % 2 == 1
                        ? core::Deadline::at(core::Deadline::Clock::now() - std::chrono::seconds(1))
                        : core::Deadline::in(std::chrono::hours(1));
    batch->push_back(inst);
  }
  const std::size_t slots = batch_size / 2 + batch_size / 4;  // sheds the tail
  return {"engine_deadline_shed", "serving", [graphs, batch, batch_size, slots] {
            const Engine engine({.seed = 4243, .max_in_flight = slots});
            mcf::SolveOptions opts;
            opts.ipm.mu_end = 1e-3;
            opts.ipm.leverage.sketch_dim = 8;
            const auto results = engine.solve_batch(*batch, opts);
            std::uint64_t work = 0;
            std::uint64_t depth = 0;
            for (std::size_t i = 0; i < results.size(); ++i) {
              const SolveStatus st = results[i].result.status;
              const SolveStatus want = i >= slots            ? SolveStatus::kLoadShed
                                       : i % 2 == 1          ? SolveStatus::kDeadlineExceeded
                                                             : SolveStatus::kOk;
              if (st != want) std::abort();
              work += results[i].pram.work;
              depth = std::max(depth, results[i].pram.depth);
            }
            par::charge(work, depth);
          }};
}

WorkloadReport run_soak_report(const std::string& name, const soak::SoakConfig& cfg) {
  par::Tracker::instance().set_enabled(false);
  const auto t0 = Clock::now();
  const soak::SoakReport rep = soak::run_soak(cfg);
  const auto t1 = Clock::now();
  par::ThreadPool::configure(1);
  par::Tracker::instance().set_enabled(true);
  WorkloadReport out;
  out.name = name;
  out.kind = "soak";
  out.points.push_back(
      {static_cast<int>(cfg.workers),
       std::chrono::duration<double, std::milli>(t1 - t0).count(), 1.0});
  out.extras_json = rep.to_json(6);
  return out;
}

soak::SoakConfig soak_base_config(bool tiny) {
  soak::SoakConfig cfg;
  // Full scale satisfies the acceptance floor of >= 1e5 requests; tiny keeps
  // the CI smoke run to a couple of seconds. Both run at sustained 2x
  // overload: half of what is offered must shed (typed kLoadShed) or expire,
  // while priority-0 goodput stays high (eviction + priority-first dispatch).
  cfg.requests = tiny ? 2000 : 100000;
  // Engine/client/instance shape: SoakConfig defaults — the acceptance-gate
  // shape (1 slot, queue 12, 16 workers, 2x overload, 16-28 node instances).
  return cfg;
}

Workload make_engine_soak_poisson(bool tiny) {
  Workload w;
  w.name = "engine_soak_poisson";
  w.kind = "soak";
  w.standalone = [tiny] {
    soak::SoakConfig cfg = soak_base_config(tiny);
    cfg.arrivals = soak::ArrivalProcess::kPoisson;
    cfg.seed = 0x50a40001ULL;
    return run_soak_report("engine_soak_poisson", cfg);
  };
  return w;
}

Workload make_engine_soak_burst(bool tiny) {
  Workload w;
  w.name = "engine_soak_burst";
  w.kind = "soak";
  w.standalone = [tiny] {
    soak::SoakConfig cfg = soak_base_config(tiny);
    cfg.arrivals = soak::ArrivalProcess::kBurst;
    cfg.seed = 0x50a40002ULL;
    cfg.burst_factor = 8.0;
    return run_soak_report("engine_soak_burst", cfg);
  };
  return w;
}

Workload make_certify_overhead(bool tiny) {
  // The independent certification pass (exact __int128 feasibility + cost +
  // Bellman-Ford optimality + BFS maximality) on the Table-1 MCF row's
  // instance and solution. Compare this row's wall time against
  // table1_mincostflow_reference_ipm to get the certification overhead as a
  // fraction of the end-to-end solve — the acceptance bound is < 5%.
  const auto n = static_cast<graph::Vertex>(tiny ? 12 : 32);
  par::Rng rng(42);  // same instance as make_table1_mincostflow
  auto g = std::make_shared<graph::Digraph>(graph::random_flow_network(n, 8 * n, 6, 6, rng));
  mcf::SolveOptions opts;
  opts.ipm.mu_end = 1e-3;
  opts.ipm.leverage.sketch_dim = 8;
  auto sol = std::make_shared<mcf::MinCostFlowResult>(mcf::min_cost_max_flow(*g, 0, n - 1, opts));
  if (sol->status != SolveStatus::kOk) std::abort();
  return {"certify_overhead", "table1", [g, n, sol] {
            const auto report =
                mcf::certify_max_flow(*g, 0, n - 1, sol->arc_flow, sol->flow_value, sol->cost);
            if (!report.certified) std::abort();
            // Model-level cost of the certificate: Bellman-Ford dominates at
            // O(n·m) work; the passes over arcs/vertices are Θ(m + n).
            const auto nn = static_cast<std::uint64_t>(g->num_vertices());
            const auto mm = static_cast<std::uint64_t>(g->num_arcs());
            par::charge(nn * mm + mm + nn, nn);
          }};
}

Workload make_incremental_resolve(bool tiny) {
  // The cross-solve instance cache (DESIGN.md §15) doing its headline job:
  // after one priming solve, every round perturbs ~1% of the arc costs by ±1
  // and re-solves warm through Engine::resolve, which restarts the central
  // path from the retained point at the mu where the previous solve stopped
  // (the solver state, preconditioners included, is built afresh per solve).
  // Each round also solves the identical post-delta instance cold on a
  // separate engine; the report's extras carry the measured cold/warm wall
  // times, the warm speedup (acceptance gate: >= 3x at full scale, >= 1x in
  // the CI tiny smoke), and the engine's cache hit rate. Costs must agree
  // exactly every round — both sides are independently certified.
  Workload w;
  w.name = "incremental_resolve";
  w.kind = "serving";
  w.standalone = [tiny] {
    const auto n = static_cast<graph::Vertex>(tiny ? 12 : 48);
    const std::int64_t m = 8 * static_cast<std::int64_t>(n);
    const int rounds = tiny ? 3 : 8;
    par::Rng graph_rng(0x1c5e);
    const graph::Digraph g0 = graph::random_flow_network(n, m, 6, 6, graph_rng);
    graph::Digraph mirror = g0;  // tracks the deltas for the cold reference

    mcf::SolveOptions opts;
    opts.ipm.mu_end = 1e-3;
    opts.ipm.leverage.sketch_dim = 8;

    // Wall-clock serial on both sides: the acceptance comparison is at one
    // thread, with the tracker off (measure() is bypassed for standalones).
    par::ThreadPool::configure(1);
    par::Tracker::instance().set_enabled(false);
    EngineConfig cfg;
    cfg.seed = 4244;
    cfg.instrument = false;
    cfg.use_global_pool = false;
    const Engine warm_engine(cfg);
    const Engine cold_engine(cfg);

    const InstanceHandle h =
        warm_engine.register_instance(Instance::max_flow(g0, 0, n - 1));
    if (h == 0) std::abort();
    if (warm_engine.resolve(h, {}, opts).result.status != SolveStatus::kOk) std::abort();

    par::Rng delta_rng(0x1c5f);
    const auto num_perturb =
        std::max<std::uint64_t>(1, static_cast<std::uint64_t>(m) / 100);
    double cold_ms = 0.0;
    double warm_ms = 0.0;
    const auto t_begin = Clock::now();
    for (int round = 0; round < rounds; ++round) {
      InstanceDelta delta;
      for (std::uint64_t k = 0; k < num_perturb; ++k) {
        const auto arc = static_cast<graph::EdgeId>(
            delta_rng.next_below(static_cast<std::uint64_t>(mirror.num_arcs())));
        const std::int64_t cost = std::max<std::int64_t>(
            0, mirror.arc(arc).cost + (delta_rng.next_below(2) == 0 ? -1 : 1));
        delta.cost_changes.push_back({arc, cost});
        mirror.set_cost(arc, cost);
      }
      EngineSolveResult warm;
      warm_ms += time_once_ms([&] { warm = warm_engine.resolve(h, delta, opts); });
      EngineSolveResult cold;
      cold_ms += time_once_ms(
          [&] { cold = cold_engine.solve(Instance::max_flow(mirror, 0, n - 1), opts); });
      if (warm.result.status != SolveStatus::kOk || cold.result.status != SolveStatus::kOk)
        std::abort();
      if (!warm.result.stats.certified || !warm.result.stats.warm_started) std::abort();
      if (warm.result.cost != cold.result.cost ||
          warm.result.flow_value != cold.result.flow_value)
        std::abort();
    }
    const auto t_end = Clock::now();
    par::ThreadPool::configure(1);
    par::Tracker::instance().set_enabled(true);

    const MetricsSnapshot snap = warm_engine.metrics_snapshot();
    const std::uint64_t hits = snap.of(EngineCounter::kInstanceCacheHits);
    const std::uint64_t misses = snap.of(EngineCounter::kInstanceCacheMisses);
    const double hit_rate =
        hits + misses == 0 ? 0.0
                           : static_cast<double>(hits) / static_cast<double>(hits + misses);
    WorkloadReport rep;
    rep.name = "incremental_resolve";
    rep.kind = "serving";
    rep.points.push_back(
        {1, std::chrono::duration<double, std::milli>(t_end - t_begin).count(), 1.0});
    char extras[256];
    std::snprintf(extras, sizeof(extras),
                  "{\"rounds\": %d, \"cold_ms\": %.4f, \"warm_ms\": %.4f, "
                  "\"warm_speedup\": %.3f, \"cache_hit_rate\": %.3f}",
                  rounds, cold_ms, warm_ms, warm_ms > 0.0 ? cold_ms / warm_ms : 0.0,
                  hit_rate);
    rep.extras_json = extras;
    return rep;
  };
  return w;
}

Workload make_instance_churn(bool tiny) {
  // A fleet of registered instances under churn against a bounded artifact
  // cache: every round perturbs each instance's costs and resolves it, and
  // every fifth resolve is a structural delta (arc addition) that bumps the
  // epoch and forces a cold re-solve. With capacity for only half the fleet,
  // the LRU evicts continuously — the workload measures the engine's
  // steady-state mix of replays, warm re-solves, cold solves, and evictions.
  const std::size_t fleet = tiny ? 4 : 8;
  const auto n = static_cast<graph::Vertex>(tiny ? 10 : 14);
  const int rounds = tiny ? 2 : 4;
  auto graphs = std::make_shared<std::deque<graph::Digraph>>();
  for (std::size_t i = 0; i < fleet; ++i) {
    par::Rng rng(9700 + 31 * i);
    graphs->push_back(graph::random_flow_network(n, 4 * n, 6, 6, rng));
  }
  return {"instance_churn", "serving", [graphs, fleet, rounds] {
            EngineConfig cfg;
            cfg.seed = 4245;
            cfg.instance_cache_capacity = fleet / 2;
            const Engine engine(cfg);
            mcf::SolveOptions opts;
            opts.ipm.mu_end = 1e-3;
            opts.ipm.leverage.sketch_dim = 8;

            std::vector<InstanceHandle> handles;
            for (const auto& g : *graphs) {
              handles.push_back(
                  engine.register_instance(Instance::max_flow(g, 0, g.num_vertices() - 1)));
              if (handles.back() == 0) std::abort();
            }
            std::uint64_t work = 0;
            std::uint64_t depth = 0;
            par::Rng rng(0xc4u);
            std::size_t tick = 0;
            for (int round = 0; round <= rounds; ++round) {
              for (std::size_t i = 0; i < fleet; ++i, ++tick) {
                InstanceDelta d;
                if (round > 0) {  // round 0 primes the cache with cold solves
                  const auto& g = (*graphs)[i];
                  if (tick % 5 == 4) {
                    const auto v = static_cast<graph::Vertex>(
                        rng.next_below(static_cast<std::uint64_t>(g.num_vertices())));
                    d.add_arcs.push_back({0, v == 0 ? g.num_vertices() - 1 : v, 3, 2});
                  } else {
                    for (int k = 0; k < 2; ++k) {
                      const auto arc = static_cast<graph::EdgeId>(
                          rng.next_below(static_cast<std::uint64_t>(g.num_arcs())));
                      d.cost_changes.push_back(
                          {arc, static_cast<std::int64_t>(rng.next_below(7))});
                    }
                  }
                }
                const EngineSolveResult r = engine.resolve(handles[i], d, opts);
                if (r.result.status != SolveStatus::kOk || !r.result.stats.certified)
                  std::abort();
                work += r.pram.work;
                depth += r.pram.depth;  // resolves run back to back (serial chain)
              }
            }
            par::charge(work, depth);
          }};
}

// ---------------------------------------------------------------------------

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

void write_json(const std::string& path, const Options& opt,
                const std::vector<WorkloadReport>& reports) {
  std::ostringstream os;
  os << "{\n";
  os << "  \"schema\": \"pmcf-perf-trajectory-v1\",\n";
  os << "  \"scale\": \"" << (opt.tiny ? "tiny" : "full") << "\",\n";
  os << "  \"reps\": " << opt.reps << ",\n";
  os << "  \"hardware_threads\": " << std::thread::hardware_concurrency() << ",\n";
  os << "  \"workloads\": [\n";
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const auto& r = reports[i];
    os << "    {\n";
    os << "      \"name\": \"" << json_escape(r.name) << "\",\n";
    os << "      \"kind\": \"" << json_escape(r.kind) << "\",\n";
    os << "      \"pram_work\": " << r.work << ",\n";
    os << "      \"pram_depth\": " << r.depth << ",\n";
    if (!r.extras_json.empty()) os << "      \"metrics\": " << r.extras_json << ",\n";
    os << "      \"runs\": [\n";
    for (std::size_t j = 0; j < r.points.size(); ++j) {
      const auto& p = r.points[j];
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "        {\"threads\": %d, \"wall_ms\": %.4f, \"speedup\": %.3f}%s\n",
                    p.threads, p.wall_ms, p.speedup, j + 1 < r.points.size() ? "," : "");
      os << buf;
    }
    os << "      ]\n";
    os << "    }" << (i + 1 < reports.size() ? "," : "") << "\n";
  }
  os << "  ]\n";
  os << "}\n";
  std::ofstream f(path);
  f << os.str();
}

[[noreturn]] void usage_error(const std::string& detail) {
  std::cerr << "perf_trajectory: " << detail << "\n"
            << "usage: perf_trajectory [--out=FILE] [--threads=1,2,8] "
               "[--scale=tiny|full] [--reps=N] [--list]\n";
  std::exit(2);
}

int parse_positive_int(const std::string& flag, const std::string& text) {
  try {
    std::size_t pos = 0;
    const int v = std::stoi(text, &pos);
    if (pos != text.size() || v < 1) throw std::invalid_argument(text);
    return v;
  } catch (const std::exception&) {
    usage_error(flag + " expects a positive integer, got '" + text + "'");
  }
}

Options parse(int argc, char** argv) {
  Options opt;
  bool reps_set = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--out=", 0) == 0) {
      opt.out = arg.substr(6);
    } else if (arg.rfind("--threads=", 0) == 0) {
      opt.threads.clear();
      std::istringstream ss(arg.substr(10));
      std::string tok;
      while (std::getline(ss, tok, ','))
        opt.threads.push_back(parse_positive_int("--threads", tok));
    } else if (arg == "--scale=tiny") {
      opt.tiny = true;
    } else if (arg == "--scale=full") {
      opt.tiny = false;
    } else if (arg.rfind("--reps=", 0) == 0) {
      opt.reps = parse_positive_int("--reps", arg.substr(7));
      reps_set = true;
    } else if (arg == "--list") {
      opt.list = true;
    } else {
      usage_error("unknown argument: " + arg);
    }
  }
  if (opt.tiny && !reps_set) opt.reps = 2;
  if (opt.threads.empty()) opt.threads = {1};
  // threads=1 must come first: it is the speedup baseline.
  std::sort(opt.threads.begin(), opt.threads.end());
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);

  std::vector<Workload> workloads;
  workloads.push_back(make_sdd_solver(opt.tiny));
  workloads.push_back(make_unit_flow(opt.tiny));
  workloads.push_back(make_table1_mincostflow(opt.tiny));
  workloads.push_back(make_table1_reachability(opt.tiny));
  workloads.push_back(make_reduce(opt.tiny));
  workloads.push_back(make_sort(opt.tiny));
  workloads.push_back(make_spmv(opt.tiny));
  workloads.push_back(make_kernel_spmv(opt.tiny));
  workloads.push_back(make_kernel_fused_cg(opt.tiny));
  workloads.push_back(make_sdd_multi_rhs(opt.tiny));
  workloads.push_back(make_precond_reuse(opt.tiny));
  workloads.push_back(make_ipm_iterations(opt.tiny));
  workloads.push_back(make_engine_batch(opt.tiny));
  workloads.push_back(make_engine_deadline_shed(opt.tiny));
  workloads.push_back(make_certify_overhead(opt.tiny));
  workloads.push_back(make_engine_soak_poisson(opt.tiny));
  workloads.push_back(make_engine_soak_burst(opt.tiny));
  workloads.push_back(make_incremental_resolve(opt.tiny));
  workloads.push_back(make_instance_churn(opt.tiny));

  if (opt.list) {
    // One name per line, then the count — CI asserts the count so a workload
    // silently dropping out of the registration list above fails the build.
    for (const auto& w : workloads) std::cout << w.name << "\n";
    std::cout << "workloads: " << workloads.size() << "\n";
    return 0;
  }

  std::vector<WorkloadReport> reports;
  for (const auto& w : workloads) {
    std::cerr << "[perf_trajectory] " << w.name << " ..." << std::flush;
    reports.push_back(w.standalone ? w.standalone() : measure(w, opt));
    const auto& r = reports.back();
    std::cerr << " work=" << r.work << " depth=" << r.depth;
    for (const auto& p : r.points)
      std::cerr << "  t" << p.threads << "=" << p.wall_ms << "ms(x" << p.speedup << ")";
    std::cerr << "\n";
  }
  write_json(opt.out, opt, reports);
  std::cerr << "[perf_trajectory] wrote " << opt.out << "\n";
  return 0;
}
