// Experiment T1-L — Table 1 (left): parallel min-cost flow.
//
// Paper rows reproduced (shape, not absolute constants):
//   [vdBLL+21]/this paper:  Õ(m + n^1.5) work;  this paper: Õ(√n) depth
//   [LS14]:                 Õ(m √n) work, Õ(√n) depth  (= our reference IPM)
//   combinatorial baseline: successive shortest path
//
// Each benchmark solves exact min-cost max-flow on dense random networks and
// reports the PRAM work/depth counters plus IPM iterations. Compare across
// the n sweep: the reference IPM's work grows ~ m√n while the robust IPM's
// per-iteration work stays ~ m/√n + n (robust_step_work counter).

#include <benchmark/benchmark.h>

#include "baselines/cost_scaling.hpp"
#include "baselines/ssp.hpp"
#include "bench_common.hpp"
#include "graph/generators.hpp"
#include "mcf/min_cost_flow.hpp"
#include "parallel/rng.hpp"

namespace {

using namespace pmcf;

graph::Digraph instance(graph::Vertex n, std::int64_t density, std::uint64_t seed) {
  par::Rng rng(seed);
  return graph::random_flow_network(n, density * n, 6, 6, rng);
}

void BM_ReferenceIpm(benchmark::State& state) {
  const auto n = static_cast<graph::Vertex>(state.range(0));
  const auto g = instance(n, 8, 42);
  std::int32_t iters = 0;
  bench::run_instrumented(state, [&] {
    mcf::SolveOptions opts;
    opts.ipm.mu_end = 1e-3;
    opts.ipm.leverage.sketch_dim = 8;
    const auto res = mcf::min_cost_max_flow(g, 0, n - 1, opts);
    iters = res.stats.ipm_iterations;
    benchmark::DoNotOptimize(res.cost);
  });
  state.counters["ipm_iters"] = iters;
  state.counters["m"] = static_cast<double>(g.num_arcs());
}
BENCHMARK(BM_ReferenceIpm)->Arg(16)->Arg(24)->Arg(32)->Arg(48)->Unit(benchmark::kMillisecond)->Iterations(1);

// The same solves at the default sketch width: up to 48 columns every τ
// refresh is the exact leverage oracle, not the 8-row sketch above.
void BM_ReferenceIpmDefaultWidth(benchmark::State& state) {
  const auto n = static_cast<graph::Vertex>(state.range(0));
  const auto g = instance(n, 8, 42);
  std::int32_t iters = 0;
  bench::run_instrumented(state, [&] {
    mcf::SolveOptions opts;
    opts.ipm.mu_end = 1e-3;
    const auto res = mcf::min_cost_max_flow(g, 0, n - 1, opts);
    iters = res.stats.ipm_iterations;
    benchmark::DoNotOptimize(res.cost);
  });
  state.counters["ipm_iters"] = iters;
  state.counters["m"] = static_cast<double>(g.num_arcs());
}
BENCHMARK(BM_ReferenceIpmDefaultWidth)->Arg(16)->Arg(24)->Unit(benchmark::kMillisecond)->Iterations(1);

void BM_RobustIpm(benchmark::State& state) {
  const auto n = static_cast<graph::Vertex>(state.range(0));
  const auto g = instance(n, 8, 42);
  std::int32_t iters = 0;
  double step_work = 0.0;
  bench::run_instrumented(state, [&] {
    mcf::SolveOptions opts;
    opts.method = mcf::Method::kRobustIpm;
    opts.ipm.mu_end = 1e-3;
    const auto res = mcf::min_cost_max_flow(g, 0, n - 1, opts);
    iters = res.stats.ipm_iterations;
    step_work = res.stats.robust_steps > 0
                    ? static_cast<double>(res.stats.robust_step_work) /
                          static_cast<double>(res.stats.robust_steps)
                    : 0.0;
    benchmark::DoNotOptimize(res.cost);
  });
  state.counters["ipm_iters"] = iters;
  state.counters["step_work"] = step_work;  // Õ(m/√n + n) per-step quantity
  state.counters["m"] = static_cast<double>(g.num_arcs());
}
BENCHMARK(BM_RobustIpm)->Arg(12)->Arg(16)->Unit(benchmark::kMillisecond)->Iterations(1);

void BM_SspBaseline(benchmark::State& state) {
  const auto n = static_cast<graph::Vertex>(state.range(0));
  const auto g = instance(n, 8, 42);
  bench::run_instrumented(state, [&] {
    const auto res = baselines::ssp_min_cost_max_flow(g, 0, n - 1);
    benchmark::DoNotOptimize(res.cost);
  });
  state.counters["m"] = static_cast<double>(g.num_arcs());
}
BENCHMARK(BM_SspBaseline)->Arg(16)->Arg(32)->Arg(64)->Arg(128)->Unit(benchmark::kMillisecond)->Iterations(1);

void BM_CostScalingBaseline(benchmark::State& state) {
  const auto n = static_cast<graph::Vertex>(state.range(0));
  const auto g = instance(n, 8, 42);
  std::int64_t phases = 0;
  bench::run_instrumented(state, [&] {
    const auto res = baselines::cost_scaling_max_flow(g, 0, n - 1);
    phases = res.refine_phases;
    benchmark::DoNotOptimize(res.cost);
  });
  state.counters["refine_phases"] = static_cast<double>(phases);
  state.counters["m"] = static_cast<double>(g.num_arcs());
}
BENCHMARK(BM_CostScalingBaseline)->Arg(16)->Arg(32)->Arg(64)->Arg(128)->Unit(benchmark::kMillisecond)->Iterations(1);

}  // namespace

BENCHMARK_MAIN();
