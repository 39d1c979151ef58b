// Experiment E.2 — HeavySampler: sample size and work Õ(m/√n + n log W)
// per draw; sweep m at fixed n and confirm the sample size grows like m/√n,
// far below m.

#include <benchmark/benchmark.h>

#include "bench_common.hpp"
#include "core/solver_context.hpp"
#include "ds/heavy_hitter.hpp"
#include "ds/heavy_sampler.hpp"
#include "graph/generators.hpp"
#include "parallel/rng.hpp"

namespace {

using namespace pmcf;

void BM_Sample(benchmark::State& state) {
  const auto n = static_cast<graph::Vertex>(state.range(0));
  const auto density = static_cast<std::int64_t>(state.range(1));
  par::Rng rng(43);
  const auto g = graph::random_flow_network(n, density * n, 4, 4, rng);
  const std::size_t m = static_cast<std::size_t>(g.num_arcs());
  linalg::Vec w(m, 1.0);
  linalg::Vec tau(m, static_cast<double>(n) / static_cast<double>(m));
  ds::HeavyHitter hh(pmcf::core::default_context(), g, w, {.seed = 24});
  ds::HeavySampler hs(hh, g, tau);
  linalg::Vec h(static_cast<std::size_t>(n));
  for (auto& x : h) x = rng.next_double() - 0.5;
  h[static_cast<std::size_t>(n - 1)] = 0.0;

  std::size_t total = 0;
  const int draws = 5;
  bench::run_instrumented(state, [&] {
    total = 0;
    for (int t = 0; t < draws; ++t) total += hs.sample(h).size();
  });
  state.counters["avg_sample_size"] = static_cast<double>(total) / draws;
  state.counters["m"] = static_cast<double>(m);
}
BENCHMARK(BM_Sample)
    ->Args({64, 8})
    ->Args({64, 16})
    ->Args({64, 32})
    ->Args({256, 8})
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

}  // namespace

BENCHMARK_MAIN();
