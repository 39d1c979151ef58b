// Experiment E.1 — dual maintenance: per-ADD work Õ(n log W + drift²/ε²),
// not O(m). Small steps touch few coordinates; the dyadic HeavyHitter
// queries account for the n log W term.

#include <benchmark/benchmark.h>

#include "bench_common.hpp"
#include "core/solver_context.hpp"
#include "ds/dual_maintenance.hpp"
#include "graph/generators.hpp"
#include "parallel/rng.hpp"

namespace {

using namespace pmcf;

void BM_DualAdds(benchmark::State& state) {
  const auto n = static_cast<graph::Vertex>(state.range(0));
  const auto density = static_cast<std::int64_t>(state.range(1));
  par::Rng rng(41);
  const auto g = graph::random_flow_network(n, density * n, 4, 4, rng);
  const std::size_t m = static_cast<std::size_t>(g.num_arcs());
  const linalg::IncidenceOp a(g);

  const int adds = 20;
  std::size_t total_changed = 0;
  bench::run_instrumented(state, [&] {
    ds::DualMaintenance dm(pmcf::core::default_context(), a, linalg::Vec(m, 0.0), linalg::Vec(m, 1.0), {.eps = 0.2});
    for (int t = 0; t < adds; ++t) {
      linalg::Vec h(static_cast<std::size_t>(n), 0.0);
      for (int k = 0; k < 3; ++k)
        h[rng.next_below(static_cast<std::uint64_t>(n - 1))] += 0.02 * (rng.next_double() - 0.5);
      const auto res = dm.add(h);
      total_changed += res.changed.size();
    }
  });
  state.counters["adds"] = adds;
  state.counters["changed_total"] = static_cast<double>(total_changed);
  state.counters["m"] = static_cast<double>(m);
}
BENCHMARK(BM_DualAdds)
    ->Args({50, 6})
    ->Args({100, 6})
    ->Args({200, 6})
    ->Args({100, 12})
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

}  // namespace

BENCHMARK_MAIN();
