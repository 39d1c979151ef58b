// Experiment C.1 — dynamic Lewis weights: amortized query cost Õ(n + m/√n).
// Sweep m at fixed n: total work over T queries divided by T should grow
// sublinearly in m (the periodic-rebuild amortization).

#include <benchmark/benchmark.h>

#include "bench_common.hpp"
#include "core/solver_context.hpp"
#include "ds/lewis_maintenance.hpp"
#include "graph/generators.hpp"
#include "linalg/incidence.hpp"
#include "parallel/rng.hpp"

namespace {

using namespace pmcf;

void BM_LewisMaintenance(benchmark::State& state) {
  const auto n = static_cast<graph::Vertex>(state.range(0));
  const auto density = static_cast<std::int64_t>(state.range(1));
  par::Rng rng(31);
  const auto g = graph::random_flow_network(n, density * n, 4, 4, rng);
  const linalg::IncidenceOp a(g);
  linalg::Vec w(a.rows());
  for (auto& x : w) x = 0.5 + rng.next_double();

  const int queries = 20;
  bench::run_instrumented(state, [&] {
    ds::LeverageMaintenanceOptions opts;
    opts.leverage.sketch_dim = 8;
    ds::LewisMaintenance lm(pmcf::core::default_context(), a, w, linalg::constant(a.rows(), static_cast<double>(n) / a.rows()),
                            opts);
    for (int t = 0; t < queries; ++t) {
      // Slow drift on a few entries, then query.
      std::vector<std::size_t> idx{static_cast<std::size_t>(rng.next_below(a.rows()))};
      w[idx[0]] *= 1.01;
      lm.scale(idx, {w[idx[0]]});
      const auto q = lm.query();
      benchmark::DoNotOptimize(q.approx);
    }
  });
  state.counters["queries"] = queries;
  state.counters["m"] = static_cast<double>(a.rows());
}
BENCHMARK(BM_LewisMaintenance)
    ->Args({50, 6})
    ->Args({100, 6})
    ->Args({200, 6})
    ->Args({100, 12})
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

}  // namespace

BENCHMARK_MAIN();
