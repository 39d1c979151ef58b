// Experiment L3.7 — Trimming: work Õ(|E(A, V\A)|/φ^4), depth Õ(1/φ^3).
// Sweep the boundary size and φ; work should track boundary, not m.
// Trimming is the first delete_batch of a TrimmingEngine.

#include <benchmark/benchmark.h>

#include "bench_common.hpp"
#include "expander/trimming_engine.hpp"
#include "graph/generators.hpp"
#include "parallel/rng.hpp"

namespace {

using namespace pmcf;

void BM_Trimming(benchmark::State& state) {
  const auto n = static_cast<graph::Vertex>(state.range(0));
  const auto deletions = static_cast<int>(state.range(1));
  par::Rng rng(19);
  const auto g = graph::random_regular_expander(n, 4, rng);
  // Repeated draws stay in the batch; the engine skips edges no longer live.
  std::vector<graph::EdgeId> batch;
  const auto live = g.live_edges();
  for (int k = 0; k < deletions; ++k) batch.push_back(live[rng.next_below(live.size())]);
  std::int64_t removed_vol = 0;
  std::uint64_t scans = 0;
  bench::run_instrumented(state, [&] {
    expander::TrimmingEngine engine(g, {.phi = 0.1});
    engine.delete_batch(batch, nullptr);
    removed_vol = engine.removed_volume();
    scans = engine.edge_scans();
    benchmark::DoNotOptimize(engine.certificate_flow().data());
  });
  state.counters["removed_volume"] = static_cast<double>(removed_vol);
  state.counters["edge_scans"] = static_cast<double>(scans);
  state.counters["m"] = static_cast<double>(g.num_edges());
}
BENCHMARK(BM_Trimming)
    ->Args({200, 2})
    ->Args({200, 8})
    ->Args({200, 32})
    ->Args({800, 8})
    ->Args({3200, 8})
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

}  // namespace

BENCHMARK_MAIN();
