// Experiment B.1 — HeavyHitter query work: Õ(||GAh||² ε^{-2} + n log W)
// instead of O(m). The scan counter should track the number of heavy rows
// plus Õ(n), staying flat as m grows with fixed signal.

#include <benchmark/benchmark.h>

#include <cmath>

#include "bench_common.hpp"
#include "core/solver_context.hpp"
#include "ds/heavy_hitter.hpp"
#include "graph/generators.hpp"
#include "parallel/rng.hpp"

namespace {

using namespace pmcf;

void BM_HeavyQuery(benchmark::State& state) {
  const auto n = static_cast<graph::Vertex>(state.range(0));
  const auto density = static_cast<std::int64_t>(state.range(1));
  par::Rng rng(23);
  const auto g = graph::random_flow_network(n, density * n, 4, 4, rng);
  linalg::Vec w(static_cast<std::size_t>(g.num_arcs()));
  for (auto& x : w) x = 0.5 + rng.next_double();
  ds::HeavyHitter hh(pmcf::core::default_context(), g, w);
  // Localized potential: a few heavy rows regardless of m.
  linalg::Vec h(static_cast<std::size_t>(n), 0.0);
  h[1] = 3.0;
  h[2] = -3.0;

  std::size_t found = 0;
  std::uint64_t scans = 0;
  bench::run_instrumented(state, [&] {
    const auto res = hh.heavy_query(h, 2.0);
    found = res.size();
    scans = hh.last_query_scans();
    benchmark::DoNotOptimize(res.data());
  });
  state.counters["heavy_found"] = static_cast<double>(found);
  state.counters["scans"] = static_cast<double>(scans);
  state.counters["m"] = static_cast<double>(g.num_arcs());
}
BENCHMARK(BM_HeavyQuery)
    ->Args({100, 6})
    ->Args({200, 6})
    ->Args({400, 6})
    ->Args({200, 12})
    ->Args({200, 24})
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

void BM_Scale(benchmark::State& state) {
  const auto n = static_cast<graph::Vertex>(state.range(0));
  par::Rng rng(29);
  const auto g = graph::random_flow_network(n, 8 * n, 4, 4, rng);
  linalg::Vec w(static_cast<std::size_t>(g.num_arcs()), 1.0);
  ds::HeavyHitter hh(pmcf::core::default_context(), g, w);
  bench::run_instrumented(state, [&] {
    // Scale 16 random rows by 2^(±(3 + 3U)). A row of class e weighs
    // [2^(e-1), 2^(e+2)), so each such factor leaves the class's ±1 window
    // and the row moves to another class's decomposition.
    std::vector<std::size_t> idx;
    linalg::Vec vals;
    for (std::size_t k = 0; k < 16; ++k) {
      const std::size_t i = rng.next_below(static_cast<std::uint64_t>(g.num_arcs()));
      const double octaves = 3.0 + 3.0 * rng.next_double();
      w[i] *= std::exp2(rng.next_double() < 0.5 ? -octaves : octaves);
      idx.push_back(i);
      vals.push_back(w[i]);
    }
    hh.scale(idx, vals);
  });
  state.counters["m"] = static_cast<double>(g.num_arcs());
  state.counters["class_moves"] =
      static_cast<double>(hh.class_moves()) / static_cast<double>(state.iterations());
}
BENCHMARK(BM_Scale)->Arg(100)->Arg(200)->Arg(400)->Unit(benchmark::kMillisecond)->Iterations(1);

}  // namespace

BENCHMARK_MAIN();
