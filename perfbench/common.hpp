#pragma once
// Shared pieces of the benchmark program: clock helpers, sample statistics,
// seeded instances with their SSP oracle answer, and the exact output check
// every answer must pass.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "graph/digraph.hpp"
#include "mcf/min_cost_flow.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double ms_since(Clock::time_point a) { return ms_between(a, Clock::now()); }
inline Clock::duration seconds_to_duration(double s) {
  return std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(s));
}

/// Quantile with linear interpolation between order statistics (q in [0,1]).
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}
inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }
inline double mean(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

/// A reported percentile needs at least ten samples beyond it.
inline bool percentile_reportable(std::size_t samples, double q) {
  return static_cast<double>(samples) * (1.0 - q) >= 10.0;
}

/// Generator parameters of one random_flow_network instance.
struct Shape {
  pmcf::graph::Vertex n = 0;
  std::int64_t m = 0;
  std::int64_t max_cap = 0;
  std::int64_t max_cost = 0;
};

/// The exact optimum every answer is compared against.
struct Oracle {
  std::int64_t flow = 0;
  std::int64_t cost = 0;
};

/// A max-flow instance (s = 0, t = n-1) with its SSP oracle answer.
struct Problem {
  pmcf::graph::Digraph g;
  Oracle oracle;

  [[nodiscard]] pmcf::graph::Vertex sink() const { return g.num_vertices() - 1; }
};

/// Seeded instance of `shape`; the same (seed, stream) always yields the same
/// graph. The oracle is left empty (see solve_oracle).
pmcf::graph::Digraph make_graph(const Shape& shape, std::uint64_t seed, std::uint64_t stream);

/// baselines::ssp_min_cost_max_flow from 0 to n-1.
Oracle solve_oracle(const pmcf::graph::Digraph& g);

/// "" when `res` is a certified kOk whose arc flow is a feasible s-t flow
/// (capacities, conservation) of exactly the claimed value and cost, and
/// both equal the oracle's; otherwise the first defect found. Feasibility
/// plus the oracle's optimal cost makes the flow an exact optimum.
std::string check_answer(const pmcf::graph::Digraph& g, const pmcf::mcf::MinCostFlowResult& res,
                         const Oracle& want);

}  // namespace perfbench
