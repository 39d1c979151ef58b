#include "common.hpp"

#include "baselines/ssp.hpp"
#include "graph/generators.hpp"
#include "parallel/rng.hpp"

namespace perfbench {

using namespace pmcf;

graph::Digraph make_graph(const Shape& shape, std::uint64_t seed, std::uint64_t stream) {
  par::Rng rng(seed * 0x9e3779b97f4a7c15ULL + stream);
  return graph::random_flow_network(shape.n, shape.m, shape.max_cap, shape.max_cost, rng);
}

Oracle solve_oracle(const graph::Digraph& g) {
  const auto r = baselines::ssp_min_cost_max_flow(g, 0, g.num_vertices() - 1);
  return {r.flow, r.cost};
}

std::string check_answer(const graph::Digraph& g, const mcf::MinCostFlowResult& res,
                         const Oracle& want) {
  if (res.status != SolveStatus::kOk)
    return std::string("status ") + to_string(res.status) + " (" + res.failure_detail + ")";
  if (!res.stats.certified) return "kOk result was not certified";
  if (res.flow_value != want.flow || res.cost != want.cost)
    return "flow/cost " + std::to_string(res.flow_value) + "/" + std::to_string(res.cost) +
           " != oracle " + std::to_string(want.flow) + "/" + std::to_string(want.cost);
  if (res.arc_flow.size() != static_cast<std::size_t>(g.num_arcs())) return "arc_flow size";
  const graph::Vertex s = 0;
  const graph::Vertex t = g.num_vertices() - 1;
  std::vector<__int128> net(static_cast<std::size_t>(g.num_vertices()), 0);
  __int128 cost = 0;
  for (graph::EdgeId e = 0; e < g.num_arcs(); ++e) {
    const auto& a = g.arc(e);
    const std::int64_t f = res.arc_flow[static_cast<std::size_t>(e)];
    if (f < 0 || f > a.cap) return "arc " + std::to_string(e) + " violates its capacity";
    net[static_cast<std::size_t>(a.to)] += f;
    net[static_cast<std::size_t>(a.from)] -= f;
    cost += static_cast<__int128>(f) * a.cost;
  }
  for (graph::Vertex v = 0; v < g.num_vertices(); ++v) {
    const __int128 want_net = v == s ? -static_cast<__int128>(res.flow_value)
                              : v == t ? static_cast<__int128>(res.flow_value)
                                       : 0;
    if (net[static_cast<std::size_t>(v)] != want_net)
      return "conservation violated at vertex " + std::to_string(v);
  }
  if (cost != res.cost) return "arc flow does not reproduce the claimed cost";
  return "";
}

}  // namespace perfbench
