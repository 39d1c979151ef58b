#include "graph/ungraph.hpp"

#include "parallel/scheduler.hpp"

namespace pmcf::graph {

EdgeId UndirectedGraph::add_edge(Vertex u, Vertex v) {
  assert(u >= 0 && u < num_vertices() && v >= 0 && v < num_vertices());
  assert(u != v && "self-loops are not supported");
  const auto e = static_cast<EdgeId>(ends_.size());
  ends_.push_back({u, v});
  auto& au = adj_[static_cast<std::size_t>(u)];
  auto& av = adj_[static_cast<std::size_t>(v)];
  slots_.push_back({static_cast<std::int32_t>(au.size()), static_cast<std::int32_t>(av.size())});
  au.push_back({e, v});
  av.push_back({e, u});
  ++live_edges_;
  return e;
}

void UndirectedGraph::detach(Vertex side_vertex, std::int32_t pos) {
  auto& lst = adj_[static_cast<std::size_t>(side_vertex)];
  const auto p = static_cast<std::size_t>(pos);
  const std::size_t last = lst.size() - 1;
  if (p != last) {
    lst[p] = lst[last];
    // Fix the moved edge's slot entry for this side.
    const EdgeId me = lst[p].edge;
    auto& ms = slots_[static_cast<std::size_t>(me)];
    if (ends_[static_cast<std::size_t>(me)].u == side_vertex) {
      ms.pos_u = pos;
    } else {
      ms.pos_v = pos;
    }
  }
  lst.pop_back();
}

void UndirectedGraph::delete_edge(EdgeId e) {
  assert(is_live(e));
  const Endpoints ep = ends_[static_cast<std::size_t>(e)];
  const Slot s = slots_[static_cast<std::size_t>(e)];
  // Mark dead before detaching so moved-slot fixups never see stale info.
  ends_[static_cast<std::size_t>(e)] = {-1, -1};
  slots_[static_cast<std::size_t>(e)] = {-1, -1};
  detach(ep.u, s.pos_u);
  // pos_v may have been moved by the first detach only if u == v, which is
  // excluded; the two adjacency lists are distinct.
  detach(ep.v, s.pos_v);
  --live_edges_;
  par::charge(1, 1);
}

void UndirectedGraph::delete_edges(std::span<const EdgeId> es) {
  for (const EdgeId e : es) delete_edge(e);
  par::charge(es.size(), par::ceil_log2(std::max<std::size_t>(es.size(), 1)));
}

std::vector<EdgeId> UndirectedGraph::live_edges() const {
  std::vector<EdgeId> out;
  out.reserve(live_edges_);
  for (std::size_t e = 0; e < ends_.size(); ++e)
    if (ends_[e].u >= 0) out.push_back(static_cast<EdgeId>(e));
  par::charge(ends_.size(), par::ceil_log2(std::max<std::size_t>(ends_.size(), 1)));
  return out;
}

}  // namespace pmcf::graph
