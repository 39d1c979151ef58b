#pragma once
// Dynamic undirected multigraph — the object maintained by the expander
// decomposition stack (Section 3). Supports batch edge insertion/deletion with
// O(1) work per touched edge (swap-remove adjacency with position tracking).

#include <cassert>
#include <cstdint>
#include <span>
#include <vector>

namespace pmcf::graph {

using Vertex = std::int32_t;
using EdgeId = std::int32_t;

/// Undirected multigraph with stable edge ids and O(1) deletion.
/// Parallel edges are allowed; self-loops are not. add_edge(u, u) is a
/// precondition violation: only debug builds assert it, and a release build
/// records the same adjacency position for both ends, so a later delete
/// detaches the wrong slot. Callers filter self-loops before inserting.
class UndirectedGraph {
 public:
  struct Endpoints {
    Vertex u = -1;
    Vertex v = -1;
  };

  explicit UndirectedGraph(Vertex n = 0) : adj_(static_cast<std::size_t>(n)) {}

  [[nodiscard]] Vertex num_vertices() const { return static_cast<Vertex>(adj_.size()); }
  [[nodiscard]] std::size_t num_edges() const { return live_edges_; }
  /// Total edge-id slots ever allocated (live + deleted); per-edge arrays in
  /// client code are sized by this.
  [[nodiscard]] std::size_t edge_slots() const { return ends_.size(); }

  EdgeId add_edge(Vertex u, Vertex v);
  /// Batch delete (ids must be live).
  void delete_edges(std::span<const EdgeId> es);
  void delete_edge(EdgeId e);

  [[nodiscard]] bool is_live(EdgeId e) const {
    return e >= 0 && static_cast<std::size_t>(e) < ends_.size() && ends_[static_cast<std::size_t>(e)].u >= 0;
  }
  [[nodiscard]] Endpoints endpoints(EdgeId e) const {
    assert(is_live(e));
    return ends_[static_cast<std::size_t>(e)];
  }

  [[nodiscard]] std::int64_t degree(Vertex v) const {
    return static_cast<std::int64_t>(adj_[static_cast<std::size_t>(v)].size());
  }

  struct Incidence {
    EdgeId edge;
    Vertex neighbor;
  };
  [[nodiscard]] std::span<const Incidence> incident(Vertex v) const {
    return adj_[static_cast<std::size_t>(v)];
  }

  /// All live edge ids (work O(#slots)).
  [[nodiscard]] std::vector<EdgeId> live_edges() const;

 private:
  struct Slot {
    // Positions of this edge in adj_[u] and adj_[v]; -1 when dead.
    std::int32_t pos_u = -1;
    std::int32_t pos_v = -1;
  };
  void detach(Vertex side_vertex, std::int32_t pos);

  std::vector<std::vector<Incidence>> adj_;
  std::vector<Endpoints> ends_;  // ends_[e].u == -1 means deleted
  std::vector<Slot> slots_;
  std::size_t live_edges_ = 0;
};

}  // namespace pmcf::graph
