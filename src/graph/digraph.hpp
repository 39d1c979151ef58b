#pragma once
// Directed graph with integer capacities and costs — the input object of the
// min-cost flow problem (Section 1.1 of the paper).

#include <cassert>
#include <cstdint>
#include <span>
#include <vector>

namespace pmcf::graph {

using Vertex = std::int32_t;
using EdgeId = std::int32_t;

struct Arc {
  Vertex from = -1;
  Vertex to = -1;
  std::int64_t cap = 0;
  std::int64_t cost = 0;
};

/// Directed multigraph stored as an arc list with an optional CSR index of
/// out-arcs (built lazily; invalidated by add_arc).
class Digraph {
 public:
  explicit Digraph(Vertex n = 0) : n_(n) {}

  EdgeId add_arc(Vertex u, Vertex v, std::int64_t cap, std::int64_t cost) {
    assert(u >= 0 && u < n_ && v >= 0 && v < n_);
    arcs_.push_back({u, v, cap, cost});
    csr_valid_ = false;
    return static_cast<EdgeId>(arcs_.size() - 1);
  }

  /// Value-only arc mutation for incremental re-solves (Engine::resolve).
  /// Endpoints are untouched, so the CSR index (which stores only adjacency)
  /// stays valid — exactly the property Laplacian::refresh_values relies on.
  void set_cost(EdgeId e, std::int64_t cost) { arcs_[static_cast<std::size_t>(e)].cost = cost; }
  void set_cap(EdgeId e, std::int64_t cap) { arcs_[static_cast<std::size_t>(e)].cap = cap; }

  [[nodiscard]] Vertex num_vertices() const { return n_; }
  [[nodiscard]] EdgeId num_arcs() const { return static_cast<EdgeId>(arcs_.size()); }
  [[nodiscard]] const Arc& arc(EdgeId e) const { return arcs_[static_cast<std::size_t>(e)]; }
  [[nodiscard]] const std::vector<Arc>& arcs() const { return arcs_; }

  /// Largest capacity W = ||u||_inf and cost C = ||c||_inf (Theorem 1.2).
  [[nodiscard]] std::int64_t max_capacity() const;
  [[nodiscard]] std::int64_t max_cost() const;

  /// Out-arc ids of u (requires build_csr()).
  [[nodiscard]] std::span<const EdgeId> out_arcs(Vertex u) const {
    assert(csr_valid_);
    return {csr_arcs_.data() + csr_off_[static_cast<std::size_t>(u)],
            csr_arcs_.data() + csr_off_[static_cast<std::size_t>(u) + 1]};
  }

  void build_csr();
  [[nodiscard]] bool csr_built() const { return csr_valid_; }

 private:
  Vertex n_;
  std::vector<Arc> arcs_;
  std::vector<std::int32_t> csr_off_;
  std::vector<EdgeId> csr_arcs_;
  bool csr_valid_ = false;
};

}  // namespace pmcf::graph
