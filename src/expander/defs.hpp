#pragma once
// Expansion / conductance primitives (Section 2.1).
//
// A graph G is a phi-expander when every cut (S, V\S) satisfies
//   |E(S, V\S)| / min(deg(S), deg(V\S)) >= phi.
// Tests use the exact check (subset enumeration, n <= ~20) and the spectral
// sweep-cut witness for larger graphs (Cheeger: lambda_2/2 <= phi(G) <=
// sqrt(2 lambda_2), so a sweep cut certifies non-expansion and lambda_2
// certifies expansion up to the quadratic loss).

#include <cstdint>
#include <optional>
#include <vector>

#include "graph/ungraph.hpp"
#include "parallel/rng.hpp"

namespace pmcf::expander {

using graph::EdgeId;
using graph::UndirectedGraph;
using graph::Vertex;

struct Cut {
  std::vector<Vertex> side;      // the smaller-volume side S
  std::int64_t crossing = 0;     // |E(S, V\S)|
  std::int64_t vol_small = 0;    // min(deg(S), deg(V\S))
  [[nodiscard]] double expansion() const {
    return vol_small == 0 ? 1e300 : static_cast<double>(crossing) / static_cast<double>(vol_small);
  }
};

/// Exact minimum-expansion cut by subset enumeration. Requires at most 24
/// non-isolated vertices and no self-loops (the subset walk assumes every
/// edge has two distinct endpoints). Vertices with degree 0 are ignored.
/// `side` is the side holding the lowest-id non-isolated vertex, listed in
/// id order; among cuts of equal expansion the first in binary subset order
/// wins. Returns nullopt if fewer than 2 non-isolated vertices exist.
std::optional<Cut> exact_min_expansion_cut(const UndirectedGraph& g);

/// True iff g is a phi-expander (exact; small n only).
bool is_phi_expander_exact(const UndirectedGraph& g, double phi);

/// Spectral sweep cut: power-iteration estimate of the second eigenvector of
/// the normalized Laplacian, then the best threshold cut along it.
/// Returns the best cut found (an *upper bound* witness on expansion), or
/// nullopt for graphs with < 2 non-isolated vertices.
std::optional<Cut> sweep_cut(const UndirectedGraph& g, par::Rng& rng,
                             std::int32_t power_iters = 60);

/// Is the graph (ignoring isolated vertices) connected?
bool is_connected_nonisolated(const UndirectedGraph& g);

/// Induced-subgraph copy restricted to `verts` (isolated listed vertices are
/// kept). Returns the subgraph with *local* ids plus the local->global map.
struct InducedSubgraph {
  UndirectedGraph graph;
  std::vector<Vertex> to_global;
};
InducedSubgraph induced_subgraph(const UndirectedGraph& g, const std::vector<Vertex>& verts);

}  // namespace pmcf::expander
