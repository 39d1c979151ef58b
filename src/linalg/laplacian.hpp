#pragma once
// Assembly of the reduced (full-rank) Laplacian A^T D A, where A is the
// incidence matrix with one column dropped and D a positive diagonal.
// The dropped vertex's row is pinned to the identity so the matrix stays
// n x n and SPD, matching the "remove one column" convention of Appendix A.
//
// Three interfaces:
//  - reduced_laplacian: one-shot build (triplets + sort), kept for callers
//    outside the IPM hot path.
//  - Laplacian: caches the sparsity pattern and a slot→arc contribution map
//    so re-weighting the same graph is a value-only parallel rewrite
//    (refresh_values) instead of a full from_triplets construction. Values
//    are *always* written through the contribution map — including on the
//    initial build — so build(d1) + refresh_values(d2) is bit-identical to
//    a fresh build(d2). See DESIGN.md §10.
//  - GroundedFactor: the dense GTH (positive Schur complement) factor of
//    the same matrix with the dropped vertex as ground, O(n³) work. The
//    exact leverage oracle reads its multipliers and pivots; NewtonSystem
//    solves with it on graphs of at most 48 columns (DESIGN.md §10).

#include <cstdint>
#include <vector>

#include "graph/digraph.hpp"
#include "linalg/csr.hpp"
#include "linalg/incidence.hpp"
#include "linalg/kernels.hpp"

namespace pmcf::linalg {

/// M = A^T Diag(d) A (reduced at `dropped`; its row/col becomes e_dropped).
Csr reduced_laplacian(const graph::Digraph& g, const Vec& d, graph::Vertex dropped);

class Laplacian {
 public:
  [[nodiscard]] bool bound() const { return n_ > 0; }

  /// Whether the cached pattern belongs to (g, dropped). Compared against a
  /// stored copy of the arc list — not the graph's address — so a different
  /// graph reallocated at the same address can never alias the cache.
  [[nodiscard]] bool matches(const graph::Digraph& g, graph::Vertex dropped) const;

  /// Full construction: pattern via from_triplets, then the slot→arc
  /// contribution map, then a canonical value write (same path as refresh).
  void build(const graph::Digraph& g, const Vec& d, graph::Vertex dropped);

  /// Value-only rewrite for new arc weights over the fixed pattern.
  /// Requires matches(g, dropped) for the graph `d` refers to.
  /// Work O(nnz), depth O(log n), no allocation.
  void refresh_values(const Vec& d);

  [[nodiscard]] const Csr& matrix() const { return mat_; }
  [[nodiscard]] graph::Vertex dropped() const { return dropped_; }

 private:
  std::size_t n_ = 0;
  graph::Vertex dropped_ = 0;
  std::vector<std::int32_t> arc_from_, arc_to_;  // identity of the cached graph
  Csr mat_;
  // CSR slot s sums contributions slot_arc_[t] (arc id, or -1 for the unit
  // pin) with sign slot_sign_[t] for t in [slot_off_[s], slot_off_[s+1]).
  std::vector<std::int64_t> slot_off_;
  std::vector<std::int32_t> slot_arc_;
  std::vector<std::int8_t> slot_sign_;
};

/// GTH factorization L = (I − F) D (I − F)ᵀ of the grounded Laplacian
/// L = AᵀDiag(c)A of an incidence operator A, whose dropped vertex is
/// ground. Row k is the k-th vertex with the dropped one skipped; column k
/// of the strictly lower F holds vertex k's multipliers. Every pivot is a
/// sum of conductances and every factor entry a sum of non-negative terms,
/// never a difference, so the factor keeps its relative accuracy whatever
/// the spread of c.
///
/// A vertex whose pivot is at or below the pin floor is pinned: its pivot
/// reads 0, its multipliers are 0, and its conductances to the vertices
/// after it go to ground, so solve() returns 0 there and solves the rest of
/// the system with that vertex grounded. Floor 0 pins exactly the vertices
/// cut off from ground. Buffers are kept across factor() calls, so
/// refactoring a graph of the same size allocates nothing.
class GroundedFactor {
 public:
  /// Factors L for arc conductances `c` (size m, non-negative). Charges
  /// its passes: about d³/3 + m work on d = n − 1 grounded vertices.
  void factor(const IncidenceOp& a, const Vec& c, double pin_floor);

  /// x = L⁻¹b by one forward substitution, the pivot division and one back
  /// substitution; x and b have size n, b at the dropped vertex is ignored
  /// and x is 0 there and at every pinned vertex. Charges its passes.
  void solve(const Vec& b, Vec& x);

  /// Grounded vertices: n − 1.
  [[nodiscard]] std::size_t dim() const { return d_; }
  /// Row of vertex v; the dropped vertex (ground) maps to dim().
  [[nodiscard]] std::size_t row(graph::Vertex v) const {
    if (v == dropped_) return d_;
    return static_cast<std::size_t>(v < dropped_ ? v : v - 1);
  }
  /// p_k: the sum of row k's conductances to ground and to later rows when
  /// it is eliminated; 0 when row k is pinned.
  [[nodiscard]] double pivot(std::size_t k) const { return pivot_[k]; }
  /// Column k of F, stored along a row: entry i in (k, dim()) is c_ki / p_k.
  [[nodiscard]] const double* multipliers(std::size_t k) const { return c_.data() + k * d_; }

 private:
  std::size_t d_ = 0;
  graph::Vertex dropped_ = 0;
  Vec c_;      // d×d: conductances between uneliminated rows, then F's columns
  Vec g_;      // conductances to ground
  Vec pivot_;  // size d
  Vec z_;      // solve()'s working vector, size d
};

}  // namespace pmcf::linalg
