#pragma once
// Implicit edge-vertex incidence operator A in {-1,0,1}^{m x n}.
//
// Following Appendix A: A_{e,u} = -1 and A_{e,v} = +1 for arc e = (u, v). The
// IPM requires full column rank, achieved by dropping one column (one vertex).
// We keep vectors at full dimension n and treat the dropped coordinate as
// identically zero — this keeps indexing uniform across the codebase.

#include <cstdint>
#include <vector>

#include "graph/digraph.hpp"
#include "linalg/kernels.hpp"

namespace pmcf::linalg {

class IncidenceOp {
 public:
  /// Drop the column of `dropped` (default: last vertex). Builds a
  /// structure-of-arrays copy of the arc endpoints: the hot apply walks two
  /// dense int32 streams (SIMD gathers on AVX2 hosts) instead of
  /// striding through the 24-byte Arc records.
  explicit IncidenceOp(const graph::Digraph& g, graph::Vertex dropped = -1);

  [[nodiscard]] std::size_t rows() const { return static_cast<std::size_t>(g_->num_arcs()); }
  [[nodiscard]] std::size_t cols() const { return static_cast<std::size_t>(g_->num_vertices()); }
  [[nodiscard]] graph::Vertex dropped() const { return dropped_; }
  [[nodiscard]] const graph::Digraph& graph() const { return *g_; }

  /// y = A h, y in R^m, h in R^n (h[dropped] treated as 0).
  [[nodiscard]] Vec apply(const Vec& h) const;

  /// y = A^T x, y in R^n with y[dropped] = 0.
  [[nodiscard]] Vec apply_transpose(const Vec& x) const;

  /// Allocation-free variants writing into caller-owned buffers
  /// (y.size() == rows() resp. cols()).
  void apply_into(const Vec& h, Vec& y) const;
  void apply_transpose_into(const Vec& x, Vec& y) const;

  /// Zero out the dropped coordinate (projection onto the column space basis).
  void mask_dropped(Vec& h) const { h[static_cast<std::size_t>(dropped_)] = 0.0; }

  /// Arc endpoints as dense streams (from()[e], to()[e]), for callers that
  /// fuse A or Aᵀ into their own loops; such a caller takes the PRAM charge
  /// of each apply it stands for through charge_apply / charge_apply_transpose.
  [[nodiscard]] const std::vector<std::int32_t>& from() const { return from_; }
  [[nodiscard]] const std::vector<std::int32_t>& to() const { return to_; }
  void charge_apply() const;
  void charge_apply_transpose() const;

 private:
  const graph::Digraph* g_;
  graph::Vertex dropped_;
  std::vector<std::int32_t> from_, to_;  // SoA endpoint copies for apply_into
};

}  // namespace pmcf::linalg
