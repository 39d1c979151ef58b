#include "linalg/incidence.hpp"

#include <algorithm>

#include "linalg/simd_kernels.hpp"
#include "parallel/scheduler.hpp"

namespace pmcf::linalg {

IncidenceOp::IncidenceOp(const graph::Digraph& g, graph::Vertex dropped)
    : g_(&g), dropped_(dropped < 0 ? g.num_vertices() - 1 : dropped) {
  const auto& arcs = g.arcs();
  from_.resize(arcs.size());
  to_.resize(arcs.size());
  for (std::size_t e = 0; e < arcs.size(); ++e) {
    from_[e] = arcs[e].from;
    to_[e] = arcs[e].to;
  }
}

Vec IncidenceOp::apply(const Vec& h) const {
  Vec y(rows());
  apply_into(h, y);
  return y;
}

void IncidenceOp::charge_apply() const {
  const std::size_t m = from_.size();
  // PRAM cost of a parallel_for over the arcs charging (1, 1) each.
  if (m > 0) par::charge(2 * m, 1 + par::ceil_log2(m));
}

void IncidenceOp::charge_apply_transpose() const {
  // In the PRAM model the scatter is a segmented reduction: O(m) work and
  // O(log m) depth.
  const std::size_t m = from_.size();
  par::charge(m, 2 * par::ceil_log2(std::max<std::size_t>(m, 1)));
}

void IncidenceOp::apply_into(const Vec& h, Vec& y) const {
  charge_apply();
  // Gathers with software prefetch; h[dropped] reads as +0.0.
  simd::incidence_apply(from_.data(), to_.data(), h.data(), y.data(), from_.size(),
                        static_cast<std::int32_t>(dropped_));
}

Vec IncidenceOp::apply_transpose(const Vec& x) const {
  Vec y(cols(), 0.0);
  apply_transpose_into(x, y);
  return y;
}

void IncidenceOp::apply_transpose_into(const Vec& x, Vec& y) const {
  charge_apply_transpose();
  std::fill(y.begin(), y.end(), 0.0);
  // Sequential scatter: the +=/-= per endpoint races under real threads.
  for (std::size_t e = 0; e < from_.size(); ++e) {
    y[static_cast<std::size_t>(from_[e])] -= x[e];
    y[static_cast<std::size_t>(to_[e])] += x[e];
  }
  y[static_cast<std::size_t>(dropped_)] = 0.0;
}

}  // namespace pmcf::linalg
