#include "graph/digraph.hpp"

#include <algorithm>

#include "parallel/scheduler.hpp"

namespace pmcf::graph {

std::int64_t Digraph::max_capacity() const {
  std::int64_t w = 0;
  for (const auto& a : arcs_) w = std::max(w, a.cap);
  par::charge(arcs_.size(), par::ceil_log2(std::max<std::size_t>(arcs_.size(), 1)));
  return w;
}

std::int64_t Digraph::max_cost() const {
  std::int64_t c = 0;
  for (const auto& a : arcs_) c = std::max(c, std::abs(a.cost));
  par::charge(arcs_.size(), par::ceil_log2(std::max<std::size_t>(arcs_.size(), 1)));
  return c;
}

void Digraph::build_csr() {
  const auto n = static_cast<std::size_t>(n_);
  std::vector<std::int32_t> deg(n, 0);
  for (const auto& a : arcs_) ++deg[static_cast<std::size_t>(a.from)];
  csr_off_.assign(n + 1, 0);
  for (std::size_t v = 0; v < n; ++v) csr_off_[v + 1] = csr_off_[v] + deg[v];
  csr_arcs_.assign(arcs_.size(), 0);
  std::vector<std::int32_t> cursor(csr_off_.begin(), csr_off_.end() - 1);
  for (EdgeId e = 0; e < num_arcs(); ++e)
    csr_arcs_[static_cast<std::size_t>(cursor[static_cast<std::size_t>(arcs_[static_cast<std::size_t>(e)].from)]++)] = e;
  par::charge(arcs_.size() + n, 2 * par::ceil_log2(std::max<std::size_t>(arcs_.size(), 1)));
  csr_valid_ = true;
}

}  // namespace pmcf::graph
