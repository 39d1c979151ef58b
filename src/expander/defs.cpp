#include "expander/defs.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <queue>

#include "parallel/scheduler.hpp"

namespace pmcf::expander {

namespace {

std::vector<Vertex> non_isolated(const UndirectedGraph& g) {
  std::vector<Vertex> vs;
  for (Vertex v = 0; v < g.num_vertices(); ++v)
    if (g.degree(v) > 0) vs.push_back(v);
  return vs;
}

std::int64_t volume_of(const UndirectedGraph& g, const std::vector<Vertex>& side) {
  std::int64_t vol = 0;
  for (const Vertex v : side) vol += g.degree(v);
  return vol;
}

}  // namespace

std::optional<Cut> exact_min_expansion_cut(const UndirectedGraph& g) {
  const std::vector<Vertex> vs = non_isolated(g);
  const std::size_t k = vs.size();
  assert(k <= 24 && "exact check is exponential; use sweep_cut for larger graphs");
  if (k < 2) return std::nullopt;

  // Local adjacency over the non-isolated vertices, parallel edges repeated.
  std::vector<std::int32_t> pos(static_cast<std::size_t>(g.num_vertices()), -1);
  for (std::size_t i = 0; i < k; ++i) pos[static_cast<std::size_t>(vs[i])] = static_cast<std::int32_t>(i);
  std::vector<std::uint32_t> adj_start(k + 1, 0);
  std::vector<std::int32_t> adj;
  adj.reserve(2 * g.num_edges());
  for (std::size_t i = 0; i < k; ++i) {
    adj_start[i] = static_cast<std::uint32_t>(adj.size());
    for (const auto& inc : g.incident(vs[i])) adj.push_back(pos[static_cast<std::size_t>(inc.neighbor)]);
  }
  adj_start[k] = static_cast<std::uint32_t>(adj.size());

  // Walk the subsets S containing vs[0] in Gray-code order: S holds vs[0]
  // and vs[i+1] for every bit i of `mask`, and step t flips vertex
  // ctz(t)+1, so crossing and vol(S) move by that vertex's edges alone.
  // Expansions compare exactly as crossing·vol' vs crossing'·vol; ties go
  // to the smallest mask. best_vol == 0 stands for "no cut yet".
  const std::int64_t total_vol = 2 * static_cast<std::int64_t>(g.num_edges());
  std::uint64_t in_s = 1;  // bit i: vs[i] is in S
  std::int64_t vol_s = g.degree(vs[0]);
  std::int64_t crossing = vol_s;  // no self-loops: every edge of vs[0] leaves S
  std::uint64_t best_mask = 0;
  std::int64_t best_crossing = 1;
  std::int64_t best_vol = 0;
  const std::uint64_t subsets = std::uint64_t{1} << (k - 1);
  for (std::uint64_t t = 0;;) {
    const std::int64_t vol_small = std::min(vol_s, total_vol - vol_s);
    const std::uint64_t mask = in_s >> 1;
    if (vol_small > 0) {
      const std::int64_t lhs = crossing * best_vol;
      const std::int64_t rhs = best_crossing * vol_small;
      if (lhs < rhs || (lhs == rhs && mask < best_mask)) {
        best_mask = mask;
        best_crossing = crossing;
        best_vol = vol_small;
      }
    }
    if (++t == subsets) break;
    const auto i = static_cast<std::size_t>(std::countr_zero(t)) + 1;
    in_s ^= std::uint64_t{1} << i;
    std::int64_t to_s = 0;  // edges from vs[i] to S \ {vs[i]}
    for (std::uint32_t a = adj_start[i]; a < adj_start[i + 1]; ++a)
      to_s += static_cast<std::int64_t>((in_s >> adj[a]) & 1);
    const std::int64_t d = g.degree(vs[i]);
    const std::int64_t sign = ((in_s >> i) & 1) ? 1 : -1;
    vol_s += sign * d;
    crossing += sign * (d - 2 * to_s);
  }
  if (best_vol == 0) return std::nullopt;

  Cut best;
  best.crossing = best_crossing;
  best.vol_small = best_vol;
  const std::uint64_t full = (best_mask << 1) | 1;
  for (std::size_t i = 0; i < k; ++i)
    if ((full >> i) & 1) best.side.push_back(vs[i]);
  return best;
}

bool is_phi_expander_exact(const UndirectedGraph& g, double phi) {
  const auto cut = exact_min_expansion_cut(g);
  if (!cut) return true;  // < 2 non-isolated vertices: trivially an expander
  return cut->expansion() >= phi;
}

std::optional<Cut> sweep_cut(const UndirectedGraph& g, par::Rng& rng,
                             std::int32_t power_iters) {
  const std::vector<Vertex> vs = non_isolated(g);
  const std::size_t k = vs.size();
  if (k < 2) return std::nullopt;
  const std::int64_t total_vol = 2 * static_cast<std::int64_t>(g.num_edges());

  // Power iteration on M = I/2 + (D^{-1/2} A D^{-1/2})/2 restricted to the
  // orthogonal complement of D^{1/2} 1 — converges to the second eigenvector
  // of the normalized Laplacian.
  std::vector<double> x(k);
  std::vector<double> dsq(k);
  std::vector<std::int32_t> pos(static_cast<std::size_t>(g.num_vertices()), -1);
  for (std::size_t i = 0; i < k; ++i) {
    pos[static_cast<std::size_t>(vs[i])] = static_cast<std::int32_t>(i);
    dsq[i] = std::sqrt(static_cast<double>(g.degree(vs[i])));
    x[i] = rng.next_double() - 0.5;
  }
  auto orthogonalize = [&] {
    double num = 0, den = 0;
    for (std::size_t i = 0; i < k; ++i) {
      num += x[i] * dsq[i];
      den += dsq[i] * dsq[i];
    }
    const double c = num / den;
    for (std::size_t i = 0; i < k; ++i) x[i] -= c * dsq[i];
  };
  orthogonalize();
  for (std::int32_t it = 0; it < power_iters; ++it) {
    std::vector<double> y(k, 0.0);
    for (std::size_t i = 0; i < k; ++i) {
      const Vertex v = vs[i];
      for (const auto& inc : g.incident(v)) {
        const auto j = static_cast<std::size_t>(pos[static_cast<std::size_t>(inc.neighbor)]);
        y[i] += x[j] / (dsq[i] * dsq[j]);
      }
      y[i] = 0.5 * x[i] + 0.5 * y[i];
    }
    x = std::move(y);
    orthogonalize();
    double nrm = 0;
    for (const double xi : x) nrm += xi * xi;
    nrm = std::sqrt(nrm);
    if (nrm < 1e-300) {  // degenerate; restart from noise
      for (auto& xi : x) xi = rng.next_double() - 0.5;
      orthogonalize();
      continue;
    }
    for (auto& xi : x) xi /= nrm;
  }
  par::charge(static_cast<std::uint64_t>(power_iters) * (2 * g.num_edges() + k),
              static_cast<std::uint64_t>(power_iters) *
                  par::ceil_log2(std::max<std::size_t>(k, 2)));

  // Sweep over x / sqrt(deg) order.
  std::vector<std::size_t> order(k);
  for (std::size_t i = 0; i < k; ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return x[a] / dsq[a] < x[b] / dsq[b]; });
  std::vector<char> in_s(k, 0);
  std::int64_t vol_s = 0;
  std::int64_t crossing = 0;
  Cut best;
  double best_exp = 1e301;
  std::vector<Vertex> prefix;
  for (std::size_t t = 0; t + 1 < k; ++t) {
    const std::size_t i = order[t];
    const Vertex v = vs[i];
    vol_s += g.degree(v);
    for (const auto& inc : g.incident(v)) {
      const auto j = static_cast<std::size_t>(pos[static_cast<std::size_t>(inc.neighbor)]);
      if (in_s[j])
        crossing -= 1;
      else
        crossing += 1;
    }
    in_s[i] = 1;
    prefix.push_back(v);
    const std::int64_t vol_small = std::min(vol_s, total_vol - vol_s);
    if (vol_small == 0) continue;
    const double expn = static_cast<double>(crossing) / static_cast<double>(vol_small);
    if (expn < best_exp) {
      best_exp = expn;
      best.crossing = crossing;
      best.vol_small = vol_small;
      best.side = prefix;
    }
  }
  par::charge(2 * g.num_edges() + k, 2 * par::ceil_log2(std::max<std::size_t>(k, 2)));
  if (best.side.empty()) return std::nullopt;
  // Report the smaller-volume side.
  if (2 * volume_of(g, best.side) > total_vol) {
    std::vector<char> member(static_cast<std::size_t>(g.num_vertices()), 0);
    for (const Vertex v : best.side) member[static_cast<std::size_t>(v)] = 1;
    std::vector<Vertex> other;
    for (const Vertex v : vs)
      if (!member[static_cast<std::size_t>(v)]) other.push_back(v);
    best.side = std::move(other);
  }
  return best;
}

bool is_connected_nonisolated(const UndirectedGraph& g) {
  const std::vector<Vertex> vs = non_isolated(g);
  if (vs.size() <= 1) return true;
  std::vector<char> seen(static_cast<std::size_t>(g.num_vertices()), 0);
  std::queue<Vertex> q;
  q.push(vs[0]);
  seen[static_cast<std::size_t>(vs[0])] = 1;
  std::size_t cnt = 1;
  while (!q.empty()) {
    const Vertex v = q.front();
    q.pop();
    for (const auto& inc : g.incident(v)) {
      if (!seen[static_cast<std::size_t>(inc.neighbor)]) {
        seen[static_cast<std::size_t>(inc.neighbor)] = 1;
        ++cnt;
        q.push(inc.neighbor);
      }
    }
  }
  par::charge(2 * g.num_edges() + vs.size(), vs.size());
  return cnt == vs.size();
}

InducedSubgraph induced_subgraph(const UndirectedGraph& g, const std::vector<Vertex>& verts) {
  InducedSubgraph out;
  out.to_global = verts;
  out.graph = UndirectedGraph(static_cast<Vertex>(verts.size()));
  std::vector<std::int32_t> local(static_cast<std::size_t>(g.num_vertices()), -1);
  for (std::size_t i = 0; i < verts.size(); ++i)
    local[static_cast<std::size_t>(verts[i])] = static_cast<std::int32_t>(i);
  std::uint64_t scanned = 0;
  for (std::size_t i = 0; i < verts.size(); ++i) {
    const Vertex v = verts[i];
    for (const auto& inc : g.incident(v)) {
      ++scanned;
      const std::int32_t lj = local[static_cast<std::size_t>(inc.neighbor)];
      if (lj < 0) continue;
      // Add each undirected edge once: only when scanning the endpoint
      // recorded as `u`, which also keeps parallel edges distinct.
      const auto ep = g.endpoints(inc.edge);
      if (ep.u == v) out.graph.add_edge(static_cast<Vertex>(i), static_cast<Vertex>(lj));
    }
  }
  par::charge(scanned + verts.size(), par::ceil_log2(std::max<std::size_t>(verts.size(), 2)));
  return out;
}

}  // namespace pmcf::expander
