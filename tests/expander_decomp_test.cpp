// Tests for expansion checks (defs), static decomposition (Thm 3.2 contract /
// Lemma 3.4), pruning (Lemma 3.3) and the dynamic decomposition (Lemma 3.1).

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "expander/defs.hpp"
#include "core/solver_context.hpp"
#include "expander/dynamic_decomp.hpp"
#include "expander/pruning.hpp"
#include "expander/static_decomp.hpp"
#include "graph/generators.hpp"
#include "parallel/rng.hpp"

namespace pmcf::expander {
namespace {

using graph::EdgeId;
using graph::UndirectedGraph;
using graph::Vertex;

// ---------- defs ----------

TEST(DefsTest, ExactCutOnBarbell) {
  // Two triangles joined by one edge: min expansion cut = the bridge.
  UndirectedGraph g(6);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 0);
  g.add_edge(3, 4);
  g.add_edge(4, 5);
  g.add_edge(5, 3);
  g.add_edge(0, 3);
  const auto cut = exact_min_expansion_cut(g);
  ASSERT_TRUE(cut.has_value());
  EXPECT_EQ(cut->crossing, 1);
  EXPECT_EQ(cut->vol_small, 7);
  EXPECT_NEAR(cut->expansion(), 1.0 / 7.0, 1e-12);
}

TEST(DefsTest, ExactCutOnTwoVertexMultigraph) {
  // The only cut of a connected two-vertex graph is S = {first vertex}.
  UndirectedGraph g(2);
  for (int i = 0; i < 3; ++i) g.add_edge(0, 1);
  const auto cut = exact_min_expansion_cut(g);
  ASSERT_TRUE(cut.has_value());
  EXPECT_EQ(cut->side, std::vector<Vertex>{0});
  EXPECT_EQ(cut->crossing, 3);
  EXPECT_EQ(cut->vol_small, 3);
}

/// Reference for exact_min_expansion_cut: recount every subset containing
/// the first non-isolated vertex, in binary order, keeping the first of the
/// smallest expansion.
std::optional<Cut> brute_force_min_expansion_cut(const UndirectedGraph& g) {
  std::vector<Vertex> vs;
  for (Vertex v = 0; v < g.num_vertices(); ++v)
    if (g.degree(v) > 0) vs.push_back(v);
  const std::size_t k = vs.size();
  if (k < 2) return std::nullopt;
  const std::int64_t total_vol = 2 * static_cast<std::int64_t>(g.num_edges());
  std::vector<std::int32_t> pos(static_cast<std::size_t>(g.num_vertices()), -1);
  for (std::size_t i = 0; i < k; ++i) pos[static_cast<std::size_t>(vs[i])] = static_cast<std::int32_t>(i);
  Cut best;
  best.crossing = -1;
  double best_exp = 1e301;
  for (std::uint64_t mask = 0; mask < (std::uint64_t{1} << (k - 1)); ++mask) {
    const std::uint64_t full = (mask << 1) | 1;
    std::int64_t vol_s = 0;
    std::int64_t crossing = 0;
    for (std::size_t i = 0; i < k; ++i) {
      if (!((full >> i) & 1)) continue;
      vol_s += g.degree(vs[i]);
      for (const auto& inc : g.incident(vs[i])) {
        const std::int32_t pj = pos[static_cast<std::size_t>(inc.neighbor)];
        if (pj < 0 || !((full >> pj) & 1)) ++crossing;
      }
    }
    const std::int64_t vol_small = std::min(vol_s, total_vol - vol_s);
    if (vol_small == 0) continue;
    const double expn = static_cast<double>(crossing) / static_cast<double>(vol_small);
    if (expn < best_exp) {
      best_exp = expn;
      best.crossing = crossing;
      best.vol_small = vol_small;
      best.side.clear();
      for (std::size_t i = 0; i < k; ++i)
        if ((full >> i) & 1) best.side.push_back(vs[i]);
    }
  }
  if (best.crossing < 0) return std::nullopt;
  return best;
}

TEST(DefsTest, GrayCodeCutMatchesBruteForce) {
  // Loop-free multigraphs with parallel edges, isolated vertices interleaved
  // with the k = 2..16 non-isolated ones, some deleted edges, and
  // disconnected instances whose zero-expansion ties exercise the
  // smallest-mask rule.
  par::Rng rng(2024);
  int checked = 0;
  for (int trial = 0; trial < 500; ++trial) {
    const auto k = static_cast<Vertex>(2 + trial % 15);
    const auto isolated = static_cast<Vertex>(rng.next_below(5));
    UndirectedGraph g(k + isolated);
    // Non-isolated vertices at random positions among the k + isolated ids.
    std::vector<Vertex> ids(static_cast<std::size_t>(k + isolated));
    for (Vertex v = 0; v < k + isolated; ++v) ids[static_cast<std::size_t>(v)] = v;
    for (std::size_t i = ids.size(); i > 1; --i)
      std::swap(ids[i - 1], ids[rng.next_below(i)]);
    ids.resize(static_cast<std::size_t>(k));
    auto pick = [&] { return ids[rng.next_below(static_cast<std::uint64_t>(k))]; };
    auto add_random_edge = [&](Vertex u) {
      Vertex v = pick();
      while (v == u) v = pick();
      return g.add_edge(u, v);
    };
    for (const Vertex u : ids) add_random_edge(u);  // every chosen vertex gets an edge
    const std::size_t target =
        static_cast<std::size_t>(k) + rng.next_below(static_cast<std::uint64_t>(64 - k + 1));
    while (g.num_edges() < target) {
      const auto ep = g.endpoints(add_random_edge(pick()));
      if (g.num_edges() < target && rng.next_below(4) == 0) g.add_edge(ep.v, ep.u);  // parallel copy
    }
    if (trial % 7 == 0 && g.num_edges() > static_cast<std::size_t>(k)) {
      const auto live = g.live_edges();
      g.delete_edge(live[rng.next_below(live.size())]);
    }
    ASSERT_LE(g.num_edges(), 64u);
    const auto want = brute_force_min_expansion_cut(g);
    const auto got = exact_min_expansion_cut(g);
    ASSERT_EQ(want.has_value(), got.has_value()) << "trial " << trial;
    if (!want) continue;
    EXPECT_EQ(got->side, want->side) << "trial " << trial;
    EXPECT_EQ(got->crossing, want->crossing) << "trial " << trial;
    EXPECT_EQ(got->vol_small, want->vol_small) << "trial " << trial;
    ++checked;
  }
  EXPECT_GT(checked, 450);
}

TEST(DefsTest, CompleteGraphIsExpander) {
  UndirectedGraph g(8);
  for (Vertex u = 0; u < 8; ++u)
    for (Vertex v = u + 1; v < 8; ++v) g.add_edge(u, v);
  EXPECT_TRUE(is_phi_expander_exact(g, 0.4));
}

TEST(DefsTest, PathIsNotAnExpander) {
  UndirectedGraph g(16);
  for (Vertex i = 0; i + 1 < 16; ++i) g.add_edge(i, i + 1);
  EXPECT_FALSE(is_phi_expander_exact(g, 0.3));
}

TEST(DefsTest, SweepCutFindsBarbellBridge) {
  // Two K6's joined by one edge; sweep must find an O(1/vol) cut.
  UndirectedGraph g(12);
  for (Vertex u = 0; u < 6; ++u)
    for (Vertex v = u + 1; v < 6; ++v) g.add_edge(u, v);
  for (Vertex u = 6; u < 12; ++u)
    for (Vertex v = u + 1; v < 12; ++v) g.add_edge(u, v);
  g.add_edge(0, 6);
  par::Rng rng(31);
  const auto cut = sweep_cut(g, rng);
  ASSERT_TRUE(cut.has_value());
  EXPECT_LE(cut->expansion(), 0.05);
  EXPECT_EQ(cut->crossing, 1);
}

TEST(DefsTest, SweepCutOnExpanderIsNotSparse) {
  par::Rng rng(32);
  UndirectedGraph g = graph::random_regular_expander(100, 4, rng);
  const auto cut = sweep_cut(g, rng);
  ASSERT_TRUE(cut.has_value());
  EXPECT_GE(cut->expansion(), 0.15);
}

TEST(DefsTest, ConnectivityCheck) {
  UndirectedGraph g(5);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  EXPECT_FALSE(is_connected_nonisolated(g));
  g.add_edge(1, 2);
  EXPECT_TRUE(is_connected_nonisolated(g));
}

TEST(DefsTest, InducedSubgraphKeepsInternalEdges) {
  UndirectedGraph g(6);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  g.add_edge(3, 0);
  g.add_edge(0, 5);
  const auto sub = induced_subgraph(g, {0, 1, 2, 3});
  EXPECT_EQ(sub.graph.num_edges(), 4u);
  EXPECT_EQ(sub.to_global.size(), 4u);
}

// ---------- static decomposition ----------

TEST(StaticDecompTest, ExpanderStaysWhole) {
  par::Rng rng(41);
  UndirectedGraph g = graph::random_regular_expander(60, 4, rng);
  const auto parts = vertex_expander_decomposition(g, rng, {.phi = 0.1});
  EXPECT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0].size(), 60u);
}

TEST(StaticDecompTest, BarbellSplitsInTwo) {
  par::Rng rng(42);
  UndirectedGraph g(40);
  auto a = graph::random_regular_expander(20, 3, rng);
  for (const EdgeId e : a.live_edges()) {
    const auto ep = a.endpoints(e);
    g.add_edge(ep.u, ep.v);
    g.add_edge(ep.u + 20, ep.v + 20);
  }
  g.add_edge(0, 20);
  const auto parts = vertex_expander_decomposition(g, rng, {.phi = 0.1});
  EXPECT_EQ(parts.size(), 2u);
  // Each side must be exactly one half.
  for (const auto& p : parts) {
    EXPECT_EQ(p.size(), 20u);
    const bool left = std::all_of(p.begin(), p.end(), [](Vertex v) { return v < 20; });
    const bool right = std::all_of(p.begin(), p.end(), [](Vertex v) { return v >= 20; });
    EXPECT_TRUE(left || right);
  }
}

TEST(StaticDecompTest, PartitionCoversAllVertices) {
  par::Rng rng(43);
  UndirectedGraph g = graph::gnp_undirected(80, 0.05, rng);
  const auto parts = vertex_expander_decomposition(g, rng, {.phi = 0.15});
  std::vector<int> cover(80, 0);
  for (const auto& p : parts)
    for (const Vertex v : p) cover[static_cast<std::size_t>(v)]++;
  for (int c : cover) EXPECT_EQ(c, 1);
}

TEST(StaticDecompTest, ClustersAreExpandersExact) {
  // Small graph: verify every produced cluster really has expansion (close
  // to) phi via the exact check.
  par::Rng rng(44);
  UndirectedGraph g = graph::gnp_undirected(18, 0.25, rng);
  const auto parts = vertex_expander_decomposition(g, rng, {.phi = 0.1});
  for (const auto& p : parts) {
    if (p.size() <= 2) continue;
    const auto sub = induced_subgraph(g, p);
    if (sub.graph.num_edges() == 0) continue;
    const auto cut = exact_min_expansion_cut(sub.graph);
    if (cut) {
      EXPECT_GE(cut->expansion(), 0.1) << "cluster of size " << p.size();
    }
  }
}

TEST(StaticDecompTest, EdgePartitionCoversEveryEdgeOnce) {
  par::Rng rng(45);
  UndirectedGraph g = graph::gnp_undirected(60, 0.08, rng);
  const auto clusters = edge_expander_decomposition(g, rng, {.phi = 0.1});
  std::vector<int> covered(g.edge_slots(), 0);
  for (const auto& c : clusters)
    for (const EdgeId e : c.edges) covered[static_cast<std::size_t>(e)]++;
  for (const EdgeId e : g.live_edges()) EXPECT_EQ(covered[static_cast<std::size_t>(e)], 1);
}

TEST(StaticDecompTest, EdgePartitionVertexMultiplicityIsSmall) {
  // Lemma 3.4: every vertex appears in Õ(1) clusters.
  par::Rng rng(46);
  UndirectedGraph g = graph::gnp_undirected(100, 0.06, rng);
  const auto clusters = edge_expander_decomposition(g, rng, {.phi = 0.1});
  std::vector<int> appearances(100, 0);
  for (const auto& c : clusters)
    for (const Vertex v : c.vertices) appearances[static_cast<std::size_t>(v)]++;
  const int max_app = *std::max_element(appearances.begin(), appearances.end());
  EXPECT_LE(max_app, 16) << "vertex multiplicity should be polylog";
}

// ---------- pruning ----------

TEST(PruningTest, MonotonePrunedSetAcrossBatches) {
  par::Rng rng(51);
  UndirectedGraph g = graph::random_regular_expander(60, 4, rng);
  ExpanderPruning pruning(g, {.phi = 0.1, .batch_limit = 4});
  std::set<Vertex> pruned_so_far;
  auto live = g.live_edges();
  std::size_t cursor = 0;
  for (int batch = 0; batch < 10; ++batch) {
    std::vector<EdgeId> del;
    for (int k = 0; k < 5 && cursor < live.size(); ++k) del.push_back(live[cursor++]);
    const auto r = pruning.delete_batch(del);
    for (const Vertex v : r.pruned) {
      EXPECT_FALSE(pruned_so_far.contains(v)) << "vertex re-pruned";
      pruned_so_far.insert(v);
    }
    // Wrapper flags must agree with the accumulated set.
    for (Vertex v = 0; v < 60; ++v)
      EXPECT_EQ(pruning.vertex_pruned(v), pruned_so_far.contains(v));
  }
  EXPECT_GE(pruning.rollbacks(), 1) << "boosting must have kicked in";
}

TEST(PruningTest, NoPruningForGentleDeletions) {
  par::Rng rng(52);
  UndirectedGraph g = graph::random_regular_expander(80, 5, rng);  // 10-regular
  ExpanderPruning pruning(g, {.phi = 0.1, .batch_limit = 8});
  auto live = g.live_edges();
  // Three tiny batches, far below the expander's tolerance.
  for (int batch = 0; batch < 3; ++batch) {
    std::vector<EdgeId> del{live[static_cast<std::size_t>(batch)]};
    const auto r = pruning.delete_batch(del);
    EXPECT_TRUE(r.pruned.empty()) << "batch " << batch;
  }
  EXPECT_EQ(pruning.pruned_volume(), 0);
}

TEST(PruningTest, IsolatedVertexGetsPruned) {
  // Delete every edge of one vertex; it (or an equivalent tiny set) must
  // leave the expander.
  par::Rng rng(53);
  UndirectedGraph g = graph::random_regular_expander(40, 4, rng);
  ExpanderPruning pruning(g, {.phi = 0.1, .batch_limit = 8});
  std::vector<EdgeId> del;
  for (const auto& inc : g.incident(7)) del.push_back(inc.edge);
  const auto r = pruning.delete_batch(del);
  // Vertex 7 has no edges left; it must not host demand, and the rest stays.
  EXPECT_LE(r.pruned.size(), 4u);
  EXPECT_EQ(pruning.current_graph().degree(7), 0);
}

TEST(PruningTest, EvictedEdgesAreIncidentToPrunedVertices) {
  par::Rng rng(54);
  UndirectedGraph g = graph::random_regular_expander(50, 3, rng);
  ExpanderPruning pruning(g, {.phi = 0.15, .batch_limit = 8});
  // Hammer one corner of the graph to force pruning.
  std::vector<EdgeId> del;
  for (Vertex v = 0; v < 5; ++v)
    for (const auto& inc : g.incident(v))
      if (inc.neighbor >= 5) del.push_back(inc.edge);
  std::sort(del.begin(), del.end());
  del.erase(std::unique(del.begin(), del.end()), del.end());
  const auto r = pruning.delete_batch(del);
  for (const EdgeId e : r.evicted) {
    const auto ep = pruning.pristine_endpoints(e);
    EXPECT_TRUE(pruning.vertex_pruned(ep.u) || pruning.vertex_pruned(ep.v));
  }
}

// ---------- dynamic decomposition ----------

DynamicExpanderDecomposition::EdgeSpec spec(Vertex u, Vertex v, std::int64_t id) {
  return {u, v, id};
}

TEST(DynamicDecompTest, InsertThenEnumerate) {
  par::Rng rng(61);
  UndirectedGraph g = graph::random_regular_expander(50, 3, rng);
  DynamicExpanderDecomposition dec(pmcf::core::default_context(), 50, {.phi = 0.1});
  std::vector<DynamicExpanderDecomposition::EdgeSpec> edges;
  for (const EdgeId e : g.live_edges()) {
    const auto ep = g.endpoints(e);
    edges.push_back(spec(ep.u, ep.v, e));
  }
  dec.insert(edges);
  EXPECT_EQ(dec.num_edges(), g.num_edges());
  // Every inserted edge appears in exactly one cluster.
  std::set<std::int64_t> seen;
  for (const auto* cl : dec.clusters()) {
    for (const EdgeId le : cl->graph().live_edges()) {
      const auto id = cl->ext_of(le);
      EXPECT_FALSE(seen.contains(id));
      seen.insert(id);
    }
  }
  EXPECT_EQ(seen.size(), g.num_edges());
}

TEST(DynamicDecompTest, EraseRemovesEdges) {
  par::Rng rng(62);
  UndirectedGraph g = graph::random_regular_expander(40, 4, rng);
  DynamicExpanderDecomposition dec(pmcf::core::default_context(), 40, {.phi = 0.1});
  std::vector<DynamicExpanderDecomposition::EdgeSpec> edges;
  for (const EdgeId e : g.live_edges()) {
    const auto ep = g.endpoints(e);
    edges.push_back(spec(ep.u, ep.v, e));
  }
  dec.insert(edges);
  std::vector<std::int64_t> to_erase{0, 1, 2, 3, 4};
  dec.erase(to_erase);
  for (const auto id : to_erase) EXPECT_FALSE(dec.contains(id));
  EXPECT_EQ(dec.num_edges(), g.num_edges() - 5);
}

TEST(DynamicDecompTest, ClusterVertexSumStaysNearLinear) {
  par::Rng rng(63);
  UndirectedGraph g = graph::gnp_undirected(120, 0.08, rng);
  DynamicExpanderDecomposition dec(pmcf::core::default_context(), 120, {.phi = 0.1});
  std::vector<DynamicExpanderDecomposition::EdgeSpec> edges;
  for (const EdgeId e : g.live_edges()) {
    const auto ep = g.endpoints(e);
    edges.push_back(spec(ep.u, ep.v, e));
  }
  dec.insert(edges);
  EXPECT_LE(dec.total_cluster_vertices(), 16 * 120) << "Σ|V(G_i)| must be Õ(n)";
}

TEST(DynamicDecompTest, ChurnKeepsConsistency) {
  // Interleaved inserts and erases; the location map must stay exact.
  par::Rng rng(64);
  const Vertex n = 60;
  DynamicExpanderDecomposition dec(pmcf::core::default_context(), n, {.phi = 0.12});
  std::set<std::int64_t> live_ids;
  std::int64_t next_id = 0;
  for (int step = 0; step < 30; ++step) {
    if (live_ids.empty() || rng.bernoulli(0.6)) {
      std::vector<DynamicExpanderDecomposition::EdgeSpec> batch;
      const int k = 1 + static_cast<int>(rng.next_below(20));
      for (int i = 0; i < k; ++i) {
        const auto u = static_cast<Vertex>(rng.next_below(static_cast<std::uint64_t>(n)));
        const auto v = static_cast<Vertex>(rng.next_below(static_cast<std::uint64_t>(n)));
        if (u == v) continue;
        batch.push_back(spec(u, v, next_id));
        live_ids.insert(next_id++);
      }
      dec.insert(batch);
    } else {
      std::vector<std::int64_t> batch;
      auto it = live_ids.begin();
      const int k = 1 + static_cast<int>(rng.next_below(5));
      for (int i = 0; i < k && it != live_ids.end(); ++i) {
        batch.push_back(*it);
        it = live_ids.erase(it);
      }
      dec.erase(batch);
    }
    EXPECT_EQ(dec.num_edges(), live_ids.size());
    // Clusters partition the live edge ids exactly.
    std::set<std::int64_t> seen;
    for (const auto* cl : dec.clusters()) {
      for (const EdgeId le : cl->graph().live_edges()) {
        const auto id = cl->ext_of(le);
        EXPECT_TRUE(live_ids.contains(id)) << "stale edge " << id;
        EXPECT_FALSE(seen.contains(id)) << "edge in two clusters " << id;
        seen.insert(id);
      }
    }
    EXPECT_EQ(seen.size(), live_ids.size());
  }
}

TEST(DynamicDecompTest, ClustersAreExpandersAfterChurn) {
  par::Rng rng(65);
  UndirectedGraph g = graph::random_regular_expander(48, 4, rng);
  DynamicExpanderDecomposition dec(pmcf::core::default_context(), 48, {.phi = 0.1});
  std::vector<DynamicExpanderDecomposition::EdgeSpec> edges;
  for (const EdgeId e : g.live_edges()) {
    const auto ep = g.endpoints(e);
    edges.push_back(spec(ep.u, ep.v, e));
  }
  dec.insert(edges);
  // Delete a slab of edges, then check every surviving cluster's expansion
  // via sweep (conservative threshold).
  std::vector<std::int64_t> del;
  for (std::int64_t id = 0; id < 20; ++id) del.push_back(id);
  dec.erase(del);
  for (const auto* cl : dec.clusters()) {
    const auto& cg = cl->graph();
    if (cg.num_edges() < 8) continue;  // tiny clusters are trivially fine
    par::Rng r2(99);
    const auto cut = sweep_cut(cg, r2);
    if (cut) {
      EXPECT_GE(cut->expansion(), 0.02) << "cluster lost expansion";
    }
  }
}

}  // namespace
}  // namespace pmcf::expander
