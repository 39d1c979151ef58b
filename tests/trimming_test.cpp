// Tests for Trimming (Algorithm 3 / Lemma 3.7): certification on intact
// expanders, removal of weakly attached appendages, and removed-volume
// bounds proportional to the boundary size. Trimming is the first
// delete_batch of a TrimmingEngine built on the graph before the deletions.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>

#include "expander/defs.hpp"
#include "expander/trimming_engine.hpp"
#include "graph/generators.hpp"
#include "parallel/rng.hpp"

namespace pmcf::expander {
namespace {

using graph::EdgeId;
using graph::UndirectedGraph;
using graph::Vertex;

/// `draws` uniform draws from the live edges of `g`, repeats skipped.
std::vector<EdgeId> draw_deletions(const UndirectedGraph& g, int draws, par::Rng& rng) {
  const auto live = g.live_edges();
  std::vector<EdgeId> batch;
  for (int k = 0; k < draws; ++k) {
    const EdgeId e = live[rng.next_below(live.size())];
    if (std::find(batch.begin(), batch.end(), e) == batch.end()) batch.push_back(e);
  }
  return batch;
}

struct Trimmed {
  TrimmingEngine engine;
  std::vector<Vertex> removed;  ///< A \ A'
};

/// Trimming of `g` minus `deletions`: each deleted edge charges boundary
/// demand at both endpoints.
Trimmed trim(UndirectedGraph g, const std::vector<EdgeId>& deletions, double phi) {
  TrimmingEngine engine(std::move(g), {.phi = phi});
  std::vector<Vertex> removed = engine.delete_batch(deletions, nullptr);
  return {std::move(engine), std::move(removed)};
}

TEST(TrimmingTest, IntactExpanderKeepsEverything) {
  // No deletions, no boundary: trimming must certify A' = A immediately.
  par::Rng rng(21);
  const auto t = trim(graph::random_regular_expander(40, 3, rng), {}, 0.1);
  EXPECT_TRUE(t.removed.empty());
  EXPECT_EQ(t.engine.leftover_excess(), 0);
  // Injected demand is either absorbed or left over, so none was injected.
  const auto& absorbed = t.engine.absorbed();
  EXPECT_EQ(std::accumulate(absorbed.begin(), absorbed.end(), std::int64_t{0}), 0);
}

TEST(TrimmingTest, SmallDeletionKeepsMostOfExpander) {
  // Delete a few edges from a solid expander; the flow certificate should
  // route the demand and keep (almost) every vertex.
  par::Rng rng(22);
  const UndirectedGraph g = graph::random_regular_expander(60, 4, rng);  // 8-regular
  const auto t = trim(g, draw_deletions(g, 4, rng), 0.1);
  EXPECT_EQ(t.engine.leftover_excess(), 0) << "demand must be fully routed";
  EXPECT_LT(t.engine.removed_volume(), 200) << "removed volume must be O(boundary/phi)";
}

TEST(TrimmingTest, CutsOffWeaklyAttachedAppendage) {
  // Expander core + a path appendage attached by a single edge, where the
  // tail tip lost most of its edges: the tip cannot route its boundary
  // demand and must be trimmed away, and the core must survive.
  par::Rng rng(23);
  const Vertex core_n = 30;
  const Vertex tail_n = 6;
  UndirectedGraph g(core_n + tail_n);
  {
    UndirectedGraph core = graph::random_regular_expander(core_n, 3, rng);
    for (const EdgeId e : core.live_edges()) {
      const auto ep = core.endpoints(e);
      g.add_edge(ep.u, ep.v);
    }
  }
  // Tail: a path core_n .. core_n+tail_n-1 hanging off vertex 0.
  g.add_edge(0, core_n);
  for (Vertex i = 0; i + 1 < tail_n; ++i) g.add_edge(core_n + i, core_n + i + 1);
  // Deletion damage on the tail tip: 4 tip-core edges are deleted, a demand
  // far exceeding the tip's single remaining edge, yet within the core's
  // absorption capacity (Lemma 3.7's |∂A| <= φm precondition).
  const Vertex tip = core_n + tail_n - 1;
  std::vector<EdgeId> deletions;
  for (Vertex c = 1; c <= 4; ++c) deletions.push_back(g.add_edge(tip, c));
  const auto t = trim(std::move(g), deletions, 0.15);
  // The tail tip (degree 1 after the deletions) cannot route demand 4*cap.
  EXPECT_FALSE(t.removed.empty());
  EXPECT_NE(std::find(t.removed.begin(), t.removed.end(), tip), t.removed.end());
  std::int64_t core_removed = 0;
  for (const Vertex v : t.removed)
    if (v < core_n) ++core_removed;
  EXPECT_LE(core_removed, 3) << "expander core should survive trimming";
}

TEST(TrimmingTest, FlowRespectsCapacities) {
  par::Rng rng(24);
  const UndirectedGraph g = graph::random_regular_expander(40, 3, rng);
  // Boundary demand at vertices 0 and 7: delete three and two of their edges.
  std::vector<EdgeId> deletions;
  for (std::size_t k = 0; k < 3; ++k) deletions.push_back(g.incident(0)[k].edge);
  for (std::size_t k = 0; k < 2; ++k) deletions.push_back(g.incident(7)[k].edge);
  const double phi = 0.1;
  const auto t = trim(g, deletions, phi);
  const auto cap = static_cast<std::int64_t>(std::ceil(2.0 / phi));
  for (const EdgeId e : t.engine.graph().live_edges())
    EXPECT_LE(std::abs(t.engine.certificate_flow()[static_cast<std::size_t>(e)]), cap);
}

TEST(TrimmingTest, RemainingGraphIsStillAnExpander) {
  // Lemma 3.7 / 3.9: after trimming, H[A'] should still have decent
  // expansion. Verified exactly on a small instance.
  par::Rng rng(25);
  const UndirectedGraph g = graph::random_regular_expander(16, 3, rng);
  const auto t = trim(g, draw_deletions(g, 3, rng), 0.1);
  EXPECT_EQ(t.engine.leftover_excess(), 0);
  // Build the kept induced subgraph and check expansion exactly.
  std::vector<Vertex> kept;
  for (Vertex v = 0; v < 16; ++v)
    if (t.engine.vertex_kept(v)) kept.push_back(v);
  const auto sub = induced_subgraph(t.engine.graph(), kept);
  const auto cut = exact_min_expansion_cut(sub.graph);
  if (cut) {
    EXPECT_GE(cut->expansion(), 0.05) << "kept subgraph lost expansion";
  }
}

class TrimmingSweep : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(TrimmingSweep, RemovedVolumeScalesWithBoundary) {
  const auto [seed, draws] = GetParam();
  par::Rng rng(3000 + seed);
  const UndirectedGraph g = graph::random_regular_expander(80, 4, rng);
  const auto deletions = draw_deletions(g, draws, rng);
  const auto t = trim(g, deletions, 0.1);
  EXPECT_EQ(t.engine.leftover_excess(), 0);
  // Õ(1/phi) * boundary with generous constants.
  EXPECT_LE(t.engine.removed_volume(), 60 * static_cast<std::int64_t>(deletions.size()) + 16);
}

INSTANTIATE_TEST_SUITE_P(Sweep, TrimmingSweep,
                         ::testing::Combine(::testing::Range(0, 4),
                                            ::testing::Values(1, 3, 6)));

}  // namespace
}  // namespace pmcf::expander
