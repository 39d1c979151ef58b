// Tests for ParallelUnitFlow (Algorithms 1-2) — flow conservation, the
// Lemma 3.10 output guarantees, and work scaling with ||Δ||_0.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "expander/unit_flow.hpp"
#include "graph/generators.hpp"
#include "parallel/rng.hpp"

namespace pmcf::expander {
namespace {

using graph::UndirectedGraph;
using graph::Vertex;

/// Check flow conservation: for each v,
///   source(v) + inflow - outflow = absorbed(v) + excess(v),
/// and capacity feasibility |f_e| <= cap_e.
void check_flow_valid(const UnitFlowProblem& p, const UnitFlowResult& r) {
  const auto& g = *p.g;
  const auto n = static_cast<std::size_t>(g.num_vertices());
  std::vector<std::int64_t> net(n, 0);
  for (const graph::EdgeId e : g.live_edges()) {
    const auto ei = static_cast<std::size_t>(e);
    EXPECT_LE(std::abs(r.flow[ei]), p.cap[ei]) << "capacity violated on edge " << e;
    const auto ep = g.endpoints(e);
    net[static_cast<std::size_t>(ep.u)] -= r.flow[ei];
    net[static_cast<std::size_t>(ep.v)] += r.flow[ei];
  }
  for (std::size_t v = 0; v < n; ++v) {
    EXPECT_EQ(p.source[v] + net[v], r.absorbed[v] + r.excess[v])
        << "conservation violated at vertex " << v;
    EXPECT_GE(r.excess[v], 0);
    EXPECT_GE(r.absorbed[v], 0);
    EXPECT_LE(r.absorbed[v], p.sink[v]);
  }
}

/// Lemma 3.10 (i): an edge {u,v} with l(u) > l(v)+1 is saturated u->v.
void check_label_saturation(const UnitFlowProblem& p, const UnitFlowResult& r) {
  const auto& g = *p.g;
  for (const graph::EdgeId e : g.live_edges()) {
    const auto ep = g.endpoints(e);
    const auto lu = r.label[static_cast<std::size_t>(ep.u)];
    const auto lv = r.label[static_cast<std::size_t>(ep.v)];
    const auto f = r.flow[static_cast<std::size_t>(e)];
    const auto cap = p.cap[static_cast<std::size_t>(e)];
    if (lu > lv + 1) {
      EXPECT_EQ(f, cap) << "edge " << e << " not saturated u->v";
    }
    if (lv > lu + 1) {
      EXPECT_EQ(f, -cap) << "edge " << e << " not saturated v->u";
    }
  }
}

/// Lemma 3.10 (iii): excess only at the top level.
void check_excess_at_top(const UnitFlowProblem& p, const UnitFlowResult& r) {
  for (std::size_t v = 0; v < r.excess.size(); ++v)
    if (r.excess[v] > 0) {
      EXPECT_EQ(r.label[v], p.height) << "excess below h at " << v;
    }
}

UnitFlowProblem make_problem(const UndirectedGraph& g, std::int64_t cap,
                             std::vector<std::int64_t> source, std::vector<std::int64_t> sink,
                             std::int32_t h) {
  UnitFlowProblem p;
  p.g = &g;
  p.cap.assign(g.edge_slots(), cap);
  p.source = std::move(source);
  p.sink = std::move(sink);
  p.height = h;
  return p;
}

TEST(UnitFlowTest, TrivialAbsorbAtSource) {
  UndirectedGraph g(2);
  g.add_edge(0, 1);
  auto p = make_problem(g, 10, {5, 0}, {10, 10}, 4);
  const auto r = parallel_unit_flow(p);
  check_flow_valid(p, r);
  EXPECT_EQ(r.total_excess, 0);
  // Sink slicing may push part of the demand to the neighbour, but all of it
  // must be absorbed somewhere.
  EXPECT_EQ(r.absorbed[0] + r.absorbed[1], 5);
}

TEST(UnitFlowTest, PushesToNeighborWhenLocalSinkFull) {
  UndirectedGraph g(2);
  g.add_edge(0, 1);
  auto p = make_problem(g, 10, {5, 0}, {0, 10}, 4);
  p.rounds = 1;  // one full sink slice => deterministic single push
  const auto r = parallel_unit_flow(p);
  check_flow_valid(p, r);
  EXPECT_EQ(r.total_excess, 0);
  EXPECT_EQ(r.absorbed[1], 5);
}

TEST(UnitFlowTest, CapacityLimitsLeaveExcess) {
  UndirectedGraph g(2);
  g.add_edge(0, 1);
  auto p = make_problem(g, 2, {5, 0}, {0, 10}, 4);
  const auto r = parallel_unit_flow(p);
  check_flow_valid(p, r);
  EXPECT_EQ(r.absorbed[1], 2);   // only 2 units fit through the edge
  EXPECT_EQ(r.excess[0], 3);
  check_excess_at_top(p, r);
  check_label_saturation(p, r);
}

TEST(UnitFlowTest, ZeroSinkParksAllExcess) {
  UndirectedGraph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  auto p = make_problem(g, 100, {7, 0, 0}, {0, 0, 0}, 3);
  const auto r = parallel_unit_flow(p);
  check_flow_valid(p, r);
  EXPECT_EQ(r.total_excess, 7);
  check_excess_at_top(p, r);
}

TEST(UnitFlowTest, PathRoutesAcross) {
  // Source at one end, sink at the other; must route through the path.
  const int len = 6;
  UndirectedGraph g(len);
  for (Vertex i = 0; i + 1 < len; ++i) g.add_edge(i, i + 1);
  auto p = make_problem(g, 100, {}, {}, 2 * len);
  p.source.assign(len, 0);
  p.sink.assign(len, 0);
  p.source[0] = 9;
  p.sink[len - 1] = 20;
  p.rounds = 1;
  const auto r = parallel_unit_flow(p);
  check_flow_valid(p, r);
  EXPECT_EQ(r.total_excess, 0);
  EXPECT_EQ(r.absorbed[len - 1], 9);
  // Every path edge carries the full 9 units forward.
  for (const graph::EdgeId e : g.live_edges())
    EXPECT_EQ(std::abs(r.flow[static_cast<std::size_t>(e)]), 9);
}

class UnitFlowRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(UnitFlowRandomTest, InvariantsOnExpanders) {
  par::Rng rng(1000 + GetParam());
  const Vertex n = 24;
  UndirectedGraph g = graph::random_regular_expander(n, 3, rng);  // 6-regular
  UnitFlowProblem p;
  p.g = &g;
  p.cap.assign(g.edge_slots(), 8);
  p.source.assign(static_cast<std::size_t>(n), 0);
  p.sink.assign(static_cast<std::size_t>(n), 0);
  // Random sources on a few vertices; sinks proportional to degree.
  for (int k = 0; k < 5; ++k)
    p.source[rng.next_below(static_cast<std::uint64_t>(n))] += rng.uniform_int(1, 12);
  for (std::size_t v = 0; v < static_cast<std::size_t>(n); ++v) p.sink[v] = g.degree(static_cast<Vertex>(v));
  p.height = 20;
  const auto r = parallel_unit_flow(p);
  check_flow_valid(p, r);
  check_label_saturation(p, r);
  check_excess_at_top(p, r);
}

INSTANTIATE_TEST_SUITE_P(Seeds, UnitFlowRandomTest, ::testing::Range(0, 12));

TEST(UnitFlowTest, SinkSlicesSumToTotalSink) {
  // With plentiful capacity and sinks, everything is absorbed across rounds.
  par::Rng rng(55);
  UndirectedGraph g = graph::random_regular_expander(16, 2, rng);
  UnitFlowProblem p;
  p.g = &g;
  p.cap.assign(g.edge_slots(), 1000);
  p.source.assign(16, 3);
  p.sink.assign(16, 4);
  p.height = 10;
  const auto r = parallel_unit_flow(p);
  check_flow_valid(p, r);
  EXPECT_EQ(r.total_absorbed + r.total_excess, 48);
  EXPECT_EQ(r.total_excess, 0);  // 48 units vs 64 sink capacity
}

/// FNV-1a over the final labels and edge flows.
std::uint64_t label_flow_digest(const UnitFlowResult& r) {
  std::uint64_t hash = 1469598103934665603ULL;
  auto mix = [&](std::int64_t x) {
    hash ^= static_cast<std::uint64_t>(x);
    hash *= 1099511628211ULL;
  };
  for (const std::int32_t l : r.label) mix(l);
  for (const std::int64_t f : r.flow) mix(f);
  return hash;
}

TEST(UnitFlowTest, TallHeightKeepsItsArithmetic) {
  // Production heights are 20·⌈log2 n⌉ (h = 160–240 in bench_trimming), past
  // one 64-bit word of levels. Sources far above the sinks drive excess up
  // to h, so every level is visited; the counters and the label/flow digest
  // pin the sweep order bit for bit.
  struct Case {
    std::int32_t height;
    std::uint64_t edge_scans;
    std::int32_t push_relabel_calls;
    std::int64_t total_absorbed;
    std::int64_t total_excess;
    std::uint64_t digest;
  };
  for (const Case& c : {Case{63, 35017, 151, 28, 181, 0x9c872150fa2e69beULL},
                        Case{64, 35546, 161, 28, 237, 0x0a792bf611669e03ULL},
                        Case{65, 36925, 199, 28, 188, 0xe75712f1c39d9d21ULL},
                        Case{100, 55556, 266, 28, 167, 0xbf217e42af9ce41cULL},
                        Case{160, 88057, 358, 28, 212, 0x9176b0b692ede50eULL}}) {
    par::Rng rng(4200 + static_cast<std::uint64_t>(c.height));
    const Vertex n = 40;
    UndirectedGraph g = graph::random_regular_expander(n, 3, rng);  // 6-regular
    UnitFlowProblem p;
    p.g = &g;
    p.cap.assign(g.edge_slots(), 3);
    p.source.assign(static_cast<std::size_t>(n), 0);
    p.sink.assign(static_cast<std::size_t>(n), 0);
    for (int k = 0; k < 6; ++k)
      p.source[rng.next_below(static_cast<std::uint64_t>(n))] += rng.uniform_int(20, 60);
    for (std::size_t v = 0; v < static_cast<std::size_t>(n); v += 3) p.sink[v] = 2;
    p.height = c.height;
    const auto r = parallel_unit_flow(p);
    check_flow_valid(p, r);
    check_label_saturation(p, r);
    check_excess_at_top(p, r);
    EXPECT_GT(r.total_excess, 0) << "h=" << c.height;
    EXPECT_EQ(*std::max_element(r.label.begin(), r.label.end()), c.height);
    EXPECT_EQ(r.edge_scans, c.edge_scans) << "h=" << c.height;
    EXPECT_EQ(r.push_relabel_calls, c.push_relabel_calls) << "h=" << c.height;
    EXPECT_EQ(r.total_absorbed, c.total_absorbed) << "h=" << c.height;
    EXPECT_EQ(r.total_excess, c.total_excess) << "h=" << c.height;
    EXPECT_EQ(label_flow_digest(r), c.digest) << "h=" << c.height;
  }
}

TEST(UnitFlowTest, ResumesFromInitialFlow) {
  // Saturate an edge with an initial flow; the solver must respect residuals.
  UndirectedGraph g(2);
  g.add_edge(0, 1);
  auto p = make_problem(g, 5, {3, 0}, {0, 100}, 4);
  std::vector<std::int64_t> init{5};  // edge already saturated 0->1
  const auto r = parallel_unit_flow(p, init);
  // No residual capacity 0->1: all 3 units stay as excess at vertex 0.
  EXPECT_EQ(r.excess[0], 3);
  EXPECT_EQ(r.flow[0], 5);
}

TEST(UnitFlowTest, WorkScalesWithSourceSupportNotGraphSize) {
  // Lemma 3.11: edge work ~ ||Δ||_0 * poly(h, η, 1/γ), independent of m.
  // Same tiny source on graphs 8x apart in size must cost comparable scans.
  auto scans_for = [](graph::Vertex n) {
    par::Rng rng(77);
    UndirectedGraph g = graph::random_regular_expander(n, 3, rng);
    UnitFlowProblem p;
    p.g = &g;
    p.cap.assign(g.edge_slots(), 4);
    p.source.assign(static_cast<std::size_t>(n), 0);
    p.sink.assign(static_cast<std::size_t>(n), 0);
    p.source[0] = 2;
    for (std::size_t v = 0; v < static_cast<std::size_t>(n); ++v)
      p.sink[v] = g.degree(static_cast<Vertex>(v));
    p.height = 12;
    p.rounds = 16;  // same round count for both sizes
    const auto r = parallel_unit_flow(p);
    EXPECT_EQ(r.total_excess, 0);
    return r.edge_scans;
  };
  const auto small = scans_for(1000);
  const auto big = scans_for(8000);
  EXPECT_LT(big, 3 * small + 1000) << "edge work must not scale with m";
  EXPECT_LT(big, 24000u) << "edge work must stay far below m";
}

}  // namespace
}  // namespace pmcf::expander
