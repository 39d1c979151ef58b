// Acceptance tests for the cross-solve instance cache and the incremental
// re-solve API (DESIGN.md §15): Engine::register_instance / resolve.
//
// The correctness contract under test:
//   - resolve(handle, {}) on a freshly registered instance is bit-identical
//     to a plain Engine::solve of the same instance, in every engine mode
//     (instrumented, pooled wall-clock, serial wall-clock);
//   - a second empty-delta resolve replays the retained optimum, after
//     re-certifying it in exact arithmetic ("cached-result" provenance);
//   - every delta path (cost / capacity / add / remove / mixed) produces a
//     certified optimum whose cost and flow value match an independent cold
//     solve of the post-delta instance;
//   - cache observability counters (hits / misses / invalidations /
//     evictions, warm vs cold) tell the truth;
//   - malformed deltas and unknown handles are typed kInvalidInput and leave
//     the registered instance untouched.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "core/solve_status.hpp"

#include "graph/digraph.hpp"
#include "graph/generators.hpp"
#include "mcf/engine.hpp"
#include "mcf/min_cost_flow.hpp"
#include "parallel/rng.hpp"
#include "parallel/thread_pool.hpp"

namespace pmcf {
namespace {

using graph::Digraph;
using graph::EdgeId;
using graph::Vertex;

mcf::SolveOptions fast_opts() {
  mcf::SolveOptions opts;
  opts.ipm.mu_end = 1e-3;
  opts.ipm.leverage.sketch_dim = 8;
  return opts;
}

Digraph make_graph(std::uint64_t seed, Vertex n = 12, std::int64_t m = 48) {
  par::Rng rng(seed);
  return graph::random_flow_network(n, m, 8, 7, rng);
}

void expect_identical(const mcf::MinCostFlowResult& a, const mcf::MinCostFlowResult& b) {
  EXPECT_EQ(a.status, b.status);
  EXPECT_EQ(a.flow_value, b.flow_value);
  EXPECT_EQ(a.cost, b.cost);
  EXPECT_EQ(a.arc_flow, b.arc_flow);
  EXPECT_EQ(a.stats.ipm_iterations, b.stats.ipm_iterations);
  EXPECT_EQ(a.stats.final_mu, b.stats.final_mu);
  EXPECT_EQ(a.stats.final_centrality, b.stats.final_centrality);
  EXPECT_EQ(a.stats.answered_by, b.stats.answered_by);
  EXPECT_EQ(a.stats.certified, b.stats.certified);
}

/// Test-side mirror of a registered instance: the same original-arc-id delta
/// semantics, maintained independently of InstanceRecord, used to build the
/// post-delta graph for reference cold solves.
struct Mirror {
  struct MArc {
    Vertex from, to;
    std::int64_t cap, cost;
    bool alive = true;
  };
  Vertex n = 0;
  std::vector<MArc> arcs;

  explicit Mirror(const Digraph& g) : n(g.num_vertices()) {
    for (const auto& a : g.arcs()) arcs.push_back({a.from, a.to, a.cap, a.cost, true});
  }

  void apply(const InstanceDelta& d) {
    for (const auto& c : d.cost_changes) arcs[static_cast<std::size_t>(c.arc)].cost = c.cost;
    for (const auto& c : d.cap_changes) arcs[static_cast<std::size_t>(c.arc)].cap = c.cap;
    for (const EdgeId e : d.remove_arcs) arcs[static_cast<std::size_t>(e)].alive = false;
    for (const auto& a : d.add_arcs) arcs.push_back({a.from, a.to, a.cap, a.cost, true});
  }

  /// Live arcs in original-id order — the same graph Engine::resolve solves.
  [[nodiscard]] Digraph live_graph() const {
    Digraph g(n);
    for (const MArc& a : arcs)
      if (a.alive) g.add_arc(a.from, a.to, a.cap, a.cost);
    return g;
  }
};

class EngineResolveTest : public ::testing::Test {
 protected:
  void SetUp() override { par::ThreadPool::configure(1); }
  void TearDown() override { par::ThreadPool::configure(1); }
};

// --- empty-delta bit-identity across engine modes --------------------------

void check_empty_delta_bit_identity(const EngineConfig& cfg) {
  const Digraph g = make_graph(910);
  const auto inst = Instance::max_flow(g, 0, g.num_vertices() - 1);
  const auto opts = fast_opts();

  // Two engines with the same config: one solves fresh, one resolves a
  // registered copy. (Same engine would also do, but separate engines prove
  // the result depends on nothing but the instance and the seed.)
  const Engine plain(cfg);
  const Engine caching(cfg);
  const EngineSolveResult fresh = plain.solve(inst, opts);
  ASSERT_EQ(fresh.result.status, SolveStatus::kOk);

  const InstanceHandle h = caching.register_instance(inst);
  ASSERT_NE(h, 0u);
  const EngineSolveResult cold = caching.resolve(h, {}, opts);
  ASSERT_EQ(cold.result.status, SolveStatus::kOk);
  expect_identical(cold.result, fresh.result);
  EXPECT_FALSE(cold.result.stats.warm_started);
  EXPECT_EQ(cold.pram.work, fresh.pram.work);
  EXPECT_EQ(cold.pram.depth, fresh.pram.depth);

  // Second empty-delta resolve: replay of the retained, re-certified optimum.
  const EngineSolveResult replay = caching.resolve(h, {}, opts);
  ASSERT_EQ(replay.result.status, SolveStatus::kOk);
  EXPECT_EQ(replay.result.flow_value, fresh.result.flow_value);
  EXPECT_EQ(replay.result.cost, fresh.result.cost);
  EXPECT_EQ(replay.result.arc_flow, fresh.result.arc_flow);
  EXPECT_TRUE(replay.result.stats.certified);
  EXPECT_TRUE(replay.result.stats.warm_started);
  EXPECT_EQ(replay.result.stats.warm_source, "cached-result");
}

TEST_F(EngineResolveTest, EmptyDeltaMatchesFreshSolveInstrumented) {
  EngineConfig cfg;
  cfg.instrument = true;
  cfg.use_global_pool = false;
  check_empty_delta_bit_identity(cfg);
}

TEST_F(EngineResolveTest, EmptyDeltaMatchesFreshSolveSerialWallClock) {
  EngineConfig cfg;
  cfg.instrument = false;
  cfg.use_global_pool = false;
  check_empty_delta_bit_identity(cfg);
}

TEST_F(EngineResolveTest, EmptyDeltaMatchesFreshSolvePooledWallClock) {
  par::ThreadPool::configure(4);
  EngineConfig cfg;
  cfg.instrument = false;
  cfg.use_global_pool = true;
  check_empty_delta_bit_identity(cfg);
}

// --- delta paths: certified optimum == independent cold solve ---------------

/// Apply `delta` through resolve() and through the mirror; assert the warm
/// result is certified and agrees with a cold solve of the mirror graph on
/// cost and flow value (arc flows may differ between equally optimal flows).
void check_delta_against_cold(const Engine& engine, InstanceHandle h, Mirror& mirror,
                              const InstanceDelta& delta, const mcf::SolveOptions& opts) {
  const EngineSolveResult warm = engine.resolve(h, delta, opts);
  ASSERT_EQ(warm.result.status, SolveStatus::kOk) << warm.result.failure_detail;
  EXPECT_TRUE(warm.result.stats.certified);

  mirror.apply(delta);
  const Digraph cold_g = mirror.live_graph();
  const Engine cold_engine;  // fresh engine: no cache, no shared state
  const EngineSolveResult cold =
      cold_engine.solve(Instance::max_flow(cold_g, 0, cold_g.num_vertices() - 1), opts);
  ASSERT_EQ(cold.result.status, SolveStatus::kOk);
  EXPECT_EQ(warm.result.flow_value, cold.result.flow_value);
  EXPECT_EQ(warm.result.cost, cold.result.cost);

  // arc_flow is in original ids: removed arcs report exactly 0.
  ASSERT_EQ(warm.result.arc_flow.size(), mirror.arcs.size());
  for (std::size_t e = 0; e < mirror.arcs.size(); ++e) {
    if (!mirror.arcs[e].alive) {
      EXPECT_EQ(warm.result.arc_flow[e], 0);
    }
  }
}

TEST_F(EngineResolveTest, EveryDeltaPathMatchesColdSolve) {
  const Digraph g = make_graph(911);
  Mirror mirror(g);
  const Engine engine;
  const auto opts = fast_opts();
  const InstanceHandle h = engine.register_instance(Instance::max_flow(g, 0, g.num_vertices() - 1));
  ASSERT_NE(h, 0u);
  ASSERT_EQ(engine.resolve(h, {}, opts).result.status, SolveStatus::kOk);  // prime the cache

  {  // cost perturbation (values-only; central-path warm start eligible)
    InstanceDelta d;
    d.cost_changes = {{0, 9}, {5, 0}, {17, 3}};
    check_delta_against_cold(engine, h, mirror, d, opts);
  }
  {  // capacity perturbation (values-only)
    InstanceDelta d;
    d.cap_changes = {{2, 11}, {9, 1}};
    check_delta_against_cold(engine, h, mirror, d, opts);
  }
  {  // arc addition (structural: epoch bump, cold re-solve)
    InstanceDelta d;
    d.add_arcs = {{1, static_cast<Vertex>(g.num_vertices() - 1), 5, 2}};
    check_delta_against_cold(engine, h, mirror, d, opts);
  }
  {  // arc removal (structural, compacting)
    InstanceDelta d;
    d.remove_arcs = {3, 20};
    check_delta_against_cold(engine, h, mirror, d, opts);
  }
  {  // mixed delta, including a value change on an arc that survives removal
    InstanceDelta d;
    d.cost_changes = {{6, 1}};
    d.cap_changes = {{7, 4}};
    d.remove_arcs = {12};
    d.add_arcs = {{0, 4, 3, 1}};
    check_delta_against_cold(engine, h, mirror, d, opts);
  }
}

TEST_F(EngineResolveTest, BFlowResolveMatchesColdSolve) {
  const Digraph g = make_graph(912);
  const auto opts = fast_opts();
  std::vector<std::int64_t> b(static_cast<std::size_t>(g.num_vertices()), 0);
  b.front() = -1;  // ship one unit along the guaranteed s-t path
  b.back() = 1;

  const Engine engine;
  const InstanceHandle h = engine.register_instance(Instance::b_flow(g, b));
  ASSERT_NE(h, 0u);
  const EngineSolveResult first = engine.resolve(h, {}, opts);
  ASSERT_EQ(first.result.status, SolveStatus::kOk);
  EXPECT_TRUE(first.result.stats.certified);

  InstanceDelta d;
  d.cost_changes = {{1, 6}, {4, 0}};
  const EngineSolveResult warm = engine.resolve(h, d, opts);
  ASSERT_EQ(warm.result.status, SolveStatus::kOk);
  EXPECT_TRUE(warm.result.stats.certified);
  EXPECT_TRUE(warm.result.stats.warm_started);

  Mirror mirror(g);
  mirror.apply(d);
  const Digraph cold_g = mirror.live_graph();
  const Engine cold_engine;
  const EngineSolveResult cold = cold_engine.solve(Instance::b_flow(cold_g, b), opts);
  ASSERT_EQ(cold.result.status, SolveStatus::kOk);
  EXPECT_EQ(warm.result.cost, cold.result.cost);
}

// --- warm provenance --------------------------------------------------------

TEST_F(EngineResolveTest, CostOnlyDeltaRestartsFromCentralPath) {
  const Digraph g = make_graph(913);
  const Engine engine;
  const auto opts = fast_opts();
  const InstanceHandle h = engine.register_instance(Instance::max_flow(g, 0, g.num_vertices() - 1));
  const EngineSolveResult cold = engine.resolve(h, {}, opts);
  ASSERT_EQ(cold.result.status, SolveStatus::kOk);
  EXPECT_FALSE(cold.result.stats.warm_started);
  EXPECT_EQ(cold.result.stats.warm_source, "");
  EXPECT_EQ(cold.result.stats.warm_mu0, 0.0);

  InstanceDelta d;
  d.cost_changes = {{0, 2}};  // ±1-scale perturbation keeps the path nearby
  const EngineSolveResult warm = engine.resolve(h, d, opts);
  ASSERT_EQ(warm.result.status, SolveStatus::kOk);
  EXPECT_TRUE(warm.result.stats.warm_started);
  // A cost-only delta keeps the augmented LP's feasibility structure, so the
  // previous central-path point must validate and be accepted.
  EXPECT_EQ(warm.result.stats.warm_source, "central-path");
  EXPECT_GT(warm.result.stats.warm_mu0, 0.0);
}

TEST_F(EngineResolveTest, WarmResolveRestartsWhereThePreviousSolveStopped) {
  const Digraph g = make_graph(916);
  const Engine engine;
  const auto opts = fast_opts();
  const InstanceHandle h = engine.register_instance(Instance::max_flow(g, 0, g.num_vertices() - 1));
  EngineSolveResult prev = engine.resolve(h, {}, opts);
  ASSERT_EQ(prev.result.status, SolveStatus::kOk);
  Mirror mirror(g);
  // Value-only deltas in a row: each resolve restarts at the mu where the
  // one before it stopped, which the duality-gap stop leaves above mu_end.
  for (const EdgeId arc : {0, 3, 5}) {
    SCOPED_TRACE(arc);
    InstanceDelta d;
    d.cost_changes = {{arc, mirror.arcs[static_cast<std::size_t>(arc)].cost + 1}};
    mirror.apply(d);
    const EngineSolveResult warm = engine.resolve(h, d, opts);
    ASSERT_EQ(warm.result.status, SolveStatus::kOk);
    EXPECT_TRUE(warm.result.stats.certified);
    ASSERT_EQ(warm.result.stats.warm_source, "central-path");
    EXPECT_GT(prev.result.stats.final_mu, opts.ipm.mu_end);
    EXPECT_EQ(warm.result.stats.warm_mu0, prev.result.stats.final_mu);

    const Digraph cold_g = mirror.live_graph();
    const Engine cold_engine;
    const EngineSolveResult cold =
        cold_engine.solve(Instance::max_flow(cold_g, 0, cold_g.num_vertices() - 1), opts);
    ASSERT_EQ(cold.result.status, SolveStatus::kOk);
    EXPECT_EQ(warm.result.cost, cold.result.cost);
    EXPECT_EQ(warm.result.flow_value, cold.result.flow_value);
    prev = warm;
  }
}

// --- observability counters -------------------------------------------------

TEST_F(EngineResolveTest, CacheCountersTellTheTruth) {
  const Digraph ga = make_graph(914);
  const Digraph gb = make_graph(915);
  EngineConfig cfg;
  cfg.instance_cache_capacity = 1;  // two holders cannot coexist
  const Engine engine(cfg);
  const auto opts = fast_opts();

  const InstanceHandle ha = engine.register_instance(Instance::max_flow(ga, 0, ga.num_vertices() - 1));
  const InstanceHandle hb = engine.register_instance(Instance::max_flow(gb, 0, gb.num_vertices() - 1));
  ASSERT_NE(ha, 0u);
  ASSERT_NE(hb, 0u);
  EXPECT_EQ(engine.num_instances(), 2u);

  ASSERT_EQ(engine.resolve(ha, {}, opts).result.status, SolveStatus::kOk);  // miss, cold
  ASSERT_EQ(engine.resolve(ha, {}, opts).result.status, SolveStatus::kOk);  // hit, replay
  ASSERT_EQ(engine.resolve(hb, {}, opts).result.status, SolveStatus::kOk);  // miss + evicts A
  ASSERT_EQ(engine.resolve(ha, {}, opts).result.status, SolveStatus::kOk);  // miss (evicted)

  const MetricsSnapshot snap = engine.metrics_snapshot();
  EXPECT_EQ(snap.of(EngineCounter::kInstanceCacheHits), 1u);
  EXPECT_EQ(snap.of(EngineCounter::kInstanceCacheMisses), 3u);
  EXPECT_GE(snap.of(EngineCounter::kInstanceCacheEvictions), 2u);  // A by B, then B by A
  EXPECT_EQ(snap.of(EngineCounter::kResolveWarm), 1u);
  EXPECT_EQ(snap.of(EngineCounter::kResolveCold), 3u);
  EXPECT_EQ(snap.of(EngineCounter::kSolvedOk), 4u);
  EXPECT_EQ(snap.of(EngineCounter::kCertified), 4u);

  // A values delta on an instance the combinatorial tier answered last: its
  // artifacts hold a certified optimum but no central-path point, so the
  // resolve has nothing to restart from and counts as a cold miss.
  mcf::SolveOptions comb = opts;
  comb.method = mcf::Method::kCombinatorial;
  ASSERT_EQ(engine.resolve(hb, {}, comb).result.status, SolveStatus::kOk);  // miss + evicts A
  InstanceDelta d;
  d.cost_changes = {{0, 2}};
  const EngineSolveResult after_comb = engine.resolve(hb, d, opts);
  ASSERT_EQ(after_comb.result.status, SolveStatus::kOk);
  EXPECT_FALSE(after_comb.result.stats.warm_started);
  EXPECT_EQ(after_comb.result.stats.warm_source, "");

  const MetricsSnapshot snap2 = engine.metrics_snapshot();
  EXPECT_EQ(snap2.of(EngineCounter::kInstanceCacheHits), 1u);
  EXPECT_EQ(snap2.of(EngineCounter::kInstanceCacheMisses), 5u);
  EXPECT_EQ(snap2.of(EngineCounter::kResolveWarm), 1u);
  EXPECT_EQ(snap2.of(EngineCounter::kResolveCold), 5u);
  EXPECT_EQ(snap2.of(EngineCounter::kResolveWarmFallback), 0u);
  EXPECT_EQ(snap2.of(EngineCounter::kCertified), 6u);
}

TEST_F(EngineResolveTest, StructuralDeltaInvalidatesArtifacts) {
  const Digraph g = make_graph(916);
  const Engine engine;
  const auto opts = fast_opts();
  const InstanceHandle h = engine.register_instance(Instance::max_flow(g, 0, g.num_vertices() - 1));
  ASSERT_EQ(engine.resolve(h, {}, opts).result.status, SolveStatus::kOk);

  InstanceDelta d;
  d.add_arcs = {{0, 3, 2, 1}};
  const EngineSolveResult structural = engine.resolve(h, d, opts);
  ASSERT_EQ(structural.result.status, SolveStatus::kOk);
  EXPECT_FALSE(structural.result.stats.warm_started);  // epoch moved: cold

  const MetricsSnapshot snap = engine.metrics_snapshot();
  EXPECT_EQ(snap.of(EngineCounter::kInstanceCacheInvalidations), 1u);
  EXPECT_EQ(snap.of(EngineCounter::kResolveCold), 2u);
  EXPECT_EQ(snap.of(EngineCounter::kResolveWarm), 0u);
}

// --- lifecycle + validation -------------------------------------------------

TEST_F(EngineResolveTest, UnknownHandleAndDeregistrationAreTyped) {
  const Digraph g = make_graph(917);
  const Engine engine;
  EXPECT_EQ(engine.register_instance(Instance{}), 0u);  // null graph

  EXPECT_EQ(engine.resolve(0, {}).result.status, SolveStatus::kInvalidInput);
  EXPECT_EQ(engine.resolve(12345, {}).result.status, SolveStatus::kInvalidInput);

  const InstanceHandle h = engine.register_instance(Instance::max_flow(g, 0, g.num_vertices() - 1));
  ASSERT_NE(h, 0u);
  EXPECT_EQ(engine.num_instances(), 1u);
  EXPECT_TRUE(engine.deregister_instance(h));
  EXPECT_FALSE(engine.deregister_instance(h));
  EXPECT_EQ(engine.num_instances(), 0u);
  EXPECT_EQ(engine.resolve(h, {}).result.status, SolveStatus::kInvalidInput);
}

TEST_F(EngineResolveTest, MalformedDeltasRejectAtomically) {
  const Digraph g = make_graph(918);
  const Engine engine;
  const auto opts = fast_opts();
  const InstanceHandle h = engine.register_instance(Instance::max_flow(g, 0, g.num_vertices() - 1));
  const EngineSolveResult before = engine.resolve(h, {}, opts);
  ASSERT_EQ(before.result.status, SolveStatus::kOk);

  const auto expect_rejected = [&](const InstanceDelta& d) {
    const EngineSolveResult r = engine.resolve(h, d, opts);
    EXPECT_EQ(r.result.status, SolveStatus::kInvalidInput);
    EXPECT_NE(r.result.failure_detail.find("delta rejected"), std::string::npos);
  };
  {
    InstanceDelta d;
    d.cost_changes = {{g.num_arcs(), 1}};  // out of range
    expect_rejected(d);
  }
  {
    InstanceDelta d;
    d.cap_changes = {{0, -5}};  // negative capacity
    expect_rejected(d);
  }
  {
    InstanceDelta d;
    d.add_arcs = {{-1, 2, 1, 1}};  // bad endpoint
    expect_rejected(d);
  }
  {
    InstanceDelta d;
    d.remove_arcs = {g.num_arcs() + 7};  // out of range
    expect_rejected(d);
  }
  {
    InstanceDelta d;  // rejected as a whole: the valid cost change must not stick
    d.cost_changes = {{0, 999}};
    d.remove_arcs = {-1};
    expect_rejected(d);
  }

  // The record is untouched: an empty-delta resolve still replays the
  // original optimum bit-for-bit.
  const EngineSolveResult after = engine.resolve(h, {}, opts);
  ASSERT_EQ(after.result.status, SolveStatus::kOk);
  EXPECT_EQ(after.result.cost, before.result.cost);
  EXPECT_EQ(after.result.arc_flow, before.result.arc_flow);
  EXPECT_EQ(after.result.stats.warm_source, "cached-result");
}

TEST_F(EngineResolveTest, RemovingArcAlreadyRemovedIsRejected) {
  const Digraph g = make_graph(919);
  const Engine engine;
  const auto opts = fast_opts();
  const InstanceHandle h = engine.register_instance(Instance::max_flow(g, 0, g.num_vertices() - 1));

  InstanceDelta d;
  d.remove_arcs = {5};
  ASSERT_EQ(engine.resolve(h, d, opts).result.status, SolveStatus::kOk);
  EXPECT_EQ(engine.resolve(h, d, opts).result.status, SolveStatus::kInvalidInput);

  InstanceDelta on_removed;
  on_removed.cost_changes = {{5, 1}};  // value change on a removed arc
  EXPECT_EQ(engine.resolve(h, on_removed, opts).result.status, SolveStatus::kInvalidInput);
}

TEST_F(EngineResolveTest, InterleavedInstancesStayCertifiedAndIndependent) {
  const Digraph ga = make_graph(920);
  const Digraph gb = make_graph(921, 10, 36);
  const Engine engine;
  const auto opts = fast_opts();
  Mirror ma(ga);
  Mirror mb(gb);
  const InstanceHandle ha = engine.register_instance(Instance::max_flow(ga, 0, ga.num_vertices() - 1));
  const InstanceHandle hb = engine.register_instance(Instance::max_flow(gb, 0, gb.num_vertices() - 1));
  ASSERT_EQ(engine.resolve(ha, {}, opts).result.status, SolveStatus::kOk);
  ASSERT_EQ(engine.resolve(hb, {}, opts).result.status, SolveStatus::kOk);

  par::Rng rng(922);
  for (int round = 0; round < 4; ++round) {
    for (const auto& [h, mirror, g] :
         {std::tie(ha, ma, ga), std::tie(hb, mb, gb)}) {
      InstanceDelta d;
      const auto arc = static_cast<EdgeId>(rng.next_u64() % static_cast<std::uint64_t>(g.num_arcs()));
      d.cost_changes = {{arc, static_cast<std::int64_t>(rng.next_u64() % 8)}};
      const EngineSolveResult warm = engine.resolve(h, d, opts);
      ASSERT_EQ(warm.result.status, SolveStatus::kOk);
      EXPECT_TRUE(warm.result.stats.certified);
      EXPECT_TRUE(warm.result.stats.warm_started);

      mirror.apply(d);
      const Digraph cold_g = mirror.live_graph();
      const Engine cold_engine;
      const EngineSolveResult cold =
          cold_engine.solve(Instance::max_flow(cold_g, 0, cold_g.num_vertices() - 1), opts);
      ASSERT_EQ(cold.result.status, SolveStatus::kOk);
      EXPECT_EQ(warm.result.cost, cold.result.cost);
      EXPECT_EQ(warm.result.flow_value, cold.result.flow_value);
    }
  }
}

// --- churn races: deregistration and eviction vs in-flight resolves --------
// These run under TSan in CI (the suite name matches the sanitizer filter);
// the assertions here pin the semantics, the sanitizer pins the data races.

TEST_F(EngineResolveTest, ConcurrentDeregisterDoesNotDisturbInFlightResolves) {
  const Digraph g1 = make_graph(930);
  const Digraph g2 = make_graph(931);
  const Engine engine({.seed = 930, .use_global_pool = false});
  mcf::SolveOptions opts;
  opts.method = mcf::Method::kCombinatorial;
  const InstanceHandle doomed =
      engine.register_instance(Instance::max_flow(g1, 0, g1.num_vertices() - 1));
  const InstanceHandle stable =
      engine.register_instance(Instance::max_flow(g2, 0, g2.num_vertices() - 1));

  std::atomic<std::size_t> attempts{0};
  std::atomic<bool> saw_invalid{false};
  std::atomic<bool> bad_status{false};
  std::thread churner([&] {
    // Loop until the deregistration lands (time-capped so a regression that
    // never surfaces kInvalidInput fails instead of hanging).
    const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(30);
    for (int i = 0; !saw_invalid.load() && std::chrono::steady_clock::now() < give_up;
         ++i) {
      InstanceDelta d;
      d.cost_changes = {{0, 1 + (i % 7)}};
      const auto res = engine.resolve(doomed, d, opts);
      attempts.fetch_add(1);
      if (res.result.status == SolveStatus::kInvalidInput) {
        saw_invalid.store(true);  // handle died under us: typed, not a crash
      } else if (res.result.status != SolveStatus::kOk || !res.result.stats.certified) {
        bad_status.store(true);
        break;
      }
    }
  });
  std::thread bystander([&] {
    for (int i = 0; i < 40; ++i) {
      InstanceDelta d;
      d.cost_changes = {{1, 1 + (i % 5)}};
      const auto res = engine.resolve(stable, d, opts);
      if (res.result.status != SolveStatus::kOk) bad_status.store(true);
    }
  });

  while (attempts.load() < 8) std::this_thread::yield();
  EXPECT_TRUE(engine.deregister_instance(doomed));  // races in-flight resolves
  churner.join();
  bystander.join();
  EXPECT_TRUE(saw_invalid.load());
  EXPECT_FALSE(bad_status.load());
  // The unrelated handle was untouched by the churn.
  EXPECT_EQ(engine.resolve(stable, {}, opts).result.status, SolveStatus::kOk);
  EXPECT_EQ(engine.num_instances(), 1u);
}

TEST_F(EngineResolveTest, EvictionRacingCheckedOutArtifactsStaysCertified) {
  // One retained-artifact slot, two instances resolving concurrently: every
  // store_artifacts on one handle evicts the other's slot, racing the other
  // thread's take. Results must stay certified-correct throughout; the
  // eviction counter proves the race actually happened.
  const Digraph ga = make_graph(932);
  const Digraph gb = make_graph(933, 10, 36);
  EngineConfig cfg{.seed = 932, .use_global_pool = false};
  cfg.instance_cache_capacity = 1;
  const Engine engine(cfg);
  const auto opts = fast_opts();
  const InstanceHandle ha =
      engine.register_instance(Instance::max_flow(ga, 0, ga.num_vertices() - 1));
  const InstanceHandle hb =
      engine.register_instance(Instance::max_flow(gb, 0, gb.num_vertices() - 1));

  std::atomic<bool> bad{false};
  const auto hammer = [&](InstanceHandle h, std::uint64_t salt) {
    return std::thread([&, h, salt] {
      for (int i = 0; i < 10; ++i) {
        InstanceDelta d;
        d.cost_changes = {{static_cast<EdgeId>((salt + i) % 8),
                           static_cast<std::int64_t>(1 + (salt * 3 + i) % 6)}};
        const auto res = engine.resolve(h, d, opts);
        if (res.result.status != SolveStatus::kOk || !res.result.stats.certified)
          bad.store(true);
      }
    });
  };
  std::thread ta = hammer(ha, 1);
  std::thread tb = hammer(hb, 2);
  ta.join();
  tb.join();
  EXPECT_FALSE(bad.load());
  EXPECT_GT(engine.metrics_snapshot().of(EngineCounter::kInstanceCacheEvictions), 0u);

  // Post-churn ground truth: each instance's final state still matches a cold
  // solve of the same post-delta graph (deltas per handle came from one
  // thread, so a serial mirror reproduces them).
  for (const auto& [h, g, salt] : {std::tuple<InstanceHandle, const Digraph&, std::uint64_t>{
                                       ha, ga, 1},
                                   {hb, gb, 2}}) {
    Mirror mirror(g);
    for (int i = 0; i < 10; ++i) {
      InstanceDelta d;
      d.cost_changes = {{static_cast<EdgeId>((salt + i) % 8),
                         static_cast<std::int64_t>(1 + (salt * 3 + i) % 6)}};
      mirror.apply(d);
    }
    const Digraph live = mirror.live_graph();
    const Engine cold_engine({.seed = 932, .use_global_pool = false});
    const auto cold =
        cold_engine.solve(Instance::max_flow(live, 0, live.num_vertices() - 1), opts);
    const auto replay = engine.resolve(h, {}, opts);
    ASSERT_EQ(replay.result.status, SolveStatus::kOk);
    ASSERT_EQ(cold.result.status, SolveStatus::kOk);
    EXPECT_EQ(replay.result.cost, cold.result.cost);
    EXPECT_EQ(replay.result.flow_value, cold.result.flow_value);
  }
}

}  // namespace
}  // namespace pmcf
