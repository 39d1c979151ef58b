// Crash-safe instance-store durability (DESIGN.md §16): snapshot + journal
// round trips, the full corruption taxonomy (torn journal tail, record bit
// rot, snapshot header corruption, fsync failure), deterministic fault
// injection, and the bit-identity contracts:
//   - persistence disabled is bit-identical to a persisting engine's solver
//     outputs (the durability layer must never perturb a solve);
//   - a warm resolve after recovery matches a cold solve of the same
//     post-delta instance exactly on cost/flow/arc_flow.
// The kill-and-restart coverage (real SIGKILL mid-append) lives in
// bench/crash_harness; these tests drive the same seams in-process.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "baselines/ssp.hpp"
#include "graph/digraph.hpp"
#include "graph/generators.hpp"
#include "mcf/engine.hpp"
#include "mcf/min_cost_flow.hpp"
#include "mcf/store_persist.hpp"
#include "parallel/fault_injection.hpp"
#include "parallel/rng.hpp"
#include "parallel/thread_pool.hpp"

namespace pmcf {
namespace {

using graph::Digraph;
using graph::Vertex;

mcf::SolveOptions fast_opts() {
  mcf::SolveOptions opts;
  opts.ipm.mu_end = 1e-3;
  opts.ipm.leverage.sketch_dim = 8;
  return opts;
}

mcf::SolveOptions combinatorial_opts() {
  mcf::SolveOptions opts;
  opts.method = mcf::Method::kCombinatorial;
  return opts;
}

Digraph make_graph(std::uint64_t seed, Vertex n = 10, std::int64_t m = 36) {
  par::Rng rng(seed);
  return graph::random_flow_network(n, m, 8, 7, rng);
}

class StorePersistTest : public ::testing::Test {
 protected:
  void SetUp() override {
    par::ThreadPool::configure(1);
    dir_ = std::filesystem::path(::testing::TempDir()) /
           ("pmcf_persist_" +
            std::string(::testing::UnitTest::GetInstance()->current_test_info()->name()));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    std::filesystem::remove_all(dir_);
    par::ThreadPool::configure(1);
  }

  [[nodiscard]] EngineConfig persist_cfg(std::size_t snapshot_every = 256) const {
    EngineConfig cfg;
    cfg.use_global_pool = false;
    cfg.persist_dir = dir_.string();
    cfg.persist_snapshot_every = snapshot_every;
    return cfg;
  }

  std::filesystem::path dir_;
};

// --- checksum primitive ----------------------------------------------------

TEST_F(StorePersistTest, ChecksumDetectsEveryByteFlip) {
  std::vector<std::uint8_t> data(67);
  for (std::size_t i = 0; i < data.size(); ++i) data[i] = static_cast<std::uint8_t>(i * 7);
  const std::uint64_t base = persist_checksum(data.data(), data.size(), 42);
  EXPECT_EQ(base, persist_checksum(data.data(), data.size(), 42));
  EXPECT_NE(base, persist_checksum(data.data(), data.size(), 43));
  EXPECT_NE(base, persist_checksum(data.data(), data.size() - 1, 42));
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] ^= 1;
    EXPECT_NE(base, persist_checksum(data.data(), data.size(), 42)) << "byte " << i;
    data[i] ^= 1;
  }
}

// --- round trip ------------------------------------------------------------

TEST_F(StorePersistTest, RoundTripSnapshotRecovery) {
  const Digraph g1 = make_graph(11);
  const Digraph g2 = make_graph(22);
  const auto opts = fast_opts();
  InstanceHandle h1 = 0;
  InstanceHandle h2 = 0;
  std::int64_t cost1 = 0;
  std::int64_t flow1 = 0;
  std::vector<std::int64_t> arc_flow1;
  {
    const Engine a(persist_cfg());
    h1 = a.register_instance(Instance::max_flow(g1, 0, g1.num_vertices() - 1));
    h2 = a.register_instance(Instance::max_flow(g2, 0, g2.num_vertices() - 1));
    ASSERT_NE(h1, 0u);
    ASSERT_NE(h2, 0u);
    const EngineSolveResult r1 = a.resolve(h1, {}, opts);
    ASSERT_EQ(r1.result.status, SolveStatus::kOk);
    cost1 = r1.result.cost;
    flow1 = r1.result.flow_value;
    arc_flow1 = r1.result.arc_flow;
    ASSERT_EQ(a.resolve(h2, {}, opts).result.status, SolveStatus::kOk);
    ASSERT_TRUE(a.persist_snapshot());
  }

  const Engine b(persist_cfg());
  const RecoveryReport rep = b.persist_recovery();
  EXPECT_FALSE(rep.started_fresh);
  EXPECT_EQ(rep.records_recovered, 2u);
  EXPECT_EQ(rep.optima_recovered, 2u);
  EXPECT_EQ(rep.records_dropped, 0u);
  EXPECT_EQ(b.num_instances(), 2u);
  EXPECT_EQ(b.instance_handles(), (std::vector<InstanceHandle>{h1, h2}));
  ASSERT_NE(b.inspect_instance(h1), nullptr);

  // The recovered optimum was re-certified at recovery and replays.
  const EngineSolveResult replay = b.resolve(h1, {}, opts);
  ASSERT_EQ(replay.result.status, SolveStatus::kOk);
  EXPECT_TRUE(replay.result.stats.certified);
  EXPECT_EQ(replay.result.stats.warm_source, "cached-result");
  EXPECT_EQ(replay.result.cost, cost1);
  EXPECT_EQ(replay.result.flow_value, flow1);
  EXPECT_EQ(replay.result.arc_flow, arc_flow1);
  const MetricsSnapshot snap = b.metrics_snapshot();
  EXPECT_EQ(snap.of(EngineCounter::kPersistRecoveredInstances), 2u);
  EXPECT_EQ(snap.of(EngineCounter::kPersistRecoveredOptima), 2u);

  // Handles issued after recovery never collide with recovered ones.
  const InstanceHandle h3 = b.register_instance(Instance::max_flow(g1, 0, 1));
  EXPECT_GT(h3, h2);
}

TEST_F(StorePersistTest, JournalReplayRestoresDeltas) {
  const Digraph g = make_graph(33);
  const auto opts = combinatorial_opts();
  InstanceHandle h = 0;
  {
    // snapshot_every = 0: no auto-snapshots, so the deltas survive only
    // through journal replay (the ctor snapshot predates them).
    const Engine a(persist_cfg(0));
    h = a.register_instance(Instance::max_flow(g, 0, g.num_vertices() - 1));
    InstanceDelta d1;
    d1.cost_changes.push_back({2, 19});
    d1.cap_changes.push_back({5, 0});
    ASSERT_EQ(a.resolve(h, d1, opts).result.status, SolveStatus::kOk);
    InstanceDelta d2;  // structural: epoch bump rides the journal too
    d2.add_arcs.push_back({0, g.num_vertices() - 1, 3, 2});
    d2.remove_arcs.push_back(7);
    ASSERT_EQ(a.resolve(h, d2, opts).result.status, SolveStatus::kOk);
  }

  // Reference: the same deltas applied to a plain graph, solved cold.
  Digraph expect(g.num_vertices());
  for (graph::EdgeId e = 0; e < g.num_arcs(); ++e) {
    if (e == 7) continue;
    const auto& a = g.arc(e);
    expect.add_arc(a.from, a.to, e == 5 ? 0 : a.cap, e == 2 ? 19 : a.cost);
  }
  expect.add_arc(0, g.num_vertices() - 1, 3, 2);
  EngineConfig plain_cfg;
  plain_cfg.use_global_pool = false;
  const Engine plain(plain_cfg);
  const EngineSolveResult cold =
      plain.solve(Instance::max_flow(expect, 0, g.num_vertices() - 1), opts);
  ASSERT_EQ(cold.result.status, SolveStatus::kOk);

  const Engine b(persist_cfg(0));
  EXPECT_GE(b.persist_recovery().journal_frames_replayed, 3u);  // register + 2 deltas
  const EngineSolveResult after = b.resolve(h, {}, opts);
  ASSERT_EQ(after.result.status, SolveStatus::kOk);
  EXPECT_TRUE(after.result.stats.certified);
  EXPECT_EQ(after.result.cost, cold.result.cost);
  EXPECT_EQ(after.result.flow_value, cold.result.flow_value);
}

// --- corruption taxonomy ---------------------------------------------------

TEST_F(StorePersistTest, TornJournalTailTruncatesToDurablePrefix) {
  const Digraph g = make_graph(44);
  const auto opts = combinatorial_opts();
  InstanceHandle h = 0;
  std::int64_t pre_delta_cost = 0;
  {
    const Engine a(persist_cfg(0));
    h = a.register_instance(Instance::max_flow(g, 0, g.num_vertices() - 1));
    const EngineSolveResult before = a.resolve(h, {}, opts);
    ASSERT_EQ(before.result.status, SolveStatus::kOk);
    pre_delta_cost = before.result.cost;

    a.persist_faults()->arm(par::FaultKind::kPersistTornWrite, 1.0, 7);
    InstanceDelta d;
    d.cost_changes.push_back({1, 23});
    // The delta still applies in memory and the resolve succeeds — only its
    // durability is lost (append_delta returned false, so it was never
    // acknowledged as durable).
    ASSERT_EQ(a.resolve(h, d, opts).result.status, SolveStatus::kOk);
    a.persist_faults()->disarm_all();
    EXPECT_GE(a.metrics_snapshot().of(EngineCounter::kPersistWriteFailures), 1u);
  }

  const Engine b(persist_cfg(0));
  const RecoveryReport rep = b.persist_recovery();
  EXPECT_GE(rep.journal_truncations, 1u);
  EXPECT_EQ(rep.records_recovered, 1u);
  EXPECT_EQ(rep.records_dropped, 0u);
  // The recovered instance is the durable prefix: pre-delta state. Stale is
  // allowed; wrong is not — the resolve below re-certifies from scratch.
  const EngineSolveResult r = b.resolve(h, {}, opts);
  ASSERT_EQ(r.result.status, SolveStatus::kOk);
  EXPECT_TRUE(r.result.stats.certified);
  EXPECT_EQ(r.result.cost, pre_delta_cost);
  EXPECT_GE(b.metrics_snapshot().of(EngineCounter::kPersistJournalTruncations), 1u);
}

TEST_F(StorePersistTest, SnapshotRecordBitFlipDropsRecordNotSnapshot) {
  const Digraph g1 = make_graph(55);
  const Digraph g2 = make_graph(66);
  const auto opts = combinatorial_opts();
  InstanceHandle h1 = 0;
  InstanceHandle h2 = 0;
  {
    const Engine a(persist_cfg(0));
    h1 = a.register_instance(Instance::max_flow(g1, 0, g1.num_vertices() - 1));
    h2 = a.register_instance(Instance::max_flow(g2, 0, g2.num_vertices() - 1));
    // Flip one bit in every record frame of the next snapshot. The journal
    // generations holding the original register frames are below the new
    // base, so nothing bridges the rot: both records must drop — but the
    // snapshot itself stays a valid (empty) base, no generation fallback.
    a.persist_faults()->arm(par::FaultKind::kPersistBitFlip, 1.0, 9);
    ASSERT_TRUE(a.persist_snapshot());
    a.persist_faults()->disarm_all();
  }

  const Engine b(persist_cfg(0));
  const RecoveryReport rep = b.persist_recovery();
  EXPECT_EQ(rep.snapshot_fallbacks, 0u);
  EXPECT_EQ(rep.records_dropped, 2u);
  EXPECT_EQ(rep.records_recovered, 0u);
  EXPECT_EQ(b.num_instances(), 0u);
  EXPECT_EQ(b.resolve(h1, {}, opts).result.status, SolveStatus::kInvalidInput);
  EXPECT_EQ(b.resolve(h2, {}, opts).result.status, SolveStatus::kInvalidInput);
  EXPECT_GE(b.metrics_snapshot().of(EngineCounter::kPersistRecordsDropped), 2u);
  // A dropped record is a cold re-registration away from serving again.
  EXPECT_NE(b.register_instance(Instance::max_flow(g1, 0, g1.num_vertices() - 1)), 0u);
}

TEST_F(StorePersistTest, CorruptSnapshotHeaderFallsBackAGeneration) {
  const Digraph g1 = make_graph(77);
  const Digraph g2 = make_graph(88);
  InstanceHandle h1 = 0;
  InstanceHandle h2 = 0;
  std::uint64_t last_gen = 0;
  {
    const Engine a(persist_cfg(0));
    h1 = a.register_instance(Instance::max_flow(g1, 0, g1.num_vertices() - 1));
    ASSERT_TRUE(a.persist_snapshot());  // this generation holds h1
    h2 = a.register_instance(Instance::max_flow(g2, 0, g2.num_vertices() - 1));
    ASSERT_TRUE(a.persist_snapshot());  // newest generation holds h1 + h2
    // Find the newest snapshot on disk and corrupt its header.
    for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
      const std::string name = entry.path().filename().string();
      if (name.rfind("snap-", 0) == 0) {
        const std::uint64_t gen =
            std::stoull(name.substr(5, name.size() - 5 - std::strlen(".pmcf")));
        last_gen = std::max(last_gen, gen);
      }
    }
  }
  {
    std::fstream f(snapshot_path(dir_.string(), last_gen),
                   std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.is_open());
    f.seekp(10);
    const char garbage = '\xff';
    f.write(&garbage, 1);
  }

  const Engine b(persist_cfg(0));
  const RecoveryReport rep = b.persist_recovery();
  EXPECT_GE(rep.snapshot_fallbacks, 1u);
  EXPECT_LT(rep.generation, last_gen);
  // The older snapshot has h1; h2's register event still lives in that
  // generation's journal — fallback plus replay loses nothing durable.
  EXPECT_EQ(rep.records_recovered, 2u);
  EXPECT_EQ(b.num_instances(), 2u);
  ASSERT_NE(b.inspect_instance(h1), nullptr);
  ASSERT_NE(b.inspect_instance(h2), nullptr);
  EXPECT_GE(b.metrics_snapshot().of(EngineCounter::kPersistSnapshotFallbacks), 1u);
}

TEST_F(StorePersistTest, FsyncFailureAbortsSnapshotPublish) {
  const Digraph g = make_graph(99);
  InstanceHandle h = 0;
  {
    const Engine a(persist_cfg(0));
    h = a.register_instance(Instance::max_flow(g, 0, g.num_vertices() - 1));
    a.persist_faults()->arm(par::FaultKind::kPersistFsyncFail, 1.0, 5);
    EXPECT_FALSE(a.persist_snapshot());  // durability barrier reported failure
    a.persist_faults()->disarm_all();
    EXPECT_GE(a.metrics_snapshot().of(EngineCounter::kPersistWriteFailures), 1u);
  }
  // The aborted generation published nothing, but the older generation plus
  // its journal still reconstruct the full store.
  const Engine b(persist_cfg(0));
  EXPECT_EQ(b.persist_recovery().records_recovered, 1u);
  EXPECT_NE(b.inspect_instance(h), nullptr);
}

TEST_F(StorePersistTest, FaultInjectionIsDeterministic) {
  const auto run = [&](const std::string& sub) {
    const std::filesystem::path d = dir_ / sub;
    std::filesystem::create_directories(d);
    EngineConfig cfg;
    cfg.use_global_pool = false;
    cfg.persist_dir = d.string();
    cfg.persist_snapshot_every = 0;
    const Engine a(cfg);
    a.persist_faults()->arm(par::FaultKind::kPersistTornWrite, 0.5, 1234);
    const Digraph g = make_graph(12);
    const InstanceHandle h =
        a.register_instance(Instance::max_flow(g, 0, g.num_vertices() - 1));
    for (int i = 0; i < 6; ++i) {
      InstanceDelta del;
      del.cost_changes.push_back({1, 3 + i});
      (void)a.resolve(h, del, combinatorial_opts());
    }
    const MetricsSnapshot snap = a.metrics_snapshot();
    return std::make_pair(a.persist_faults()->fired(par::FaultKind::kPersistTornWrite),
                          snap.of(EngineCounter::kPersistWriteFailures));
  };
  const auto first = run("one");
  const auto second = run("two");
  EXPECT_GT(first.first, 0u);   // rate 0.5 over the append stream: some fired
  EXPECT_GT(first.second, 0u);  // and each fire surfaced as a write failure
  EXPECT_EQ(first, second);     // same seed → identical fire pattern
}

// --- bit-identity contracts ------------------------------------------------

TEST_F(StorePersistTest, PersistenceDoesNotPerturbSolves) {
  EngineConfig off;
  off.use_global_pool = false;
  const Engine plain(off);
  const Engine persisting(persist_cfg());

  const Digraph g = make_graph(101);
  const auto inst = Instance::max_flow(g, 0, g.num_vertices() - 1);
  const auto opts = fast_opts();
  const EngineSolveResult a = plain.solve(inst, opts);
  const EngineSolveResult b = persisting.solve(inst, opts);
  ASSERT_EQ(a.result.status, SolveStatus::kOk);
  EXPECT_EQ(a.result.cost, b.result.cost);
  EXPECT_EQ(a.result.arc_flow, b.result.arc_flow);
  EXPECT_EQ(a.result.stats.ipm_iterations, b.result.stats.ipm_iterations);
  EXPECT_EQ(a.pram.work, b.pram.work);
  EXPECT_EQ(a.pram.depth, b.pram.depth);

  const InstanceHandle hp = plain.register_instance(inst);
  const InstanceHandle hq = persisting.register_instance(inst);
  const EngineSolveResult ra = plain.resolve(hp, {}, opts);
  const EngineSolveResult rb = persisting.resolve(hq, {}, opts);
  ASSERT_EQ(ra.result.status, SolveStatus::kOk);
  EXPECT_EQ(ra.result.cost, rb.result.cost);
  EXPECT_EQ(ra.result.arc_flow, rb.result.arc_flow);
  EXPECT_EQ(ra.pram.work, rb.pram.work);
  EXPECT_EQ(ra.pram.depth, rb.pram.depth);
}

TEST_F(StorePersistTest, WarmResolveAfterRecoveryMatchesColdSolveExactly) {
  const Digraph g = make_graph(123, 12, 48);
  const auto opts = fast_opts();
  InstanceHandle h = 0;
  {
    const Engine a(persist_cfg());
    h = a.register_instance(Instance::max_flow(g, 0, g.num_vertices() - 1));
    ASSERT_EQ(a.resolve(h, {}, opts).result.status, SolveStatus::kOk);
    ASSERT_TRUE(a.persist_snapshot());  // persists the optimum + warm point
  }

  const Engine b(persist_cfg());
  ASSERT_EQ(b.persist_recovery().optima_recovered, 1u);
  InstanceDelta d;  // values-only: the recovered central-path point rides in
  d.cost_changes.push_back({0, 11});
  d.cap_changes.push_back({3, 6});
  const EngineSolveResult warm = b.resolve(h, d, opts);
  ASSERT_EQ(warm.result.status, SolveStatus::kOk);
  EXPECT_TRUE(warm.result.stats.certified);
  EXPECT_TRUE(warm.result.stats.warm_started);

  // Reference: a cold solve of the same post-delta instance.
  Digraph expect(g.num_vertices());
  for (graph::EdgeId e = 0; e < g.num_arcs(); ++e) {
    const auto& a = g.arc(e);
    expect.add_arc(a.from, a.to, e == 3 ? 6 : a.cap, e == 0 ? 11 : a.cost);
  }
  EngineConfig plain_cfg;
  plain_cfg.use_global_pool = false;
  const Engine plain(plain_cfg);
  const EngineSolveResult cold =
      plain.solve(Instance::max_flow(expect, 0, g.num_vertices() - 1), opts);
  ASSERT_EQ(cold.result.status, SolveStatus::kOk);
  EXPECT_EQ(warm.result.cost, cold.result.cost);
  EXPECT_EQ(warm.result.flow_value, cold.result.flow_value);

  // The same history on an engine that never restarts. A warm resolve is a
  // function of the instance and its retained central-path point alone, so
  // the live engine must solve it exactly as the recovered one did.
  EngineConfig live_cfg;
  live_cfg.use_global_pool = false;
  const Engine live(live_cfg);
  const InstanceHandle lh = live.register_instance(Instance::max_flow(g, 0, g.num_vertices() - 1));
  ASSERT_EQ(live.resolve(lh, {}, opts).result.status, SolveStatus::kOk);
  const EngineSolveResult live_warm = live.resolve(lh, d, opts);
  ASSERT_EQ(live_warm.result.status, SolveStatus::kOk);
  EXPECT_EQ(live_warm.result.stats.warm_source, "central-path");
  EXPECT_EQ(live_warm.result.stats.ipm_iterations, warm.result.stats.ipm_iterations);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(live_warm.result.stats.final_mu),
            std::bit_cast<std::uint64_t>(warm.result.stats.final_mu));
  EXPECT_EQ(live_warm.pram.work, warm.pram.work);
  EXPECT_EQ(live_warm.pram.depth, warm.pram.depth);
  EXPECT_EQ(live_warm.result.arc_flow, warm.result.arc_flow);
}

TEST_F(StorePersistTest, DeregisterIsDurable) {
  const Digraph g = make_graph(131);
  const auto opts = combinatorial_opts();
  InstanceHandle h1 = 0;
  InstanceHandle h2 = 0;
  {
    const Engine a(persist_cfg(0));
    h1 = a.register_instance(Instance::max_flow(g, 0, g.num_vertices() - 1));
    h2 = a.register_instance(Instance::max_flow(g, 0, 1));
    ASSERT_TRUE(a.deregister_instance(h2));
  }
  const Engine b(persist_cfg(0));
  EXPECT_EQ(b.num_instances(), 1u);
  EXPECT_NE(b.inspect_instance(h1), nullptr);
  EXPECT_EQ(b.inspect_instance(h2), nullptr);
  EXPECT_EQ(b.resolve(h2, {}, opts).result.status, SolveStatus::kInvalidInput);
}

// --- format compatibility --------------------------------------------------

// snap-2.pmcf as written by an older build that still filled the record's
// reserved string slot (here with "latency"): one max-flow record, handle 1,
// source 0, sink 4, the arcs of legacy_graph(), no stored optimum.
constexpr std::uint8_t kLegacySnapshot[] = {
    0x50, 0x4d, 0x43, 0x46, 0x53, 0x4e, 0x50, 0x31, 0x01, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0xbc, 0xe5, 0x06, 0x42, 0x97, 0x76, 0xd0, 0x5a, 0x01, 0x62, 0x01, 0x00,
    0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x04, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x07, 0x00, 0x00, 0x00, 0x6c, 0x61,
    0x74, 0x65, 0x6e, 0x63, 0x79, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x05, 0x00, 0x00,
    0x00, 0x08, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00,
    0x00, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00,
    0x00, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x01, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00,
    0x00, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x02, 0x00, 0x00, 0x00, 0x04, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x04, 0x00, 0x00,
    0x00, 0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x01, 0x00, 0x00, 0x00, 0x04, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x06, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x08, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00,
    0x00, 0x04, 0x00, 0x00, 0x00, 0x05, 0x00, 0x00, 0x00, 0x06, 0x00, 0x00, 0x00, 0x07, 0x00, 0x00,
    0x00, 0x08, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00,
    0x00, 0x02, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x04, 0x00, 0x00, 0x00, 0x05, 0x00, 0x00,
    0x00, 0x06, 0x00, 0x00, 0x00, 0x07, 0x00, 0x00, 0x00, 0x00, 0xdc, 0x8b, 0xd2, 0xe5, 0xa9, 0x8c,
    0xdb, 0xd5, 0x82, 0x34, 0x91, 0x75, 0xf4, 0x64, 0xe4, 0xe3, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0xa3, 0x12, 0x10, 0x0a, 0x58, 0x75, 0x0d, 0x8d,
};

Digraph legacy_graph() {
  Digraph g(5);
  g.add_arc(0, 1, 3, 1);
  g.add_arc(0, 2, 2, 2);
  g.add_arc(1, 2, 2, 1);
  g.add_arc(1, 3, 2, 3);
  g.add_arc(2, 3, 3, 1);
  g.add_arc(2, 4, 1, 4);
  g.add_arc(3, 4, 4, 1);
  g.add_arc(1, 4, 1, 6);
  return g;
}

TEST_F(StorePersistTest, LegacySnapshotWithFilledReservedSlotRecovers) {
  {
    std::ofstream f(snapshot_path(dir_.string(), 2), std::ios::binary);
    f.write(reinterpret_cast<const char*>(kLegacySnapshot), sizeof kLegacySnapshot);
  }
  const Digraph g = legacy_graph();
  const auto ssp = baselines::ssp_min_cost_max_flow(g, 0, 4);
  for (int life = 0; life < 2; ++life) {
    // The second life recovers the snapshot the first one rewrote, with the
    // slot now empty.
    const Engine b(persist_cfg());
    const RecoveryReport rep = b.persist_recovery();
    EXPECT_EQ(rep.records_recovered, 1u) << "life " << life;
    EXPECT_EQ(rep.records_dropped, 0u) << "life " << life;
    const auto rec = b.inspect_instance(1);
    ASSERT_NE(rec, nullptr);
    EXPECT_EQ(rec->source, 0);
    EXPECT_EQ(rec->sink, 4);
    ASSERT_EQ(rec->solver_graph.num_arcs(), g.num_arcs());
    for (graph::EdgeId e = 0; e < g.num_arcs(); ++e) {
      EXPECT_EQ(rec->solver_graph.arc(e).from, g.arc(e).from) << "arc " << e;
      EXPECT_EQ(rec->solver_graph.arc(e).to, g.arc(e).to) << "arc " << e;
      EXPECT_EQ(rec->solver_graph.arc(e).cap, g.arc(e).cap) << "arc " << e;
      EXPECT_EQ(rec->solver_graph.arc(e).cost, g.arc(e).cost) << "arc " << e;
    }

    const EngineSolveResult r = b.resolve(1, {});
    ASSERT_EQ(r.result.status, SolveStatus::kOk);
    EXPECT_TRUE(r.result.stats.certified);
    EXPECT_EQ(r.result.flow_value, ssp.flow);
    EXPECT_EQ(r.result.cost, ssp.cost);
  }
}

/// Every file in `dir` with its bytes.
std::vector<std::pair<std::string, std::string>> dir_contents(const std::filesystem::path& dir) {
  std::vector<std::pair<std::string, std::string>> out;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    std::ifstream f(entry.path(), std::ios::binary);
    out.emplace_back(entry.path().filename().string(),
                     std::string(std::istreambuf_iterator<char>(f), {}));
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST_F(StorePersistTest, SecondEngineOnTheDirectoryIsRefused) {
  const Digraph g = make_graph(151);
  const auto opts = combinatorial_opts();
  InstanceHandle h = 0;
  {
    const Engine a(persist_cfg(0));
    h = a.register_instance(Instance::max_flow(g, 0, g.num_vertices() - 1));
    ASSERT_NE(h, 0u);
    const auto before = dir_contents(dir_);
    // The second opener is refused before it recovers or publishes anything.
    EXPECT_THROW({ const Engine b(persist_cfg(0)); }, PersistDirBusy);
    EXPECT_EQ(dir_contents(dir_), before);
    // The holder keeps serving and journaling.
    InstanceDelta d;
    d.cost_changes.push_back({0, 3});
    ASSERT_EQ(a.resolve(h, d, opts).result.status, SolveStatus::kOk);
  }
  // Destruction releases the lock: the next engine recovers the holder's
  // journal, its last delta included.
  const Engine c(persist_cfg(0));
  ASSERT_EQ(c.num_instances(), 1u);
  const auto rec = c.inspect_instance(h);
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->solver_graph.arc(0).cost, 3);
}

TEST_F(StorePersistTest, AutoSnapshotRotatesGenerationsAndPrunes) {
  const Digraph g = make_graph(141);
  const auto opts = combinatorial_opts();
  {
    // Snapshot every 2 appends: a burst of deltas forces several rotations.
    const Engine a(persist_cfg(2));
    const InstanceHandle h =
        a.register_instance(Instance::max_flow(g, 0, g.num_vertices() - 1));
    for (int i = 0; i < 10; ++i) {
      InstanceDelta d;
      d.cost_changes.push_back({0, 2 + i});
      ASSERT_EQ(a.resolve(h, d, opts).result.status, SolveStatus::kOk);
    }
    EXPECT_GE(a.metrics_snapshot().of(EngineCounter::kPersistSnapshots), 3u);
  }
  // Old generations are pruned: at most two snapshots are left.
  std::size_t snaps = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("snap-", 0) == 0) ++snaps;
  }
  EXPECT_LE(snaps, 2u);
  EXPECT_GE(snaps, 1u);

  // And the latest state survives the rotations.
  const Engine b(persist_cfg(2));
  EXPECT_EQ(b.num_instances(), 1u);
}

}  // namespace
}  // namespace pmcf
