#pragma once
// Cross-solve instance store (DESIGN.md §15).
//
// Engine::register_instance deep-copies an instance into an InstanceRecord
// and hands back a stable InstanceHandle; Engine::resolve(handle, delta)
// applies a typed InstanceDelta to the record and re-solves, reusing the
// solved artifacts the previous solve left behind: the certified optimum
// (replayed when nothing changed) and the final central-path point with its
// converged Lewis weights (the warm restart). Per-solve solver state — the
// Laplacian pattern, preconditioners, CG iterates — never outlives its
// solve, so a resolve is a function of the record and its artifacts alone
// and a recovered store resolves exactly like a live one. The store is the
// bookkeeping half: records, fingerprints, delta application, and a bounded
// LRU over which records may retain artifacts.
//
// Fingerprint scheme: every record carries
//   structure_hash — kind, source/sink or demands, vertex count, and the
//     (from, to) endpoint list of the *live* arcs, in compact order;
//   value_hash     — the live arcs' (cap, cost) values, seeded by the
//     structure hash.
// A values-only delta moves value_hash but not structure_hash; a structural
// delta (arc add/remove) moves both and bumps the record's epoch. Retained
// artifacts remember the (value_hash, epoch) they were solved under, so a
// resolve can classify itself: replay (both match), warm re-solve (epoch
// matches, values moved), or cold (epoch moved or nothing retained).
//
// Arc identity: original arc ids are stable for the lifetime of a record —
// deltas always address arcs by the id space of the registered graph plus
// any additions. Removals compact the internal solver graph (the IPM stack
// wants strictly positive capacities and no dead columns) and the record
// keeps the original↔compact mapping so returned arc_flow vectors stay in
// original ids, with removed arcs reporting zero flow.

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/deadline.hpp"
#include "graph/digraph.hpp"
#include "mcf/min_cost_flow.hpp"

namespace pmcf {

/// Stable ticket for a registered instance. 0 is never issued (the "unknown
/// handle" sentinel).
using InstanceHandle = std::uint64_t;

/// Set arc `arc`'s cost to `cost` (values-only).
struct CostChange {
  graph::EdgeId arc = -1;
  std::int64_t cost = 0;
};

/// Set arc `arc`'s capacity to `cap` (values-only; cap must be >= 0).
struct CapacityChange {
  graph::EdgeId arc = -1;
  std::int64_t cap = 0;
};

/// Append a new arc (structural). The arc gets the next original id, in
/// order of appearance across the delta's add list.
struct ArcAddition {
  graph::Vertex from = -1;
  graph::Vertex to = -1;
  std::int64_t cap = 0;
  std::int64_t cost = 0;
};

/// One typed mutation batch for Engine::resolve. Application order within a
/// delta: cost changes, capacity changes, removals, additions — so value
/// changes and removals address pre-delta ids, and a value change may not
/// target an arc added by the same delta. A delta either validates and
/// applies in full (the instance state advances even if the subsequent
/// re-solve fails) or is rejected with kInvalidInput leaving the record
/// untouched.
struct InstanceDelta {
  std::vector<CostChange> cost_changes;
  std::vector<CapacityChange> cap_changes;
  std::vector<ArcAddition> add_arcs;
  std::vector<graph::EdgeId> remove_arcs;

  [[nodiscard]] bool empty() const {
    return cost_changes.empty() && cap_changes.empty() && add_arcs.empty() &&
           remove_arcs.empty();
  }
  /// Structural deltas change the arc set → epoch bump + cold re-solve.
  [[nodiscard]] bool structural() const {
    return !add_arcs.empty() || !remove_arcs.empty();
  }
};

/// Structure fingerprint of a (compact) solver graph plus the instance's
/// boundary conditions. Collision-resistant enough for cache classification
/// (64-bit mixed hash); correctness never rests on it — every resolve result
/// is independently certified.
[[nodiscard]] std::uint64_t hash_structure(const graph::Digraph& g, bool is_max_flow,
                                           graph::Vertex source, graph::Vertex sink,
                                           const std::vector<std::int64_t>& demands);

/// Value fingerprint over the arcs' (cap, cost), chained onto `seed` (the
/// structure hash) so equal value lists under different structures differ.
[[nodiscard]] std::uint64_t hash_values(const graph::Digraph& g, std::uint64_t seed);

/// One registered instance: identity, the live solver graph with the
/// original-id mapping, fingerprints, and (under the store's artifact lock)
/// the solved artifacts retained across solves. `mu` serializes resolves on
/// this handle — concurrent resolves of distinct handles run in parallel.
struct InstanceRecord {
  /// Solved state a resolve can reuse. Owned by the record's artifact slot;
  /// checked out (moved) for the duration of a resolve and stored back on
  /// success, so eviction under the store lock never races a reader.
  struct Artifacts {
    mcf::MinCostFlowResult result;  ///< certified optimum, compact arc ids
    mcf::WarmStart warm;            ///< final central-path point (may be empty)
    std::uint64_t value_hash = 0;   ///< value fingerprint it was solved under
    std::uint64_t epoch = 0;        ///< structural epoch it was solved under
  };

  std::mutex mu;  ///< serializes delta application + re-solve per handle

  // Identity (fixed at registration).
  InstanceHandle handle = 0;
  bool is_max_flow = true;
  graph::Vertex source = 0;
  graph::Vertex sink = 0;
  std::vector<std::int64_t> demands;     ///< b-flow boundary conditions
  core::Deadline deadline = core::Deadline::unlimited();

  // Live state (mutated by apply_delta under `mu`).
  graph::Digraph solver_graph;           ///< live arcs, compact ids
  std::vector<graph::EdgeId> compact_of; ///< original id → compact id; -1 removed
  std::vector<graph::EdgeId> orig_of;    ///< compact id → original id
  bool compacted = false;                ///< false ⇒ both mappings are identity
  std::uint64_t structure_hash = 0;
  std::uint64_t value_hash = 0;
  std::uint64_t epoch = 0;               ///< bumped per structural delta

  // Artifact slot — touch only through InstanceStore::take_artifacts /
  // store_artifacts / invalidate_artifacts (they hold the artifact lock).
  std::unique_ptr<Artifacts> artifacts;
  std::uint64_t lru_tick = 0;

  /// Validate `delta` against the current id space, then apply it in full:
  /// value writes on the solver graph, tombstone + compaction for removals,
  /// appends for additions, and a fingerprint refresh. Returns "" on
  /// success or a defect description with the record untouched.
  [[nodiscard]] std::string apply_delta(const InstanceDelta& delta);

  /// Recompute structure_hash / value_hash from the live state.
  void refresh_fingerprints();

  /// Original-id count (live + removed): the size returned arc_flow vectors
  /// are mapped to.
  [[nodiscard]] std::size_t num_original_arcs() const { return compact_of.size(); }

  /// Scatter a compact-id flow vector into original ids (removed arcs → 0).
  /// Identity (move-through) while nothing was ever removed.
  [[nodiscard]] std::vector<std::int64_t> to_original_ids(
      std::vector<std::int64_t> compact_flow) const;
};

/// Handle registry plus the bounded artifact LRU. Thread-safe; find() hands
/// out shared ownership so deregistration never races an in-flight resolve.
class InstanceStore {
 public:
  /// `artifact_capacity` bounds how many records may hold artifacts at once
  /// (0 disables retention entirely — every resolve runs cold).
  explicit InstanceStore(std::size_t artifact_capacity)
      : artifact_capacity_(artifact_capacity) {}

  /// Register a record; assigns and returns its handle (never 0).
  InstanceHandle add(std::shared_ptr<InstanceRecord> rec);
  /// Recovery path: insert a record under the handle it already carries
  /// (from a snapshot / journal) and advance the handle counter past it.
  /// False (and no insert) when the handle is 0 or already present.
  bool adopt(std::shared_ptr<InstanceRecord> rec);
  [[nodiscard]] std::shared_ptr<InstanceRecord> find(InstanceHandle h) const;
  /// Drop the registry entry (its artifacts with it, once in-flight resolves
  /// release their reference). False when the handle is unknown.
  bool erase(InstanceHandle h);
  [[nodiscard]] std::size_t size() const;
  /// All registered handles, ascending. Stable order makes snapshot files
  /// and recovery walks deterministic.
  [[nodiscard]] std::vector<InstanceHandle> handles() const;
  /// Shared references to every registered record, by ascending handle.
  [[nodiscard]] std::vector<std::shared_ptr<InstanceRecord>> all() const;

  /// Read the record's artifact slot in place under the store lock without
  /// checking it out. `fn` gets nullptr when nothing is retained; it must not
  /// re-enter the store. Serialization path for snapshots — unlike
  /// take_artifacts it cannot lose artifacts if the caller dies mid-write.
  void peek_artifacts(const InstanceRecord& rec,
                      const std::function<void(const InstanceRecord::Artifacts*)>& fn) const;

  /// Check the record's artifacts out (nullptr when none are retained).
  [[nodiscard]] std::unique_ptr<InstanceRecord::Artifacts> take_artifacts(InstanceRecord& rec);
  /// Store artifacts back (refreshes the LRU tick) and evict the
  /// least-recently-used other records' artifacts beyond capacity. Returns
  /// how many records were evicted. With capacity 0 the artifacts are
  /// dropped immediately and nothing is retained.
  std::size_t store_artifacts(InstanceRecord& rec,
                              std::unique_ptr<InstanceRecord::Artifacts> arts);

 private:
  const std::size_t artifact_capacity_;
  mutable std::mutex mu_;           ///< registry map + artifact slots + LRU
  std::uint64_t next_handle_ = 1;
  std::uint64_t lru_clock_ = 0;
  std::unordered_map<InstanceHandle, std::shared_ptr<InstanceRecord>> records_;
};

}  // namespace pmcf
