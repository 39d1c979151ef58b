#pragma once
// pmcf::Engine — the concurrency-first facade over the min-cost-flow stack
// (DESIGN.md §9, overload hardening §12).
//
// The layered API (mcf::min_cost_max_flow + SolverContext) is explicit about
// execution state; Engine packages the common serving pattern on top of it:
//
//   - solve() is reentrant: any number of threads may call it concurrently on
//     one Engine. Each call builds a private SolverContext (tracker, fault
//     injector, recovery sink, RNG stream), so per-solve SolveStats are exact
//     and two solves never share mutable state.
//   - solve_batch() fans a vector of instances across the work-stealing pool,
//     one solve per task. Results and stats are bit-identical to solving the
//     same instances serially in index order: each solve is a pure function
//     of (instance, options) — per-solve seeds derive from the engine seed
//     and the batch index, never from scheduling order.
//   - Under overload the Engine degrades deliberately instead of queueing
//     without bound: a slot pool caps solves in flight, a bounded
//     backpressure queue (one FIFO per priority class) absorbs bursts of
//     blocking callers, priorities (0 = most important) are served first
//     and shed last, and a lock-free metrics surface (mcf/metrics.hpp)
//     exports what happened.
//   - Every request is stopped the same way: the caller's CancelToken
//     (SolveControl::cancel), cancelable from any thread, reaches a running
//     solve at its next lifecycle poll, a queued request at the admission
//     queue's poll tick, and every item of a batch or both attempts of a
//     resolve at once.
//
// Instrumented engines (the default) run each solve single-threaded under
// its own PRAM tracker — batch throughput then comes purely from solving
// many instances at once. Wall-clock engines (instrument = false) let each
// solve's inner primitives use the pool too (nested fork-join is supported);
// those primitives return one result at every pool size, so a wall-clock
// solve follows the instrumented solve's central path bit for bit.

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/deadline.hpp"
#include "core/solver_context.hpp"
#include "graph/digraph.hpp"
#include "mcf/instance_store.hpp"
#include "mcf/metrics.hpp"
#include "mcf/min_cost_flow.hpp"
#include "mcf/store_persist.hpp"
#include "parallel/fault_injection.hpp"
#include "parallel/work_depth.hpp"

namespace pmcf {

/// One solve job: a max-flow or b-flow instance over a borrowed graph (the
/// graph must outlive the solve).
struct Instance {
  enum class Kind { kMaxFlow, kBFlow };

  Kind kind = Kind::kMaxFlow;
  const graph::Digraph* graph = nullptr;
  graph::Vertex source = 0;             ///< kMaxFlow
  graph::Vertex sink = 0;               ///< kMaxFlow
  std::vector<std::int64_t> demands;    ///< kBFlow: net inflow per vertex
  /// Per-item budget, combined with the request-level SolveControl deadline
  /// (the tighter of each bound wins). Open by default.
  core::Deadline deadline = core::Deadline::unlimited();

  static Instance max_flow(const graph::Digraph& g, graph::Vertex s, graph::Vertex t) {
    Instance inst;
    inst.kind = Kind::kMaxFlow;
    inst.graph = &g;
    inst.source = s;
    inst.sink = t;
    return inst;
  }

  static Instance b_flow(const graph::Digraph& g, std::vector<std::int64_t> b) {
    Instance inst;
    inst.kind = Kind::kBFlow;
    inst.graph = &g;
    inst.demands = std::move(b);
    return inst;
  }
};

struct EngineConfig {
  /// Master seed; per-solve context seeds are derived from it (mixed with
  /// the batch index / call counter) so distinct solves get distinct streams,
  /// and so is the chaos injector's seed.
  std::uint64_t seed = 0x5eedf00dULL;
  /// PRAM-instrument each solve (single-threaded per solve, exact work/depth
  /// in stats). false = wall-clock mode, inner primitives may use the pool.
  bool instrument = true;
  /// Pool for solve_batch fan-out (and, in wall-clock mode, inner
  /// primitives). nullptr + use_global_pool → ThreadPool::global().
  par::ThreadPool* pool = nullptr;
  bool use_global_pool = true;
  /// Admission control (DESIGN.md §11–12): upper bound on solves in flight
  /// across all threads sharing this Engine. 0 = unbounded (the queue and
  /// priorities below are then inert).
  std::size_t max_in_flight = 0;
  /// Backpressure queue capacity in front of the slot pool, shared by the
  /// blocking callers (solve, resolve). 0 = no queue: a request that finds
  /// no free slot is shed immediately with SolveStatus::kLoadShed. With a
  /// queue, overflow sheds typed kLoadShed, a full queue evicts a
  /// strictly-lower-priority waiter to make room for a more important
  /// arrival, and a waiter whose deadline passes in the queue ends
  /// kDeadlineExceeded. solve_batch never queues (see there).
  std::size_t max_queue = 0;
  /// Chaos engineering: probability that a kCancelRequest fault fires at the
  /// admission queue's enqueue and dequeue points, turning the request into
  /// a typed kCanceled result. Draws are deterministic in `seed` but
  /// ordered by thread interleaving; 0 disables the injector entirely.
  double chaos_cancel_rate = 0.0;
  /// Cross-solve instance cache (DESIGN.md §15): how many registered
  /// instances may retain solved artifacts (certified optimum, central-path
  /// warm start) at once; least-recently resolved holders are evicted
  /// beyond this. 0 disables retention — Engine::resolve still applies
  /// deltas but always re-solves cold.
  std::size_t instance_cache_capacity = 64;
  /// Crash-safe instance-store durability (DESIGN.md §16). When non-empty,
  /// the engine recovers the instance store from this directory at
  /// construction (newest valid snapshot + journal replay, recovered optima
  /// re-certified in exact arithmetic) and persists register / deregister /
  /// delta events to an fsync'd append-only journal with periodic full
  /// snapshots. Empty (the default) keeps the store process-local and every
  /// code path bit-identical to a persistence-free engine. The engine holds
  /// the directory's lock for its lifetime: constructing a second engine on
  /// it, in any process, throws PersistDirBusy.
  std::string persist_dir;
  /// Journal appends between automatic snapshots (0 = only explicit
  /// persist_snapshot() calls snapshot).
  std::size_t persist_snapshot_every = 256;
};

/// Per-request lifecycle controls for Engine::solve / solve_batch / resolve.
struct SolveControl {
  /// Request deadline; combined with each Instance's own (tighter wins).
  core::Deadline deadline = core::Deadline::unlimited();
  /// Caller-owned cancellation token; must outlive the call. Any thread may
  /// cancel it: the solver observes it at its lifecycle poll sites, a queued
  /// request at the admission queue's poll tick. One token covers every
  /// item of a solve_batch and both attempts of a resolve.
  const core::CancelToken* cancel = nullptr;
  /// 0 (most important) … kNumPriorities-1. Under overload lower priorities
  /// shed first; values past the ladder clamp to the least important class.
  std::uint32_t priority = 0;
};

/// Result of one batch entry: the solve result plus the PRAM cost measured
/// by that solve's own tracker (all-zero in wall-clock mode).
struct EngineSolveResult {
  mcf::MinCostFlowResult result;
  par::Cost pram;  ///< work/depth charged inside this solve only
};

class Engine {
 public:
  explicit Engine(EngineConfig config = {});
  ~Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Solve one instance. Reentrant: safe to call from many threads sharing
  /// this Engine (and its pool) concurrently; each call runs under a private
  /// SolverContext, so returned stats cover exactly this solve. `control`
  /// carries the request's deadline/cancellation/priority; under
  /// admission control a full engine either parks the request in the
  /// bounded queue (blocking this thread until a slot frees, the deadline
  /// expires, or a token cancels) or sheds it with SolveStatus::kLoadShed.
  [[nodiscard]] EngineSolveResult solve(const Instance& inst,
                                        const mcf::SolveOptions& opts = {},
                                        const SolveControl& control = {}) const;

  /// Solve every instance of `batch`, fanning across the pool (one solve per
  /// task; serial fallback when no pool is bound). results[i] is
  /// bit-identical to solve(batch[i], opts) with context seed derived from
  /// index i — independent of thread count and scheduling. The request-level
  /// `control` deadline combines with each item's Instance::deadline; under
  /// admission control, the deterministic prefix of the batch that fits the
  /// free slots is admitted (decided upfront in index order, so serial and
  /// pooled runs agree exactly) and the rest is shed with kLoadShed
  /// "no capacity". Batch items never wait in the admission queue.
  [[nodiscard]] std::vector<EngineSolveResult> solve_batch(
      const std::vector<Instance>& batch, const mcf::SolveOptions& opts = {},
      const SolveControl& control = {}) const;

  [[nodiscard]] const EngineConfig& config() const { return config_; }
  /// The pool solve_batch fans across (nullptr = serial).
  [[nodiscard]] par::ThreadPool* pool() const;
  /// Solves currently holding an admission slot (0 when unbounded).
  [[nodiscard]] std::size_t in_flight() const {
    return in_flight_.load(std::memory_order_relaxed);
  }
  /// Requests parked in the admission queue.
  [[nodiscard]] std::size_t queue_depth() const;

  /// Drain control: take up to `n` admission slots out of service (returns
  /// how many were actually removed — never more than the currently free
  /// slots). Reserved capacity is invisible to requests until
  /// restore_capacity returns it, at which point parked waiters are
  /// re-dispatched. No-op (returns 0) on an unbounded engine.
  std::size_t reserve_capacity(std::size_t n) const;
  void restore_capacity(std::size_t n) const;

  /// Point-in-time copy of the serving metrics (monotonic counters,
  /// latency/queue-wait/solve-time histograms, per-priority goodput) plus
  /// the in_flight / queue_depth gauges. Lock-free on the recording side.
  [[nodiscard]] MetricsSnapshot metrics_snapshot() const;

  // --- cross-solve instance cache + incremental re-solve (DESIGN.md §15) --

  /// Deep-copy `inst` into the engine's instance store, fingerprint it
  /// (structure hash over the arc list, value hash over costs/capacities),
  /// and return a stable handle for Engine::resolve. Returns 0 (the
  /// unknown-handle sentinel) for a null-graph instance.
  [[nodiscard]] InstanceHandle register_instance(const Instance& inst) const;

  /// Drop a registered instance and its retained artifacts. In-flight
  /// resolves on the handle finish normally; later ones get kInvalidInput.
  bool deregister_instance(InstanceHandle handle) const;

  /// Registered instances currently in the store.
  [[nodiscard]] std::size_t num_instances() const;

  /// Apply `delta` to the registered instance and re-solve, reusing the two
  /// artifacts the previous solve left behind, when still valid:
  ///   - empty/no-op delta → the retained certified optimum is re-certified
  ///     (exact __int128 arithmetic, zero trust in the cache) and replayed;
  ///   - values-only delta → warm re-solve: the IPM restarts from the
  ///     previous central-path point at the mu where that solve stopped
  ///     instead of the cold mu0;
  ///   - structural delta (arc add/remove) → epoch bump, artifacts
  ///     invalidated, cold re-solve.
  /// Nothing else crosses solves: each resolve builds its own solver state
  /// (Laplacian, preconditioners, CG iterates), so its result is a function
  /// of the instance and its retained central-path point alone — the same
  /// on a live engine as on one recovered from persist_dir. Every result is
  /// independently certified (SolveOptions::certify is forced on), so a
  /// stale-cache bug can never return a wrong answer silently; a warm
  /// attempt that fails falls back to a cold solve automatically. arc_flow
  /// in the result is indexed by *original* arc ids (stable across
  /// removals; removed arcs report 0). Resolves on one handle serialize;
  /// distinct handles run concurrently. Admission control, deadlines,
  /// cancellation, and metrics behave as in solve().
  [[nodiscard]] EngineSolveResult resolve(InstanceHandle handle, const InstanceDelta& delta,
                                          const mcf::SolveOptions& opts = {},
                                          const SolveControl& control = {}) const;

  // --- instance-store durability (DESIGN.md §16) --------------------------

  /// Force a snapshot generation now (rotate the journal, publish
  /// snap-<gen>). False when persistence is off or the publish failed a
  /// durability barrier (the journal still rotated; recovery bridges gaps).
  bool persist_snapshot() const;

  /// What construction-time recovery found (all-defaults when persistence
  /// is off or nothing was on disk).
  [[nodiscard]] RecoveryReport persist_recovery() const;

  /// The persister's private fault injector (kPersistTornWrite /
  /// kPersistBitFlip / kPersistFsyncFail seams); nullptr when persistence
  /// is off. Seeded arming makes every corruption test deterministic.
  [[nodiscard]] par::FaultInjector* persist_faults() const;

  /// Handles of every registered instance, ascending (recovery inspection
  /// and the crash harness's consistency sweep).
  [[nodiscard]] std::vector<InstanceHandle> instance_handles() const;

  /// Shared read access to a registered record (nullptr when unknown). The
  /// record's live state may still be mutated by concurrent resolves — the
  /// crash harness reads it from a quiescent, single-threaded checker.
  [[nodiscard]] std::shared_ptr<const InstanceRecord> inspect_instance(
      InstanceHandle handle) const;

 private:
  struct Admission;  // slot pool + one bounded FIFO per priority (engine.cpp)

  /// One solve under a fresh context derived from `salt`, with the resolved
  /// lifecycle configuration (deadline + the caller's token) installed.
  [[nodiscard]] EngineSolveResult solve_with_salt(const Instance& inst,
                                                  const mcf::SolveOptions& opts,
                                                  std::uint64_t salt,
                                                  const core::Deadline& deadline,
                                                  const core::CancelToken* cancel) const;

  /// How a request reaches its admission slot: solve() and resolve()
  /// acquire (and may queue); a solve_batch item had its slot taken upfront
  /// by solve_batch.
  enum class AdmitMode { kAcquire, kPreAcquired };

  /// Full admission + solve + release for one request (shared by solve(),
  /// each admitted solve_batch item, and resolve()'s solving paths).
  [[nodiscard]] EngineSolveResult admit_and_solve(const Instance& inst,
                                                  const mcf::SolveOptions& opts,
                                                  const SolveControl& control,
                                                  std::uint64_t salt,
                                                  AdmitMode mode) const;

  EngineConfig config_;
  /// Distinct salt per direct solve() call so concurrent callers get
  /// distinct context RNG streams (results don't depend on it — solver
  /// randomness seeds from SolveOptions — but forked streams must differ).
  mutable std::atomic<std::uint64_t> solve_calls_{0};
  mutable std::atomic<std::size_t> in_flight_{0};
  mutable std::unique_ptr<Admission> admission_;  ///< null when unbounded
  mutable std::unique_ptr<InstanceStore> store_;  ///< cross-solve instance cache
  mutable std::unique_ptr<StorePersister> persister_;  ///< null: persistence off
  mutable EngineMetrics metrics_;
  mutable par::FaultInjector chaos_;  ///< kCancelRequest at queue points
};

}  // namespace pmcf
