#pragma once
// Per-solve execution context (DESIGN.md §9).
//
// A SolverContext bundles everything that used to be process-global state:
//
//   tracker   — PRAM work/depth accounting for this solve only
//   rng       — the solve's master randomness stream (split per component)
//   fault     — deterministic fault-injection points scoped to this solve
//   recovery  — recovery-event telemetry sink (no cross-solve pollution)
//   pool      — which work-stealing pool wall-clock primitives may use
//
// Every layer of the solver (mcf → ipm → linalg/ds/expander) takes a
// SolverContext& explicitly; the free-function instrumentation layer
// (par::charge, note_recovery, injection points) resolves through the
// thread-local bindings a ContextScope installs, so two solves in the same
// process never corrupt each other's work/depth numbers or telemetry. The
// legacy singletons (Tracker::instance, FaultInjector::instance,
// recovery_snapshot) are thin shims over `default_context()` kept for tests
// and benches; library code must not call them.

#include <cstdint>

#include "core/deadline.hpp"
#include "core/exec_bindings.hpp"
#include "core/ingredients.hpp"  // solver layers reach the constants through this header
#include "core/solve_status.hpp"
#include "parallel/fault_injection.hpp"
#include "parallel/rng.hpp"
#include "parallel/thread_pool.hpp"
#include "parallel/work_depth.hpp"

namespace pmcf::core {

/// Counters for the solver acceleration layer (DESIGN.md §10). Owned by the
/// SolverContext so per-solve deltas are exact under concurrent batches; the
/// linalg cache increments them, the mcf TelemetryScope reads them out into
/// SolveStats.
struct AccelTelemetry {
  std::uint64_t precond_builds = 0;       ///< preconditioner factorizations
  std::uint64_t precond_reuses = 0;       ///< solves served by a cached factor
  std::uint64_t precond_fallbacks = 0;    ///< IC(0) breakdowns degraded to Jacobi
  std::uint64_t laplacian_builds = 0;     ///< full CSR pattern constructions
  std::uint64_t laplacian_refreshes = 0;  ///< value-only in-place rewrites
  std::uint64_t multi_rhs_solves = 0;     ///< blocked multi-RHS CG calls
  std::uint64_t multi_rhs_columns = 0;    ///< RHS columns across those calls
  std::uint64_t warm_start_hits = 0;      ///< CG solves seeded from a cached iterate
};

struct ContextOptions {
  std::uint64_t seed = 0x5eedf00dULL;  ///< master RNG stream seed
  /// PRAM accounting on: execution is single-threaded and deterministic.
  /// Off: wall-clock mode, parallel primitives may use `pool`.
  bool instrument = true;
  /// Wall-clock pool. nullptr + use_global_pool → whatever
  /// ThreadPool::configure installed; nullptr + !use_global_pool → always
  /// sequential (useful for pinning a solve to the calling thread).
  par::ThreadPool* pool = nullptr;
  bool use_global_pool = true;
};

class SolverContext {
 public:
  explicit SolverContext(ContextOptions opts = {})
      : opts_(opts), tracker_(opts.instrument), rng_(opts.seed) {}

  // Bindings hold pointers into this object; it must stay put.
  SolverContext(const SolverContext&) = delete;
  SolverContext& operator=(const SolverContext&) = delete;

  ~SolverContext() {
    if (scratch_ != nullptr) scratch_destroy_(scratch_);
  }

  [[nodiscard]] par::Tracker& tracker() { return tracker_; }
  [[nodiscard]] const par::Tracker& tracker() const { return tracker_; }
  [[nodiscard]] par::FaultInjector& fault() { return fault_; }
  [[nodiscard]] Lifecycle& lifecycle() { return lifecycle_; }
  [[nodiscard]] const Lifecycle& lifecycle() const { return lifecycle_; }

  /// The cooperative lifecycle check (DESIGN.md §11): solver loops call this
  /// at iteration boundaries and wind down with the returned status when it
  /// is not kOk. Draws the kCancelRequest injection point first, so tests can
  /// fire a deterministic "cancellation arrives here" at any poll site; an
  /// injected cancellation latches until Lifecycle::clear(). One relaxed
  /// branch per concern when nothing is armed.
  [[nodiscard]] SolveStatus check_lifecycle() {
    if (fault_.should_fire(par::FaultKind::kCancelRequest)) lifecycle_.force_cancel();
    return lifecycle_.poll(tracker_);
  }

  [[nodiscard]] RecoveryLog& recovery() { return recovery_; }
  [[nodiscard]] const RecoveryLog& recovery() const { return recovery_; }
  [[nodiscard]] AccelTelemetry& accel() { return accel_; }
  [[nodiscard]] const AccelTelemetry& accel() const { return accel_; }

  /// Lazily-created, type-erased per-solve scratch slot. The linalg
  /// acceleration cache (preconditioners, Laplacian pattern, warm-start
  /// iterates, CG block scratch) lives here so core carries no linalg
  /// dependency; the first caller's factory wins and the destructor it
  /// supplied runs when the context dies. Contexts are single-solve, so no
  /// synchronization is needed, and nothing in the slot outlives its
  /// context.
  [[nodiscard]] void* ensure_scratch(void* (*make)(), void (*destroy)(void*)) {
    if (scratch_ == nullptr) {
      scratch_ = make();
      scratch_destroy_ = destroy;
    }
    return scratch_;
  }

  /// Drop the per-solve scratch (acceleration cache, warm starts, CG block
  /// buffers). The public mcf entry points call this at solve start so a
  /// reused context — including one whose previous solve was canceled
  /// mid-flight — behaves bit-identically to a fresh context.
  void reset_scratch() {
    if (scratch_ != nullptr) {
      scratch_destroy_(scratch_);
      scratch_ = nullptr;
      scratch_destroy_ = nullptr;
    }
  }

  /// The solve's master randomness stream.
  [[nodiscard]] par::Rng& rng() { return rng_; }
  /// Derive an independent stream for a sub-component (advances the master).
  [[nodiscard]] par::Rng fork_rng() { return rng_.split(); }
  [[nodiscard]] std::uint64_t seed() const { return opts_.seed; }

  /// The pool this context is bound to, regardless of mode.
  [[nodiscard]] par::ThreadPool* pool() const {
    if (opts_.pool != nullptr) return opts_.pool;
    return opts_.use_global_pool ? par::ThreadPool::global() : nullptr;
  }

  /// The thread-local slots a ContextScope installs for this context.
  [[nodiscard]] ExecBindings bindings() {
    ExecBindings b;
    b.tracker = &tracker_;
    b.injector = &fault_;
    b.recovery = &recovery_;
    b.lifecycle = &lifecycle_;
    b.pool = pool();
    b.pool_bound = true;
    return b;
  }

 private:
  ContextOptions opts_;
  par::Tracker tracker_;
  par::FaultInjector fault_;
  Lifecycle lifecycle_;
  RecoveryLog recovery_;
  par::Rng rng_;
  AccelTelemetry accel_;
  void* scratch_ = nullptr;
  void (*scratch_destroy_)(void*) = nullptr;
};

/// Installs `ctx` as the calling thread's current context for the scope
/// (RAII; nests correctly across the thread pool's task boundaries).
class ContextScope {
 public:
  explicit ContextScope(SolverContext& ctx) : scope_(ctx.bindings()) {}

 private:
  BindingsScope scope_;
};

/// Process-wide default context: backs the legacy singleton accessors and
/// any solve entered without an explicit context. Shared — concurrent solves
/// must bring their own SolverContext instead.
SolverContext& default_context();

}  // namespace pmcf::core
