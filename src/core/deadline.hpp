#pragma once
// Solve-lifecycle primitives: deadlines and cooperative cancellation
// (DESIGN.md §11).
//
// A serving deployment must be able to *bound* a solve (wall-clock or
// PRAM-work budget) and to *abort* one that is no longer wanted. Both are
// cooperative: the solver polls its context's Lifecycle at natural loop
// boundaries (IPM outer iterations, CG inner iterations, expander rebuilds,
// baseline augmentation loops) and winds down with a typed status —
// SolveStatus::kDeadlineExceeded or kCanceled — leaving the SolverContext
// reusable. These statuses are *instance-independent*: the degradation
// cascade stops on them instead of retrying a lower tier, and certification
// is skipped (there is no answer to certify).
//
// The disarmed path costs one branch (`armed_` is set once at configuration
// time), so production solves without deadlines pay nothing for the polls
// compiled into the hot loops. Deep call sites whose interface has no status
// channel use `throw_if_expired`, which surfaces the condition as a
// ComponentError the tier drivers already convert back to a status.

#include <atomic>
#include <chrono>
#include <cstdint>

#include "core/exec_bindings.hpp"
#include "core/solve_status.hpp"
#include "parallel/work_depth.hpp"

namespace pmcf::core {

/// Thread-safe cancellation flag shared between a caller and an in-flight
/// solve. The caller keeps the token alive for the solve's duration and may
/// cancel from any thread; the solve observes it at its next lifecycle poll.
class CancelToken {
 public:
  void cancel() noexcept { canceled_.store(true, std::memory_order_release); }
  [[nodiscard]] bool canceled() const noexcept {
    return canceled_.load(std::memory_order_acquire);
  }
  void reset() noexcept { canceled_.store(false, std::memory_order_release); }

 private:
  std::atomic<bool> canceled_{false};
};

/// Per-solve budget. Either bound may be left open; an all-open Deadline is
/// free to check. The work budget is expressed in PRAM work units and is
/// therefore *deterministic* — the same instance exceeds it at the same
/// iteration on every run — but only binds in instrumented mode (wall-clock
/// trackers charge nothing). The wall bound binds in both modes.
struct Deadline {
  using Clock = std::chrono::steady_clock;

  Clock::time_point wall = Clock::time_point::max();  ///< open when max()
  std::uint64_t work = 0;                             ///< PRAM budget; 0 = open

  [[nodiscard]] static Deadline unlimited() { return {}; }
  /// Wall-clock deadline `d` from now.
  [[nodiscard]] static Deadline in(Clock::duration d) {
    Deadline dl;
    dl.wall = Clock::now() + d;
    return dl;
  }
  [[nodiscard]] static Deadline at(Clock::time_point t) {
    Deadline dl;
    dl.wall = t;
    return dl;
  }
  /// PRAM-work budget (deterministic; instrumented mode only).
  [[nodiscard]] static Deadline work_budget(std::uint64_t units) {
    Deadline dl;
    dl.work = units;
    return dl;
  }

  [[nodiscard]] bool open() const {
    return wall == Clock::time_point::max() && work == 0;
  }
};

/// The per-solve lifecycle state owned by a SolverContext: at most one bound
/// caller-owned cancel token plus the solve's Deadline. Configured before the
/// solve starts and read cooperatively from the solve's own threads;
/// reconfiguration while a solve is in flight is not supported (matching the
/// context's single-solve contract).
class Lifecycle {
 public:
  /// Replace the deadline (and re-arm / disarm the fast path).
  void set_deadline(const Deadline& d) {
    deadline_ = d;
    rearm();
  }
  /// Bind the cancel token (replaces any earlier one; nullptr unbinds).
  void bind_token(const CancelToken* token) {
    token_ = token;
    rearm();
  }
  /// Forget token and deadline: the context can host a fresh solve.
  void clear() {
    token_ = nullptr;
    deadline_ = Deadline::unlimited();
    forced_ = false;
    armed_ = false;
  }
  /// Latch a cancellation that did not come through a token (the
  /// kCancelRequest fault-injection point). Cleared by clear().
  void force_cancel() {
    forced_ = true;
    armed_ = true;
  }

  [[nodiscard]] bool armed() const { return armed_; }
  [[nodiscard]] const Deadline& deadline() const { return deadline_; }

  /// The cooperative check. `tracker` supplies the PRAM work counter for the
  /// work budget (pass the context's tracker; ignored when disabled).
  /// Returns kOk, kCanceled, or kDeadlineExceeded. One branch when disarmed.
  [[nodiscard]] SolveStatus poll(const par::Tracker& tracker) const {
    if (!armed_) return SolveStatus::kOk;
    return poll_slow(tracker);
  }

 private:
  [[nodiscard]] SolveStatus poll_slow(const par::Tracker& tracker) const;
  void rearm() {
    armed_ = forced_ || token_ != nullptr || !deadline_.open();
  }

  const CancelToken* token_ = nullptr;
  Deadline deadline_{};
  bool forced_ = false;
  bool armed_ = false;
};

/// Poll the calling thread's bound lifecycle (the active SolverContext's via
/// ContextScope / pool-task propagation). kOk when no context is installed —
/// the default context never carries a deadline. Used by layers that have no
/// context parameter (the combinatorial baselines).
[[nodiscard]] SolveStatus poll_lifecycle();

/// Throwing twin for deep call sites with no status channel: raises
/// ComponentError(status, component, ...) when the bound lifecycle has
/// expired or been canceled. Tier drivers convert it back to a status.
void throw_if_expired(const char* component);

}  // namespace pmcf::core
