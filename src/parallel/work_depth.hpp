#pragma once
// PRAM work/depth accounting.
//
// The paper states its results in the PRAM model: *work* is the total number of
// primitive operations, *depth* (span) the longest chain of dependent
// operations. Reproducing the paper's claims therefore means measuring these
// two counters, not wall-clock time on whatever machine happens to run the
// code. Every parallel primitive in pmcf charges the *current* tracker: the
// one bound by the active SolverContext (core/solver_context.hpp), or the
// default context's tracker when no solve is in flight. `parallel_for`
// contributes the maximum span of its iterations plus O(log n) for binary
// forking. See DESIGN.md §5.1 and §9.

#include <bit>
#include <cstdint>
#include <string>

#include "core/exec_bindings.hpp"

namespace pmcf::par {

/// A (work, depth) pair in the PRAM cost model.
struct Cost {
  std::uint64_t work = 0;
  std::uint64_t depth = 0;

  Cost operator-(const Cost& o) const { return {work - o.work, depth - o.depth}; }
  Cost operator+(const Cost& o) const { return {work + o.work, depth + o.depth}; }
  bool operator==(const Cost& o) const = default;
};

/// Accumulates work and span for one solve. Instrumented execution is
/// single-threaded (deterministic), so plain counters suffice; every
/// SolverContext owns its own Tracker, making concurrent solves' accounting
/// independent.
class Tracker {
 public:
  explicit Tracker(bool enabled = true) : enabled_(enabled) {}

  Tracker(const Tracker&) = delete;
  Tracker& operator=(const Tracker&) = delete;

  /// The default context's tracker. Compatibility shim for tests and benches
  /// that instrument without a scoped context; library code resolves the
  /// current tracker through its SolverContext instead.
  static Tracker& instance();

  void charge(std::uint64_t work, std::uint64_t depth) {
    if (!enabled_) return;
    work_ += work;
    depth_ += depth;
  }

  [[nodiscard]] std::uint64_t work() const { return work_; }
  [[nodiscard]] std::uint64_t depth() const { return depth_; }
  [[nodiscard]] Cost snapshot() const { return {work_, depth_}; }

  void set_depth(std::uint64_t d) { depth_ = d; }
  void reset() { work_ = 0; depth_ = 0; }

  [[nodiscard]] bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

 private:
  std::uint64_t work_ = 0;
  std::uint64_t depth_ = 0;
  bool enabled_ = true;
};

/// The tracker charged by this thread's instrumentation: the active
/// SolverContext's, else the default context's.
inline Tracker& current_tracker() {
  Tracker* t = core::current_bindings().tracker;
  return t != nullptr ? *t : Tracker::instance();
}

/// Charge `work` units of work and `depth` units of span (defaults to O(1)).
inline void charge(std::uint64_t work, std::uint64_t depth = 1) {
  current_tracker().charge(work, depth);
}

/// Current cumulative (work, depth).
inline Cost snapshot() { return current_tracker().snapshot(); }

/// Measures the cost of a scope: `CostScope s; ...; auto c = s.elapsed();`
class CostScope {
 public:
  CostScope() : start_(snapshot()) {}
  [[nodiscard]] Cost elapsed() const { return snapshot() - start_; }

 private:
  Cost start_;
};

/// ceil(log2(n)) with log2(0) = log2(1) = 0; the forking overhead of a
/// parallel loop over n iterations. Inline: every PRAM charge evaluates it.
constexpr std::uint64_t ceil_log2(std::uint64_t n) {
  return n <= 1 ? 0 : static_cast<std::uint64_t>(std::bit_width(n - 1));
}

/// Human-readable "work=... depth=..." string, used by benches.
std::string to_string(const Cost& c);

}  // namespace pmcf::par
