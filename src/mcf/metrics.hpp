#pragma once
// Lock-free serving metrics for pmcf::Engine (DESIGN.md §12).
//
// A serving deployment needs to *see* what the overload-hardening layer is
// doing: how much traffic arrived, how much was shed and why, how long
// requests waited in the admission queue, and whether high-priority goodput
// survived a burst. EngineMetrics is the recording side — monotonic atomic
// counters plus fixed-bucket latency histograms, safe to update from any
// number of threads with no locks and no allocation (the shed fast path is
// asserted allocation-free end to end by AllocCountTest). MetricsSnapshot is
// the reading side: a plain-value copy, taken without allocating, suitable
// for export to a dashboard scraper. Counters are monotone, so successive
// snapshots can be diffed; a snapshot is internally consistent in the
// monotonic sense (each value is a point-in-time atomic read; cross-counter
// sums may be mid-update by at most the number of requests in flight during
// the copy).

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>

#include "core/solve_status.hpp"

namespace pmcf {

/// Fixed priority ladder for SolveControl::priority: 0 is the most
/// important, kNumPriorities-1 the least. Under overload, lower priorities
/// (numerically larger) are shed first.
inline constexpr std::size_t kNumPriorities = 4;

/// Monotonic engine-level counters. Every request entering Engine::solve, as
/// a solve_batch item, or as an Engine::resolve increments kSubmitted exactly
/// once and exactly one of the terminal outcome counters (kSolvedOk /
/// kDeadlineExceeded / kCanceled / kFailed / one of the kShed* kinds) exactly
/// once. A resolve whose warm attempt fails and is retried cold
/// (kResolveWarmFallback) counts as a second submission with its own
/// terminal outcome.
enum class EngineCounter : std::uint8_t {
  kSubmitted = 0,      ///< requests entering solve() / resolve() / batch items
  kAdmittedImmediate,  ///< took a free slot at arrival (no queue pass)
  kAdmittedQueued,     ///< granted a slot after waiting in the admission queue
  // --- terminal outcomes -------------------------------------------------
  kSolvedOk,          ///< solve returned kOk
  kDeadlineExceeded,  ///< expired mid-solve or while queued
  kCanceled,          ///< canceled mid-solve or while queued
  kFailed,            ///< any other non-kOk solver status
  kShedNoCapacity,    ///< kLoadShed: no free slot and no queue to wait in
                      ///< (queueless engine, or a solve_batch suffix)
  kShedQueueFull,     ///< kLoadShed: queue at capacity, nothing evictable
  kShedEvicted,       ///< kLoadShed: evicted by a higher-priority arrival
  // --- queue-path detail -------------------------------------------------
  kQueueTimeouts,  ///< waiters whose deadline expired in the queue
  kQueueCancels,   ///< waiters canceled while queued (token or chaos)
  // --- certification -----------------------------------------------------
  kCertified,              ///< kOk results that passed independent certification
  kCertificationFailures,  ///< certification rejections across tier attempts
  // --- cross-solve instance cache (DESIGN.md §15) -------------------------
  kInstanceCacheHits,           ///< resolves that replayed an optimum or offered
                                ///< a retained central-path point
  kInstanceCacheMisses,         ///< resolves with neither to reuse
  kInstanceCacheInvalidations,  ///< artifacts dropped (structural epoch bump
                                ///< or a replay that failed re-certification)
  kInstanceCacheEvictions,      ///< artifacts displaced by the LRU capacity
  kResolveWarm,                 ///< resolves served warm (replay or central-path point)
  kResolveCold,                 ///< resolves planned cold (epoch bump / no point retained)
  kResolveWarmFallback,         ///< warm attempts that failed and were retried cold —
                                ///< warm failure rate is kResolveWarmFallback /
                                ///< kResolveWarm, not folded into kResolveCold
  // --- instance-store durability (DESIGN.md §16) --------------------------
  kPersistJournalAppends,       ///< delta/register/deregister frames made durable
  kPersistWriteFailures,        ///< frames or snapshots that failed durability
                                ///< (torn write, fsync failure, I/O error)
  kPersistSnapshots,            ///< snapshot generations published (tmp + rename)
  kPersistSnapshotFallbacks,    ///< recovery skipped an unreadable newer snapshot
  kPersistRecordsDropped,       ///< records dropped in recovery (bad checksum,
                                ///< failed re-certification, replay-guard mismatch)
  kPersistJournalTruncations,   ///< torn journal tails cut at the last valid frame
  kPersistRecoveredInstances,   ///< records restored into the store at startup
  kPersistRecoveredOptima,      ///< stored optima that passed exact re-certification
  kNumEngineCounters,
};

/// Stable name (e.g. "SolvedOk", "ShedQueueFull").
const char* to_string(EngineCounter c);

// ---------------------------------------------------------------------------
// Fixed-bucket log-linear latency histogram (HDR-style): 4 sub-buckets per
// octave starting at 1 µs, so relative resolution is ~19% everywhere from
// 1 µs to ~20 min. Bucket 0 catches sub-microsecond samples. Recording is
// one atomic increment plus one relaxed add; no locks, no allocation.

inline constexpr std::size_t kHistogramSubBuckets = 4;   ///< per octave
inline constexpr std::size_t kHistogramOctaves = 31;     ///< 1 µs … ~2^31 µs
inline constexpr std::size_t kHistogramBuckets =
    1 + kHistogramOctaves * kHistogramSubBuckets;

/// Plain-value histogram copy with quantile estimation.
struct HistogramSnapshot {
  std::uint64_t buckets[kHistogramBuckets] = {};
  std::uint64_t count = 0;
  std::uint64_t sum_us = 0;

  /// Inclusive lower / exclusive upper bound of bucket `i` in microseconds.
  static double bucket_lower_us(std::size_t i);
  static double bucket_upper_us(std::size_t i);

  [[nodiscard]] double mean_us() const {
    return count == 0 ? 0.0 : static_cast<double>(sum_us) / static_cast<double>(count);
  }
  /// Quantile estimate in microseconds (q in [0,1]); linear interpolation
  /// inside the matched bucket. 0 when the histogram is empty.
  [[nodiscard]] double quantile_us(double q) const;
};

/// Thread-safe recording histogram.
class LatencyHistogram {
 public:
  void record_us(double us) {
    buckets_[bucket_of(us)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_us_.fetch_add(us <= 0.0 ? 0 : static_cast<std::uint64_t>(us),
                      std::memory_order_relaxed);
  }
  void record(std::chrono::steady_clock::duration d) {
    record_us(std::chrono::duration<double, std::micro>(d).count());
  }

  [[nodiscard]] HistogramSnapshot snapshot() const;

  static std::size_t bucket_of(double us);

 private:
  std::atomic<std::uint64_t> buckets_[kHistogramBuckets] = {};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_us_{0};
};

// ---------------------------------------------------------------------------

/// Per-priority outcome tallies (the goodput surface).
struct PrioritySnapshot {
  std::uint64_t submitted = 0;
  std::uint64_t solved_ok = 0;
  std::uint64_t shed = 0;               ///< all kLoadShed outcomes
  std::uint64_t deadline_exceeded = 0;  ///< queued or mid-solve expiry
  std::uint64_t canceled = 0;
  std::uint64_t failed = 0;

  /// Fraction of submitted requests at this priority that returned kOk.
  /// 1.0 when nothing was submitted (vacuous goodput).
  [[nodiscard]] double goodput() const {
    return submitted == 0
               ? 1.0
               : static_cast<double>(solved_ok) / static_cast<double>(submitted);
  }
};

/// Plain-value copy of an engine's metrics. See EngineMetrics for the
/// consistency contract.
struct MetricsSnapshot {
  std::uint64_t counters[static_cast<std::size_t>(EngineCounter::kNumEngineCounters)] = {};
  PrioritySnapshot priorities[kNumPriorities];
  HistogramSnapshot latency;     ///< arrival → terminal outcome, µs
  HistogramSnapshot queue_wait;  ///< arrival → slot acquisition, µs (every admitted request)
  HistogramSnapshot solve_time;  ///< slot acquisition → solver return, µs
  std::size_t in_flight = 0;     ///< gauge: slots held at snapshot time
  std::size_t queue_depth = 0;   ///< gauge: requests parked at snapshot time

  [[nodiscard]] std::uint64_t of(EngineCounter c) const {
    return counters[static_cast<std::size_t>(c)];
  }
  /// All kLoadShed outcomes (every shed kind combined).
  [[nodiscard]] std::uint64_t shed_total() const {
    return of(EngineCounter::kShedNoCapacity) + of(EngineCounter::kShedQueueFull) +
           of(EngineCounter::kShedEvicted);
  }
  /// All terminal outcomes (must equal kSubmitted once the engine drains).
  [[nodiscard]] std::uint64_t terminal_total() const {
    return of(EngineCounter::kSolvedOk) + of(EngineCounter::kDeadlineExceeded) +
           of(EngineCounter::kCanceled) + of(EngineCounter::kFailed) + shed_total();
  }
  [[nodiscard]] double shed_rate() const {
    const std::uint64_t sub = of(EngineCounter::kSubmitted);
    return sub == 0 ? 0.0 : static_cast<double>(shed_total()) / static_cast<double>(sub);
  }
};

/// The recording surface owned by an Engine. All methods are thread-safe,
/// wait-free (a handful of relaxed atomic RMWs), and allocation-free.
class EngineMetrics {
 public:
  void count(EngineCounter c, std::uint64_t n = 1) {
    counters_[static_cast<std::size_t>(c)].fetch_add(n, std::memory_order_relaxed);
  }

  void on_submitted(std::size_t priority, std::uint64_t n = 1) {
    count(EngineCounter::kSubmitted, n);
    priorities_[priority].submitted.fetch_add(n, std::memory_order_relaxed);
  }

  /// `n` requests were refused with kLoadShed; `kind` is one of the kShed*
  /// counters naming why.
  void on_shed(std::size_t priority, EngineCounter kind, std::uint64_t n = 1) {
    count(kind, n);
    priorities_[priority].shed.fetch_add(n, std::memory_order_relaxed);
  }

  /// A request that held (or was denied short of) a slot reached a terminal
  /// solver status. Not for kLoadShed — use on_shed.
  void on_outcome(std::size_t priority, SolveStatus status) {
    auto& p = priorities_[priority];
    switch (status) {
      case SolveStatus::kOk:
        count(EngineCounter::kSolvedOk);
        p.solved_ok.fetch_add(1, std::memory_order_relaxed);
        break;
      case SolveStatus::kDeadlineExceeded:
        count(EngineCounter::kDeadlineExceeded);
        p.deadline_exceeded.fetch_add(1, std::memory_order_relaxed);
        break;
      case SolveStatus::kCanceled:
        count(EngineCounter::kCanceled);
        p.canceled.fetch_add(1, std::memory_order_relaxed);
        break;
      default:
        count(EngineCounter::kFailed);
        p.failed.fetch_add(1, std::memory_order_relaxed);
        break;
    }
  }

  LatencyHistogram latency;
  LatencyHistogram queue_wait;
  LatencyHistogram solve_time;

  /// Plain-value copy (gauges are filled in by Engine::metrics_snapshot).
  [[nodiscard]] MetricsSnapshot snapshot() const;

 private:
  struct PriorityCells {
    std::atomic<std::uint64_t> submitted{0};
    std::atomic<std::uint64_t> solved_ok{0};
    std::atomic<std::uint64_t> shed{0};
    std::atomic<std::uint64_t> deadline_exceeded{0};
    std::atomic<std::uint64_t> canceled{0};
    std::atomic<std::uint64_t> failed{0};
  };

  std::atomic<std::uint64_t>
      counters_[static_cast<std::size_t>(EngineCounter::kNumEngineCounters)] = {};
  PriorityCells priorities_[kNumPriorities];
};

}  // namespace pmcf
