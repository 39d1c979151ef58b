#include "mcf/metrics.hpp"

#include <algorithm>
#include <cmath>

namespace pmcf {

const char* to_string(EngineCounter c) {
  switch (c) {
    case EngineCounter::kSubmitted: return "Submitted";
    case EngineCounter::kAdmittedImmediate: return "AdmittedImmediate";
    case EngineCounter::kAdmittedQueued: return "AdmittedQueued";
    case EngineCounter::kSolvedOk: return "SolvedOk";
    case EngineCounter::kDeadlineExceeded: return "DeadlineExceeded";
    case EngineCounter::kCanceled: return "Canceled";
    case EngineCounter::kFailed: return "Failed";
    case EngineCounter::kShedNoCapacity: return "ShedNoCapacity";
    case EngineCounter::kShedQueueFull: return "ShedQueueFull";
    case EngineCounter::kShedDeadline: return "ShedDeadline";
    case EngineCounter::kShedEvicted: return "ShedEvicted";
    case EngineCounter::kQueueTimeouts: return "QueueTimeouts";
    case EngineCounter::kQueueCancels: return "QueueCancels";
    case EngineCounter::kCancelRequests: return "CancelRequests";
    case EngineCounter::kCancelHits: return "CancelHits";
    case EngineCounter::kCertified: return "Certified";
    case EngineCounter::kCertificationFailures: return "CertificationFailures";
    case EngineCounter::kInstanceCacheHits: return "InstanceCacheHits";
    case EngineCounter::kInstanceCacheMisses: return "InstanceCacheMisses";
    case EngineCounter::kInstanceCacheInvalidations: return "InstanceCacheInvalidations";
    case EngineCounter::kInstanceCacheEvictions: return "InstanceCacheEvictions";
    case EngineCounter::kResolveWarm: return "ResolveWarm";
    case EngineCounter::kResolveCold: return "ResolveCold";
    case EngineCounter::kResolveWarmFallback: return "ResolveWarmFallback";
    case EngineCounter::kPersistJournalAppends: return "PersistJournalAppends";
    case EngineCounter::kPersistWriteFailures: return "PersistWriteFailures";
    case EngineCounter::kPersistSnapshots: return "PersistSnapshots";
    case EngineCounter::kPersistSnapshotFallbacks: return "PersistSnapshotFallbacks";
    case EngineCounter::kPersistRecordsDropped: return "PersistRecordsDropped";
    case EngineCounter::kPersistJournalTruncations: return "PersistJournalTruncations";
    case EngineCounter::kPersistRecoveredInstances: return "PersistRecoveredInstances";
    case EngineCounter::kPersistRecoveredOptima: return "PersistRecoveredOptima";
    case EngineCounter::kNumEngineCounters: break;
  }
  return "Unknown";
}

// Bucket layout: bucket 0 is [0, 1) µs; bucket 1 + o*S + s (o = octave,
// s = sub-bucket) spans [2^o * (1 + s/S), 2^o * (1 + (s+1)/S)) µs.

std::size_t LatencyHistogram::bucket_of(double us) {
  if (!(us >= 1.0)) return 0;  // also catches NaN
  const double o = std::floor(std::log2(us));
  std::size_t octave = static_cast<std::size_t>(o);
  if (octave >= kHistogramOctaves) return kHistogramBuckets - 1;
  const double base = std::exp2(o);
  auto sub = static_cast<std::size_t>((us - base) / base *
                                      static_cast<double>(kHistogramSubBuckets));
  if (sub >= kHistogramSubBuckets) sub = kHistogramSubBuckets - 1;
  return 1 + octave * kHistogramSubBuckets + sub;
}

double HistogramSnapshot::bucket_lower_us(std::size_t i) {
  if (i == 0) return 0.0;
  const std::size_t octave = (i - 1) / kHistogramSubBuckets;
  const std::size_t sub = (i - 1) % kHistogramSubBuckets;
  return std::exp2(static_cast<double>(octave)) *
         (1.0 + static_cast<double>(sub) / static_cast<double>(kHistogramSubBuckets));
}

double HistogramSnapshot::bucket_upper_us(std::size_t i) {
  if (i + 1 >= kHistogramBuckets) return bucket_lower_us(i) * 2.0;
  return bucket_lower_us(i + 1);
}

double HistogramSnapshot::quantile_us(double q) const {
  if (count == 0) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  const double rank = q * static_cast<double>(count - 1);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
    if (buckets[i] == 0) continue;
    const double lo = static_cast<double>(seen);
    seen += buckets[i];
    if (rank < static_cast<double>(seen)) {
      const double frac =
          buckets[i] <= 1 ? 0.0 : (rank - lo) / static_cast<double>(buckets[i] - 1);
      return bucket_lower_us(i) + frac * (bucket_upper_us(i) - bucket_lower_us(i));
    }
  }
  return bucket_upper_us(kHistogramBuckets - 1);
}

HistogramSnapshot LatencyHistogram::snapshot() const {
  HistogramSnapshot snap;
  for (std::size_t i = 0; i < kHistogramBuckets; ++i)
    snap.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
  snap.count = count_.load(std::memory_order_relaxed);
  snap.sum_us = sum_us_.load(std::memory_order_relaxed);
  return snap;
}

MetricsSnapshot EngineMetrics::snapshot() const {
  MetricsSnapshot snap;
  for (std::size_t i = 0;
       i < static_cast<std::size_t>(EngineCounter::kNumEngineCounters); ++i)
    snap.counters[i] = counters_[i].load(std::memory_order_relaxed);
  for (std::size_t p = 0; p < kNumPriorities; ++p) {
    snap.priorities[p].submitted = priorities_[p].submitted.load(std::memory_order_relaxed);
    snap.priorities[p].solved_ok = priorities_[p].solved_ok.load(std::memory_order_relaxed);
    snap.priorities[p].shed = priorities_[p].shed.load(std::memory_order_relaxed);
    snap.priorities[p].deadline_exceeded =
        priorities_[p].deadline_exceeded.load(std::memory_order_relaxed);
    snap.priorities[p].canceled = priorities_[p].canceled.load(std::memory_order_relaxed);
    snap.priorities[p].failed = priorities_[p].failed.load(std::memory_order_relaxed);
  }
  snap.latency = latency.snapshot();
  snap.queue_wait = queue_wait.snapshot();
  snap.solve_time = solve_time.snapshot();
  // Trace ring: collect every cell whose seqlock word is stable across the
  // payload read (even + unchanged ⇒ the packed word belongs to that seq),
  // then order by shed ordinal so the export reads oldest → newest.
  snap.shed_trace.reserve(kShedTraceCapacity);
  for (const TraceCell& cell : shed_trace_) {
    const std::uint64_t s1 = cell.seq.load(std::memory_order_acquire);
    if (s1 == 0 || (s1 & 1) != 0) continue;  // empty or mid-write
    const std::uint64_t packed = cell.packed.load(std::memory_order_acquire);
    if (cell.seq.load(std::memory_order_acquire) != s1) continue;  // torn
    ShedTraceEntry e;
    e.seq = s1 / 2;
    e.reason = static_cast<EngineCounter>(packed & 0xff);
    e.priority = static_cast<std::uint8_t>((packed >> 8) & 0xff);
    e.queue_depth = static_cast<std::uint32_t>(packed >> 16);
    snap.shed_trace.push_back(e);
  }
  std::sort(snap.shed_trace.begin(), snap.shed_trace.end(),
            [](const ShedTraceEntry& a, const ShedTraceEntry& b) { return a.seq < b.seq; });
  return snap;
}

}  // namespace pmcf
