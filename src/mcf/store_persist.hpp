#pragma once
// Crash-safe durability for the cross-solve instance store (DESIGN.md §16).
//
// The store is the engine's serving memory — fingerprints, stored optima,
// warm-start points — and without a disk image every restart would forget
// everything and a crash mid-mutation would have no story. StorePersister
// gives it one with a classic snapshot+journal design:
//
//   snap-<gen>.pmcf     periodic full snapshot: one checksummed frame per
//                       registered record (identity, live graph, mappings,
//                       fingerprints, epoch, and the retained optimum +
//                       WarmStart when present). Published via
//                       write-to-temp + atomic rename + directory fsync, so
//                       a crash at any byte offset leaves either the old or
//                       the new snapshot on disk, never a torn one.
//   journal-<gen>.log   append-only event journal: register / deregister /
//                       InstanceDelta frames, each length-prefixed and
//                       checksummed, fsync'd per append. Journal generation
//                       g holds the events that happened while snapshot g
//                       was the newest base.
//
// Snapshot protocol (lock-order safe): rotate the journal FIRST (open
// journal-(g+1) under the io lock), then serialize records taking only
// rec.mu → store lock (the engine-wide order), then publish snap-(g+1).
// Deltas that race the serialization land in journal g+1 and carry
// pre/post (epoch, value_hash) guards, so replay is idempotent: a frame
// whose pre-state matches applies, one whose post-state matches is already
// reflected in the snapshot and is skipped, anything else is a conflict
// and drops the record (a cold solve later — never a wrong answer).
//
// Recovery (Engine startup with EngineConfig::persist_dir set) walks the
// corruption taxonomy, every mode typed, injectable, and recoverable:
//   - bad record checksum in a snapshot  → drop that record, keep the rest;
//   - structurally bad snapshot (magic / header / framing) → fall back to
//     the previous generation (kPersistSnapshotFallbacks);
//   - torn journal tail → truncate at the last valid frame and keep the
//     durable prefix (kPersistJournalTruncations);
//   - replay-guard conflict → drop the record (kPersistRecordsDropped);
//   - recovered optima are re-certified with the exact __int128 certifier
//     before they may be replayed; a miscertified optimum is dropped
//     (the instance survives and solves cold).
//
// Ownership: the persister holds an exclusive flock(2) on <dir>/LOCK from
// construction to destruction (the kernel drops it when the process dies,
// so a killed engine never strands its directory). A second persister on
// the same directory, in this process or another, throws PersistDirBusy
// before it reads or writes anything there: two engines on one directory
// would recover each other's journals.
//
// Fault injection: the persister owns a private par::FaultInjector wired at
// the write/recover seams — FaultKind::kPersistTornWrite stops a journal
// append mid-frame (and poisons the journal until rotation, modeling an
// unknown tail), kPersistBitFlip flips one payload bit after checksumming
// (bit rot), kPersistFsyncFail makes a durability barrier report failure
// (append not durable / snapshot publish aborted). All draws are seeded and
// counter-based, so every corruption test is deterministic.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "mcf/instance_store.hpp"
#include "mcf/metrics.hpp"
#include "parallel/fault_injection.hpp"

namespace pmcf {

/// Durability knobs, fixed at Engine construction.
struct PersistConfig {
  std::string dir;                   ///< directory for snapshots + journals
  std::size_t snapshot_every = 256;  ///< journal appends between auto-snapshots
};

/// What recovery found and did. Also mirrored into EngineMetrics counters.
struct RecoveryReport {
  std::uint64_t generation = 0;            ///< base snapshot generation (0 = none)
  bool started_fresh = true;               ///< no usable snapshot or journal
  std::size_t snapshots_scanned = 0;       ///< snapshot files examined
  std::size_t snapshot_fallbacks = 0;      ///< unreadable newer snapshots skipped
  std::size_t records_recovered = 0;       ///< records adopted into the store
  std::size_t records_dropped = 0;         ///< checksum / guard / certify drops
  std::size_t optima_recovered = 0;        ///< stored optima that re-certified
  std::size_t journal_frames_replayed = 0; ///< journal events applied or skipped
  std::size_t journal_truncations = 0;     ///< torn tails cut
};

/// 64-bit XXH-style streaming checksum over a byte range (SplitMix64-mixed,
/// seedable). Not cryptographic — it guards against torn writes and bit rot,
/// and correctness never rests on it: recovered optima are re-certified in
/// exact arithmetic and every served resolve is certified anyway.
[[nodiscard]] std::uint64_t persist_checksum(const void* data, std::size_t len,
                                             std::uint64_t seed = 0);

/// On-disk paths for generation `gen` (exposed for tests and the harness).
[[nodiscard]] std::string snapshot_path(const std::string& dir, std::uint64_t gen);
[[nodiscard]] std::string journal_path(const std::string& dir, std::uint64_t gen);

/// Thrown when another persister (another Engine, maybe in another process)
/// holds the directory's lock.
class PersistDirBusy : public std::runtime_error {
 public:
  explicit PersistDirBusy(const std::string& dir)
      : std::runtime_error("persist_dir " + dir + " is locked by another engine") {}
};

class StorePersister {
 public:
  /// Creates the directory if needed and takes its lock (PersistDirBusy when
  /// another persister holds it); opens no journal yet: recover() (or the
  /// first snapshot()) brings it up. `metrics` may be null (counters are
  /// then dropped).
  StorePersister(PersistConfig cfg, EngineMetrics* metrics);
  ~StorePersister();

  StorePersister(const StorePersister&) = delete;
  StorePersister& operator=(const StorePersister&) = delete;

  /// Load the newest valid snapshot, replay the journals on top, re-certify
  /// recovered optima, and adopt the result into `store` (which must be
  /// empty). Leaves the journal of the base generation open for append;
  /// callers normally follow with snapshot() to start a clean generation.
  RecoveryReport recover(InstanceStore& store);

  /// Rotate the journal and publish a full snapshot of `store`. Returns
  /// false (old generation stays authoritative for snapshot state, but the
  /// journal has still rotated) when the publish fails a durability barrier.
  bool snapshot(InstanceStore& store);

  /// snapshot() iff the configured append budget has been consumed. Must be
  /// called WITHOUT any InstanceRecord::mu held (snapshot takes them).
  void maybe_snapshot(InstanceStore& store);

  /// Journal appends. The caller holds `rec.mu` (register/delta) so the
  /// serialized state is stable; file I/O is serialized internally. Return
  /// false when the frame could not be made durable (torn write, fsync
  /// failure, broken journal awaiting rotation) — the in-memory store stays
  /// authoritative and the next snapshot repairs the disk image.
  bool append_register(const InstanceRecord& rec);
  bool append_deregister(InstanceHandle h);
  /// `pre_*` are the record's (epoch, value_hash) before the delta was
  /// applied; `rec` already carries the post state.
  bool append_delta(const InstanceRecord& rec, const InstanceDelta& delta,
                    std::uint64_t pre_epoch, std::uint64_t pre_value_hash);

  /// The persister's private injector (seeded corruption for tests).
  [[nodiscard]] par::FaultInjector& faults() { return faults_; }
  [[nodiscard]] const RecoveryReport& last_recovery() const { return last_recovery_; }

 private:
  struct RecoveredRecord;

  void count(EngineCounter c, std::uint64_t n = 1) const {
    if (metrics_ != nullptr) metrics_->count(c, n);
  }

  /// Append one framed event to the open journal (opens journal-<gen> on
  /// first use). Returns durability as for the public append_* methods.
  bool append_frame(std::uint8_t type, std::vector<std::uint8_t> payload);
  /// Open journal-<gen> for append, writing the file header if fresh.
  bool open_journal_locked(std::uint64_t gen);
  /// fsync, or false when the fsync-fail fault fires.
  bool barrier(int fd);

  /// Parse snapshot generation `gen`; nullptr when structurally unusable
  /// (fall back to an older generation). Checksum-failing records inside a
  /// structurally sound snapshot are dropped individually.
  std::unique_ptr<std::vector<RecoveredRecord>> load_snapshot(
      std::uint64_t gen, RecoveryReport& report) const;
  /// Replay journal generation `gen` onto the in-progress recovery state.
  void replay_journal(std::uint64_t gen, std::vector<RecoveredRecord>& records,
                      RecoveryReport& report);
  /// Delete the generations older than the kKeepGenerations newest.
  void prune_old_generations(std::uint64_t newest_gen) const;

  const PersistConfig cfg_;
  EngineMetrics* const metrics_;
  int lock_fd_ = -1;              ///< <dir>/LOCK, flock'd for our lifetime
  mutable par::FaultInjector faults_;

  std::mutex io_mu_;              ///< journal fd, generation, append budget
  int journal_fd_ = -1;
  std::uint64_t gen_ = 0;         ///< generation the open journal belongs to
  bool journal_broken_ = false;   ///< torn/failed append: refuse until rotation
  std::size_t appends_since_snapshot_ = 0;

  std::mutex snapshot_mu_;        ///< serializes whole snapshot() passes
  RecoveryReport last_recovery_;
};

}  // namespace pmcf
