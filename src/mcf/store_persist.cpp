#include "mcf/store_persist.hpp"

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <utility>

#include "mcf/certify.hpp"

namespace pmcf {

namespace {

// ---------------------------------------------------------------------------
// On-disk constants. The magic pins byte order along with the format: these
// files are a single-host crash-recovery image, not an interchange format,
// so native-endian integers are fine (a different host rejects the magic's
// version byte semantics via the header checksum anyway).

constexpr char kSnapshotMagic[8] = {'P', 'M', 'C', 'F', 'S', 'N', 'P', '1'};
constexpr char kJournalMagic[8] = {'P', 'M', 'C', 'F', 'J', 'N', 'L', '1'};
constexpr std::uint32_t kFormatVersion = 1;
constexpr std::uint64_t kHeaderSeed = 0x5eedf11e5eedf11eULL;
/// Snapshot generations (with their journals) kept on disk: the newest, plus
/// one fallback for when the newest turns out unreadable at recovery.
constexpr std::uint64_t kKeepGenerations = 2;

// Frame = [u8 type][u32 payload len][payload][u64 checksum(payload, seed =
// type | len << 8)]. The checksum seed ties the payload to its framing, so a
// flipped type or length byte fails validation like a flipped payload byte.
enum FrameType : std::uint8_t {
  kFrameRecord = 1,      ///< snapshot: one full InstanceRecord
  kFrameRegister = 2,    ///< journal: record registered (full record payload)
  kFrameDeregister = 3,  ///< journal: handle dropped
  kFrameDelta = 4,       ///< journal: InstanceDelta with pre/post guards
};

constexpr std::size_t kFileHeaderSize = 8 + 4 + 8 + 8;
constexpr std::size_t kFrameOverhead = 1 + 4 + 8;
// Paranoia bound on a single frame: a record is an instance graph plus
// artifacts; even a dense 4k-vertex instance serializes well under this.
constexpr std::uint32_t kMaxFramePayload = 1u << 30;

std::uint64_t frame_seed(std::uint8_t type, std::uint32_t len) {
  return static_cast<std::uint64_t>(type) | (static_cast<std::uint64_t>(len) << 8);
}

// ---------------------------------------------------------------------------
// Little byte-buffer serializer / bounds-checked deserializer.

struct ByteWriter {
  std::vector<std::uint8_t> bytes;

  void raw(const void* p, std::size_t n) {
    if (n == 0) return;  // empty vectors/strings hand us data() == nullptr
    const auto* b = static_cast<const std::uint8_t*>(p);
    bytes.insert(bytes.end(), b, b + n);
  }
  void u8(std::uint8_t v) { bytes.push_back(v); }
  void u32(std::uint32_t v) { raw(&v, sizeof v); }
  void u64(std::uint64_t v) { raw(&v, sizeof v); }
  void i32(std::int32_t v) { raw(&v, sizeof v); }
  void i64(std::int64_t v) { raw(&v, sizeof v); }
  void f64(double v) { raw(&v, sizeof v); }
  void str(const std::string& s) {
    u32(static_cast<std::uint32_t>(s.size()));
    raw(s.data(), s.size());
  }
  void vec_i64(const std::vector<std::int64_t>& v) {
    u64(v.size());
    raw(v.data(), v.size() * sizeof(std::int64_t));
  }
  void vec_i32(const std::vector<std::int32_t>& v) {
    u64(v.size());
    raw(v.data(), v.size() * sizeof(std::int32_t));
  }
  void vec_f64(const std::vector<double>& v) {
    u64(v.size());
    raw(v.data(), v.size() * sizeof(double));
  }
};

struct ByteReader {
  const std::uint8_t* p = nullptr;
  std::size_t left = 0;
  bool ok = true;

  ByteReader(const std::uint8_t* data, std::size_t n) : p(data), left(n) {}

  bool raw(void* out, std::size_t n) {
    if (!ok || n > left) {
      ok = false;
      return false;
    }
    if (n == 0) return true;  // out may be a null data() of an empty vector
    std::memcpy(out, p, n);
    p += n;
    left -= n;
    return true;
  }
  std::uint8_t u8() {
    std::uint8_t v = 0;
    raw(&v, sizeof v);
    return v;
  }
  std::uint32_t u32() {
    std::uint32_t v = 0;
    raw(&v, sizeof v);
    return v;
  }
  std::uint64_t u64() {
    std::uint64_t v = 0;
    raw(&v, sizeof v);
    return v;
  }
  std::int32_t i32() {
    std::int32_t v = 0;
    raw(&v, sizeof v);
    return v;
  }
  std::int64_t i64() {
    std::int64_t v = 0;
    raw(&v, sizeof v);
    return v;
  }
  double f64() {
    double v = 0;
    raw(&v, sizeof v);
    return v;
  }
  std::string str() {
    const std::uint32_t n = u32();
    if (!ok || n > left) {
      ok = false;
      return {};
    }
    std::string s(reinterpret_cast<const char*>(p), n);
    p += n;
    left -= n;
    return s;
  }
  template <typename T>
  std::vector<T> vec() {
    const std::uint64_t n = u64();
    std::vector<T> v;
    if (!ok || n > left / sizeof(T)) {
      ok = false;
      return v;
    }
    v.resize(static_cast<std::size_t>(n));
    raw(v.data(), v.size() * sizeof(T));
    return v;
  }
};

// ---------------------------------------------------------------------------
// Record payload: identity + live state (+ artifacts in snapshot frames).
// The Deadline's wall bound is a steady_clock time_point — meaningless
// across a restart — so only the deterministic PRAM-work budget persists.

void serialize_record(ByteWriter& w, const InstanceRecord& rec,
                      const InstanceRecord::Artifacts* arts) {
  w.u64(rec.handle);
  w.u8(rec.is_max_flow ? 1 : 0);
  w.i32(rec.source);
  w.i32(rec.sink);
  w.vec_i64(rec.demands);
  w.str("");  // reserved slot, always empty (held a preset name in older writers)
  w.u64(rec.deadline.work);
  w.i32(rec.solver_graph.num_vertices());
  w.u64(static_cast<std::uint64_t>(rec.solver_graph.num_arcs()));
  for (const auto& a : rec.solver_graph.arcs()) {
    w.i32(a.from);
    w.i32(a.to);
    w.i64(a.cap);
    w.i64(a.cost);
  }
  w.vec_i32(rec.compact_of);
  w.vec_i32(rec.orig_of);
  w.u8(rec.compacted ? 1 : 0);
  w.u64(rec.structure_hash);
  w.u64(rec.value_hash);
  w.u64(rec.epoch);
  // Artifacts: the stored optimum + final central-path point — everything a
  // resolve reuses, so a recovered record resolves exactly like a live one.
  w.u8(arts != nullptr ? 1 : 0);
  if (arts != nullptr) {
    w.i64(arts->result.flow_value);
    w.i64(arts->result.cost);
    w.vec_i64(arts->result.arc_flow);
    w.vec_f64(arts->warm.x);
    w.vec_f64(arts->warm.y);
    w.vec_f64(arts->warm.tau);
    w.f64(arts->warm.mu);
    w.f64(4.0);  // reserved slot (held the warm-start mu boost, now a constant)
    w.u64(arts->value_hash);
    w.u64(arts->epoch);
  }
}

struct ParsedRecord {
  std::shared_ptr<InstanceRecord> rec;
  std::unique_ptr<InstanceRecord::Artifacts> arts;
};

bool parse_record(ByteReader& r, ParsedRecord& out) {
  auto rec = std::make_shared<InstanceRecord>();
  rec->handle = r.u64();
  rec->is_max_flow = r.u8() != 0;
  rec->source = r.i32();
  rec->sink = r.i32();
  rec->demands = r.vec<std::int64_t>();
  (void)r.str();  // reserved slot (see serialize_record): read and discarded
  rec->deadline = core::Deadline::unlimited();
  rec->deadline.work = r.u64();
  const graph::Vertex n = r.i32();
  const std::uint64_t num_arcs = r.u64();
  if (!r.ok || n < 0 || num_arcs > r.left / (2 * sizeof(std::int32_t))) return false;
  rec->solver_graph = graph::Digraph(n);
  for (std::uint64_t e = 0; e < num_arcs; ++e) {
    const graph::Vertex from = r.i32();
    const graph::Vertex to = r.i32();
    const std::int64_t cap = r.i64();
    const std::int64_t cost = r.i64();
    if (!r.ok || from < 0 || from >= n || to < 0 || to >= n) return false;
    rec->solver_graph.add_arc(from, to, cap, cost);
  }
  rec->compact_of = r.vec<std::int32_t>();
  rec->orig_of = r.vec<std::int32_t>();
  rec->compacted = r.u8() != 0;
  rec->structure_hash = r.u64();
  rec->value_hash = r.u64();
  rec->epoch = r.u64();
  std::unique_ptr<InstanceRecord::Artifacts> arts;
  if (r.u8() != 0) {
    arts = std::make_unique<InstanceRecord::Artifacts>();
    arts->result.flow_value = r.i64();
    arts->result.cost = r.i64();
    arts->result.arc_flow = r.vec<std::int64_t>();
    arts->warm.x = r.vec<double>();
    arts->warm.y = r.vec<double>();
    arts->warm.tau = r.vec<double>();
    arts->warm.mu = r.f64();
    (void)r.f64();  // reserved slot (see serialize_record): read and discarded
    arts->value_hash = r.u64();
    arts->epoch = r.u64();
  }
  if (!r.ok) return false;
  // Cross-field sanity beyond the checksum: mapping sizes must agree with
  // the graph, or replayed deltas would index out of range.
  if (rec->orig_of.size() != static_cast<std::size_t>(rec->solver_graph.num_arcs()))
    return false;
  if (rec->compact_of.size() < rec->orig_of.size()) return false;
  out.rec = std::move(rec);
  out.arts = std::move(arts);
  return true;
}

void serialize_delta(ByteWriter& w, const InstanceDelta& delta) {
  w.u64(delta.cost_changes.size());
  for (const CostChange& c : delta.cost_changes) {
    w.i32(c.arc);
    w.i64(c.cost);
  }
  w.u64(delta.cap_changes.size());
  for (const CapacityChange& c : delta.cap_changes) {
    w.i32(c.arc);
    w.i64(c.cap);
  }
  w.u64(delta.add_arcs.size());
  for (const ArcAddition& a : delta.add_arcs) {
    w.i32(a.from);
    w.i32(a.to);
    w.i64(a.cap);
    w.i64(a.cost);
  }
  w.vec_i32(delta.remove_arcs);
}

bool parse_delta(ByteReader& r, InstanceDelta& delta) {
  const std::uint64_t n_cost = r.u64();
  if (!r.ok || n_cost > r.left) return false;
  delta.cost_changes.resize(static_cast<std::size_t>(n_cost));
  for (CostChange& c : delta.cost_changes) {
    c.arc = r.i32();
    c.cost = r.i64();
  }
  const std::uint64_t n_cap = r.u64();
  if (!r.ok || n_cap > r.left) return false;
  delta.cap_changes.resize(static_cast<std::size_t>(n_cap));
  for (CapacityChange& c : delta.cap_changes) {
    c.arc = r.i32();
    c.cap = r.i64();
  }
  const std::uint64_t n_add = r.u64();
  if (!r.ok || n_add > r.left) return false;
  delta.add_arcs.resize(static_cast<std::size_t>(n_add));
  for (ArcAddition& a : delta.add_arcs) {
    a.from = r.i32();
    a.to = r.i32();
    a.cap = r.i64();
    a.cost = r.i64();
  }
  delta.remove_arcs = r.vec<std::int32_t>();
  return r.ok;
}

// ---------------------------------------------------------------------------
// File plumbing.

void write_file_header(ByteWriter& w, const char magic[8], std::uint64_t gen) {
  w.raw(magic, 8);
  w.u32(kFormatVersion);
  w.u64(gen);
  const std::uint64_t sum =
      persist_checksum(w.bytes.data() + 8, 4 + 8, kHeaderSeed);
  w.u64(sum);
}

/// Validate a file header in `data`; returns the generation or nullopt-style
/// failure via `ok`.
bool check_file_header(const std::vector<std::uint8_t>& data, const char magic[8],
                       std::uint64_t expect_gen) {
  if (data.size() < kFileHeaderSize) return false;
  if (std::memcmp(data.data(), magic, 8) != 0) return false;
  std::uint64_t sum = 0;
  std::memcpy(&sum, data.data() + 8 + 4 + 8, sizeof sum);
  if (persist_checksum(data.data() + 8, 4 + 8, kHeaderSeed) != sum) return false;
  std::uint32_t version = 0;
  std::uint64_t gen = 0;
  std::memcpy(&version, data.data() + 8, sizeof version);
  std::memcpy(&gen, data.data() + 8 + 4, sizeof gen);
  return version == kFormatVersion && gen == expect_gen;
}

std::vector<std::uint8_t> make_frame(std::uint8_t type,
                                     const std::vector<std::uint8_t>& payload) {
  ByteWriter w;
  w.u8(type);
  w.u32(static_cast<std::uint32_t>(payload.size()));
  w.raw(payload.data(), payload.size());
  w.u64(persist_checksum(payload.data(), payload.size(),
                         frame_seed(type, static_cast<std::uint32_t>(payload.size()))));
  return std::move(w.bytes);
}

/// One parsed frame; `end` is the offset just past it in the file buffer.
struct Frame {
  std::uint8_t type = 0;
  const std::uint8_t* payload = nullptr;
  std::size_t len = 0;
  std::size_t end = 0;
};

/// Parse the frame at `off`. Returns false on anything that should stop the
/// scan: short read (torn tail), implausible length, checksum mismatch.
bool parse_frame(const std::vector<std::uint8_t>& data, std::size_t off, Frame& f) {
  if (off + kFrameOverhead > data.size()) return false;
  f.type = data[off];
  std::uint32_t len = 0;
  std::memcpy(&len, data.data() + off + 1, sizeof len);
  if (len > kMaxFramePayload) return false;
  if (off + kFrameOverhead + len > data.size()) return false;
  f.payload = data.data() + off + 1 + 4;
  f.len = len;
  std::uint64_t sum = 0;
  std::memcpy(&sum, data.data() + off + 5 + len, sizeof sum);
  if (persist_checksum(f.payload, f.len, frame_seed(f.type, len)) != sum) return false;
  f.end = off + kFrameOverhead + len;
  return true;
}

bool read_whole_file(const std::string& path, std::vector<std::uint8_t>& out) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return false;
  const std::streamsize size = in.tellg();
  if (size < 0) return false;
  out.resize(static_cast<std::size_t>(size));
  in.seekg(0);
  in.read(reinterpret_cast<char*>(out.data()), size);
  return static_cast<bool>(in);
}

/// fsync the directory containing `path` so a just-renamed file's directory
/// entry is durable. Best-effort (some filesystems refuse O_RDONLY dirs).
void fsync_parent_dir(const std::string& path) {
  const std::filesystem::path dir = std::filesystem::path(path).parent_path();
  const int fd = ::open(dir.c_str(), O_RDONLY);
  if (fd >= 0) {
    ::fsync(fd);
    ::close(fd);
  }
}

bool parse_generation(const std::string& name, const char* prefix, const char* suffix,
                      std::uint64_t& gen) {
  const std::size_t pre = std::strlen(prefix);
  const std::size_t suf = std::strlen(suffix);
  if (name.size() <= pre + suf) return false;
  if (name.compare(0, pre, prefix) != 0) return false;
  if (name.compare(name.size() - suf, suf, suffix) != 0) return false;
  gen = 0;
  for (std::size_t i = pre; i < name.size() - suf; ++i) {
    if (name[i] < '0' || name[i] > '9') return false;
    gen = gen * 10 + static_cast<std::uint64_t>(name[i] - '0');
  }
  return true;
}

}  // namespace

// ---------------------------------------------------------------------------

std::uint64_t persist_checksum(const void* data, std::size_t len, std::uint64_t seed) {
  // SplitMix64-chained over 8-byte words with a length-bound finisher —
  // XXH-style speed class, torn-write/bit-rot detection strength.
  const auto* p = static_cast<const std::uint8_t*>(data);
  std::uint64_t h = seed ^ (0x9e3779b97f4a7c15ULL * (len + 1));
  const auto mix = [](std::uint64_t x) {
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
  };
  std::size_t i = 0;
  for (; i + 8 <= len; i += 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, p + i, 8);
    h = mix(h ^ word) + 0x9e3779b97f4a7c15ULL;
  }
  std::uint64_t tail = 0;
  for (std::size_t k = 0; i + k < len; ++k)
    tail |= static_cast<std::uint64_t>(p[i + k]) << (8 * k);
  h = mix(h ^ tail ^ (static_cast<std::uint64_t>(len) << 56));
  return h;
}

std::string snapshot_path(const std::string& dir, std::uint64_t gen) {
  return dir + "/snap-" + std::to_string(gen) + ".pmcf";
}

std::string journal_path(const std::string& dir, std::uint64_t gen) {
  return dir + "/journal-" + std::to_string(gen) + ".log";
}

struct StorePersister::RecoveredRecord {
  std::shared_ptr<InstanceRecord> rec;
  std::unique_ptr<InstanceRecord::Artifacts> arts;
  bool dropped = false;
};

StorePersister::StorePersister(PersistConfig cfg, EngineMetrics* metrics)
    : cfg_(std::move(cfg)), metrics_(metrics) {
  std::error_code ec;
  std::filesystem::create_directories(cfg_.dir, ec);
  // A lock file we cannot open or a filesystem without flock leaves the
  // directory unlocked; only a lock another holder has refuses it.
  lock_fd_ = ::open((cfg_.dir + "/LOCK").c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (lock_fd_ >= 0 && ::flock(lock_fd_, LOCK_EX | LOCK_NB) != 0) {
    const bool busy = errno == EWOULDBLOCK;
    ::close(lock_fd_);
    lock_fd_ = -1;
    if (busy) throw PersistDirBusy(cfg_.dir);
  }
}

StorePersister::~StorePersister() {
  const std::lock_guard<std::mutex> lock(io_mu_);
  if (journal_fd_ >= 0) ::close(journal_fd_);
  if (lock_fd_ >= 0) ::close(lock_fd_);  // releases the flock
}

bool StorePersister::barrier(int fd) {
  if (faults_.should_fire(par::FaultKind::kPersistFsyncFail)) return false;
  return ::fsync(fd) == 0;
}

bool StorePersister::open_journal_locked(std::uint64_t gen) {
  if (journal_fd_ >= 0) {
    ::close(journal_fd_);
    journal_fd_ = -1;
  }
  gen_ = gen;
  journal_broken_ = false;
  appends_since_snapshot_ = 0;
  const std::string path = journal_path(cfg_.dir, gen);
  const bool fresh = !std::filesystem::exists(path);
  journal_fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (journal_fd_ < 0) {
    journal_broken_ = true;
    return false;
  }
  if (fresh) {
    ByteWriter header;
    write_file_header(header, kJournalMagic, gen);
    const auto n = static_cast<std::size_t>(header.bytes.size());
    if (::write(journal_fd_, header.bytes.data(), n) != static_cast<ssize_t>(n) ||
        !barrier(journal_fd_)) {
      journal_broken_ = true;
      return false;
    }
    fsync_parent_dir(path);
  }
  return true;
}

bool StorePersister::append_frame(std::uint8_t type, std::vector<std::uint8_t> payload) {
  std::vector<std::uint8_t> frame = make_frame(type, payload);
  // Bit-rot injection: flip one payload bit AFTER checksumming, so recovery
  // sees a fully-written frame whose checksum no longer matches.
  if (!payload.empty() && faults_.should_fire(par::FaultKind::kPersistBitFlip)) {
    std::uint64_t sum = 0;
    std::memcpy(&sum, frame.data() + frame.size() - 8, sizeof sum);
    const std::size_t bit = static_cast<std::size_t>(sum) % (payload.size() * 8);
    frame[1 + 4 + bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
  }

  const std::lock_guard<std::mutex> lock(io_mu_);
  if (journal_fd_ < 0 && !open_journal_locked(gen_)) {
    count(EngineCounter::kPersistWriteFailures);
    return false;
  }
  if (journal_broken_) {
    // A torn or unsynced write left the durable tail unknown; refuse to
    // stack frames on top of garbage. The next snapshot rotates us clean.
    count(EngineCounter::kPersistWriteFailures);
    return false;
  }
  std::size_t to_write = frame.size();
  if (faults_.should_fire(par::FaultKind::kPersistTornWrite)) to_write = frame.size() / 2;
  const ssize_t wrote = ::write(journal_fd_, frame.data(), to_write);
  const bool full = wrote == static_cast<ssize_t>(frame.size());
  if (!full || !barrier(journal_fd_)) {
    journal_broken_ = true;
    count(EngineCounter::kPersistWriteFailures);
    return false;
  }
  ++appends_since_snapshot_;
  count(EngineCounter::kPersistJournalAppends);
  return true;
}

bool StorePersister::append_register(const InstanceRecord& rec) {
  ByteWriter w;
  serialize_record(w, rec, nullptr);  // artifacts never exist at registration
  return append_frame(kFrameRegister, std::move(w.bytes));
}

bool StorePersister::append_deregister(InstanceHandle h) {
  ByteWriter w;
  w.u64(h);
  return append_frame(kFrameDeregister, std::move(w.bytes));
}

bool StorePersister::append_delta(const InstanceRecord& rec, const InstanceDelta& delta,
                                  std::uint64_t pre_epoch, std::uint64_t pre_value_hash) {
  ByteWriter w;
  w.u64(rec.handle);
  w.u64(pre_epoch);
  w.u64(pre_value_hash);
  w.u64(rec.epoch);       // post-delta
  w.u64(rec.value_hash);  // post-delta
  serialize_delta(w, delta);
  return append_frame(kFrameDelta, std::move(w.bytes));
}

void StorePersister::maybe_snapshot(InstanceStore& store) {
  {
    const std::lock_guard<std::mutex> lock(io_mu_);
    if (cfg_.snapshot_every == 0 ||
        (appends_since_snapshot_ < cfg_.snapshot_every && !journal_broken_))
      return;
  }
  snapshot(store);
}

bool StorePersister::snapshot(InstanceStore& store) {
  const std::lock_guard<std::mutex> snap_lock(snapshot_mu_);

  // 1. Rotate the journal FIRST: every event from here on lands in
  //    journal-(g+1), whose replay guards make it idempotent against
  //    whatever state the snapshot below captures.
  std::uint64_t new_gen = 0;
  {
    const std::lock_guard<std::mutex> lock(io_mu_);
    new_gen = gen_ + 1;
    if (!open_journal_locked(new_gen)) count(EngineCounter::kPersistWriteFailures);
  }

  // 2. Serialize every record, taking only rec.mu → store lock (the
  //    engine-wide order; no persister lock is held here, so an in-flight
  //    resolve appending to the new journal cannot deadlock against us).
  ByteWriter out;
  write_file_header(out, kSnapshotMagic, new_gen);
  for (const auto& rec : store.all()) {
    const std::lock_guard<std::mutex> rec_lock(rec->mu);
    ByteWriter payload;
    store.peek_artifacts(*rec, [&](const InstanceRecord::Artifacts* arts) {
      serialize_record(payload, *rec, arts);
    });
    std::vector<std::uint8_t> frame = make_frame(kFrameRecord, payload.bytes);
    if (!payload.bytes.empty() &&
        faults_.should_fire(par::FaultKind::kPersistBitFlip)) {
      std::uint64_t sum = 0;
      std::memcpy(&sum, frame.data() + frame.size() - 8, sizeof sum);
      const std::size_t bit = static_cast<std::size_t>(sum) % (payload.bytes.size() * 8);
      frame[1 + 4 + bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    }
    out.raw(frame.data(), frame.size());
  }

  // 3. Publish: write-to-temp, fsync, atomic rename, fsync the directory.
  const std::string final_path = snapshot_path(cfg_.dir, new_gen);
  const std::string tmp_path = final_path + ".tmp";
  const int fd = ::open(tmp_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  bool ok = fd >= 0;
  if (ok) {
    std::size_t off = 0;
    while (ok && off < out.bytes.size()) {
      const ssize_t n = ::write(fd, out.bytes.data() + off, out.bytes.size() - off);
      if (n <= 0) ok = false;
      else off += static_cast<std::size_t>(n);
    }
    if (ok) ok = barrier(fd);
    ::close(fd);
  }
  if (ok) ok = ::rename(tmp_path.c_str(), final_path.c_str()) == 0;
  if (ok) {
    fsync_parent_dir(final_path);
    count(EngineCounter::kPersistSnapshots);
    prune_old_generations(new_gen);
  } else {
    count(EngineCounter::kPersistWriteFailures);
    std::error_code ec;
    std::filesystem::remove(tmp_path, ec);
    // The journal has already rotated; recovery bridges the snapshot gap by
    // replaying every journal generation above the newest good snapshot.
  }
  return ok;
}

void StorePersister::prune_old_generations(std::uint64_t newest_gen) const {
  const std::uint64_t keep_from =
      newest_gen > kKeepGenerations ? newest_gen - kKeepGenerations + 1 : 0;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(cfg_.dir, ec)) {
    const std::string name = entry.path().filename().string();
    std::uint64_t gen = 0;
    const bool is_snap = parse_generation(name, "snap-", ".pmcf", gen);
    const bool is_journal = !is_snap && parse_generation(name, "journal-", ".log", gen);
    if ((is_snap || is_journal) && gen < keep_from)
      std::filesystem::remove(entry.path(), ec);
  }
}

std::unique_ptr<std::vector<StorePersister::RecoveredRecord>> StorePersister::load_snapshot(
    std::uint64_t gen, RecoveryReport& report) const {
  std::vector<std::uint8_t> data;
  if (!read_whole_file(snapshot_path(cfg_.dir, gen), data)) return nullptr;
  if (!check_file_header(data, kSnapshotMagic, gen)) return nullptr;
  auto records = std::make_unique<std::vector<RecoveredRecord>>();
  std::size_t off = kFileHeaderSize;
  std::size_t dropped_here = 0;
  while (off < data.size()) {
    Frame f;
    if (!parse_frame(data, off, f)) {
      // Distinguish "this record rotted" from "the file structure is gone":
      // if the length field still lets us resync past the frame, drop just
      // this record; otherwise the rest of the file is unreadable — treat
      // the whole snapshot as unusable and fall back a generation (the
      // atomic-rename publish means this is corruption, not a torn write).
      std::uint32_t len = 0;
      if (off + kFrameOverhead <= data.size())
        std::memcpy(&len, data.data() + off + 1, sizeof len);
      const std::size_t next = off + kFrameOverhead + len;
      if (len > kMaxFramePayload || next > data.size()) return nullptr;
      ++dropped_here;
      off = next;
      continue;
    }
    if (f.type != kFrameRecord) return nullptr;
    ByteReader r(f.payload, f.len);
    ParsedRecord parsed;
    if (!parse_record(r, parsed)) {
      ++dropped_here;
      off = f.end;
      continue;
    }
    RecoveredRecord rr;
    rr.rec = std::move(parsed.rec);
    rr.arts = std::move(parsed.arts);
    records->push_back(std::move(rr));
    off = f.end;
  }
  report.records_dropped += dropped_here;
  count(EngineCounter::kPersistRecordsDropped, dropped_here);
  return records;
}

void StorePersister::replay_journal(std::uint64_t gen,
                                    std::vector<RecoveredRecord>& records,
                                    RecoveryReport& report) {
  const std::string path = journal_path(cfg_.dir, gen);
  std::vector<std::uint8_t> data;
  if (!read_whole_file(path, data)) return;
  if (!check_file_header(data, kJournalMagic, gen)) {
    // A header that never made it to disk intact: nothing in this journal
    // is trustworthy. Truncate to empty so future appends don't stack onto
    // garbage.
    std::error_code ec;
    std::filesystem::resize_file(path, 0, ec);
    ++report.journal_truncations;
    count(EngineCounter::kPersistJournalTruncations);
    return;
  }

  const auto find_record = [&records](InstanceHandle h) -> RecoveredRecord* {
    for (RecoveredRecord& rr : records)
      if (rr.rec != nullptr && rr.rec->handle == h) return &rr;
    return nullptr;
  };
  const auto drop_record = [&](RecoveredRecord& rr) {
    rr.dropped = true;
    rr.arts.reset();
    ++report.records_dropped;
    count(EngineCounter::kPersistRecordsDropped);
  };

  std::size_t off = kFileHeaderSize;
  while (off < data.size()) {
    Frame f;
    if (!parse_frame(data, off, f)) {
      // Torn tail (the expected crash signature): keep the durable prefix,
      // cut the rest so the journal can be appended to again.
      std::error_code ec;
      std::filesystem::resize_file(path, off, ec);
      ++report.journal_truncations;
      count(EngineCounter::kPersistJournalTruncations);
      break;
    }
    ++report.journal_frames_replayed;
    ByteReader r(f.payload, f.len);
    switch (f.type) {
      case kFrameRegister: {
        ParsedRecord parsed;
        if (parse_record(r, parsed)) {
          const InstanceHandle h = parsed.rec->handle;
          RecoveredRecord* existing = find_record(h);
          if (existing == nullptr) {
            // Not in the snapshot: genuinely new since the base. A dropped
            // tombstone under the same handle is NOT resurrected — its
            // history is unknown.
            RecoveredRecord rr;
            rr.rec = std::move(parsed.rec);
            records.push_back(std::move(rr));
          }
        }
        break;
      }
      case kFrameDeregister: {
        const InstanceHandle h = r.u64();
        if (r.ok) {
          if (RecoveredRecord* rr = find_record(h)) {
            rr->rec = nullptr;  // cleanly removed, not "dropped by corruption"
            rr->arts.reset();
          }
        }
        break;
      }
      case kFrameDelta: {
        const InstanceHandle h = r.u64();
        const std::uint64_t pre_epoch = r.u64();
        const std::uint64_t pre_value = r.u64();
        const std::uint64_t post_epoch = r.u64();
        const std::uint64_t post_value = r.u64();
        InstanceDelta delta;
        if (!r.ok || !parse_delta(r, delta)) break;
        RecoveredRecord* rr = find_record(h);
        if (rr == nullptr || rr->dropped) break;
        InstanceRecord& rec = *rr->rec;
        if (rec.epoch == post_epoch && rec.value_hash == post_value) {
          break;  // already reflected in the snapshot — idempotent skip
        }
        if (rec.epoch != pre_epoch || rec.value_hash != pre_value) {
          drop_record(*rr);  // replay-guard conflict: unknown lineage
          break;
        }
        const std::string defect = rec.apply_delta(delta);
        rec.epoch = post_epoch;  // the engine bumps epochs, apply_delta doesn't
        if (!defect.empty() || rec.value_hash != post_value) drop_record(*rr);
        break;
      }
      default:
        break;  // unknown-but-checksummed frame type: future format, skip
    }
    off = f.end;
  }
}

RecoveryReport StorePersister::recover(InstanceStore& store) {
  RecoveryReport report;
  std::error_code ec;
  std::filesystem::create_directories(cfg_.dir, ec);

  std::vector<std::uint64_t> snap_gens;
  std::vector<std::uint64_t> journal_gens;
  for (const auto& entry : std::filesystem::directory_iterator(cfg_.dir, ec)) {
    const std::string name = entry.path().filename().string();
    std::uint64_t gen = 0;
    if (parse_generation(name, "snap-", ".pmcf", gen)) snap_gens.push_back(gen);
    else if (parse_generation(name, "journal-", ".log", gen)) journal_gens.push_back(gen);
  }
  std::sort(snap_gens.rbegin(), snap_gens.rend());
  std::sort(journal_gens.begin(), journal_gens.end());

  // Newest structurally-valid snapshot wins; unreadable ones fall back a
  // generation (their journals still replay below, bridging the gap).
  std::unique_ptr<std::vector<RecoveredRecord>> base;
  std::uint64_t base_gen = 0;
  for (const std::uint64_t gen : snap_gens) {
    ++report.snapshots_scanned;
    base = load_snapshot(gen, report);
    if (base != nullptr) {
      base_gen = gen;
      break;
    }
    ++report.snapshot_fallbacks;
    count(EngineCounter::kPersistSnapshotFallbacks);
  }
  report.started_fresh = base == nullptr && journal_gens.empty();
  std::vector<RecoveredRecord> records;
  if (base != nullptr) records = std::move(*base);

  std::uint64_t newest_journal = base_gen;
  for (const std::uint64_t gen : journal_gens) {
    if (gen < base_gen) continue;  // events already folded into the base
    replay_journal(gen, records, report);
    newest_journal = gen;
  }

  // Adopt the survivors; re-certify optima in exact arithmetic before they
  // may ever be replayed. A failed certification drops the optimum (and
  // warm point) — the instance itself survives and will solve cold.
  for (RecoveredRecord& rr : records) {
    if (rr.rec == nullptr || rr.dropped) continue;
    std::unique_ptr<InstanceRecord::Artifacts> arts = std::move(rr.arts);
    if (arts != nullptr && arts->epoch != rr.rec->epoch) arts.reset();  // stale era
    if (arts != nullptr && arts->value_hash == rr.rec->value_hash) {
      const InstanceRecord& rec = *rr.rec;
      const mcf::CertifyReport cert =
          rec.is_max_flow
              ? mcf::certify_max_flow(rec.solver_graph, rec.source, rec.sink,
                                      arts->result.arc_flow, arts->result.flow_value,
                                      arts->result.cost)
              : mcf::certify_b_flow(rec.solver_graph, rec.demands,
                                    arts->result.arc_flow, arts->result.cost);
      if (cert.certified) {
        arts->result.status = SolveStatus::kOk;
        arts->result.stats.certified = true;
        ++report.optima_recovered;
        count(EngineCounter::kPersistRecoveredOptima);
      } else {
        arts.reset();
        ++report.records_dropped;
        count(EngineCounter::kPersistRecordsDropped);
      }
    } else if (arts != nullptr) {
      // Values moved past the stored optimum (replayed deltas): the warm
      // central-path point is still a valid same-epoch restart, but the
      // result must never replay — neuter its value fingerprint.
      arts->value_hash = 0;
      arts->result = mcf::MinCostFlowResult{};
    }
    rr.rec->artifacts.reset();
    rr.rec->lru_tick = 0;
    std::shared_ptr<InstanceRecord> rec = rr.rec;
    if (store.adopt(rec)) {
      ++report.records_recovered;
      count(EngineCounter::kPersistRecoveredInstances);
      if (arts != nullptr) store.store_artifacts(*rec, std::move(arts));
    }
  }

  report.generation = base_gen;
  {
    // Keep appending to the newest journal generation (its torn tail, if
    // any, was truncated above). Callers normally snapshot() right after,
    // rotating to a clean generation anyway.
    const std::lock_guard<std::mutex> lock(io_mu_);
    open_journal_locked(newest_journal);
  }
  last_recovery_ = report;
  return report;
}

}  // namespace pmcf
