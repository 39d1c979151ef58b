#include "mcf/engine.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <numeric>
#include <utility>

#include "mcf/certify.hpp"
#include "parallel/scheduler.hpp"

namespace pmcf {

namespace {

using Clock = std::chrono::steady_clock;

/// SplitMix64 finalizer: decorrelates (seed, salt) pairs into context seeds.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// The tighter of two budgets, bound by bound (an open bound never wins).
core::Deadline merge_deadlines(const core::Deadline& a, const core::Deadline& b) {
  core::Deadline d;
  d.wall = std::min(a.wall, b.wall);
  d.work = a.work == 0 ? b.work : (b.work == 0 ? a.work : std::min(a.work, b.work));
  return d;
}

double to_us(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

std::size_t clamp_priority(std::uint32_t p) {
  return std::min<std::size_t>(p, kNumPriorities - 1);
}

/// Typed refusal that never reached a solver tier. Both strings fit libstdc++
/// SSO so the shed fast path stays allocation-free (AllocCountTest).
EngineSolveResult refusal(SolveStatus status, const char* detail) {
  EngineSolveResult out;
  out.result.status = status;
  out.result.failure_component = "mcf::engine";
  out.result.failure_detail = detail;
  return out;
}

/// Queue poll tick: parked waiters re-check their cancel tokens at this
/// cadence even without a grant/evict notification.
constexpr std::chrono::milliseconds kQueuePollTick{2};

/// Salt of the chaos injector's stream: past the batch-index, solve() and
/// resolve() context salts, so it never shares a stream with a solve.
constexpr std::uint64_t kChaosSalt = 1ULL << 34;

/// Re-run the exact __int128 certificate for a record's cached optimum.
mcf::CertifyReport recertify(const InstanceRecord& rec, const mcf::MinCostFlowResult& r) {
  return rec.is_max_flow
             ? mcf::certify_max_flow(rec.solver_graph, rec.source, rec.sink, r.arc_flow,
                                     r.flow_value, r.cost)
             : mcf::certify_b_flow(rec.solver_graph, rec.demands, r.arc_flow, r.cost);
}

}  // namespace

// ---------------------------------------------------------------------------
// Admission: the slot pool plus one bounded backpressure queue made of
// kNumPriorities intrusive FIFOs (a head and a tail per priority class).
//
// All state lives behind one mutex. Waiters are stack-allocated in the
// blocked caller's frame and linked into their class's FIFO, so parking a
// request touches only that Waiter and the head/tail arrays — it allocates
// nothing. Dispatch serves the head of the most important non-empty class.
// Slot handoff happens inside release(), under the mutex, so a freed slot
// can never be stolen by a late arrival while a waiter is parked (the queue
// is non-empty only while every slot is held or drained). Progress: a slot
// is only ever granted to a thread that is actively blocked in acquire(),
// so every slot holder is a running task and releases eventually — no
// circular wait.

struct Engine::Admission {
  struct Waiter {
    std::condition_variable cv;
    enum class State { kWaiting, kAdmitted, kEvicted } state = State::kWaiting;
    std::size_t priority = 0;
    Waiter* prev = nullptr;
    Waiter* next = nullptr;
  };

  enum class Outcome {
    kAcquired,
    kShedNoCapacity,
    kShedQueueFull,
    kShedDeadline,
    kShedEvicted,
    kTimeout,
    kCanceled,
  };
  struct AcquireResult {
    Outcome outcome = Outcome::kAcquired;
    bool queued = false;  ///< went through the parked-waiter path
    std::size_t depth = 0;  ///< queue depth observed at the decision point
  };

  Admission(const EngineConfig& cfg, std::atomic<std::size_t>* gauge)
      : slots(cfg.max_in_flight), max_queue(cfg.max_queue), gauge_(gauge) {}

  AcquireResult acquire(std::size_t priority, Clock::time_point wall,
                        const core::CancelToken* t1, const core::CancelToken* t2, bool warm,
                        par::FaultInjector* chaos) {
    std::unique_lock<std::mutex> lock(mu_);
    if (free_slots_locked() > 0) {
      ++in_use_;
      publish_gauge();
      return {Outcome::kAcquired, false, queue_len_};
    }

    // No free slot: shed or queue. Every shed decision here happens before
    // the request touches instance scratch or a solver context —
    // allocation-free.
    if (max_queue == 0) return {Outcome::kShedNoCapacity, false, queue_len_};
    // Predict this request's queue wait from the service-time EWMA and its
    // position; an unmeetable deadline sheds now instead of burning a slot
    // (or queue residency) on a doomed request. Warm resolves are judged by
    // their own (much cheaper) track so a cold-calibrated estimate cannot
    // shed them; an empty track borrows the other as a conservative
    // stand-in.
    double est_us = ewma_us_[warm ? 1 : 0];
    if (est_us == 0.0) est_us = ewma_us_[warm ? 0 : 1];
    if (wall != Clock::time_point::max() && est_us > 0.0) {
      const double ahead = static_cast<double>(queue_len_ + 1);
      const double eff_slots = static_cast<double>(
          std::max<std::size_t>(1, slots > reserved_ ? slots - reserved_ : 1));
      const auto expected = std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double, std::micro>(est_us * ahead / eff_slots));
      if (Clock::now() + expected > wall) return {Outcome::kShedDeadline, false, queue_len_};
    }
    // Full queue: a more important arrival bumps the newest waiter of the
    // least important class below it; otherwise the newcomer sheds.
    if (queue_len_ >= max_queue && !evict_locked(priority))
      return {Outcome::kShedQueueFull, false, queue_len_};

    if (chaos != nullptr && chaos->should_fire(par::FaultKind::kCancelRequest))
      return {Outcome::kCanceled, false, queue_len_};  // enqueue-point chaos draw

    Waiter w;
    w.priority = priority;
    enqueue_locked(&w);

    const bool has_deadline = wall != Clock::time_point::max();
    while (true) {
      if (w.state == Waiter::State::kAdmitted) break;
      if (w.state == Waiter::State::kEvicted) return {Outcome::kShedEvicted, true, queue_len_};
      if ((t1 != nullptr && t1->canceled()) || (t2 != nullptr && t2->canceled())) {
        unlink_locked(&w);
        return {Outcome::kCanceled, true, queue_len_};
      }
      const auto now = Clock::now();
      if (has_deadline && now >= wall) {
        unlink_locked(&w);
        return {Outcome::kTimeout, true, queue_len_};
      }
      const auto tick = now + kQueuePollTick;
      w.cv.wait_until(lock, has_deadline ? std::min(tick, wall) : tick);
    }

    if (chaos != nullptr && chaos->should_fire(par::FaultKind::kCancelRequest)) {
      // Dequeue-point chaos draw: hand the just-granted slot onward.
      --in_use_;
      publish_gauge();
      dispatch_locked();
      return {Outcome::kCanceled, true, queue_len_};
    }
    return {Outcome::kAcquired, true, queue_len_};
  }

  /// Return a slot; fold the observed service time into the matching wait
  /// predictor track (warm resolves and cold solves have service times an
  /// order of magnitude apart — mixing them made the predictor shed cheap
  /// warm resolves off expensive cold calibration) and hand the slot to the
  /// next waiter under the same lock.
  void release(double solve_us, bool warm) {
    const std::lock_guard<std::mutex> lock(mu_);
    --in_use_;
    publish_gauge();
    if (solve_us > 0.0) {
      double& ewma = ewma_us_[warm ? 1 : 0];
      ewma = ewma == 0.0 ? solve_us : 0.2 * solve_us + 0.8 * ewma;
    }
    dispatch_locked();
  }

  /// Batch admission: grab the deterministic prefix of `want` that fits the
  /// free slots, all upfront.
  std::size_t acquire_upfront(std::size_t want) {
    const std::lock_guard<std::mutex> lock(mu_);
    const std::size_t n = std::min(want, free_slots_locked());
    in_use_ += n;
    publish_gauge();
    return n;
  }

  std::size_t reserve(std::size_t n) {
    const std::lock_guard<std::mutex> lock(mu_);
    const std::size_t take = std::min(n, free_slots_locked());
    reserved_ += take;
    return take;
  }

  void restore(std::size_t n) {
    const std::lock_guard<std::mutex> lock(mu_);
    reserved_ -= std::min(n, reserved_);
    dispatch_locked();
  }

  std::size_t depth() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return queue_len_;
  }

  const std::size_t slots;
  const std::size_t max_queue;

 private:
  std::size_t free_slots_locked() const {
    const std::size_t held = in_use_ + reserved_;
    return slots > held ? slots - held : 0;
  }

  void publish_gauge() {
    if (gauge_ != nullptr) gauge_->store(in_use_, std::memory_order_relaxed);
  }

  void enqueue_locked(Waiter* w) {
    const std::size_t p = w->priority;
    w->prev = tail_[p];
    w->next = nullptr;
    if (tail_[p] != nullptr)
      tail_[p]->next = w;
    else
      head_[p] = w;
    tail_[p] = w;
    ++queue_len_;
  }

  void unlink_locked(Waiter* w) {
    const std::size_t p = w->priority;
    if (w->prev != nullptr)
      w->prev->next = w->next;
    else
      head_[p] = w->next;
    if (w->next != nullptr)
      w->next->prev = w->prev;
    else
      tail_[p] = w->prev;
    w->prev = w->next = nullptr;
    --queue_len_;
  }

  /// The head of the most important non-empty class (nullptr: queue empty).
  Waiter* front_locked() const {
    for (Waiter* w : head_)
      if (w != nullptr) return w;
    return nullptr;
  }

  void dispatch_locked() {
    while (free_slots_locked() > 0) {
      Waiter* w = front_locked();
      if (w == nullptr) break;
      unlink_locked(w);
      ++in_use_;
      publish_gauge();
      w->state = Waiter::State::kAdmitted;
      w->cv.notify_one();
    }
  }

  /// Bump the newest waiter of the least important class strictly below the
  /// newcomer. Returns false when nothing is evictable.
  bool evict_locked(std::size_t newcomer_priority) {
    for (std::size_t p = kNumPriorities; p-- > newcomer_priority + 1;) {
      Waiter* w = tail_[p];
      if (w == nullptr) continue;
      unlink_locked(w);
      w->state = Waiter::State::kEvicted;
      w->cv.notify_one();
      return true;
    }
    return false;
  }

  mutable std::mutex mu_;
  std::size_t in_use_ = 0;
  std::size_t reserved_ = 0;   ///< slots drained via reserve_capacity
  std::size_t queue_len_ = 0;  ///< parked waiters
  Waiter* head_[kNumPriorities] = {};
  Waiter* tail_[kNumPriorities] = {};
  /// Service-time predictors for the deadline shed: [0] cold solves,
  /// [1] warm resolves (central-path restart offered).
  double ewma_us_[2] = {0.0, 0.0};
  std::atomic<std::size_t>* gauge_;
};

// ---------------------------------------------------------------------------

Engine::Engine(EngineConfig config) : config_(std::move(config)) {
  if (config_.max_in_flight > 0)
    admission_ = std::make_unique<Admission>(config_, &in_flight_);
  store_ = std::make_unique<InstanceStore>(config_.instance_cache_capacity);
  if (config_.chaos_cancel_rate > 0.0)
    chaos_.arm(par::FaultKind::kCancelRequest, config_.chaos_cancel_rate,
               mix_seed(config_.seed, kChaosSalt));
  if (!config_.persist_dir.empty()) {
    PersistConfig pcfg;
    pcfg.dir = config_.persist_dir;
    pcfg.snapshot_every = config_.persist_snapshot_every;
    persister_ = std::make_unique<StorePersister>(std::move(pcfg), &metrics_);
    // Recover whatever the last process left behind, then immediately start
    // a clean generation: the recovered state (minus dropped records) is
    // re-published as snap-<gen+1>, so the next crash recovers from one
    // snapshot instead of re-walking the previous life's journals.
    persister_->recover(*store_);
    persister_->snapshot(*store_);
  }
}

Engine::~Engine() = default;

par::ThreadPool* Engine::pool() const {
  if (config_.pool != nullptr) return config_.pool;
  return config_.use_global_pool ? par::ThreadPool::global() : nullptr;
}

std::size_t Engine::queue_depth() const {
  return admission_ != nullptr ? admission_->depth() : 0;
}

std::size_t Engine::reserve_capacity(std::size_t n) const {
  return admission_ != nullptr ? admission_->reserve(n) : 0;
}

void Engine::restore_capacity(std::size_t n) const {
  if (admission_ != nullptr) admission_->restore(n);
}

MetricsSnapshot Engine::metrics_snapshot() const {
  MetricsSnapshot snap = metrics_.snapshot();
  snap.in_flight = in_flight();
  snap.queue_depth = queue_depth();
  return snap;
}

EngineSolveResult Engine::solve_with_salt(const Instance& inst, const mcf::SolveOptions& opts,
                                          std::uint64_t salt, const core::Deadline& deadline,
                                          const core::CancelToken* caller_token,
                                          const core::CancelToken* engine_token) const {
  core::ContextOptions copts;
  copts.seed = mix_seed(config_.seed, salt);
  copts.instrument = config_.instrument;
  copts.pool = config_.pool;
  copts.use_global_pool = config_.use_global_pool;
  core::SolverContext ctx(copts);
  ctx.lifecycle().set_deadline(merge_deadlines(deadline, inst.deadline));
  if (caller_token != nullptr) ctx.lifecycle().bind_token(caller_token);
  if (engine_token != nullptr) ctx.lifecycle().bind_token(engine_token);

  EngineSolveResult out;
  if (inst.kind == Instance::Kind::kMaxFlow) {
    out.result = mcf::min_cost_max_flow(ctx, *inst.graph, inst.source, inst.sink, opts);
  } else {
    out.result = mcf::min_cost_b_flow(ctx, *inst.graph, inst.demands, opts);
  }
  out.pram = ctx.tracker().snapshot();
  return out;
}

std::shared_ptr<core::CancelToken> Engine::issue_handle(const SolveControl& control) const {
  if (control.handle == nullptr) return nullptr;
  auto token = std::make_shared<core::CancelToken>();
  const SolveHandle h = next_handle_.fetch_add(1, std::memory_order_relaxed);
  {
    const std::lock_guard<std::mutex> lock(registry_mu_);
    registry_.emplace(h, token);
  }
  // Published before admission begins: a racing Engine::cancel either finds
  // the registry entry or the caller has not observed the handle yet.
  control.handle->store(h, std::memory_order_release);
  return token;
}

void Engine::retire_handle(const SolveControl& control) const {
  if (control.handle == nullptr) return;
  const std::lock_guard<std::mutex> lock(registry_mu_);
  registry_.erase(control.handle->load(std::memory_order_relaxed));
}

bool Engine::cancel(SolveHandle handle) const {
  metrics_.count(EngineCounter::kCancelRequests);
  if (handle == 0) return false;  // never published
  std::shared_ptr<core::CancelToken> token;
  {
    const std::lock_guard<std::mutex> lock(registry_mu_);
    const auto it = registry_.find(handle);
    if (it == registry_.end()) return false;  // retired (or unknown): no-op
    token = it->second;
  }
  metrics_.count(EngineCounter::kCancelHits);
  token->cancel();
  return true;
}

EngineSolveResult Engine::admit_and_solve(const Instance& inst, const mcf::SolveOptions& opts,
                                          const SolveControl& control, std::uint64_t salt,
                                          const core::CancelToken* engine_token,
                                          AdmitMode mode) const {
  const auto arrival = Clock::now();
  const std::size_t priority = clamp_priority(control.priority);
  // A request arriving with a central-path restart (a warm resolve) is
  // priced on the warm service-time track; everything else (solve(), cold
  // resolves, the warm-failure cold retry) on the cold track.
  const bool warm_request = opts.warm != nullptr;

  if (admission_ != nullptr && mode != AdmitMode::kPreAcquired) {
    const core::Deadline merged = merge_deadlines(control.deadline, inst.deadline);
    par::FaultInjector* chaos = config_.chaos_cancel_rate > 0.0 ? &chaos_ : nullptr;
    const auto acq = admission_->acquire(priority, merged.wall, control.cancel, engine_token,
                                         warm_request, chaos);
    switch (acq.outcome) {
      case Admission::Outcome::kAcquired:
        metrics_.count(acq.queued ? EngineCounter::kAdmittedQueued
                                  : EngineCounter::kAdmittedImmediate);
        break;
      case Admission::Outcome::kShedNoCapacity:
        metrics_.on_shed(priority, EngineCounter::kShedNoCapacity, acq.depth);
        return refusal(SolveStatus::kLoadShed, "no capacity");
      case Admission::Outcome::kShedQueueFull:
        metrics_.on_shed(priority, EngineCounter::kShedQueueFull, acq.depth);
        return refusal(SolveStatus::kLoadShed, "queue full");
      case Admission::Outcome::kShedDeadline:
        metrics_.on_shed(priority, EngineCounter::kShedDeadline, acq.depth);
        return refusal(SolveStatus::kLoadShed, "deadline<wait");
      case Admission::Outcome::kShedEvicted:
        metrics_.on_shed(priority, EngineCounter::kShedEvicted, acq.depth);
        return refusal(SolveStatus::kLoadShed, "evicted");
      case Admission::Outcome::kTimeout:
        metrics_.count(EngineCounter::kQueueTimeouts);
        metrics_.on_outcome(priority, SolveStatus::kDeadlineExceeded);
        return refusal(SolveStatus::kDeadlineExceeded, "queue wait");
      case Admission::Outcome::kCanceled:
        metrics_.count(EngineCounter::kQueueCancels);
        metrics_.on_outcome(priority, SolveStatus::kCanceled);
        return refusal(SolveStatus::kCanceled, "queued cancel");
    }
  } else if (admission_ == nullptr && mode == AdmitMode::kAcquire) {
    metrics_.count(EngineCounter::kAdmittedImmediate);
  }

  const auto acquired_at = Clock::now();
  metrics_.queue_wait.record(acquired_at - arrival);
  EngineSolveResult out =
      solve_with_salt(inst, opts, salt, control.deadline, control.cancel, engine_token);
  const auto done = Clock::now();
  metrics_.solve_time.record(done - acquired_at);
  metrics_.latency.record(done - arrival);
  metrics_.on_outcome(priority, out.result.status);
  if (out.result.stats.certified) metrics_.count(EngineCounter::kCertified);
  if (out.result.stats.certification_failures > 0)
    metrics_.count(EngineCounter::kCertificationFailures, out.result.stats.certification_failures);
  if (admission_ != nullptr) admission_->release(to_us(done - acquired_at), warm_request);
  return out;
}

EngineSolveResult Engine::solve(const Instance& inst, const mcf::SolveOptions& opts,
                                const SolveControl& control) const {
  metrics_.on_submitted(clamp_priority(control.priority));
  // Offset past the batch-index salt space so direct calls and batch entries
  // never collide on a context stream.
  const std::uint64_t salt =
      (1ULL << 32) + solve_calls_.fetch_add(1, std::memory_order_relaxed);
  const std::shared_ptr<core::CancelToken> engine_token = issue_handle(control);
  EngineSolveResult out =
      admit_and_solve(inst, opts, control, salt, engine_token.get(), AdmitMode::kAcquire);
  retire_handle(control);
  return out;
}

std::vector<EngineSolveResult> Engine::solve_batch(const std::vector<Instance>& batch,
                                                   const mcf::SolveOptions& opts,
                                                   const SolveControl& control) const {
  std::vector<EngineSolveResult> results(batch.size());
  const std::size_t priority = clamp_priority(control.priority);
  metrics_.on_submitted(priority, batch.size());
  // Admission is decided upfront, in index order, before any fan-out: the
  // first `admitted` items take the free slots, the suffix is shed. The
  // decision is thus independent of pool scheduling, preserving the
  // serial == pooled bit-identity contract. Batch items never queue.
  std::size_t admitted = batch.size();
  if (admission_ != nullptr) {
    admitted = admission_->acquire_upfront(batch.size());
    if (admitted < batch.size()) {
      metrics_.on_shed(priority, EngineCounter::kShedNoCapacity, queue_depth(),
                       batch.size() - admitted);
      for (std::size_t i = admitted; i < batch.size(); ++i)
        results[i] = refusal(SolveStatus::kLoadShed, "no capacity");
    }
  }
  metrics_.count(EngineCounter::kAdmittedImmediate, admitted);
  const std::shared_ptr<core::CancelToken> engine_token =
      admitted > 0 ? issue_handle(control) : nullptr;
  const auto solve_one = [&](std::size_t i) {
    results[i] = admit_and_solve(batch[i], opts, control, /*salt=*/i, engine_token.get(),
                                 AdmitMode::kPreAcquired);
  };
  par::ThreadPool* p = pool();
  if (p == nullptr || p->num_threads() <= 1 || admitted <= 1) {
    for (std::size_t i = 0; i < admitted; ++i) solve_one(i);
  } else {
    // One solve per block (grain 1): whole solves are the unit of stealing.
    // Each task installs its own context, so the bindings inherited from this
    // (forking) thread are immediately shadowed for the solve's duration.
    p->run_blocked(0, admitted, 1, [&](std::size_t b, std::size_t e) {
      for (std::size_t i = b; i < e; ++i) solve_one(i);
    });
  }
  if (admitted > 0) retire_handle(control);
  return results;
}

// ---------------------------------------------------------------------------
// Cross-solve instance cache + incremental re-solve (DESIGN.md §15).

InstanceHandle Engine::register_instance(const Instance& inst) const {
  if (inst.graph == nullptr) return 0;
  auto rec = std::make_shared<InstanceRecord>();
  rec->is_max_flow = inst.kind == Instance::Kind::kMaxFlow;
  rec->source = inst.source;
  rec->sink = inst.sink;
  rec->demands = inst.demands;
  rec->deadline = inst.deadline;
  rec->solver_graph = *inst.graph;
  rec->compact_of.resize(static_cast<std::size_t>(inst.graph->num_arcs()));
  std::iota(rec->compact_of.begin(), rec->compact_of.end(), graph::EdgeId{0});
  rec->orig_of = rec->compact_of;
  rec->refresh_fingerprints();
  if (persister_ == nullptr) return store_->add(std::move(rec));
  // Journal the registration under rec->mu so the serialized state can never
  // interleave with a racing resolve's delta (lock order: rec->mu → store).
  const std::shared_ptr<InstanceRecord> kept = rec;
  InstanceHandle h = 0;
  {
    const std::lock_guard<std::mutex> rec_lock(kept->mu);
    h = store_->add(std::move(rec));
    persister_->append_register(*kept);
  }
  persister_->maybe_snapshot(*store_);
  return h;
}

bool Engine::deregister_instance(InstanceHandle handle) const {
  const bool erased = store_->erase(handle);
  if (erased && persister_ != nullptr) {
    persister_->append_deregister(handle);
    persister_->maybe_snapshot(*store_);
  }
  return erased;
}

std::size_t Engine::num_instances() const { return store_->size(); }

bool Engine::persist_snapshot() const {
  return persister_ != nullptr && persister_->snapshot(*store_);
}

RecoveryReport Engine::persist_recovery() const {
  return persister_ != nullptr ? persister_->last_recovery() : RecoveryReport{};
}

par::FaultInjector* Engine::persist_faults() const {
  return persister_ != nullptr ? &persister_->faults() : nullptr;
}

std::vector<InstanceHandle> Engine::instance_handles() const { return store_->handles(); }

std::shared_ptr<const InstanceRecord> Engine::inspect_instance(InstanceHandle handle) const {
  return store_->find(handle);
}

EngineSolveResult Engine::resolve(InstanceHandle handle, const InstanceDelta& delta,
                                  const mcf::SolveOptions& opts,
                                  const SolveControl& control) const {
  const std::size_t priority = clamp_priority(control.priority);
  metrics_.on_submitted(priority);
  const std::shared_ptr<InstanceRecord> rec = store_->find(handle);
  if (rec == nullptr) {
    metrics_.on_outcome(priority, SolveStatus::kInvalidInput);
    return refusal(SolveStatus::kInvalidInput, "unknown handle");
  }
  // Resolves on one handle serialize here; the delta, the classification,
  // and the artifact round-trip below are one atomic step per instance.
  std::unique_lock<std::mutex> rec_lock(rec->mu);

  if (!delta.empty()) {
    const std::uint64_t pre_epoch = rec->epoch;
    const std::uint64_t pre_value_hash = rec->value_hash;
    const std::string defect = rec->apply_delta(delta);
    if (!defect.empty()) {
      metrics_.on_outcome(priority, SolveStatus::kInvalidInput);
      EngineSolveResult out = refusal(SolveStatus::kInvalidInput, "");
      out.result.failure_detail = "delta rejected: " + defect;
      return out;
    }
    if (delta.structural()) ++rec->epoch;
    // Journal the applied delta with pre/post guards; a failed append (torn
    // write, fsync failure) leaves memory authoritative — the next snapshot
    // repairs the disk image.
    if (persister_ != nullptr)
      persister_->append_delta(*rec, delta, pre_epoch, pre_value_hash);
  }

  std::unique_ptr<InstanceRecord::Artifacts> arts = store_->take_artifacts(*rec);
  if (arts != nullptr && arts->epoch != rec->epoch) {
    // Structural epoch moved since the artifacts were solved: everything in
    // the slot (flow, central-path point) is for a dead structure.
    metrics_.count(EngineCounter::kInstanceCacheInvalidations);
    arts.reset();
  }

  if (arts != nullptr && arts->value_hash == rec->value_hash &&
      arts->result.status == SolveStatus::kOk) {
    // Replay: the instance is byte-for-byte the one the slot was solved
    // under. Zero trust in the cache — the stored optimum must pass the
    // exact certificate against the *current* record before being served.
    if (const mcf::CertifyReport report = recertify(*rec, arts->result); report.certified) {
      metrics_.count(EngineCounter::kInstanceCacheHits);
      metrics_.count(EngineCounter::kResolveWarm);
      metrics_.count(EngineCounter::kCertified);
      metrics_.on_outcome(priority, SolveStatus::kOk);
      EngineSolveResult out;
      out.result = arts->result;
      out.result.stats.certified = true;
      out.result.stats.warm_started = true;
      out.result.stats.warm_source = "cached-result";
      out.result.stats.warm_mu0 = 0.0;
      out.result.arc_flow = rec->to_original_ids(std::move(out.result.arc_flow));
      store_->store_artifacts(*rec, std::move(arts));
      if (persister_ != nullptr) {
        rec_lock.unlock();  // snapshot takes rec->mu itself
        persister_->maybe_snapshot(*store_);
      }
      return out;
    }
    // A cached result that fails its certificate is a bug's footprint —
    // never serve or retain any of it.
    metrics_.count(EngineCounter::kCertificationFailures);
    metrics_.count(EngineCounter::kInstanceCacheInvalidations);
    arts.reset();
  }

  // Warm re-solve: the retained central-path point is the only state that
  // crosses solves. Artifacts without one (an optimum the combinatorial tier
  // answered) leave nothing to restart from, so the resolve runs cold.
  mcf::WarmStart hint;
  if (arts != nullptr) hint = std::move(arts->warm);
  arts.reset();
  const bool warm_hit = !hint.empty();
  metrics_.count(warm_hit ? EngineCounter::kInstanceCacheHits
                          : EngineCounter::kInstanceCacheMisses);
  metrics_.count(warm_hit ? EngineCounter::kResolveWarm : EngineCounter::kResolveCold);

  Instance view;
  view.kind = rec->is_max_flow ? Instance::Kind::kMaxFlow : Instance::Kind::kBFlow;
  view.graph = &rec->solver_graph;
  view.source = rec->source;
  view.sink = rec->sink;
  view.demands = rec->demands;
  view.deadline = rec->deadline;

  mcf::SolveOptions eff = opts;
  // The whole cache rests on served results being independently verified:
  // a resolve never runs uncertified, whatever the caller passed.
  eff.certify = true;
  mcf::WarmStart captured;
  eff.warm = warm_hit ? &hint : nullptr;
  eff.warm_out = &captured;

  // Salted past both the batch-index space and direct solve() calls.
  const std::uint64_t salt =
      (1ULL << 33) + solve_calls_.fetch_add(1, std::memory_order_relaxed);
  const std::shared_ptr<core::CancelToken> engine_token = issue_handle(control);
  EngineSolveResult out =
      admit_and_solve(view, eff, control, salt, engine_token.get(), AdmitMode::kAcquire);

  if (out.result.status != SolveStatus::kOk && !is_instance_error(out.result.status) &&
      !is_lifecycle_error(out.result.status) && warm_hit) {
    // The warm attempt failed for solver-side reasons the degradation
    // cascade could not absorb. One cold retry without the hint — a stale
    // central-path point must never turn a solvable instance into a failure.
    // Counted as a warm *fallback*, not a planned cold solve, so warm failure
    // rates stay observable.
    eff.warm = nullptr;
    captured = mcf::WarmStart{};
    metrics_.on_submitted(priority);
    metrics_.count(EngineCounter::kResolveWarmFallback);
    const std::uint64_t cold_salt =
        (1ULL << 33) + solve_calls_.fetch_add(1, std::memory_order_relaxed);
    out = admit_and_solve(view, eff, control, cold_salt, engine_token.get(),
                          AdmitMode::kAcquire);
  }
  retire_handle(control);

  if (out.result.status == SolveStatus::kOk) {
    if (out.result.stats.certified && config_.instance_cache_capacity > 0) {
      auto fresh = std::make_unique<InstanceRecord::Artifacts>();
      fresh->result = out.result;  // compact-id copy, pre-mapping
      fresh->warm = std::move(captured);
      fresh->value_hash = rec->value_hash;
      fresh->epoch = rec->epoch;
      const std::size_t evicted = store_->store_artifacts(*rec, std::move(fresh));
      if (evicted > 0) metrics_.count(EngineCounter::kInstanceCacheEvictions, evicted);
    }
    out.result.arc_flow = rec->to_original_ids(std::move(out.result.arc_flow));
  }
  if (persister_ != nullptr) {
    rec_lock.unlock();  // snapshot takes rec->mu itself
    persister_->maybe_snapshot(*store_);
  }
  return out;
}

}  // namespace pmcf
