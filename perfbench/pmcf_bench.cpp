// Benchmark program for the pmcf library: certified exact-solve latency and
// throughput on four workloads. run.py builds this binary and runs it; see
// there for the command line.
//
// Every workload drives the public API with a default EngineConfig and
// default SolveOptions unless noted, and every answer is checked against
// baselines::ssp_min_cost_max_flow on the same graph. Workloads:
//
//   dense_cold     One closed-loop client calls Engine::solve on dense random
//                  flow networks, n 16-24 with m from 8n to n^2/2, cost and
//                  capacity ranges 6 and 100. The paper's Table-1 regime and
//                  the library's headline call: reference IPM, linalg and
//                  certification do the work; admission, the instance store,
//                  persistence and the expander layer do none.
//   robust_tier    The same client with SolveOptions::method = kRobustIpm on
//                  n 12-20: the paper's own algorithm, dominated by the
//                  expander and ds layers that dense_cold bypasses.
//   resolve_churn  Closed-loop clients (one per thread of the budget) on a
//                  fleet of 24 registered instances (n 12-20) on one
//                  persisted Engine with 2 admission slots, a queue of 2 and
//                  an instance cache two short of the fleet. Requests mix
//                  no-op resolves (reads, served by the cached-result
//                  replay), ~1% cost/capacity deltas (warm writes) and arc
//                  additions/removals (cold writes), 15:4:1.
//   batch_fanout   One caller runs Engine::solve_batch over 24 small
//                  instances on a pool one thread short of the thread
//                  budget: the only workload that uses the work-stealing pool.
//
// BENCHMARK.json runs all but dense_cold: on a 4-cpu KVM host whose speed
// drifts by up to ~1.5x within minutes, its per-run figures spread beyond the
// bounds, so it is kept for runs by hand.
//
// Instances are seeded random_flow_networks; every run solves the same mix of
// shapes, so the seed changes the instances but not the workload's shape.
// A run sets up several times (setup_s is the median), then measures one
// closed-loop pass of --seconds with tracing off. With --trace 1 the pass is
// traced and followed by the per-layer probes (layers.cpp); the run reports
// per-layer metrics, self time per layer and the tracing overhead. The last
// line of stdout is the result object, metric values by name (run.py adds
// the units); the line before it reports every figure with its unit, its
// sample count and the host record.

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "layers.hpp"
#include "mcf/engine.hpp"
#include "parallel/rng.hpp"
#include "parallel/thread_pool.hpp"
#include "trace.hpp"

namespace {

using namespace pmcf;
using namespace perfbench;

constexpr int kSetupReps = 3;
/// The warm-up instances are the same for every seed, so set-up time does
/// not vary with the seeded inputs.
constexpr std::uint64_t kWarmSeed = 0;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  std::size_t threads = 4;
  std::string work_dir = ".";
  std::string trace_out;
  bool check_selftest = false;
};

std::uint64_t next_request_id() {
  static std::atomic<std::uint64_t> next{0};
  return next.fetch_add(1, std::memory_order_relaxed) + 1;
}

/// SolveStats counters summed over the solves a pass ran. Replays are left
/// out: they re-serve the stored result's stats.
struct StatsSum {
  double solves = 0, ipm_iterations = 0, robust_steps = 0, robust_step_work = 0,
         cycles_canceled = 0, cascades = 0, cg_escalations = 0, dense_fallbacks = 0,
         sketch_retries = 0, structure_rebuilds = 0, warm_start_hits = 0, precond_builds = 0,
         precond_reuses = 0, pram_work = 0, pram_depth = 0;

  void add(const EngineSolveResult& r) {
    const mcf::SolveStats& s = r.result.stats;
    solves += 1;
    ipm_iterations += s.ipm_iterations;
    robust_steps += s.robust_steps;
    robust_step_work += static_cast<double>(s.robust_step_work);
    cycles_canceled += static_cast<double>(s.cycles_canceled);
    cascades += s.tiers_attempted > 1 ? 1 : 0;
    cg_escalations += static_cast<double>(s.cg_tolerance_escalations);
    dense_fallbacks += static_cast<double>(s.dense_fallbacks);
    sketch_retries += static_cast<double>(s.sketch_retries);
    structure_rebuilds += static_cast<double>(s.structure_rebuilds);
    warm_start_hits += static_cast<double>(s.warm_start_hits);
    precond_builds += static_cast<double>(s.precond_builds);
    precond_reuses += static_cast<double>(s.precond_reuses);
    pram_work += static_cast<double>(r.pram.work);
    pram_depth += static_cast<double>(r.pram.depth);
  }
  void merge(const StatsSum& o) {
    solves += o.solves;
    ipm_iterations += o.ipm_iterations;
    robust_steps += o.robust_steps;
    robust_step_work += o.robust_step_work;
    cycles_canceled += o.cycles_canceled;
    cascades += o.cascades;
    cg_escalations += o.cg_escalations;
    dense_fallbacks += o.dense_fallbacks;
    sketch_retries += o.sketch_retries;
    structure_rebuilds += o.structure_rebuilds;
    warm_start_hits += o.warm_start_hits;
    precond_builds += o.precond_builds;
    precond_reuses += o.precond_reuses;
    pram_work += o.pram_work;
    pram_depth += o.pram_depth;
  }
  [[nodiscard]] double per_solve(double total) const { return solves == 0 ? 0.0 : total / solves; }
};

/// How the engine served a resolve: the request groups of resolve_churn.
enum ResolvePath : std::uint8_t { kReplay, kWarm, kCold };

ResolvePath resolve_path(const mcf::SolveStats& s) {
  if (s.warm_source == "cached-result") return kReplay;
  return s.warm_started ? kWarm : kCold;
}

/// What one timed pass produced.
struct PassResult {
  std::vector<double> latency_ms;  ///< per request
  std::vector<std::uint8_t> group; ///< per request, see Workload::group_names
  std::size_t attempted = 0;       ///< answers checked
  std::size_t certified = 0;       ///< answers that passed the check
  std::string first_defect;
  double wall_s = 0.0;
  StatsSum stats;
  MetricsSnapshot metrics;  ///< engine metrics accumulated during the pass

  /// Checks one answer; `solved` is false for a replay, whose stats are the
  /// stored result's.
  void check(const graph::Digraph& g, const EngineSolveResult& r, const Oracle& want,
             bool solved = true) {
    const std::string defect = check_answer(g, r.result, want);
    ++attempted;
    if (defect.empty()) {
      ++certified;
    } else if (first_defect.empty()) {
      first_defect = defect;
    }
    if (solved) stats.add(r);
  }
  void merge(PassResult&& o) {
    latency_ms.insert(latency_ms.end(), o.latency_ms.begin(), o.latency_ms.end());
    group.insert(group.end(), o.group.begin(), o.group.end());
    attempted += o.attempted;
    certified += o.certified;
    if (first_defect.empty()) first_defect = o.first_defect;
    stats.merge(o.stats);
  }
  [[nodiscard]] std::size_t failed() const { return attempted - certified; }
  [[nodiscard]] std::vector<double> latencies_of(std::uint8_t g) const {
    std::vector<double> v;
    for (std::size_t i = 0; i < group.size(); ++i)
      if (group[i] == g) v.push_back(latency_ms[i]);
    return v;
  }
};

HistogramSnapshot histogram_since(HistogramSnapshot after, const HistogramSnapshot& before) {
  for (std::size_t i = 0; i < kHistogramBuckets; ++i) after.buckets[i] -= before.buckets[i];
  after.count -= before.count;
  after.sum_us -= before.sum_us;
  return after;
}

MetricsSnapshot metrics_since(MetricsSnapshot after, const MetricsSnapshot& before) {
  for (std::size_t i = 0; i < static_cast<std::size_t>(EngineCounter::kNumEngineCounters); ++i)
    after.counters[i] -= before.counters[i];
  after.latency = histogram_since(after.latency, before.latency);
  after.queue_wait = histogram_since(after.queue_wait, before.queue_wait);
  after.solve_time = histogram_since(after.solve_time, before.solve_time);
  return after;
}

Instance as_instance(const Problem& p) { return Instance::max_flow(p.g, 0, p.sink()); }

class Workload {
 public:
  Workload(std::uint64_t seed, std::size_t clients, std::size_t pool_threads)
      : seed_(seed), clients_(clients), pool_threads_(pool_threads) {}
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  /// Everything setup_s charges: instance generation, engine construction,
  /// warm-up, and (resolve_churn) registration, priming and recovery.
  virtual void setup() = 0;
  /// Untimed, after each setup: the SSP oracles and the check of every
  /// answer the setup obtained. Returns "" or the first defect.
  virtual std::string verify_setup() = 0;
  /// Untimed: release what setup() built.
  virtual void teardown() = 0;
  /// One closed-loop pass of `seconds`; the request sequence restarts from
  /// the seed on every pass.
  virtual PassResult run(double seconds) = 0;
  /// What the per-layer probes run on, taken from this workload's inputs.
  [[nodiscard]] virtual ProbeInput probe_input() = 0;
  /// Serving-path metrics this workload measures itself (traced run).
  virtual void serving_metrics(const PassResult& /*traced*/, MetricMap& /*out*/) {}

  /// Names of the request groups a pass records (PassResult::group).
  [[nodiscard]] virtual std::vector<std::string> group_names() const = 0;

  [[nodiscard]] std::size_t clients() const { return clients_; }
  [[nodiscard]] std::size_t pool_threads() const { return pool_threads_; }

 protected:
  std::uint64_t seed_;
  std::size_t clients_;
  std::size_t pool_threads_;
};

std::vector<Problem> make_problems(const std::vector<Shape>& cycle, std::size_t count,
                                   std::uint64_t seed) {
  std::vector<Problem> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i)
    out.push_back({make_graph(cycle[i % cycle.size()], seed, i), {}});
  return out;
}

/// Oracles are a function of the seeded graphs alone, so they are computed
/// once and reattached after every setup repetition.
void attach_oracles(std::vector<Problem>& problems, std::vector<Oracle>& cache) {
  if (cache.size() != problems.size()) {
    cache.clear();
    for (const Problem& p : problems) cache.push_back(solve_oracle(p.g));
  }
  for (std::size_t i = 0; i < problems.size(); ++i) problems[i].oracle = cache[i];
}

/// dense_cold and robust_tier: one closed-loop client calling Engine::solve
/// over a fixed cycle of shapes, so every run solves the same mix.
class SolveLoop final : public Workload {
 public:
  SolveLoop(std::vector<Shape> cycle, std::size_t per_shape, Shape warm, mcf::SolveOptions opts,
            std::uint64_t seed, std::size_t threads)
      : Workload(seed, 1, threads),
        cycle_(std::move(cycle)),
        count_(cycle_.size() * per_shape),
        warm_shape_(warm),
        opts_(std::move(opts)) {
    for (const Shape& sh : cycle_) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "n%d_m%lld_c%lld", static_cast<int>(sh.n),
                    static_cast<long long>(sh.m), static_cast<long long>(sh.max_cost));
      const auto it = std::find(groups_.begin(), groups_.end(), buf);
      group_of_.push_back(static_cast<std::uint8_t>(it - groups_.begin()));
      if (it == groups_.end()) groups_.emplace_back(buf);
    }
  }

  void setup() override {
    par::ThreadPool::configure(pool_threads_);
    problems_ = make_problems(cycle_, count_, seed_);
    warm_ = Problem{make_graph(warm_shape_, kWarmSeed, 0), {}};
    engine_ = std::make_unique<Engine>();
    warm_result_ = engine_->solve(as_instance(warm_), opts_);
  }
  std::string verify_setup() override {
    attach_oracles(problems_, oracles_);
    warm_.oracle = solve_oracle(warm_.g);
    return check_answer(warm_.g, warm_result_.result, warm_.oracle);
  }
  void teardown() override { engine_.reset(); }

  PassResult run(double seconds) override {
    PassResult pr;
    const MetricsSnapshot before = engine_->metrics_snapshot();
    const auto start = Clock::now();
    const Clock::time_point end = start + seconds_to_duration(seconds);
    for (std::size_t i = 0; Clock::now() < end; ++i) {
      const Problem& p = problems_[i % problems_.size()];
      const SpanScope request("bench.request", next_request_id());
      EngineSolveResult r;
      {
        const SpanScope span("mcf.engine_solve");
        const auto t0 = Clock::now();
        r = engine_->solve(as_instance(p), opts_);
        pr.latency_ms.push_back(ms_since(t0));
      }
      pr.group.push_back(group_of_[i % cycle_.size()]);
      const SpanScope span("bench.check");
      pr.check(p.g, r, p.oracle);
    }
    pr.wall_s = ms_since(start) * 1e-3;
    pr.metrics = metrics_since(engine_->metrics_snapshot(), before);
    return pr;
  }

  [[nodiscard]] std::vector<std::string> group_names() const override { return groups_; }

  [[nodiscard]] ProbeInput probe_input() override {
    ProbeInput in;
    in.probe = &problems_.front();
    for (std::size_t i = 0; i < std::min<std::size_t>(4, problems_.size()); ++i)
      in.batch.push_back(&problems_[i * cycle_.size() % problems_.size()]);
    in.opts = opts_;
    return in;
  }

 private:
  std::vector<Shape> cycle_;
  std::vector<std::string> groups_;       ///< distinct shape labels
  std::vector<std::uint8_t> group_of_;    ///< cycle position -> label index
  std::size_t count_;
  Shape warm_shape_;
  mcf::SolveOptions opts_;
  std::vector<Problem> problems_;
  std::vector<Oracle> oracles_;
  Problem warm_;
  EngineSolveResult warm_result_;
  std::unique_ptr<Engine> engine_;
};

/// batch_fanout: one caller, Engine::solve_batch over a cycle of batches.
class BatchLoop final : public Workload {
 public:
  BatchLoop(std::vector<Shape> cycle, std::size_t batches, std::size_t batch_size,
            std::uint64_t seed, std::size_t threads)
      : Workload(seed, 1, threads),
        cycle_(std::move(cycle)),
        batches_(batches),
        batch_size_(batch_size) {}

  void setup() override {
    par::ThreadPool::configure(pool_threads_);
    problems_ = make_problems(cycle_, batches_ * batch_size_, seed_);
    instances_.assign(batches_, {});
    for (std::size_t i = 0; i < problems_.size(); ++i)
      instances_[i / batch_size_].push_back(as_instance(problems_[i]));
    warm_.clear();
    for (std::size_t i = 0; i < pool_threads_; ++i)
      warm_.push_back({make_graph(cycle_.front(), kWarmSeed, i), {}});
    std::vector<Instance> warm_batch;
    for (const Problem& p : warm_) warm_batch.push_back(as_instance(p));
    engine_ = std::make_unique<Engine>();
    warm_results_ = engine_->solve_batch(warm_batch);
  }
  std::string verify_setup() override {
    attach_oracles(problems_, oracles_);
    for (std::size_t i = 0; i < warm_.size(); ++i) {
      warm_[i].oracle = solve_oracle(warm_[i].g);
      if (std::string d = check_answer(warm_[i].g, warm_results_[i].result, warm_[i].oracle);
          !d.empty())
        return d;
    }
    return "";
  }
  void teardown() override { engine_.reset(); }

  PassResult run(double seconds) override {
    PassResult pr;
    const MetricsSnapshot before = engine_->metrics_snapshot();
    const auto start = Clock::now();
    const Clock::time_point end = start + seconds_to_duration(seconds);
    for (std::size_t i = 0; Clock::now() < end; ++i) {
      const std::size_t b = i % batches_;
      const SpanScope request("bench.request", next_request_id());
      std::vector<EngineSolveResult> res;
      {
        const SpanScope span("mcf.engine_solve_batch");
        const auto t0 = Clock::now();
        res = engine_->solve_batch(instances_[b]);
        pr.latency_ms.push_back(ms_since(t0));
      }
      pr.group.push_back(0);
      const SpanScope span("bench.check");
      for (std::size_t k = 0; k < res.size(); ++k) {
        const Problem& p = problems_[b * batch_size_ + k];
        pr.check(p.g, res[k], p.oracle);
      }
    }
    pr.wall_s = ms_since(start) * 1e-3;
    pr.metrics = metrics_since(engine_->metrics_snapshot(), before);
    return pr;
  }

  [[nodiscard]] std::vector<std::string> group_names() const override { return {"batch"}; }

  [[nodiscard]] ProbeInput probe_input() override {
    ProbeInput in;
    in.probe = &problems_.front();
    for (std::size_t k = 0; k < batch_size_; ++k) in.batch.push_back(&problems_[k]);
    return in;
  }

 private:
  std::vector<Shape> cycle_;
  std::size_t batches_;
  std::size_t batch_size_;
  std::vector<Problem> problems_;
  std::vector<Oracle> oracles_;
  std::vector<std::vector<Instance>> instances_;
  std::vector<Problem> warm_;
  std::vector<EngineSolveResult> warm_results_;
  std::unique_ptr<Engine> engine_;
};

/// resolve_churn: clients issuing reads and writes against a persisted
/// fleet of registered instances.
class ResolveChurn final : public Workload {
 public:
  ResolveChurn(std::vector<Shape> cycle, std::size_t fleet, std::string work_dir,
               std::uint64_t seed, std::size_t threads)
      : Workload(seed, threads, 1),
        cycle_(std::move(cycle)),
        fleet_size_(fleet),
        dir_(std::move(work_dir) + "/churn-persist") {}

  void setup() override {
    par::ThreadPool::configure(pool_threads_);
    fleet_ = std::vector<Member>(fleet_size_);
    for (std::size_t i = 0; i < fleet_size_; ++i) {
      fleet_[i].shape = cycle_[i % cycle_.size()];
      fleet_[i].base = make_graph(fleet_[i].shape, seed_, i);
    }
    std::filesystem::remove_all(dir_);
    {
      // Priming is not serving: the primer admits every client at once.
      EngineConfig primer_cfg = config();
      primer_cfg.max_in_flight = 0;
      const Engine primer(primer_cfg);
      for (Member& mem : fleet_) mem.handle = primer.register_instance(base_instance(mem));
      prime_results_.assign(fleet_size_, {});
      std::vector<std::thread> threads;
      for (std::size_t c = 0; c < clients_; ++c) {
        threads.emplace_back([&, c] {
          for (std::size_t i = c; i < fleet_size_; i += clients_)
            prime_results_[i] = primer.resolve(fleet_[i].handle, {});
        });
      }
      for (auto& t : threads) t.join();
      (void)primer.persist_snapshot();
    }
    const auto t0 = Clock::now();
    engine_ = std::make_unique<Engine>(config());
    recovery_ms_.push_back(ms_since(t0));
    for (Member& mem : fleet_) {
      mem.mirror = mem.base;
      mem.live = mem.base.num_arcs();
    }
  }
  std::string verify_setup() override {
    if (base_oracles_.size() != fleet_size_) {
      base_oracles_.clear();
      for (const Member& mem : fleet_) base_oracles_.push_back(solve_oracle(mem.base));
    }
    for (std::size_t i = 0; i < fleet_size_; ++i) {
      fleet_[i].oracle = base_oracles_[i];
      if (std::string d = check_answer(fleet_[i].base, prime_results_[i].result, base_oracles_[i]);
          !d.empty())
        return "priming: " + d;
    }
    if (engine_->num_instances() != fleet_size_) return "recovery lost registered instances";
    return "";
  }
  void teardown() override {
    engine_.reset();
    std::filesystem::remove_all(dir_);
  }

  PassResult run(double seconds) override {
    const MetricsSnapshot before = engine_->metrics_snapshot();
    const auto start = Clock::now();
    const Clock::time_point end = start + seconds_to_duration(seconds);
    std::vector<PassResult> per_client(clients_);
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < clients_; ++c)
      threads.emplace_back([this, c, end, &per_client] { client(c, end, per_client[c]); });
    for (auto& t : threads) t.join();
    PassResult pr;
    for (PassResult& r : per_client) pr.merge(std::move(r));
    pr.wall_s = ms_since(start) * 1e-3;
    pr.metrics = metrics_since(engine_->metrics_snapshot(), before);
    return pr;
  }

  [[nodiscard]] std::vector<std::string> group_names() const override {
    return {"replay", "warm", "cold"};
  }

  /// The probes run on the first fleet members as registered.
  [[nodiscard]] ProbeInput probe_input() override {
    probes_.clear();
    for (std::size_t i = 0; i < std::min<std::size_t>(4, fleet_size_); ++i)
      probes_.push_back({fleet_[i].base, base_oracles_[i]});
    ProbeInput in;
    in.probe = &probes_.front();
    for (const Problem& p : probes_) in.batch.push_back(&p);
    in.resolve_paths = false;  // serving_metrics times them on the traced pass
    return in;
  }

  void serving_metrics(const PassResult& traced, MetricMap& out) override {
    const std::pair<ResolvePath, const char*> paths[] = {{kReplay, "mcf.replay_ms"},
                                                         {kWarm, "mcf.warm_resolve_ms"},
                                                         {kCold, "mcf.cold_resolve_ms"}};
    for (const auto& [p, name] : paths) {
      const std::vector<double> v = traced.latencies_of(p);
      if (!v.empty()) out[name] = median(v);
    }
    const SpanScope span("mcf.persist_snapshot");
    const auto t0 = Clock::now();
    (void)engine_->persist_snapshot();
    out["mcf.persist_snapshot_ms"] = ms_since(t0);
    out["mcf.recovery_ms"] = median(recovery_ms_);
  }

 private:
  struct Member {
    Shape shape;
    graph::Digraph base;    ///< as registered
    graph::Digraph mirror;  ///< the engine's instance after every delta sent
    graph::EdgeId live = 0; ///< live arcs in `mirror` (removed arcs keep cap 0)
    Oracle oracle;          ///< SSP answer for `mirror`
    InstanceHandle handle = 0;
    std::mutex mu;  ///< one request per instance at a time, in mirror order
  };

  EngineConfig config() const {
    EngineConfig cfg;
    cfg.persist_dir = dir_;
    cfg.max_in_flight = 2;
    cfg.max_queue = 2;
    cfg.instance_cache_capacity = fleet_size_ - 2;
    return cfg;
  }
  static Instance base_instance(const Member& mem) {
    return Instance::max_flow(mem.base, 0, mem.base.num_vertices() - 1);
  }

  static graph::EdgeId random_live_arc(const Member& mem, par::Rng& rng) {
    for (;;) {
      const auto e = static_cast<graph::EdgeId>(
          rng.next_below(static_cast<std::uint64_t>(mem.mirror.num_arcs())));
      if (mem.mirror.arc(e).cap > 0) return e;
    }
  }

  /// Moves `v` by one step inside [lo, hi] (which holds at least two values).
  static std::int64_t nudge(std::int64_t v, std::int64_t lo, std::int64_t hi, par::Rng& rng) {
    if (v <= lo) return v + 1;
    if (v >= hi) return v - 1;
    return rng.next_below(2) == 0 ? v - 1 : v + 1;
  }

  /// Draws a delta of `kind` (0 read, 1 values, 2 structure) and applies it
  /// to the member's mirror.
  static InstanceDelta make_delta(int kind, Member& mem, par::Rng& rng) {
    InstanceDelta d;
    const Shape& sh = mem.shape;
    if (kind == 1) {
      const std::int64_t k = std::max<std::int64_t>(1, mem.live / 100);
      for (std::int64_t j = 0; j < k; ++j) {
        const graph::EdgeId e = random_live_arc(mem, rng);
        const auto& a = mem.mirror.arc(e);
        if (rng.next_below(2) == 0) {
          d.cost_changes.push_back({e, nudge(a.cost, 0, sh.max_cost, rng)});
          mem.mirror.set_cost(e, d.cost_changes.back().cost);
        } else {
          d.cap_changes.push_back({e, nudge(a.cap, 1, sh.max_cap, rng)});
          mem.mirror.set_cap(e, d.cap_changes.back().cap);
        }
      }
    } else if (kind == 2) {
      const bool remove =
          mem.live > sh.m || (mem.live == sh.m && rng.next_below(2) == 0);
      if (remove) {
        const graph::EdgeId e = random_live_arc(mem, rng);
        d.remove_arcs.push_back(e);
        mem.mirror.set_cap(e, 0);
        --mem.live;
      } else {
        const auto u = static_cast<graph::Vertex>(rng.next_below(static_cast<std::uint64_t>(sh.n)));
        auto v = static_cast<graph::Vertex>(rng.next_below(static_cast<std::uint64_t>(sh.n - 1)));
        if (v >= u) ++v;
        const ArcAddition add{u, v, rng.uniform_int(1, sh.max_cap), rng.uniform_int(0, sh.max_cost)};
        d.add_arcs.push_back(add);
        mem.mirror.add_arc(add.from, add.to, add.cap, add.cost);
        ++mem.live;
      }
    }
    return d;
  }

  void client(std::size_t c, Clock::time_point end, PassResult& pr) {
    par::Rng rng(seed_ * 0x2545f4914f6cdd1dULL + c + 1);
    // Per 20 requests: 15 reads, 4 value writes, 1 structural write. The
    // 4:1 split of the writes is bench/perf_trajectory's instance_churn,
    // where every fifth resolve is structural. The read share is not taken
    // from measured traffic; it is an unverified choice. Kinds come from a
    // shuffled bag refilled every round, so every run serves the same mix;
    // independent draws would make the number of costly cold solves, and
    // with it the run's throughput, vary with the seed.
    std::vector<int> bag;
    while (Clock::now() < end) {
      if (bag.empty()) {
        bag.assign(15, 0);
        bag.insert(bag.end(), 4, 1);
        bag.push_back(2);
        for (std::size_t i = bag.size() - 1; i > 0; --i)
          std::swap(bag[i], bag[rng.next_below(i + 1)]);
      }
      const int kind = bag.back();
      bag.pop_back();
      Member& mem = fleet_[rng.next_below(fleet_size_)];
      const SpanScope request("bench.request", next_request_id());
      // Latency includes waiting for the instance, which a resolve on a busy
      // handle would otherwise spend inside the engine.
      const auto t0 = Clock::now();
      std::unique_lock<std::mutex> lk(mem.mu, std::defer_lock);
      {
        const SpanScope span("bench.instance_wait");
        lk.lock();
      }
      const InstanceDelta delta = make_delta(kind, mem, rng);
      EngineSolveResult r;
      {
        const SpanScope span("mcf.engine_resolve");
        r = engine_->resolve(mem.handle, delta);
        pr.latency_ms.push_back(ms_since(t0));
      }
      if (kind != 0) {
        const SpanScope span("bench.oracle");
        mem.oracle = solve_oracle(mem.mirror);
      }
      const ResolvePath p = resolve_path(r.result.stats);
      pr.group.push_back(p);
      const SpanScope span("bench.check");
      pr.check(mem.mirror, r, mem.oracle, p != kReplay);
    }
  }

  std::vector<Shape> cycle_;
  std::size_t fleet_size_;
  std::string dir_;
  std::vector<Member> fleet_;
  std::vector<Oracle> base_oracles_;
  std::vector<EngineSolveResult> prime_results_;
  std::vector<double> recovery_ms_;
  std::vector<Problem> probes_;
  std::unique_ptr<Engine> engine_;
};

std::unique_ptr<Workload> make_workload(const Options& o) {
  const std::uint64_t s = o.seed;
  const std::size_t t = o.threads;
  if (o.workload == "dense_cold") {
    if (o.tiny) return std::make_unique<SolveLoop>(std::vector<Shape>{{8, 24, 6, 6}, {10, 50, 100, 100}}, 2, Shape{8, 24, 6, 6}, mcf::SolveOptions{}, s, t);
    // The middle size appears twice per cycle so the median falls inside
    // one shape's samples rather than between two shapes'.
    return std::make_unique<SolveLoop>(
        std::vector<Shape>{{16, 128, 6, 6}, {16, 128, 100, 100}, {20, 200, 100, 100},
                           {20, 200, 100, 100}, {24, 240, 100, 100}, {24, 288, 100, 100}},
        16, Shape{16, 128, 6, 6}, mcf::SolveOptions{}, s, t);
  }
  if (o.workload == "robust_tier") {
    mcf::SolveOptions opts;
    opts.method = mcf::Method::kRobustIpm;
    if (o.tiny) return std::make_unique<SolveLoop>(std::vector<Shape>{{8, 24, 6, 6}}, 2, Shape{8, 24, 6, 6}, opts, s, t);
    return std::make_unique<SolveLoop>(
        std::vector<Shape>{{12, 72, 6, 6}, {16, 96, 6, 6}, {20, 120, 6, 6}, {12, 96, 100, 100}},
        8, Shape{10, 40, 6, 6}, opts, s, t);
  }
  if (o.workload == "resolve_churn") {
    if (o.tiny) return std::make_unique<ResolveChurn>(std::vector<Shape>{{8, 24, 6, 6}}, 4, o.work_dir, s, t);
    return std::make_unique<ResolveChurn>(
        std::vector<Shape>{{12, 72, 100, 100}, {14, 98, 100, 100}, {16, 128, 100, 100},
                           {18, 162, 100, 100}, {20, 200, 100, 100}},
        24, o.work_dir, s, t);
  }
  if (o.workload == "batch_fanout") {
    // The pool (caller included) leaves one cpu of the budget free. With
    // every cpu in the pool, any other process on the host stretches each
    // batch to its slowest thread: on a 4-cpu host the run-to-run spread of
    // the batch time was ~15% at 4 threads and ~3% at 3.
    const std::size_t pool = std::max<std::size_t>(1, t - 1);
    if (o.tiny) return std::make_unique<BatchLoop>(std::vector<Shape>{{8, 24, 6, 6}}, 2, 4, s, pool);
    return std::make_unique<BatchLoop>(
        std::vector<Shape>{{10, 40, 6, 6}, {11, 44, 6, 6}, {12, 48, 6, 6}, {13, 52, 6, 6},
                           {14, 56, 6, 6}},
        4, 24, s, pool);
  }
  return nullptr;
}

// --- output ------------------------------------------------------------------

std::string num(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out + "\"";
}

struct Metric {
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;  ///< 0 = not a sampled timing
};

std::string metric_object(const std::map<std::string, Metric>& metrics) {
  std::ostringstream os;
  os << "{";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    os << (first ? "" : ", ") << quoted(name) << ": {\"value\": " << num(m.value)
       << ", \"unit\": " << quoted(m.unit);
    if (m.samples > 0) os << ", \"samples\": " << m.samples;
    os << "}";
    first = false;
  }
  os << "}";
  return os.str();
}

std::string value_object(const MetricMap& values) {
  std::ostringstream os;
  os << "{";
  bool first = true;
  for (const auto& [name, v] : values) {
    os << (first ? "" : ", ") << quoted(name) << ": " << num(v);
    first = false;
  }
  os << "}";
  return os.str();
}

std::size_t available_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return static_cast<std::size_t>(CPU_COUNT(&set));
  return std::max(1u, std::thread::hardware_concurrency());
}

/// Peak resident set of this process image (VmHWM). getrusage's ru_maxrss
/// would also count the parent's footprint from before exec.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  return 0.0;
}

/// Per-layer metrics read from the traced pass's own outputs.
void pass_layer_metrics(const PassResult& p, MetricMap& out) {
  const StatsSum& s = p.stats;
  const double precond = s.precond_builds + s.precond_reuses;
  out["linalg.precond_hit_rate"] = precond == 0 ? 0.0 : s.precond_reuses / precond;
  out["linalg.cg_escalations"] = s.per_solve(s.cg_escalations);
  out["linalg.dense_fallbacks"] = s.per_solve(s.dense_fallbacks);
  out["linalg.warm_start_hits"] = s.per_solve(s.warm_start_hits);
  out["ds.sketch_retries"] = s.per_solve(s.sketch_retries);
  out["expander.structure_rebuilds"] = s.per_solve(s.structure_rebuilds);
  out["ipm.iterations"] = s.per_solve(s.ipm_iterations);
  out["ipm.robust_steps"] = s.per_solve(s.robust_steps);
  out["ipm.robust_step_work"] = s.per_solve(s.robust_step_work);
  out["ipm.cycles_canceled"] = s.per_solve(s.cycles_canceled);
  out["ipm.cascade_share"] = s.per_solve(s.cascades);
  out["ipm.pram_work"] = s.per_solve(s.pram_work);
  out["ipm.pram_depth"] = s.per_solve(s.pram_depth);

  const MetricsSnapshot& m = p.metrics;
  out["mcf.queue_wait_ms.p50"] = m.queue_wait.quantile_us(0.5) * 1e-3;
  out["mcf.queue_wait_ms.p99"] = m.queue_wait.quantile_us(0.99) * 1e-3;
  const double hits = static_cast<double>(m.of(EngineCounter::kInstanceCacheHits));
  const double misses = static_cast<double>(m.of(EngineCounter::kInstanceCacheMisses));
  out["mcf.cache_hit_rate"] = hits + misses == 0 ? 0.0 : hits / (hits + misses);
  const double warm = static_cast<double>(m.of(EngineCounter::kResolveWarm));
  out["mcf.warm_fallback_share"] =
      warm == 0 ? 0.0 : static_cast<double>(m.of(EngineCounter::kResolveWarmFallback)) / warm;
  out["mcf.evictions"] = static_cast<double>(m.of(EngineCounter::kInstanceCacheEvictions));
  out["mcf.journal_appends"] = static_cast<double>(m.of(EngineCounter::kPersistJournalAppends));
}

/// The output check must reject an answer whose arc flow was tampered with.
int check_selftest() {
  const Engine engine;
  Problem p{make_graph({8, 24, 6, 6}, 7, 0), {}};
  p.oracle = solve_oracle(p.g);
  const mcf::MinCostFlowResult good = engine.solve(as_instance(p)).result;
  if (const std::string d = check_answer(p.g, good, p.oracle); !d.empty()) {
    std::cout << "selftest: a correct answer was rejected: " << d << "\n";
    return 1;
  }
  for (graph::EdgeId e = 0; e < p.g.num_arcs(); ++e) {
    mcf::MinCostFlowResult bad = good;
    auto& f = bad.arc_flow[static_cast<std::size_t>(e)];
    f += f < p.g.arc(e).cap ? 1 : -1;
    if (check_answer(p.g, bad, p.oracle).empty()) {
      std::cout << "selftest: a perturbed flow on arc " << e << " was accepted\n";
      return 1;
    }
  }
  std::cout << "selftest: every perturbed arc flow was rejected\n";
  return 0;
}

[[noreturn]] void usage(const std::string& detail) {
  std::cerr << "pmcf_bench: " << detail << "\n"
            << "usage: pmcf_bench --workload dense_cold|robust_tier|resolve_churn|batch_fanout\n"
               "                  --seed N --seconds S --trace 0|1 [--scale full|tiny]\n"
               "                  [--threads N] [--work-dir DIR] [--trace-out FILE]\n"
               "       pmcf_bench --selftest-check\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--selftest-check") {
      o.check_selftest = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + arg);
    const std::string val = argv[++i];
    try {
      if (arg == "--workload") {
        o.workload = val;
      } else if (arg == "--seed") {
        o.seed = std::stoull(val);
      } else if (arg == "--seconds") {
        o.seconds = std::stod(val);
        if (!(o.seconds > 0.0)) usage("--seconds must be positive");
      } else if (arg == "--trace") {
        if (val != "0" && val != "1") usage("--trace expects 0 or 1");
        o.trace = val == "1";
      } else if (arg == "--scale") {
        if (val != "full" && val != "tiny") usage("--scale expects full or tiny");
        o.tiny = val == "tiny";
      } else if (arg == "--threads") {
        o.threads = std::stoul(val);
        if (o.threads < 1) usage("--threads must be at least 1");
      } else if (arg == "--work-dir") {
        o.work_dir = val;
      } else if (arg == "--trace-out") {
        o.trace_out = val;
      } else {
        usage("unknown argument " + arg);
      }
    } catch (const std::logic_error&) {
      usage("bad value '" + val + "' for " + arg);
    }
  }
  if (!o.check_selftest && o.workload.empty()) usage("--workload is required");
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  if (opt.check_selftest) return check_selftest();

  const std::size_t nproc = available_cpus();
  if (opt.threads > nproc) {
    std::cerr << "pmcf_bench: refusing a thread budget of " << opt.threads << " on " << nproc
              << " available cpus\n";
    return 2;
  }
  std::unique_ptr<Workload> w = make_workload(opt);
  if (w == nullptr) usage("unknown workload '" + opt.workload + "'");
  std::filesystem::create_directories(opt.work_dir);

  std::string defect;
  auto note = [&defect](const std::string& d) {
    if (defect.empty() && !d.empty()) defect = d;
  };
  std::vector<double> setup_s;
  for (int r = 0; r < kSetupReps; ++r) {
    if (r > 0) w->teardown();
    const auto t0 = Clock::now();
    w->setup();
    setup_s.push_back(ms_since(t0) * 1e-3);
    note(w->verify_setup());
  }

  std::size_t attempted = 0;
  std::size_t failed = 0;
  // The result object's metrics by name; run.py attaches the units
  // BENCHMARK.json lists and refuses a run that misses one of them.
  MetricMap values;
  std::map<std::string, Metric> report;  // named figures with units and sample counts
  auto account = [&](const PassResult& p) {
    attempted += p.attempted;
    failed += p.failed();
    note(p.first_defect);
  };

  if (!opt.trace) {
    const PassResult pass = w->run(opt.seconds);
    account(pass);
    const std::size_t n = pass.latency_ms.size();
    const double per_s = static_cast<double>(pass.certified) / pass.wall_s;
    report["request_ms.p50"] = {median(pass.latency_ms), "ms", n};
    report["certified_per_s"] = {per_s, "1/s", pass.certified};
    report["setup_s"] = {median(setup_s), "s", setup_s.size()};
    report["peak_rss_mb"] = {peak_rss_mb(), "MB", 0};
    for (const auto& [name, m] : report) values[name] = m.value;
    // The same figures under the names a reader of this workload expects,
    // the highest percentile with ten samples beyond it, and each request
    // group's median.
    const bool churn = opt.workload == "resolve_churn";
    const std::string prefix = churn                              ? "resolve_ms"
                               : opt.workload == "batch_fanout" ? "batch_ms"
                                                                : "solve_ms";
    report[prefix + ".p50"] = {median(pass.latency_ms), "ms", n};
    for (const double q : {0.99, 0.9}) {
      if (!percentile_reportable(n, q)) continue;
      report[prefix + (q == 0.99 ? ".p99" : ".p90")] = {quantile(pass.latency_ms, q), "ms", n};
      break;
    }
    report[churn ? "resolves_per_s" : "solves_per_s"] = {per_s, "1/s", pass.certified};
    const std::vector<std::string> groups = w->group_names();
    for (std::size_t g = 0; g < groups.size() && groups.size() > 1; ++g) {
      const std::vector<double> v = pass.latencies_of(static_cast<std::uint8_t>(g));
      report[prefix + "." + groups[g] + ".p50"] = {median(v), "ms", v.size()};
    }
  } else {
    Tracer& tracer = Tracer::get();
    tracer.set_enabled(true);
    const PassResult traced = w->run(opt.seconds);
    account(traced);
    const std::size_t pass_spans = tracer.collect().size();
    w->serving_metrics(traced, values);
    pass_layer_metrics(traced, values);
    {
      ProbeInput in = w->probe_input();
      in.pool_threads = opt.threads;
      in.work_dir = opt.work_dir;
      in.seed = opt.seed;
      const SpanScope span("bench.probes");
      const std::string d = run_layer_probes(in, values);
      ++attempted;
      if (!d.empty()) ++failed;
      note(d);
    }
    tracer.set_enabled(false);

    // Tracing overhead: the pass's spans times the cost of one span, over
    // the clients' time in the pass. Comparing a traced pass with an
    // untraced one instead would mostly measure how the host's speed
    // drifted between the two.
    const double span_ns = tracer.span_cost_ns();
    values["trace.overhead_pct"] = 100.0 * static_cast<double>(pass_spans) * span_ns * 1e-9 /
                                   (traced.wall_s * static_cast<double>(w->clients()));
    values["trace.spans"] = static_cast<double>(tracer.collect().size());
    for (const char* layer :
         {"bench", "mcf", "ipm", "linalg", "ds", "expander", "parallel", "baselines"})
      values[std::string("self_ms.") + layer] = 0.0;
    for (const auto& [layer, ms] : tracer.self_ms_by_layer()) values["self_ms." + layer] = ms;
    if (!opt.trace_out.empty() && !tracer.write_jsonl(opt.trace_out))
      std::cerr << "pmcf_bench: could not write " << opt.trace_out << "\n";

    report["trace.span_cost_ns"] = {span_ns, "ns", 0};
    report["trace.pass_spans"] = {static_cast<double>(pass_spans), "count", 0};
    report["trace.traced_requests"] = {static_cast<double>(traced.latency_ms.size()), "count",
                                       0};
  }
  w->teardown();

  report["failed_share"] = {attempted == 0 ? 0.0 : static_cast<double>(failed) / attempted,
                            "ratio", attempted};
  const char* commit = std::getenv("PERFBENCH_COMMIT");
  std::cout << "{\"report\": {\"workload\": " << quoted(opt.workload) << ", \"seed\": " << opt.seed
            << ", \"seconds\": " << num(opt.seconds) << ", \"trace\": " << (opt.trace ? 1 : 0)
            << ", \"scale\": " << quoted(opt.tiny ? "tiny" : "full") << ", \"host\": {\"nproc\": "
            << nproc << ", \"pool_threads\": " << w->pool_threads()
            << ", \"clients\": " << w->clients() << ", \"build_type\": " << quoted(PERFBENCH_BUILD_TYPE)
            << ", \"pmcf_simd\": " << (PERFBENCH_SIMD ? "true" : "false")
            << ", \"commit\": " << quoted(commit != nullptr ? commit : "unknown")
            << "}, \"defect\": " << quoted(defect)
            << ", \"metrics\": " << metric_object(report) << "}}\n";
  const bool correct = defect.empty() && failed == 0;
  if (!defect.empty()) std::cerr << "pmcf_bench: check failed: " << defect << "\n";
  std::cout << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": "
            << std::max<std::size_t>(attempted, 1) << ", \"failed\": " << failed
            << ", \"metrics\": " << value_object(values) << "}" << std::endl;
  return correct ? 0 : 1;
}
