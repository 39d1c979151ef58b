#pragma once
// Sustained-load soak harness for pmcf::Engine (EXPERIMENTS.md "Soak
// methodology").
//
// An open-loop load driver: arrivals follow a seeded, precomputed schedule
// (deterministic Poisson or Markov-modulated bursty process), independent of
// how fast the engine drains — the traffic shape a serving deployment faces,
// where clients do not slow down because the server is busy. A fixed pool of
// client threads replays the schedule against Engine::solve with mixed
// instance sizes, priorities, and deadline distributions, then the
// report combines client-side latency records with the engine's own metrics
// snapshot.
//
// Caveat (bounded open loop): each client thread blocks while its request is
// queued or solving, so at most `workers` requests are in the system at
// once. Choose workers > slots + queue to let the backpressure queue
// actually fill and shed; under extreme overload the replay falls behind the
// schedule and the report's achieved_rps shows by how much.

#include <cstddef>
#include <cstdint>
#include <string>

#include "mcf/metrics.hpp"

namespace pmcf::soak {

enum class ArrivalProcess {
  kPoisson,  ///< exponential inter-arrivals at a constant rate
  kBurst,    ///< two-state Markov-modulated Poisson (calm / burst)
};

struct SoakConfig {
  std::size_t requests = 100000;
  ArrivalProcess arrivals = ArrivalProcess::kPoisson;
  std::uint64_t seed = 0x50a4b011ULL;

  /// Offered load as a multiple of the measured serving capacity. Capacity
  /// is calibrated closed-loop *through* a scratch engine, so it includes
  /// slot-handoff and wakeup overhead, not just raw solve time. 2.0 =
  /// sustained 2x overload: half of everything offered must shed or miss
  /// deadlines.
  double target_util = 2.0;

  // Engine shape. Defaults are the acceptance-gate shape, calibrated for a
  // single-core CI host: one slot so priority inversion is starkest, and a
  // queue deep enough that priority-0 can evict its way in during spikes.
  std::size_t slots = 1;
  std::size_t queue = 12;
  double chaos_cancel_rate = 0.0;  ///< EngineConfig::chaos_cancel_rate

  // Client shape. Must satisfy workers > slots + queue (see caveat above).
  std::size_t workers = 16;
  bool paced = true;  ///< false: ignore the schedule, submit at max rate

  // Request mix (shares need not be normalized; they are).
  double priority_share[kNumPriorities] = {0.25, 0.25, 0.25, 0.25};
  double deadline_share = 0.2;  ///< fraction of requests carrying a deadline
  /// Deadline ~ scale * effective service time. Sized so deadlines clear the
  /// queue-wait p99 under 2x overload: admitted work usually finishes in
  /// time, while the predictive shed still fires on hopeless arrivals.
  double deadline_scale = 64.0;
  /// >0: a canceler thread fires Engine::cancel at live handles roughly
  /// `cancel_rate` times per mean service time.
  double cancel_rate = 0.0;

  // Burst process shape (kBurst only). The calm/burst rates are solved so
  // the *time-averaged* rate still matches target_util.
  double burst_factor = 8.0;    ///< burst-state rate vs calm-state rate
  double burst_on_share = 0.2;  ///< fraction of time spent bursting
  double burst_cycle_services = 400.0;  ///< mean calm+burst cycle, in services

  // Instance mix: small min-cost-flow instances (combinatorial SSP method)
  // in a spread of sizes, pre-generated and solved round-robin by schedule.
  // Sized so the solve (tens of µs) dominates per-request serving overhead;
  // much smaller and the benchmark measures the admission mutex instead.
  std::size_t num_instances = 16;
  std::size_t min_nodes = 16;
  std::size_t max_nodes = 28;
};

struct SoakReport {
  std::size_t requests = 0;
  double duration_ms = 0.0;      ///< first submission → last completion
  double mean_service_us = 0.0;  ///< calibrated direct (engine-less) solve time
  double effective_service_us = 0.0;  ///< per-request time through the engine
  double capacity_rps = 0.0;     ///< closed-loop serving capacity
  double offered_rps = 0.0;      ///< scheduled arrival rate
  double achieved_rps = 0.0;     ///< completed (any status) per second
  // End-to-end client-side latency of kOk requests, exact percentiles.
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double p999_ms = 0.0;
  // Engine-side queue-wait percentiles (admitted requests).
  double queue_wait_p50_ms = 0.0;
  double queue_wait_p99_ms = 0.0;
  double shed_rate = 0.0;               ///< kLoadShed / submitted
  double goodput[kNumPriorities] = {};  ///< kOk / submitted, per priority
  std::uint64_t submitted_by_priority[kNumPriorities] = {};
  bool drained = true;  ///< queue and slots empty after the run
  MetricsSnapshot metrics;

  /// The report as a JSON object (one line per field, no trailing newline),
  /// for perf-trajectory embedding and the soak CI job.
  [[nodiscard]] std::string to_json(int indent = 0) const;
};

/// Run one soak: generate instances, calibrate service time, precompute the
/// arrival schedule, replay it with `workers` client threads, aggregate.
/// Deterministic in cfg.seed up to scheduling noise (the schedule, request
/// mix, and instance set are exactly reproducible; latencies are not).
SoakReport run_soak(const SoakConfig& cfg);

}  // namespace pmcf::soak
