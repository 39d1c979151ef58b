#pragma once
// Per-layer probes of the traced run: each one times a call into one src/
// module's public function on the workload's own instances and records a
// span named after that module and call around the call alone.

#include <map>
#include <string>
#include <vector>

#include "common.hpp"
#include "mcf/min_cost_flow.hpp"

namespace perfbench {

using MetricMap = std::map<std::string, double>;

struct ProbeInput {
  const Problem* probe = nullptr;      ///< representative instance of the workload
  std::vector<const Problem*> batch;   ///< solved serially and as one solve_batch
  pmcf::mcf::SolveOptions opts;        ///< the workload's solve options
  std::size_t pool_threads = 1;        ///< threads of the pool the parallel probes use
  std::string work_dir;                ///< scratch directory for the persistence probe
  std::uint64_t seed = 0;
  bool resolve_paths = true;           ///< false when the workload times the serving path itself
};

/// Runs every probe once and adds its metrics (named "<layer>.<what>") to
/// `out`. Every solver answer a probe obtains is checked; returns "" or the
/// first defect found.
std::string run_layer_probes(const ProbeInput& in, MetricMap& out);

}  // namespace perfbench
