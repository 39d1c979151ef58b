#pragma once
// Trimming (Algorithm 3, Lemma 3.7, adapted from [CMGS25]) as a stateful
// engine — the incremental core of expander pruning (Lemma 3.6). One engine
// instance owns a working copy of a cluster graph H and processes an online
// sequence of edge-deletion batches. Each batch re-trims the kept set A so
// that H[A] stays an expander, by repeatedly:
//   1. injecting source demand ceil(2/φ) per boundary edge (deleted edges
//      and edges to pruned vertices),
//   2. routing it with ParallelUnitFlow into per-vertex sinks proportional
//      to degree,
//   3. if excess survives, cutting the sparsest level set S_j = {l(v) >= j}
//      out of A and re-injecting demand along the new boundary.
// The first batch is the paper's one-shot Trimming. Later batches reuse the
// accumulated certificate flow f_0 + ... + f_i exactly as in Section 3.1
// (edge capacities grow by 2/φ per batch, matching Lemma 3.8's 2i/φ bound;
// per-batch sink budgets accumulate toward deg(v)). The accumulated flow is
// the expansion certificate (Lemma 3.9); the removed volume is Õ(boundary/φ)
// (Lemma 3.7 point 2).
//
// The engine supports only a bounded number of batches before its
// guarantees decay (the paper's "batch number"); ExpanderPruning wraps it
// with batch-number boosting (Lemma 3.5).

#include <cstdint>
#include <vector>

#include "graph/ungraph.hpp"

namespace pmcf::expander {

/// The engine's fixed shape, with lg = max(⌈log2 n⌉, 1): unit-flow height
/// ⌈2·lg/φ⌉, at most 2·lg + 4 outer trimming iterations per batch, sink
/// budgets of 0.75·deg across batches, and ParallelUnitFlow's default round
/// count.
struct EngineOptions {
  double phi = 0.1;
  std::int32_t batch_limit = 8;  ///< batches before guarantees decay
};

class TrimmingEngine {
 public:
  /// Takes a working copy of the cluster graph. All vertices start in A.
  TrimmingEngine(graph::UndirectedGraph g, EngineOptions opts);

  /// Delete a batch of live edge ids, then re-trim. Returns the newly pruned
  /// vertices (their incident edges are removed from the working graph; the
  /// ids of those collateral edges are appended to `evicted_edges`).
  std::vector<graph::Vertex> delete_batch(const std::vector<graph::EdgeId>& batch,
                                          std::vector<graph::EdgeId>* evicted_edges);

  [[nodiscard]] const graph::UndirectedGraph& graph() const { return g_; }
  [[nodiscard]] const std::vector<char>& in_a() const { return in_a_; }
  [[nodiscard]] bool vertex_kept(graph::Vertex v) const {
    return in_a_[static_cast<std::size_t>(v)] != 0;
  }
  [[nodiscard]] std::int64_t removed_volume() const { return removed_volume_; }
  [[nodiscard]] std::int32_t batches_processed() const { return batches_; }
  [[nodiscard]] std::uint64_t edge_scans() const { return edge_scans_; }
  [[nodiscard]] std::int64_t leftover_excess() const;
  [[nodiscard]] const std::vector<std::int64_t>& certificate_flow() const { return flow_; }
  [[nodiscard]] const std::vector<std::int64_t>& absorbed() const { return absorbed_; }

 private:
  void run_outer_loop(std::vector<graph::Vertex>* newly_removed,
                      std::vector<graph::EdgeId>* evicted_edges);
  void remove_level_set(std::int32_t best_j, const std::vector<std::int32_t>& label,
                        std::vector<graph::Vertex>* newly_removed,
                        std::vector<graph::EdgeId>* evicted_edges);
  void detach_removed(const std::vector<graph::Vertex>& removed_now,
                      std::vector<graph::EdgeId>* evicted_edges);

  graph::UndirectedGraph g_;
  EngineOptions opts_;
  std::int64_t cap_unit_ = 0;      // ceil(2/phi)
  std::int32_t height_ = 0;
  std::int32_t max_outer_ = 0;

  std::vector<char> in_a_;
  std::vector<std::int64_t> flow_;       // accumulated certificate flow
  std::vector<std::int64_t> absorbed_;   // accumulated absorbed demand
  std::vector<std::int64_t> sink_budget_;  // grows per batch, <= frac*deg0
  std::vector<std::int64_t> deg0_;       // original degrees
  std::vector<std::int64_t> inj_;        // injected source so far
  std::vector<std::int64_t> req_;        // required source so far
  std::vector<std::int64_t> pending_;    // returned / leftover excess
  std::int64_t removed_volume_ = 0;
  std::int32_t batches_ = 0;
  std::uint64_t edge_scans_ = 0;
};

}  // namespace pmcf::expander
