#include "expander/trimming_engine.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "expander/unit_flow.hpp"
#include "parallel/scheduler.hpp"
#include "parallel/work_depth.hpp"

namespace pmcf::expander {

namespace {
using graph::EdgeId;
using graph::UndirectedGraph;
using graph::Vertex;

/// Total sink budget per vertex across batches, as a fraction of its degree.
constexpr double kSinkBudgetFraction = 0.75;
}  // namespace

TrimmingEngine::TrimmingEngine(UndirectedGraph g, EngineOptions opts)
    : g_(std::move(g)), opts_(opts) {
  const auto n = static_cast<std::size_t>(g_.num_vertices());
  const std::size_t slots = g_.edge_slots();
  cap_unit_ = static_cast<std::int64_t>(std::ceil(2.0 / opts_.phi));
  const std::uint64_t lg = std::max<std::uint64_t>(par::ceil_log2(n), 1);
  height_ = static_cast<std::int32_t>(std::ceil(2.0 * static_cast<double>(lg) / opts_.phi));
  max_outer_ = static_cast<std::int32_t>(2 * lg + 4);

  in_a_.assign(n, 1);
  flow_.assign(slots, 0);
  absorbed_.assign(n, 0);
  deg0_.assign(n, 0);
  sink_budget_.assign(n, 0);
  inj_.assign(n, 0);
  req_.assign(n, 0);
  pending_.assign(n, 0);
  for (std::size_t v = 0; v < n; ++v) deg0_[v] = g_.degree(static_cast<Vertex>(v));
  par::charge(slots + n, par::ceil_log2(std::max<std::size_t>(slots + n, 2)));
}

std::int64_t TrimmingEngine::leftover_excess() const {
  std::int64_t total = 0;
  for (std::size_t v = 0; v < pending_.size(); ++v)
    if (in_a_[v]) total += pending_[v];
  return total;
}

std::vector<Vertex> TrimmingEngine::delete_batch(const std::vector<EdgeId>& batch,
                                                 std::vector<EdgeId>* evicted_edges) {
  ++batches_;
  // Capacities are uniform cap_unit_*batches_ on live edges (Lemma 3.8's
  // 2i/φ growth). Sink budgets are the full fraction of the original degree
  // from the start: absorption consumes the budget across batches, and the
  // boosting rollback (Lemma 3.5) resets it — this replaces the paper's
  // per-batch ∇ = deg/log²n slices, which round to zero at integer scale.
  if (batches_ == 1) {
    for (std::size_t v = 0; v < sink_budget_.size(); ++v)
      sink_budget_[v] = static_cast<std::int64_t>(
          std::floor(kSinkBudgetFraction * static_cast<double>(deg0_[v])));
    par::charge(sink_budget_.size(), 1);
  }

  // Physically delete the batch; each deleted edge adds boundary demand at
  // its kept endpoints (the virtual-graph mid-node construction of Lemma 3.6
  // reduces to exactly this source placement).
  for (const EdgeId e : batch) {
    if (!g_.is_live(e)) continue;
    const auto ep = g_.endpoints(e);
    if (in_a_[static_cast<std::size_t>(ep.u)]) req_[static_cast<std::size_t>(ep.u)] += cap_unit_;
    if (in_a_[static_cast<std::size_t>(ep.v)]) req_[static_cast<std::size_t>(ep.v)] += cap_unit_;
    // Cancel any certificate flow that used this edge: it returns to the
    // sending endpoint as pending excess.
    const std::int64_t f = flow_[static_cast<std::size_t>(e)];
    if (f > 0 && in_a_[static_cast<std::size_t>(ep.u)]) {
      pending_[static_cast<std::size_t>(ep.u)] += f;
    } else if (f < 0 && in_a_[static_cast<std::size_t>(ep.v)]) {
      pending_[static_cast<std::size_t>(ep.v)] += -f;
    }
    // The flow that had *arrived* through this edge stays accounted as
    // injected demand at the receiving endpoint.
    if (f > 0 && in_a_[static_cast<std::size_t>(ep.v)]) {
      inj_[static_cast<std::size_t>(ep.v)] += f;
    } else if (f < 0 && in_a_[static_cast<std::size_t>(ep.u)]) {
      inj_[static_cast<std::size_t>(ep.u)] += -f;
    }
    flow_[static_cast<std::size_t>(e)] = 0;
    g_.delete_edge(e);
  }
  par::charge(batch.size(), par::ceil_log2(std::max<std::size_t>(batch.size(), 2)));

  std::vector<Vertex> newly_removed;
  run_outer_loop(&newly_removed, evicted_edges);
  return newly_removed;
}

void TrimmingEngine::run_outer_loop(std::vector<Vertex>* newly_removed,
                                    std::vector<EdgeId>* evicted_edges) {
  const auto n = static_cast<std::size_t>(g_.num_vertices());
  for (std::int32_t iter = 1; iter <= max_outer_; ++iter) {
    // Hopeless-vertex pre-pass: a vertex whose unmet demand exceeds what it
    // could ever route out (deg * edge capacity) plus absorb locally can
    // never be certified — prune it outright instead of letting its stuck
    // excess poison the level cuts (the degenerate case is a vertex whose
    // every edge was deleted).
    {
      std::vector<Vertex> hopeless;
      const std::int64_t edge_cap = cap_unit_ * batches_;
      for (std::size_t v = 0; v < n; ++v) {
        if (!in_a_[v]) continue;
        const std::int64_t demand =
            std::max<std::int64_t>(req_[v] - inj_[v], 0) + pending_[v];
        const std::int64_t routable =
            g_.degree(static_cast<Vertex>(v)) * edge_cap +
            std::max<std::int64_t>(sink_budget_[v] - absorbed_[v], 0);
        if (demand > routable) hopeless.push_back(static_cast<Vertex>(v));
      }
      if (!hopeless.empty()) {
        for (const Vertex v : hopeless) {
          const auto vi = static_cast<std::size_t>(v);
          in_a_[vi] = 0;
          removed_volume_ += g_.degree(v);
          pending_[vi] = 0;
          newly_removed->push_back(v);
        }
        detach_removed(hopeless, evicted_edges);
      }
    }
    UnitFlowProblem p;
    p.g = &g_;
    p.cap.assign(g_.edge_slots(), cap_unit_ * batches_);
    p.source.assign(n, 0);
    p.sink.assign(n, 0);
    p.height = height_;
    std::int64_t new_source_total = 0;
    for (std::size_t v = 0; v < n; ++v) {
      if (!in_a_[v]) continue;
      const std::int64_t deficit = std::max<std::int64_t>(req_[v] - inj_[v], 0);
      p.source[v] = deficit + pending_[v];
      inj_[v] += deficit;
      pending_[v] = 0;
      new_source_total += p.source[v];
      p.sink[v] = std::max<std::int64_t>(sink_budget_[v] - absorbed_[v], 0);
    }
    par::charge(n, 1);
    if (new_source_total == 0) return;

    UnitFlowResult uf = parallel_unit_flow(p, flow_);
    flow_ = std::move(uf.flow);
    edge_scans_ += uf.edge_scans;
    for (std::size_t v = 0; v < n; ++v) absorbed_[v] += uf.absorbed[v];

    if (uf.total_excess == 0) return;

    // Level cut (the while-loop at Line 11 of Algorithm 3): among
    // S_j = {v : l(v) >= j}, pick the sparsest (cut edges / captured volume).
    std::vector<std::int64_t> cut_at(static_cast<std::size_t>(height_) + 2, 0);
    std::vector<std::int64_t> vol_at(static_cast<std::size_t>(height_) + 2, 0);
    for (std::size_t v = 0; v < n; ++v) {
      if (!in_a_[v] || uf.label[v] == 0) continue;
      vol_at[static_cast<std::size_t>(uf.label[v])] += g_.degree(static_cast<Vertex>(v));
      for (const auto& inc : g_.incident(static_cast<Vertex>(v))) {
        ++edge_scans_;
        const auto lu = uf.label[v];
        const auto lv = uf.label[static_cast<std::size_t>(inc.neighbor)];
        if (lu > lv) {
          // Edge crosses every level cut j in (lv, lu].
          cut_at[static_cast<std::size_t>(lv) + 1] += 1;
          if (static_cast<std::size_t>(lu) + 1 < cut_at.size())
            cut_at[static_cast<std::size_t>(lu) + 1] -= 1;
        }
      }
    }
    // Prefix-sum the difference array; suffix-sum volumes. Then, following
    // the paper's level-cut argument, scan from the *top* level down and take
    // the first (i.e. smallest) S_j whose cut is sparse enough; every S_j
    // contains all leftover excess (excess lives at label h), so the highest
    // admissible level removes the least volume. Fall back to the globally
    // sparsest level if none clears the threshold.
    std::vector<std::int64_t> cut_prefix(static_cast<std::size_t>(height_) + 2, 0);
    for (std::int32_t j = 1; j <= height_; ++j)
      cut_prefix[static_cast<std::size_t>(j)] =
          cut_prefix[static_cast<std::size_t>(j) - 1] + cut_at[static_cast<std::size_t>(j)];
    std::vector<std::int64_t> vol_suffix(static_cast<std::size_t>(height_) + 2, 0);
    for (std::int32_t j = height_; j >= 1; --j)
      vol_suffix[static_cast<std::size_t>(j)] =
          vol_suffix[static_cast<std::size_t>(j) + 1] + vol_at[static_cast<std::size_t>(j)];
    const double threshold =
        std::min(0.5, 5.0 * std::log(static_cast<double>(g_.num_edges() + 2)) /
                          static_cast<double>(height_));
    std::int32_t best_j = -1, fallback_j = -1;
    double fallback_ratio = 1e300;
    for (std::int32_t j = height_; j >= 1; --j) {
      const std::int64_t vol = vol_suffix[static_cast<std::size_t>(j)];
      if (vol == 0) continue;
      const double ratio = static_cast<double>(cut_prefix[static_cast<std::size_t>(j)]) /
                           static_cast<double>(vol);
      if (ratio <= std::max(threshold, opts_.phi)) {
        best_j = j;
        break;
      }
      if (ratio < fallback_ratio) {
        fallback_ratio = ratio;
        fallback_j = j;
      }
    }
    if (best_j < 0) best_j = fallback_j;
    par::charge(static_cast<std::uint64_t>(height_) + n,
                par::ceil_log2(static_cast<std::uint64_t>(height_) + 2));
    if (best_j < 0) return;  // nothing labeled; cannot make progress

    remove_level_set(best_j, uf.label, newly_removed, evicted_edges);
    // Carry leftover excess of kept vertices into the next iteration.
    for (std::size_t v = 0; v < n; ++v)
      if (in_a_[v] && uf.excess[v] > 0) pending_[v] += uf.excess[v];
    par::charge(n, 1);
  }
}

void TrimmingEngine::remove_level_set(std::int32_t best_j,
                                      const std::vector<std::int32_t>& label,
                                      std::vector<Vertex>* newly_removed,
                                      std::vector<EdgeId>* evicted_edges) {
  const auto n = static_cast<std::size_t>(g_.num_vertices());
  std::vector<Vertex> removed_now;
  for (std::size_t v = 0; v < n; ++v) {
    if (!in_a_[v] || label[v] < best_j) continue;
    in_a_[v] = 0;
    removed_now.push_back(static_cast<Vertex>(v));
    removed_volume_ += g_.degree(static_cast<Vertex>(v));
    pending_[v] = 0;
  }
  detach_removed(removed_now, evicted_edges);
  newly_removed->insert(newly_removed->end(), removed_now.begin(), removed_now.end());
  par::charge(removed_now.size() + 1, par::ceil_log2(removed_now.size() + 2));
}

void TrimmingEngine::detach_removed(const std::vector<Vertex>& removed_now,
                                    std::vector<EdgeId>* evicted_edges) {
  for (const Vertex w : removed_now) {
    // Detach every edge at w; kept endpoints gain boundary demand and
    // reclaim/absorb the certificate flow that crossed the edge.
    std::vector<EdgeId> incident_edges;
    for (const auto& inc : g_.incident(w)) incident_edges.push_back(inc.edge);
    for (const EdgeId e : incident_edges) {
      ++edge_scans_;
      const auto ei = static_cast<std::size_t>(e);
      const auto ep = g_.endpoints(e);
      const Vertex u = (ep.u == w) ? ep.v : ep.u;
      const auto ui = static_cast<std::size_t>(u);
      if (in_a_[ui]) {
        req_[ui] += cap_unit_;
        const std::int64_t f = flow_[ei];
        const std::int64_t toward_w = (ep.v == w) ? f : -f;
        if (toward_w > 0) {
          pending_[ui] += toward_w;
        } else if (toward_w < 0) {
          inj_[ui] += -toward_w;
        }
      }
      flow_[ei] = 0;
      g_.delete_edge(e);
      if (evicted_edges != nullptr) evicted_edges->push_back(e);
    }
  }
  par::charge(removed_now.size() + 1, par::ceil_log2(removed_now.size() + 2));
}

}  // namespace pmcf::expander
