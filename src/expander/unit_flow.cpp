#include "expander/unit_flow.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

#include "parallel/scheduler.hpp"
#include "parallel/work_depth.hpp"

namespace pmcf::expander {

namespace {

using graph::UndirectedGraph;
using graph::Vertex;

/// Mutable state of one parallel_unit_flow invocation.
struct State {
  const UnitFlowProblem* p;
  std::vector<std::int64_t> flow;       // signed, + along endpoints().u -> v
  std::vector<std::int64_t> ex;         // excess per vertex
  std::vector<std::int64_t> remaining;  // remaining sink slice this round
  std::vector<std::int64_t> absorbed;   // total absorbed this call (= consumed sink)
  std::vector<std::int32_t> label;
  // Per-level FIFO worklists of excess vertices for levels 0..h, linked
  // through `next` (head/tail -1 = empty). `queued` keeps a vertex in at most
  // one list, so one `next` slot per vertex suffices. Bit j of `nonempty`
  // is set iff level j's list is non-empty, so a sweep skips empty levels.
  std::vector<Vertex> head;
  std::vector<Vertex> tail;
  std::vector<Vertex> next;
  std::vector<std::uint64_t> nonempty;
  std::vector<char> queued;
  // Sweep scratch, reserved to n once per call: a list never holds more.
  std::vector<Vertex> todo;
  std::vector<Vertex> candidates;
  std::uint64_t edge_scans = 0;

  [[nodiscard]] std::int64_t residual(graph::EdgeId e, Vertex from) const {
    const auto ep = p->g->endpoints(e);
    const std::int64_t f = flow[static_cast<std::size_t>(e)];
    return ep.u == from ? p->cap[static_cast<std::size_t>(e)] - f
                        : p->cap[static_cast<std::size_t>(e)] + f;
  }

  void push_flow(graph::EdgeId e, Vertex from, std::int64_t amount) {
    const auto ep = p->g->endpoints(e);
    flow[static_cast<std::size_t>(e)] += (ep.u == from) ? amount : -amount;
  }

  /// Absorb as much of v's excess as its remaining sink slice allows.
  void settle(Vertex v) {
    const auto vi = static_cast<std::size_t>(v);
    const std::int64_t take = std::min(ex[vi], remaining[vi]);
    if (take > 0) {
      ex[vi] -= take;
      remaining[vi] -= take;
      absorbed[vi] += take;
    }
  }

  void activate(Vertex v) {
    const auto vi = static_cast<std::size_t>(v);
    if (ex[vi] > 0 && label[vi] <= p->height && !queued[vi]) {
      const auto j = static_cast<std::size_t>(label[vi]);
      next[vi] = -1;
      if (tail[j] < 0) {
        head[j] = v;
        nonempty[j >> 6] |= std::uint64_t{1} << (j & 63);
      } else {
        next[static_cast<std::size_t>(tail[j])] = v;
      }
      tail[j] = v;
      queued[vi] = 1;
    }
  }

  /// Move level j's list, in FIFO order, to the back of `out`; its vertices
  /// stop counting as queued.
  void drain_level(std::int32_t j, std::vector<Vertex>& out) {
    const auto ji = static_cast<std::size_t>(j);
    for (Vertex v = head[ji]; v >= 0; v = next[static_cast<std::size_t>(v)]) {
      queued[static_cast<std::size_t>(v)] = 0;
      out.push_back(v);
    }
    head[ji] = tail[ji] = -1;
    nonempty[ji >> 6] &= ~(std::uint64_t{1} << (ji & 63));
  }

  /// Highest non-empty level <= j (j >= 0), or -1.
  [[nodiscard]] std::int32_t highest_level_at_most(std::int32_t j) const {
    auto w = static_cast<std::size_t>(j) >> 6;
    std::uint64_t bits = nonempty[w] & (~std::uint64_t{0} >> (63 - (j & 63)));
    while (bits == 0) {
      if (w == 0) return -1;
      bits = nonempty[--w];
    }
    return static_cast<std::int32_t>(64 * w + 63 - static_cast<std::size_t>(std::countl_zero(bits)));
  }

  /// Lowest non-empty level >= j, or -1.
  [[nodiscard]] std::int32_t lowest_level_at_least(std::int32_t j) const {
    auto w = static_cast<std::size_t>(j) >> 6;
    if (w >= nonempty.size()) return -1;
    std::uint64_t bits = nonempty[w] & (~std::uint64_t{0} << (j & 63));
    while (bits == 0) {
      if (++w == nonempty.size()) return -1;
      bits = nonempty[w];
    }
    return static_cast<std::int32_t>(64 * w + static_cast<std::size_t>(std::countr_zero(bits)));
  }

  /// Empty every list into `candidates`, levels ascending.
  void drain_all() {
    candidates.clear();
    for (std::int32_t j = lowest_level_at_least(0); j >= 0; j = lowest_level_at_least(j + 1))
      drain_level(j, candidates);
  }

  /// Sum of excess over vertices not parked at level h+1. Parallel in
  /// wall-clock mode; the caller owns the PRAM charge.
  [[nodiscard]] std::int64_t active_excess() const {
    return par::wall_reduce<std::int64_t>(
        0, ex.size(), 0,
        [&](std::size_t v) { return label[v] <= p->height ? ex[v] : 0; },
        [](std::int64_t x, std::int64_t y) { return x + y; });
  }
};

/// One PushThenRelabel sweep (Algorithm 2). Returns true if any push,
/// absorption or relabel happened (progress detection).
bool push_then_relabel(State& st) {
  const auto& g = *st.p->g;
  const std::int32_t h = st.p->height;
  bool progress = false;

  // Push phase: non-empty levels h down to 1; receiving vertices at level
  // j-1 are processed later in the same sweep (the cascading parallel push).
  for (std::int32_t j = st.highest_level_at_most(h); j >= 1; j = st.highest_level_at_most(j - 1)) {
    st.todo.clear();
    st.drain_level(j, st.todo);
    for (const Vertex v : st.todo) {
      const auto vi = static_cast<std::size_t>(v);
      if (st.label[vi] != j || st.queued[vi]) {
        st.activate(v);  // stale entry: requeue at its real level
        continue;
      }
      st.settle(v);
      if (st.ex[vi] == 0) continue;
      for (const auto& inc : g.incident(v)) {
        ++st.edge_scans;
        if (st.ex[vi] == 0) break;
        const auto ui = static_cast<std::size_t>(inc.neighbor);
        if (st.label[ui] != j - 1) continue;
        const std::int64_t r = st.residual(inc.edge, v);
        if (r <= 0) continue;
        const std::int64_t amount = std::min(st.ex[vi], r);
        st.push_flow(inc.edge, v, amount);
        st.ex[vi] -= amount;
        st.ex[ui] += amount;
        st.settle(inc.neighbor);
        st.activate(inc.neighbor);
        progress = true;
      }
      st.activate(v);  // requeue if still carrying excess
    }
  }

  // Relabel phase: raise excess vertices whose sink slice is exhausted and
  // whose down-edges are all saturated (vacuous at level 0). Consume all
  // worklists and requeue survivors at their (possibly new) levels.
  st.drain_all();
  for (const Vertex v : st.candidates) {
    const auto vi = static_cast<std::size_t>(v);
    if (st.ex[vi] == 0 || st.label[vi] > h || st.queued[vi]) {
      st.activate(v);
      continue;
    }
    if (st.remaining[vi] > 0) {
      st.settle(v);
      progress = true;
      st.activate(v);
      continue;
    }
    bool blocked = true;
    for (const auto& inc : g.incident(v)) {
      ++st.edge_scans;
      const auto ui = static_cast<std::size_t>(inc.neighbor);
      if (st.label[ui] == st.label[vi] - 1 && st.residual(inc.edge, v) > 0) {
        blocked = false;
        break;
      }
    }
    if (blocked) {
      const std::int32_t old = st.label[vi];
      st.label[vi] = std::min(old + 1, h + 1);
      if (st.label[vi] != old) progress = true;
    }
    st.activate(v);
  }
  par::charge(1, 1);
  return progress;
}

}  // namespace

UnitFlowResult parallel_unit_flow(const UnitFlowProblem& p,
                                  std::vector<std::int64_t> initial_flow) {
  const auto& g = *p.g;
  const auto n = static_cast<std::size_t>(g.num_vertices());
  const std::size_t slots = g.edge_slots();
  assert(p.cap.size() >= slots);
  assert(p.source.size() == n && p.sink.size() == n);

  State st;
  st.p = &p;
  st.flow = initial_flow.empty() ? std::vector<std::int64_t>(slots, 0) : std::move(initial_flow);
  st.flow.resize(slots, 0);
  st.ex = p.source;
  st.remaining.assign(n, 0);
  st.absorbed.assign(n, 0);
  st.label.assign(n, 0);
  const auto levels = static_cast<std::size_t>(p.height) + 1;
  st.head.assign(levels, -1);
  st.tail.assign(levels, -1);
  st.next.assign(n, -1);
  st.nonempty.assign((levels + 63) / 64, 0);
  st.queued.assign(n, 0);
  st.todo.reserve(n);
  st.candidates.reserve(n);

  const std::int32_t rounds =
      p.rounds > 0 ? p.rounds
                   : static_cast<std::int32_t>(8 * std::max<std::uint64_t>(par::ceil_log2(n), 1));
  std::int32_t pr_calls = 0;

  for (std::int32_t round = 1; round <= rounds; ++round) {
    // Grant the full sink budget up front (remaining = ∇ - absorbed). The
    // paper slices ∇ into 1/(8 log n) pieces per round purely for its
    // potential-function argument; with integer flows the slices starve to
    // zero and freeze redistribution. Upfront granting makes Lemma 3.10 (ii)
    // *stronger*: a vertex only relabels once its sink is fully saturated.
    par::wall_for(0, n, [&](std::size_t v) {
      st.remaining[v] = std::max<std::int64_t>(p.sink[v] - st.absorbed[v], 0);
    });
    par::charge(n, 1);
    // Eager absorption into the fresh slices (vertices parked at h+1 absorb
    // too — in the paper this is implicit in recomputing excess against the
    // fresh ∇_i), then queue remaining active excess.
    for (std::size_t v = 0; v < n; ++v) {
      if (st.ex[v] > 0) {
        st.settle(static_cast<Vertex>(v));
        st.activate(static_cast<Vertex>(v));
      }
    }
    const std::int64_t x_i = st.active_excess();
    par::charge(n, par::ceil_log2(std::max<std::size_t>(n, 2)));
    if (x_i == 0) {
      st.drain_all();
      continue;  // later rounds still grant sink slices to parked excess
    }
    // Each PushThenRelabel raises every still-blocked active vertex one
    // level, so at most (h+1) * (levels) sweeps move all excess to h+1;
    // progress detection breaks out earlier in practice.
    const std::int32_t safety = (p.height + 2) * 8 + 16;
    std::int32_t sweeps = 0;
    while (st.active_excess() >= (x_i + 1) / 2 && sweeps < safety) {
      ++sweeps;
      ++pr_calls;
      par::charge(1, p.height + 1);  // one sweep = h sequential level steps
      if (!push_then_relabel(st)) break;
    }
    // Clear worklists between rounds (entries re-derived from ex next round).
    st.drain_all();
  }

  // Drain: guarantee Lemma 3.10 (iii) — any leftover excess must sit at
  // level h(+1). Remaining blocked vertices are relabeled upward; no new sink
  // slices are granted.
  {
    for (std::size_t v = 0; v < n; ++v)
      if (st.ex[v] > 0) st.activate(static_cast<Vertex>(v));
    const std::int32_t safety = (p.height + 2) * static_cast<std::int32_t>(n) + 16;
    std::int32_t sweeps = 0;
    auto excess_below_h = [&] {
      return par::wall_reduce<int>(
                 0, n, 0,
                 [&](std::size_t v) {
                   return st.ex[v] > 0 && st.label[v] < p.height ? 1 : 0;
                 },
                 [](int x, int y) { return x | y; }) != 0;
    };
    while (excess_below_h() && sweeps < safety) {
      ++sweeps;
      ++pr_calls;
      par::charge(1, p.height + 1);
      if (!push_then_relabel(st)) break;
    }
  }

  // Line 8: fold parked labels h+1 back to h.
  par::wall_for(0, n, [&](std::size_t v) {
    if (st.label[v] > p.height) st.label[v] = p.height;
  });
  par::charge(n, 1);

  UnitFlowResult res;
  res.flow = std::move(st.flow);
  res.absorbed = std::move(st.absorbed);
  res.excess = std::move(st.ex);
  res.label = std::move(st.label);
  for (std::size_t v = 0; v < n; ++v) {
    res.total_excess += res.excess[v];
    res.total_absorbed += res.absorbed[v];
  }
  res.edge_scans = st.edge_scans;
  res.push_relabel_calls = pr_calls;
  par::charge(st.edge_scans, 1);
  return res;
}

}  // namespace pmcf::expander
