#pragma once
// Structured fork-join primitives with PRAM work/depth instrumentation.
//
// Instrumented execution is deterministic and single-threaded: each iteration
// of a parallel loop is run with its own span counter and the loop contributes
// max(iteration spans) + ceil(log2 n) to the caller's span — exactly the
// binary-forking PRAM accounting the paper uses. When instrumentation is
// disabled and a thread pool is configured, loops and long reductions run
// genuinely in parallel on the work-stealing pool (wall-clock mode):
//
//   parallel_for     blocked ranges with grain-size control
//   parallel_reduce  left folds over blocks whose length depends on n alone,
//                    combined in block order
//   parallel_sort    the PRAM charge of a merge sort, then std::sort on the
//                    calling thread
//
// Every primitive returns one result at every pool size: as in the
// binary-forking PRAM, a reduction's combine tree depends on n alone, and a
// loop's blocks write disjoint outputs. The wall-clock paths never touch the
// tracker, so the instrumented counters do not depend on the pool either.

#include <algorithm>
#include <array>
#include <cstddef>
#include <functional>
#include <iterator>
#include <utility>
#include <vector>

#include "parallel/thread_pool.hpp"
#include "parallel/work_depth.hpp"

namespace pmcf::par {

/// Iterations below which a parallel loop is not worth a fork: with
/// mutex-guarded deques a task costs ~1µs to dispatch, so blocks need at
/// least a few hundred cheap iterations to amortize it.
inline constexpr std::size_t kMinGrain = 128;

/// Shortest reduction block. A reduction over at most this many elements is
/// one left fold on the calling thread; a longer one is cut into at most
/// detail::kMaxBlocks blocks. Every IPM vector of the tests, benches and
/// examples is shorter, so their sums are the plain left fold.
inline constexpr std::size_t kReduceBlock = std::size_t{1} << 14;

/// Pool for wall-clock execution under the current bindings: nullptr while
/// the current tracker instruments (PRAM mode is single-threaded and
/// deterministic), else the active SolverContext's pool, else the process
/// global. The single place the tracker-vs-pool decision is made.
inline ThreadPool* current_wall_pool() {
  if (current_tracker().enabled()) return nullptr;
  const core::ExecBindings& b = core::current_bindings();
  return b.pool_bound ? b.pool : ThreadPool::global();
}

namespace detail {

/// Default grain: at least kMinGrain iterations per block and at most
/// ~kBlocksPerThread blocks per thread.
inline std::size_t auto_grain(std::size_t n, std::size_t threads) {
  const std::size_t per = (n + kBlocksPerThread * threads - 1) / (kBlocksPerThread * threads);
  return std::max(pmcf::par::kMinGrain, per);
}

}  // namespace detail

/// parallel_for with explicit grain (iterations per block) for loops whose
/// bodies are heavy enough to justify small blocks. Grain 0 = automatic.
template <class F>
void parallel_for_grained(std::size_t lo, std::size_t hi, std::size_t grain, F&& f) {
  if (lo >= hi) return;
  const std::size_t n = hi - lo;
  auto& t = current_tracker();
  if (t.enabled()) {
    const std::uint64_t d0 = t.depth();
    std::uint64_t max_d = 0;
    for (std::size_t i = lo; i < hi; ++i) {
      t.set_depth(0);
      f(i);
      max_d = std::max(max_d, t.depth());
    }
    t.set_depth(d0 + max_d + ceil_log2(n));
    t.charge(n, 0);  // spawn/loop overhead, no extra span
    return;
  }
  ThreadPool* pool = current_wall_pool();
  if (pool == nullptr || pool->num_threads() <= 1 || n < 2) {
    for (std::size_t i = lo; i < hi; ++i) f(i);
    return;
  }
  if (grain == 0) grain = detail::auto_grain(n, pool->num_threads());
  pool->run_blocked(lo, hi, grain, [&f](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) f(i);
  });
}

/// parallel_for(lo, hi, f): run f(i) for all i in [lo, hi).
/// Work: sum of per-iteration work (+1/iter loop overhead).
/// Depth: max per-iteration depth + ceil(log2(#iters)).
template <class F>
void parallel_for(std::size_t lo, std::size_t hi, F&& f) {
  parallel_for_grained(lo, hi, 0, std::forward<F>(f));
}

/// Wall-clock-only parallel loop: parallel when uninstrumented and a pool is
/// configured, plain sequential otherwise. Never touches the tracker — the
/// caller keeps its own PRAM accounting. Use inside code whose instrumented
/// charges are hand-written (e.g. the expander unit-flow rounds).
template <class F>
void wall_for(std::size_t lo, std::size_t hi, F&& f) {
  if (lo >= hi) return;
  ThreadPool* pool = current_wall_pool();
  if (pool == nullptr || pool->num_threads() <= 1 || hi - lo < 2) {
    for (std::size_t i = lo; i < hi; ++i) f(i);
    return;
  }
  pool->run_blocked(lo, hi, detail::auto_grain(hi - lo, pool->num_threads()),
                    [&f](std::size_t b, std::size_t e) {
                      for (std::size_t i = b; i < e; ++i) f(i);
                    });
}

namespace detail {

/// The one reduction fold behind parallel_reduce and wall_reduce. [lo, hi)
/// is cut into blocks of max(kReduceBlock, ⌈n / kMaxBlocks⌉) elements, a plan
/// that depends on n alone. Each block is folded left to right and the
/// partials are combined onto `init` in block order, whether the blocks run
/// on `pool` or on the calling thread, so the result is the same at every
/// pool size. A range of one block is the plain left fold from `init`.
template <class T, class Map, class Combine>
T blocked_fold(ThreadPool* pool, std::size_t lo, std::size_t hi, T init, Map& map,
               Combine& combine) {
  const std::size_t n = hi - lo;
  const std::size_t per = std::max(kReduceBlock, (n + kMaxBlocks - 1) / kMaxBlocks);
  if (n <= per) {
    for (std::size_t i = lo; i < hi; ++i) init = combine(std::move(init), map(i));
    return init;
  }
  const ThreadPool::BlockPlan plan{(n + per - 1) / per, per};
  std::array<T, kMaxBlocks> partial{};
  const auto fold_block = [&](std::size_t b, std::size_t e) {
    T local = map(b);
    for (std::size_t i = b + 1; i < e; ++i) local = combine(std::move(local), map(i));
    partial[(b - lo) / per] = std::move(local);
  };
  if (pool != nullptr && pool->num_threads() > 1) {
    pool->run_planned(lo, hi, plan, fold_block);
  } else {
    for (std::size_t b = lo; b < hi; b += per) fold_block(b, std::min(hi, b + per));
  }
  for (std::size_t b = 0; b < plan.blocks; ++b)
    init = combine(std::move(init), std::move(partial[b]));
  return init;
}

}  // namespace detail

/// wall_for's sibling for reductions: tracker-free, the blocked fold on the
/// wall pool (or the calling thread when there is none).
template <class T, class Map, class Combine>
T wall_reduce(std::size_t lo, std::size_t hi, T init, Map&& map, Combine&& combine) {
  if (lo >= hi) return init;
  return detail::blocked_fold(current_wall_pool(), lo, hi, std::move(init), map, combine);
}

/// parallel_reduce over [lo, hi): combine(map(i)...) with identity `init`.
/// `combine` must be associative and T default-constructible (block partials
/// land in a fixed-size slot array). Every mode runs detail::blocked_fold, so
/// the result does not depend on the mode or the pool size. Instrumented, it
/// charges n work and max(iteration depth) + 2⌈lg n⌉ depth.
template <class T, class Map, class Combine>
T parallel_reduce(std::size_t lo, std::size_t hi, T init, Map&& map, Combine&& combine) {
  if (lo >= hi) return init;
  auto& t = current_tracker();
  if (!t.enabled()) return wall_reduce<T>(lo, hi, std::move(init), map, combine);
  const std::uint64_t d0 = t.depth();
  std::uint64_t max_d = 0;
  auto spanned = [&](std::size_t i) -> T {
    t.set_depth(0);
    T v = map(i);
    max_d = std::max(max_d, t.depth());
    return v;
  };
  T acc = detail::blocked_fold<T>(nullptr, lo, hi, std::move(init), spanned, combine);
  t.set_depth(d0 + max_d + 2 * ceil_log2(hi - lo));
  t.charge(hi - lo, 0);
  return acc;
}

/// Parallel-model sort: charges the PRAM cost of a merge sort, work
/// n·⌈lg n⌉ and depth ⌈lg n⌉² + 1, then runs std::sort on the calling thread
/// in every mode, so tied elements land in one order at every pool size.
/// Its production callers are Csr::from_triplets, once per Laplacian
/// pattern, and ds::flat_norm_argmax, once per robust IPM step.
template <class It, class Less = std::less<>>
void parallel_sort(It first, It last, Less less = {}) {
  const auto n = static_cast<std::size_t>(std::distance(first, last));
  const auto lg = ceil_log2(std::max<std::size_t>(n, 1));
  charge(n * std::max<std::uint64_t>(lg, 1), lg * lg + 1);
  std::sort(first, last, less);
}

/// Fill `v` with f(i). Work O(n), depth max f-depth + O(log n).
template <class T, class F>
std::vector<T> tabulate(std::size_t n, F&& f) {
  std::vector<T> v(n);
  parallel_for(0, n, [&](std::size_t i) { v[i] = f(i); });
  return v;
}

}  // namespace pmcf::par
