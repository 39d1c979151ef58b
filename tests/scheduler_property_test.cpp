// Property tests for the wall-clock scheduler paths: every primitive must
// produce the same result sequentially (no pool), on a multi-thread pool, and
// in instrumented mode — and the instrumented PRAM counters must not depend
// on the pool configuration at all (wall paths never touch the tracker).

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "core/solver_context.hpp"
#include "parallel/rng.hpp"
#include "parallel/scheduler.hpp"
#include "parallel/thread_pool.hpp"
#include "parallel/work_depth.hpp"

namespace pmcf::par {
namespace {

/// Restores "no global pool, tracker on" on exit so test order cannot leak.
class SchedulerPropertyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Tracker::instance().reset();
    ThreadPool::configure(1);
  }
  void TearDown() override {
    ThreadPool::configure(1);
    Tracker::instance().set_enabled(true);
  }

  /// Runs `body` under each execution mode and returns the three results.
  template <class Body>
  auto run_all_modes(const Body& body) {
    Tracker::instance().set_enabled(true);
    auto instrumented = body();
    Tracker::instance().set_enabled(false);
    ThreadPool::configure(1);
    auto serial = body();
    ThreadPool::configure(4);
    auto pooled = body();
    ThreadPool::configure(1);
    Tracker::instance().set_enabled(true);
    return std::make_tuple(std::move(instrumented), std::move(serial), std::move(pooled));
  }
};

// Data sizes comfortably above kMinGrain so the pooled runs actually fork.
constexpr std::size_t kN = 10000;

TEST_F(SchedulerPropertyTest, ReduceIdenticalAcrossModes) {
  // Floating-point sums, compared bit for bit: the reduction's block plan
  // depends on the length alone, so every mode folds in one order. Below the
  // block length that order is the plain left fold; above it, the left folds
  // of kReduceBlock-element blocks, added up in block order.
  static_assert(kN < kReduceBlock);
  for (const std::size_t n : {kN, 5 * kReduceBlock + 321}) {
    SCOPED_TRACE(n);
    std::vector<double> v(n);
    Rng rng(101);
    for (auto& x : v) x = rng.next_double() - 0.5;
    auto [a, b, c] = run_all_modes([&] {
      return parallel_reduce<double>(
          0, v.size(), 0.0, [&](std::size_t i) { return v[i]; },
          [](double x, double y) { return x + y; });
    });
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a), std::bit_cast<std::uint64_t>(b));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a), std::bit_cast<std::uint64_t>(c));
    double want = 0.0;
    for (std::size_t lo = 0; lo < n; lo += kReduceBlock) {
      const std::size_t hi = std::min(n, lo + kReduceBlock);
      want += std::accumulate(v.begin() + static_cast<std::ptrdiff_t>(lo) + 1,
                              v.begin() + static_cast<std::ptrdiff_t>(hi), v[lo]);
    }
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a), std::bit_cast<std::uint64_t>(want));
  }
}

TEST_F(SchedulerPropertyTest, WallReduceIdenticalAcrossModes) {
  std::vector<std::int64_t> v(kN);
  Rng rng(103);
  for (auto& x : v) x = static_cast<std::int64_t>(rng.next_below(7));
  auto [a, b, c] = run_all_modes([&] {
    return wall_reduce<std::int64_t>(
        0, v.size(), 0, [&](std::size_t i) { return v[i]; },
        [](std::int64_t x, std::int64_t y) { return x + y; });
  });
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, c);
}

TEST_F(SchedulerPropertyTest, SortIdenticalAcrossModes) {
  // (key, index) pairs ordered by key alone: many ties, and every mode must
  // leave them in one order.
  using Item = std::pair<std::uint64_t, std::size_t>;
  const auto by_key = [](const Item& x, const Item& y) { return x.first < y.first; };
  std::vector<Item> v(kN);
  Rng rng(109);
  for (std::size_t i = 0; i < kN; ++i) v[i] = {rng.next_below(500), i};
  auto [a, b, c] = run_all_modes([&] {
    std::vector<Item> copy = v;
    parallel_sort(copy.begin(), copy.end(), by_key);
    return copy;
  });
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end(), by_key));
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, c);
}

TEST_F(SchedulerPropertyTest, ParallelForIdenticalAcrossModes) {
  auto [a, b, c] = run_all_modes([&] {
    std::vector<std::uint64_t> out(kN);
    parallel_for(0, out.size(), [&](std::size_t i) { out[i] = i * i + 1; });
    return out;
  });
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, c);
}

TEST_F(SchedulerPropertyTest, PramCountersIndependentOfPoolConfig) {
  // Instrumented runs are sequential by definition; configuring a pool must
  // not change a single counter (the acceptance bar for this PR).
  auto workload = [] {
    Tracker::instance().reset();
    std::vector<std::int64_t> v(4096);
    parallel_for(0, v.size(), [&](std::size_t i) { v[i] = static_cast<std::int64_t>(i % 17); });
    (void)parallel_reduce<std::int64_t>(
        0, v.size(), 0, [&](std::size_t i) { return v[i]; },
        [](std::int64_t x, std::int64_t y) { return x + y; });
    parallel_sort(v.begin(), v.end());
    return snapshot();
  };
  Tracker::instance().set_enabled(true);
  ThreadPool::configure(1);
  const Cost without_pool = workload();
  ThreadPool::configure(4);
  const Cost with_pool = workload();
  ThreadPool::configure(1);
  EXPECT_EQ(without_pool, with_pool);
  EXPECT_GT(without_pool.work, 0u);
  EXPECT_GT(without_pool.depth, 0u);
}

TEST_F(SchedulerPropertyTest, PerContextTrackersIsolatedUnderConcurrentSolves) {
  // Per-solve determinism: a workload charged against a private context's
  // tracker must report exactly the same work/depth whether it runs alone or
  // while three sibling workloads (of different sizes!) run concurrently on
  // other threads. Any charge leaking to the wrong tracker breaks equality.
  constexpr std::size_t kWorkers = 4;
  auto workload = [](std::size_t salt) {
    core::ContextOptions copts;
    copts.seed = 500 + salt;
    copts.use_global_pool = false;
    core::SolverContext ctx(copts);
    const core::ContextScope scope(ctx);
    const std::size_t n = 2048 + 512 * salt;  // distinct sizes per worker
    std::vector<std::int64_t> v(n);
    parallel_for(0, v.size(), [&](std::size_t i) { v[i] = static_cast<std::int64_t>(i % 13); });
    (void)parallel_reduce<std::int64_t>(
        0, v.size(), 0, [&](std::size_t i) { return v[i]; },
        [](std::int64_t x, std::int64_t y) { return x + y; });
    parallel_sort(v.begin(), v.end());
    return ctx.tracker().snapshot();
  };

  Tracker::instance().reset();
  std::vector<Cost> isolated(kWorkers);
  for (std::size_t w = 0; w < kWorkers; ++w) isolated[w] = workload(w);

  std::vector<Cost> concurrent(kWorkers);
  std::vector<std::thread> threads;
  threads.reserve(kWorkers);
  for (std::size_t w = 0; w < kWorkers; ++w)
    threads.emplace_back([&, w] { concurrent[w] = workload(w); });
  for (auto& t : threads) t.join();

  for (std::size_t w = 0; w < kWorkers; ++w) {
    SCOPED_TRACE(w);
    EXPECT_EQ(isolated[w], concurrent[w]);
    EXPECT_GT(isolated[w].work, 0u);
    EXPECT_GT(isolated[w].depth, 0u);
  }
  // And none of it may have touched the default context's tracker.
  const Cost global_after = Tracker::instance().snapshot();
  EXPECT_EQ(global_after.work, 0u);
}

TEST_F(SchedulerPropertyTest, ExceptionPropagatesFromPooledParallelFor) {
  Tracker::instance().set_enabled(false);
  ThreadPool::configure(4);
  EXPECT_THROW(parallel_for(0, kN,
                            [&](std::size_t i) {
                              if (i == kN / 2) throw std::runtime_error("boom");
                            }),
               std::runtime_error);
  // Nested: inner loop throws on a worker, must surface at the outer caller.
  EXPECT_THROW(parallel_for_grained(0, 8, 1,
                                    [&](std::size_t outer) {
                                      parallel_for(0, 2048, [&](std::size_t inner) {
                                        if (outer == 5 && inner == 1999)
                                          throw std::logic_error("nested boom");
                                      });
                                    }),
               std::logic_error);
  // Pool still healthy.
  std::vector<std::uint64_t> out(kN);
  parallel_for(0, out.size(), [&](std::size_t i) { out[i] = i; });
  for (std::size_t i = 0; i < out.size(); ++i) ASSERT_EQ(out[i], i);
}

}  // namespace
}  // namespace pmcf::par
