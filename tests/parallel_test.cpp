// Tests for the PRAM runtime: work/depth accounting, primitives, pool, RNG.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <stdexcept>

#include "parallel/rng.hpp"
#include "parallel/scheduler.hpp"
#include "parallel/thread_pool.hpp"
#include "parallel/work_depth.hpp"

namespace pmcf::par {
namespace {

class TrackerFixture : public ::testing::Test {
 protected:
  void SetUp() override { Tracker::instance().reset(); }
};

TEST_F(TrackerFixture, ChargeAccumulatesWorkAndDepth) {
  charge(10, 2);
  charge(5, 3);
  EXPECT_EQ(snapshot().work, 15u);
  EXPECT_EQ(snapshot().depth, 5u);
}

TEST_F(TrackerFixture, CostScopeMeasuresDelta) {
  charge(100, 7);
  CostScope scope;
  charge(3, 1);
  EXPECT_EQ(scope.elapsed().work, 3u);
  EXPECT_EQ(scope.elapsed().depth, 1u);
}

TEST_F(TrackerFixture, ParallelForDepthIsMaxNotSum) {
  // 100 iterations each charging depth 5: span must be 5 + log2(100), not 500.
  CostScope scope;
  parallel_for(0, 100, [](std::size_t) { charge(1, 5); });
  const Cost c = scope.elapsed();
  EXPECT_EQ(c.work, 200u);  // 100 charged + 100 loop overhead
  EXPECT_EQ(c.depth, 5u + ceil_log2(100));
}

TEST_F(TrackerFixture, NestedParallelForComposesSpans) {
  CostScope scope;
  parallel_for(0, 4, [](std::size_t) {
    parallel_for(0, 8, [](std::size_t) { charge(1, 3); });
  });
  // inner span: 3 + log2(8) = 6; outer: 6 + log2(4) = 8.
  EXPECT_EQ(scope.elapsed().depth, 8u);
}

TEST_F(TrackerFixture, EmptyParallelForIsFree) {
  CostScope scope;
  parallel_for(5, 5, [](std::size_t) { charge(1000, 1000); });
  EXPECT_EQ(scope.elapsed().work, 0u);
  EXPECT_EQ(scope.elapsed().depth, 0u);
}

TEST_F(TrackerFixture, ParallelForVisitsEveryIndexOnce) {
  std::vector<int> hits(1000, 0);
  parallel_for(0, hits.size(), [&](std::size_t i) { hits[i]++; });
  EXPECT_TRUE(std::all_of(hits.begin(), hits.end(), [](int h) { return h == 1; }));
}

TEST_F(TrackerFixture, ParallelReduceSumsCorrectly) {
  const auto total = parallel_reduce<std::int64_t>(
      1, 101, 0, [](std::size_t i) { return static_cast<std::int64_t>(i); },
      [](std::int64_t a, std::int64_t b) { return a + b; });
  EXPECT_EQ(total, 5050);
}

TEST_F(TrackerFixture, ReduceDepthIsLogarithmic) {
  CostScope scope;
  (void)parallel_reduce<int>(
      0, 1024, 0, [](std::size_t) { return 1; }, [](int a, int b) { return a + b; });
  EXPECT_LE(scope.elapsed().depth, 2 * ceil_log2(1024) + 1);
}

TEST_F(TrackerFixture, ParallelSortSorts) {
  std::vector<int> v{5, 3, 8, 1, 9, 2, 7};
  parallel_sort(v.begin(), v.end());
  EXPECT_TRUE(std::is_sorted(v.begin(), v.end()));
}

TEST_F(TrackerFixture, TabulateFillsValues) {
  auto sq = tabulate<int>(6, [](std::size_t i) { return static_cast<int>(i * i); });
  EXPECT_EQ(sq, (std::vector<int>{0, 1, 4, 9, 16, 25}));
}

TEST_F(TrackerFixture, DisabledTrackerChargesNothing) {
  Tracker::instance().set_enabled(false);
  charge(100, 100);
  parallel_for(0, 10, [](std::size_t) { charge(1, 1); });
  Tracker::instance().set_enabled(true);
  EXPECT_EQ(snapshot().work, 0u);
}

TEST(ThreadPoolTest, ForEachChunkCoversRangeOnce) {
  Tracker::instance().set_enabled(false);
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(257);
  for (auto& h : hits) h = 0;
  pool.for_each_chunk(0, hits.size(), [&](std::size_t i) { hits[i]++; });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
  Tracker::instance().set_enabled(true);
}

TEST(ThreadPoolTest, ForEachChunkPropagatesWorkerException) {
  Tracker::instance().set_enabled(false);
  ThreadPool pool(4);
  EXPECT_THROW(pool.for_each_chunk(0, 64,
                                   [&](std::size_t i) {
                                     if (i == 13) throw std::runtime_error("boom");
                                   }),
               std::runtime_error);
  // The pool must stay usable after a failed batch.
  std::vector<std::atomic<int>> hits(32);
  for (auto& h : hits) h = 0;
  pool.for_each_chunk(0, hits.size(), [&](std::size_t i) { hits[i]++; });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
  Tracker::instance().set_enabled(true);
}

TEST(ThreadPoolTest, NestedForEachChunkDoesNotDeadlock) {
  // Regression: the seed pool shared one in_flight_ counter across all
  // for_each_chunk calls, so a nested call from inside a worker task could
  // observe the outer call's tasks and miscount its own join. Per-call
  // TaskGroup latches + help-first joining make nesting safe.
  Tracker::instance().set_enabled(false);
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(64 * 32);
  for (auto& h : hits) h = 0;
  pool.for_each_chunk(0, 64, [&](std::size_t outer) {
    pool.for_each_chunk(0, 32, [&](std::size_t inner) { hits[outer * 32 + inner]++; });
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
  Tracker::instance().set_enabled(true);
}

TEST(ThreadPoolTest, ConcurrentForEachChunkCallsAreIndependent) {
  // Two external threads forking on the same pool at once: each call joins
  // exactly its own blocks (per-call latch), so both ranges are covered once.
  Tracker::instance().set_enabled(false);
  ThreadPool pool(4);
  std::vector<std::atomic<int>> a(997), b(1013);
  for (auto& h : a) h = 0;
  for (auto& h : b) h = 0;
  std::thread t1([&] { pool.for_each_chunk(0, a.size(), [&](std::size_t i) { a[i]++; }); });
  std::thread t2([&] { pool.for_each_chunk(0, b.size(), [&](std::size_t i) { b[i]++; }); });
  t1.join();
  t2.join();
  for (auto& h : a) EXPECT_EQ(h.load(), 1);
  for (auto& h : b) EXPECT_EQ(h.load(), 1);
  Tracker::instance().set_enabled(true);
}

TEST(ThreadPoolTest, ExceptionPropagatesThroughNestedForks) {
  Tracker::instance().set_enabled(false);
  ThreadPool pool(4);
  EXPECT_THROW(pool.for_each_chunk(0, 16,
                                   [&](std::size_t outer) {
                                     pool.for_each_chunk(0, 16, [&](std::size_t inner) {
                                       if (outer == 7 && inner == 11)
                                         throw std::runtime_error("nested boom");
                                     });
                                   }),
               std::runtime_error);
  // Still usable afterwards.
  std::atomic<int> n{0};
  pool.for_each_chunk(0, 100, [&](std::size_t) { n++; });
  EXPECT_EQ(n.load(), 100);
  Tracker::instance().set_enabled(true);
}

TEST(ThreadPoolTest, GlobalConfigure) {
  ThreadPool::configure(3);
  ASSERT_NE(ThreadPool::global(), nullptr);
  EXPECT_EQ(ThreadPool::global()->num_threads(), 3u);
  ThreadPool::configure(1);
  EXPECT_EQ(ThreadPool::global(), nullptr);
}

TEST(CeilLog2Test, Values) {
  EXPECT_EQ(ceil_log2(0), 0u);
  EXPECT_EQ(ceil_log2(1), 0u);
  EXPECT_EQ(ceil_log2(2), 1u);
  EXPECT_EQ(ceil_log2(3), 2u);
  EXPECT_EQ(ceil_log2(1024), 10u);
  EXPECT_EQ(ceil_log2(1025), 11u);
}

TEST(WorkDepthTest, CeilLog2MatchesShiftLoop) {
  // The inline bit_width form against the shift loop it replaced, wherever
  // that loop is defined (its shift overflows past 2^63).
  const auto shift_loop = [](std::uint64_t n) {
    std::uint64_t b = 0;
    while ((std::uint64_t{1} << b) < n) ++b;
    return b;
  };
  for (std::uint64_t n = 0; n < (std::uint64_t{1} << 22); ++n)
    ASSERT_EQ(ceil_log2(n), shift_loop(n)) << "n=" << n;
  for (int j = 0; j < 64; ++j) {
    const std::uint64_t p = std::uint64_t{1} << j;
    for (const std::uint64_t n : {p - 1, p, p + 1}) {
      if (n > (std::uint64_t{1} << 63)) continue;
      ASSERT_EQ(ceil_log2(n), shift_loop(n)) << "n=" << n;
    }
  }
  static_assert(ceil_log2(1025) == 11);
}

TEST(RngTest, DeterministicAcrossInstances) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(RngTest, SplitStreamsDiffer) {
  Rng a(42);
  Rng c = a.split();
  Rng d = a.split();
  EXPECT_NE(c.next_u64(), d.next_u64());
}

TEST(RngTest, DoublesInUnitInterval) {
  Rng a(7);
  for (int i = 0; i < 1000; ++i) {
    const double x = a.next_double();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, UniformIntInRange) {
  Rng a(9);
  for (int i = 0; i < 1000; ++i) {
    const auto x = a.uniform_int(-5, 5);
    EXPECT_GE(x, -5);
    EXPECT_LE(x, 5);
  }
}

TEST(RngTest, BernoulliFrequency) {
  Rng a(11);
  int cnt = 0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) cnt += a.bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(cnt) / trials, 0.3, 0.02);
}

TEST(RngTest, RademacherIsLowBitSign) {
  // The branch-free draw keeps the branchy definition's values and consumes
  // one next_u64 per draw, so every JL matrix stays the same.
  Rng a(2024), twin(2024);
  for (int i = 0; i < 100000; ++i) {
    const double want = (twin.next_u64() & 1) ? 1.0 : -1.0;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(a.rademacher()), std::bit_cast<std::uint64_t>(want))
        << "draw " << i;
  }
  EXPECT_EQ(a.next_u64(), twin.next_u64());
}

TEST(RngTest, NormalMomentsRoughlyStandard) {
  Rng a(13);
  double sum = 0, sumsq = 0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) {
    const double x = a.normal();
    sum += x;
    sumsq += x * x;
  }
  EXPECT_NEAR(sum / trials, 0.0, 0.05);
  EXPECT_NEAR(sumsq / trials, 1.0, 0.05);
}

}  // namespace
}  // namespace pmcf::par
