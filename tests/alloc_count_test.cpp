// Asserts the CG inner loop of linalg::solve_sdd is allocation-free: the
// solver sizes its state (x, the r, z, p and M·p blocks, dinv) once before
// iterating, and the kernels (the SpMV, the column kernels and the
// preconditioner apply) write into those buffers without touching the heap.
//
// Strategy: replace the global allocator with a counting one, run the solver
// with tolerance = 0 (never converges) at two different iteration caps, and
// require the allocation counts to be *equal* — any per-iteration allocation
// would make the 64-iteration run strictly heavier than the 4-iteration run.
//
// The counter covers this whole test binary, so deltas are measured tightly
// around the solve calls. The runs use wall-clock mode without a pool: the
// work-stealing dispatch path itself queues tasks in mutex-guarded deques
// (which may allocate) and is out of scope for the kernel-level claim.
//
// The same technique asserts the Engine's overload paths (DESIGN.md §12) are
// allocation-free: a typed kLoadShed refusal from a drained or queue-full
// engine must never touch the heap, and neither may parking a request in the
// admission queue.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <iterator>
#include <new>
#include <thread>
#include <vector>

#include "graph/generators.hpp"
#include "core/solver_context.hpp"
#include "linalg/accel_cache.hpp"
#include "linalg/incidence.hpp"
#include "linalg/laplacian.hpp"
#include "linalg/leverage.hpp"
#include "linalg/sdd_solver.hpp"
#include "mcf/engine.hpp"
#include "parallel/rng.hpp"
#include "parallel/thread_pool.hpp"
#include "parallel/work_depth.hpp"

namespace {

std::atomic<std::uint64_t> g_alloc_count{0};

void* counted_malloc(std::size_t size) {
  ++g_alloc_count;
  return std::malloc(size ? size : 1);
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) {
  ++g_alloc_count;
  const auto a = static_cast<std::size_t>(align);
  return std::aligned_alloc(a, (size + a - 1) & ~(a - 1));
}

}  // namespace

// Every replaceable allocation function is counted, the std::nothrow_t forms
// too (std::stable_sort takes its buffer from nothrow new), and every one
// frees with std::free, so the sanitizers see matching pairs.
void* operator new(std::size_t size) {
  if (void* p = counted_malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  if (void* p = counted_aligned_alloc(size, align)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}
void* operator new(std::size_t size, std::align_val_t align, const std::nothrow_t&) noexcept {
  return counted_aligned_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align, const std::nothrow_t&) noexcept {
  return counted_aligned_alloc(size, align);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t, const std::nothrow_t&) noexcept { std::free(p); }

namespace pmcf {
namespace {

std::uint64_t allocs_during_solve(const linalg::Csr& lap, const linalg::Vec& b,
                                  std::int32_t max_iters) {
  linalg::SolveOptions opts;
  opts.tolerance = 0.0;  // unreachable: the loop always runs max_iters times
  opts.max_iters = max_iters;
  const std::uint64_t before = g_alloc_count.load();
  const auto res = linalg::solve_sdd(pmcf::core::default_context(), lap, b, opts);
  const std::uint64_t after = g_alloc_count.load();
  EXPECT_FALSE(res.converged);
  EXPECT_EQ(res.iterations, max_iters);
  return after - before;
}

/// One throwaway solve so the context's AccelCache and CG scratch exist
/// before the measured runs — their one-time creation is not what the
/// per-iteration claim is about.
void warm_up_context(const linalg::Csr& lap, const linalg::Vec& b) {
  linalg::SolveOptions opts;
  opts.tolerance = 0.0;
  opts.max_iters = 2;
  (void)linalg::solve_sdd(pmcf::core::default_context(), lap, b, opts);
}

class AllocCountTest : public ::testing::Test {
 protected:
  void SetUp() override {
    par::ThreadPool::configure(1);  // serial wall mode: kernel allocs only
  }
  void TearDown() override {
    par::ThreadPool::configure(1);
    par::Tracker::instance().set_enabled(true);
  }
};

TEST_F(AllocCountTest, CgInnerLoopIsAllocationFree) {
  par::Rng rng(12345);
  const graph::Digraph g = graph::random_flow_network(128, 1024, 100, 100, rng);
  const linalg::IncidenceOp a(g);
  linalg::Vec d(a.rows());
  for (auto& x : d) x = 0.5 + rng.next_double();
  linalg::Vec b(a.cols());
  for (auto& x : b) x = rng.next_double() - 0.5;
  b[static_cast<std::size_t>(a.dropped())] = 0.0;
  const linalg::Csr lap = linalg::reduced_laplacian(g, d, a.dropped());

  par::Tracker::instance().set_enabled(false);
  warm_up_context(lap, b);
  const std::uint64_t short_run = allocs_during_solve(lap, b, 4);
  const std::uint64_t long_run = allocs_during_solve(lap, b, 64);
  EXPECT_EQ(short_run, long_run)
      << "solve_sdd allocated " << (long_run - short_run)
      << " extra times over 60 extra CG iterations; the inner loop must not "
         "touch the heap";
  EXPECT_GT(short_run, 0u);  // sanity: the counting allocator is active
}

TEST_F(AllocCountTest, CgInnerLoopIsAllocationFreeInstrumented) {
  // Same invariant under the instrumented tracker: the charge-identical
  // kernel paths reuse the caller's buffers too.
  par::Rng rng(777);
  const graph::Digraph g = graph::random_flow_network(64, 512, 100, 100, rng);
  const linalg::IncidenceOp a(g);
  linalg::Vec d(a.rows());
  for (auto& x : d) x = 0.5 + rng.next_double();
  linalg::Vec b(a.cols());
  for (auto& x : b) x = rng.next_double() - 0.5;
  b[static_cast<std::size_t>(a.dropped())] = 0.0;
  const linalg::Csr lap = linalg::reduced_laplacian(g, d, a.dropped());

  par::Tracker::instance().set_enabled(true);
  par::Tracker::instance().reset();
  warm_up_context(lap, b);
  const std::uint64_t short_run = allocs_during_solve(lap, b, 4);
  const std::uint64_t long_run = allocs_during_solve(lap, b, 64);
  EXPECT_EQ(short_run, long_run);
}

TEST_F(AllocCountTest, RepeatedSolvesIntoCallerBufferAreZeroAlloc) {
  // The strongest form of the claim: with a caller-owned iterate and a
  // prebuilt preconditioner, solve_sdd_into performs literally zero heap
  // allocations per call once the context scratch exists — the path an IPM
  // iteration loop takes.
  par::Rng rng(4242);
  const graph::Digraph g = graph::random_flow_network(96, 768, 100, 100, rng);
  const linalg::IncidenceOp a(g);
  linalg::Vec d(a.rows());
  for (auto& x : d) x = 0.5 + rng.next_double();
  linalg::Vec b(a.cols());
  for (auto& x : b) x = rng.next_double() - 0.5;
  b[static_cast<std::size_t>(a.dropped())] = 0.0;
  const linalg::Csr lap = linalg::reduced_laplacian(g, d, a.dropped());

  par::Tracker::instance().set_enabled(false);
  core::SolverContext& ctx = pmcf::core::default_context();
  linalg::SddPreconditioner precond;
  precond.build(lap, linalg::PrecondKind::kJacobi);
  linalg::SolveOptions opts;
  opts.tolerance = 0.0;
  opts.max_iters = 16;
  linalg::Vec x(lap.dim(), 0.0);
  (void)linalg::solve_sdd_into(ctx, lap, b, precond, opts, x);  // warm-up

  const std::uint64_t before = g_alloc_count.load();
  for (int rep = 0; rep < 8; ++rep) {
    std::fill(x.begin(), x.end(), 0.0);
    const auto info = linalg::solve_sdd_into(ctx, lap, b, precond, opts, x);
    EXPECT_EQ(info.iterations, 16);
  }
  const std::uint64_t after = g_alloc_count.load();
  EXPECT_EQ(after - before, 0u)
      << "solve_sdd_into allocated " << (after - before)
      << " times across 8 repeated solves; the IPM hot path must be "
         "allocation-free";
}

TEST_F(AllocCountTest, SketchPassAllocationsDoNotGrowWithK) {
  // The JL pass keeps its right-hand sides and iterates in the context's
  // n×k CG blocks: once a warm-up call has sized them, its only heap
  // allocations are sigma and the solve's per-column results, however many
  // sketch rows it draws.
  par::Rng rng(2718);
  const graph::Digraph g = graph::random_flow_network(24, 160, 100, 100, rng);
  const linalg::IncidenceOp a(g);
  linalg::Vec v(a.rows());
  for (auto& x : v) x = 0.2 + rng.next_double();
  const linalg::Vec w = linalg::mul(v, v);

  core::SolverContext ctx({.instrument = false});
  const core::ContextScope scope(ctx);
  linalg::AccelCache& cache = linalg::accel_cache(ctx);
  const linalg::Csr& lap = cache.laplacian(ctx, g, w, a.dropped());
  const linalg::SddPreconditioner& precond =
      cache.preconditioner(ctx, linalg::AccelSite::kLeverage, lap, w);
  const linalg::SolveOptions solve = linalg::LeverageOptions{}.solve;
  const auto allocs_at = [&](std::size_t k) {
    par::Rng sketch_rng(99);
    (void)linalg::sketched_leverage(ctx, a, v, lap, precond, k, sketch_rng, solve);  // warm-up
    const std::uint64_t before = g_alloc_count.load();
    const linalg::Vec sigma = linalg::sketched_leverage(ctx, a, v, lap, precond, k, sketch_rng, solve);
    const std::uint64_t after = g_alloc_count.load();
    EXPECT_EQ(sigma.size(), a.rows());
    return after - before;
  };
  const std::uint64_t narrow = allocs_at(8);
  const std::uint64_t wide = allocs_at(48);
  EXPECT_EQ(narrow, wide) << "the k = 48 pass allocated " << wide << " times, the k = 8 pass "
                          << narrow << "; per-row buffers are back";
  EXPECT_GT(narrow, 0u);  // sanity: the counting allocator is active
}

TEST_F(AllocCountTest, AdmissionShedFastPathIsAllocationFree) {
  // Overload hardening (DESIGN.md §12): when a drained engine refuses a
  // request, the typed kLoadShed refusal must not touch the heap — the shed
  // decision happens before any solver context or scratch exists, and the
  // refusal detail fits the small-string buffer. A serving layer drowning in
  // overload must not add allocator pressure on top. Nor may the scraper
  // reading it: a metrics snapshot is a plain-value copy.
  par::Rng rng(909);
  const graph::Digraph g = graph::random_flow_network(12, 60, 6, 6, rng);
  const Instance inst = Instance::max_flow(g, 0, g.num_vertices() - 1);
  const mcf::SolveOptions opts;

  par::Tracker::instance().set_enabled(false);
  const Engine engine({.seed = 909, .use_global_pool = false, .max_in_flight = 1});
  ASSERT_EQ(engine.reserve_capacity(1), 1u);
  auto warm = engine.solve(inst, opts);  // warm any lazy one-time state
  ASSERT_EQ(warm.result.status, SolveStatus::kLoadShed);

  const std::uint64_t before = g_alloc_count.load();
  for (int rep = 0; rep < 16; ++rep) {
    const auto res = engine.solve(inst, opts);
    EXPECT_EQ(res.result.status, SolveStatus::kLoadShed);
    EXPECT_EQ(res.result.failure_detail, "no capacity");
  }
  const std::uint64_t after = g_alloc_count.load();
  EXPECT_EQ(after - before, 0u)
      << "the no-capacity shed path allocated " << (after - before)
      << " times across 16 refusals; shedding must be allocation-free";

  const MetricsSnapshot m = engine.metrics_snapshot();
  EXPECT_EQ(g_alloc_count.load() - after, 0u) << "metrics_snapshot() allocated";
  EXPECT_EQ(m.of(EngineCounter::kShedNoCapacity), 17u);

  engine.restore_capacity(1);
  const auto ok = engine.solve(inst, opts);
  EXPECT_EQ(ok.result.status, SolveStatus::kOk);
}

TEST_F(AllocCountTest, QueueFullShedFastPathIsAllocationFree) {
  // Same claim for the bounded-queue overflow shed: a full queue refuses
  // equal-priority arrivals before a waiter is ever linked in.
  par::Rng rng(910);
  const graph::Digraph g = graph::random_flow_network(12, 60, 6, 6, rng);
  const Instance inst = Instance::max_flow(g, 0, g.num_vertices() - 1);
  const mcf::SolveOptions opts;

  par::Tracker::instance().set_enabled(false);
  const Engine engine(
      {.seed = 910, .use_global_pool = false, .max_in_flight = 1, .max_queue = 1});
  ASSERT_EQ(engine.reserve_capacity(1), 1u);

  // Fill the queue with one parked waiter (it solves after the measurement).
  EngineSolveResult parked_res;
  std::thread parked([&] { parked_res = engine.solve(inst, opts); });
  const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (engine.queue_depth() < 1) {
    ASSERT_LT(std::chrono::steady_clock::now(), give_up);
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  auto warm = engine.solve(inst, opts);
  ASSERT_EQ(warm.result.status, SolveStatus::kLoadShed);

  const std::uint64_t before = g_alloc_count.load();
  for (int rep = 0; rep < 16; ++rep) {
    const auto res = engine.solve(inst, opts);
    EXPECT_EQ(res.result.status, SolveStatus::kLoadShed);
    EXPECT_EQ(res.result.failure_detail, "queue full");
  }
  const std::uint64_t after = g_alloc_count.load();
  EXPECT_EQ(after - before, 0u)
      << "the queue-full shed path allocated " << (after - before)
      << " times across 16 refusals; shedding must be allocation-free";

  engine.restore_capacity(1);
  parked.join();
  EXPECT_EQ(parked_res.result.status, SolveStatus::kOk);
}

TEST_F(AllocCountTest, ParkingInTheQueueIsAllocationFree) {
  // A parked request is a Waiter in its caller's stack frame, linked into
  // its priority class's FIFO: parking touches no heap, on a fresh engine
  // and across priority classes.
  par::Rng rng(911);
  const graph::Digraph g = graph::random_flow_network(12, 60, 6, 6, rng);
  const Instance inst = Instance::max_flow(g, 0, g.num_vertices() - 1);
  const mcf::SolveOptions opts;

  par::Tracker::instance().set_enabled(false);
  const Engine engine(
      {.seed = 911, .use_global_pool = false, .max_in_flight = 1, .max_queue = 4});
  ASSERT_EQ(engine.reserve_capacity(1), 1u);

  // The client threads exist before the window; each calls solve() only
  // once released, so the window sees nothing but the parking itself.
  const std::uint32_t priorities[] = {3, 1, 3, 1};
  constexpr std::size_t kClients = std::size(priorities);
  std::atomic<std::size_t> released{0};
  EngineSolveResult results[kClients];
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (std::size_t i = 0; i < kClients; ++i) {
    clients.emplace_back([&, i] {
      while (released.load() <= i) std::this_thread::sleep_for(std::chrono::microseconds(100));
      SolveControl control;
      control.priority = priorities[i];
      results[i] = engine.solve(inst, opts, control);
    });
  }

  const std::uint64_t before = g_alloc_count.load();
  for (std::size_t i = 0; i < kClients; ++i) {
    released.store(i + 1);
    const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(20);
    while (engine.queue_depth() < i + 1 && std::chrono::steady_clock::now() < give_up)
      std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  const std::uint64_t after = g_alloc_count.load();
  EXPECT_EQ(engine.queue_depth(), kClients);
  EXPECT_EQ(after - before, 0u)
      << "parking " << kClients << " requests allocated " << (after - before)
      << " times; a parked request must not touch the heap";

  engine.restore_capacity(1);
  for (auto& c : clients) c.join();
  for (const EngineSolveResult& r : results) EXPECT_EQ(r.result.status, SolveStatus::kOk);
}

}  // namespace
}  // namespace pmcf
