// Property suite for the kernel layer (DESIGN.md §8, §13):
//  - every AVX2 kernel reproduces the canonical scalar kernel bit for bit,
//    across aligned, unaligned, and remainder lengths, with masked column
//    kernels preserving inactive columns exactly;
//  - every batched column kernel computes on each active column what its
//    contiguous kernel computes on that column alone (the rule that keeps
//    column j of a k-column CG block equal to its k = 1 solve, which runs
//    the contiguous kernels);
//  - solver outputs (single- and multi-RHS, both preconditioner kinds) are
//    invariant under the SIMD dispatch;
//  - every hot kernel charges exactly the PRAM cost of the primitive
//    sequence it stands for (KernelChargeTest).
//
// The dispatch-level tests also run in PMCF_SIMD=OFF builds, where both
// sides collapse to the scalar path and the invariants hold trivially.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "core/solver_context.hpp"
#include "graph/generators.hpp"
#include "linalg/csr.hpp"
#include "linalg/incidence.hpp"
#include "linalg/kernels.hpp"
#include "linalg/laplacian.hpp"
#include "linalg/preconditioner.hpp"
#include "linalg/sdd_solver.hpp"
#include "linalg/simd.hpp"
#include "linalg/simd_kernels.hpp"
#include "parallel/rng.hpp"
#include "parallel/scheduler.hpp"
#include "parallel/thread_pool.hpp"
#include "parallel/work_depth.hpp"

namespace pmcf {
namespace {

using linalg::Vec;

std::uint64_t bits(double x) {
  std::uint64_t u;
  std::memcpy(&u, &x, sizeof(u));
  return u;
}

#define EXPECT_BITS_EQ(a, b) EXPECT_EQ(bits(a), bits(b))

void expect_vec_bits_eq(const Vec& a, const Vec& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_EQ(bits(a[i]), bits(b[i])) << "entry " << i;
}

Vec random_vec(par::Rng& rng, std::size_t n) {
  Vec v(n);
  for (auto& x : v) x = (rng.next_double() - 0.5) * 8.0;
  return v;
}

const std::size_t kLens[] = {0, 1, 2, 3, 4, 5, 7, 8, 12, 15, 16, 61, 64, 67, 128, 253};

class KernelSimdTest : public ::testing::Test {
 protected:
  void SetUp() override {
    par::ThreadPool::configure(1);
    par::Tracker::instance().set_enabled(false);
    linalg::simd::set_force_scalar(false);
  }
  void TearDown() override {
    linalg::simd::set_force_scalar(false);
    par::ThreadPool::configure(1);
    par::Tracker::instance().set_enabled(true);
  }
};

std::vector<unsigned char> random_mask(par::Rng& rng, std::size_t k, int kind) {
  std::vector<unsigned char> m(k, 0);
  for (std::size_t j = 0; j < k; ++j)
    m[j] = kind == 0 ? 1 : kind == 1 ? static_cast<unsigned char>(j % 2) : (rng.next_double() < 0.5 ? 1 : 0);
  return m;
}

/// Random strictly-lower factor + its CSC view, the inputs of the IC sweeps.
struct LowerFactor {
  std::vector<std::int64_t> loff;
  std::vector<std::int32_t> lcol;
  Vec lval;
  Vec ldiag_inv;
  std::vector<std::int64_t> coff;
  std::vector<std::int32_t> crow;
  std::vector<std::int64_t> cidx;
};

LowerFactor random_lower(par::Rng& rng, std::size_t n, std::size_t max_row) {
  LowerFactor f;
  f.loff.assign(n + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t cnt = i == 0 ? 0 : rng.next_u64() % (std::min(i, max_row) + 1);
    std::vector<std::int32_t> cols;
    for (std::size_t t = 0; t < cnt; ++t) cols.push_back(static_cast<std::int32_t>(rng.next_u64() % i));
    std::sort(cols.begin(), cols.end());
    cols.erase(std::unique(cols.begin(), cols.end()), cols.end());
    for (const std::int32_t c : cols) {
      f.lcol.push_back(c);
      f.lval.push_back(rng.next_double() - 0.5);
    }
    f.loff[i + 1] = static_cast<std::int64_t>(f.lcol.size());
  }
  f.ldiag_inv.resize(n);
  for (auto& x : f.ldiag_inv) x = 0.5 + rng.next_double();
  // CSC view.
  f.coff.assign(n + 1, 0);
  for (const std::int32_t c : f.lcol) ++f.coff[static_cast<std::size_t>(c) + 1];
  for (std::size_t i = 0; i < n; ++i) f.coff[i + 1] += f.coff[i];
  f.crow.resize(f.lcol.size());
  f.cidx.resize(f.lcol.size());
  std::vector<std::int64_t> cur(f.coff.begin(), f.coff.end() - 1);
  for (std::size_t i = 0; i < n; ++i)
    for (std::int64_t t = f.loff[i]; t < f.loff[i + 1]; ++t) {
      const auto c = static_cast<std::size_t>(f.lcol[static_cast<std::size_t>(t)]);
      f.crow[static_cast<std::size_t>(cur[c])] = static_cast<std::int32_t>(i);
      f.cidx[static_cast<std::size_t>(cur[c])] = t;
      ++cur[c];
    }
  return f;
}

// ---------------------------------------------------------------------------
// Direct scalar-vs-AVX2 kernel identities (compiled only when the AVX2 TU
// exists; skipped at runtime on machines without AVX2).
// ---------------------------------------------------------------------------
#if defined(PMCF_SIMD_AVX2)

namespace simd = linalg::simd;

class SimdKernelIdentityTest : public KernelSimdTest {
 protected:
  void SetUp() override {
    KernelSimdTest::SetUp();
    if (!simd::available()) GTEST_SKIP() << "host has no AVX2";
  }
};

TEST_F(SimdKernelIdentityTest, Dot) {
  par::Rng rng(1);
  for (const std::size_t n : kLens) {
    const Vec a = random_vec(rng, n);
    const Vec b = random_vec(rng, n);
    EXPECT_BITS_EQ(simd::scalar::dot(a.data(), b.data(), n),
                   simd::avx2::dot(a.data(), b.data(), n))
        << "n=" << n;
  }
}

TEST_F(SimdKernelIdentityTest, Axpby) {
  par::Rng rng(3);
  for (const std::size_t n : kLens) {
    const Vec x = random_vec(rng, n);
    Vec y0 = random_vec(rng, n);
    Vec y1 = y0;
    simd::scalar::axpby(y0.data(), 1.25, x.data(), -0.75, n);
    simd::avx2::axpby(y1.data(), 1.25, x.data(), -0.75, n);
    expect_vec_bits_eq(y0, y1);
  }
}

TEST_F(SimdKernelIdentityTest, CgStep) {
  par::Rng rng(4);
  for (const std::size_t n : kLens) {
    const Vec p = random_vec(rng, n);
    const Vec mp = random_vec(rng, n);
    Vec x0 = random_vec(rng, n), x1 = x0;
    Vec r0 = random_vec(rng, n), r1 = r0;
    const double rr0 = simd::scalar::cg_step(x0.data(), r0.data(), p.data(), mp.data(), 0.37, n);
    const double rr1 = simd::avx2::cg_step(x1.data(), r1.data(), p.data(), mp.data(), 0.37, n);
    EXPECT_BITS_EQ(rr0, rr1) << "n=" << n;
    expect_vec_bits_eq(x0, x1);
    expect_vec_bits_eq(r0, r1);
  }
}

TEST_F(SimdKernelIdentityTest, JacobiRefresh) {
  par::Rng rng(5);
  for (const std::size_t n : kLens) {
    const Vec dinv = random_vec(rng, n);
    const Vec r = random_vec(rng, n);
    Vec z0(n, 0.0), z1(n, 0.0);
    const double a = simd::scalar::jacobi_refresh(dinv.data(), r.data(), z0.data(), n);
    const double b = simd::avx2::jacobi_refresh(dinv.data(), r.data(), z1.data(), n);
    EXPECT_BITS_EQ(a, b) << "n=" << n;
    expect_vec_bits_eq(z0, z1);
  }
}

TEST_F(SimdKernelIdentityTest, DotCols) {
  par::Rng rng(6);
  for (const std::size_t k : {1u, 2u, 4u, 5u, 8u, 11u}) {
    for (const std::size_t n : {0u, 3u, 32u, 67u}) {
      const Vec a = random_vec(rng, n * k);
      const Vec b = random_vec(rng, n * k);
      Vec o0(k, 0.0), o1(k, 0.0);
      simd::scalar::dot_cols(a.data(), b.data(), n, k, o0.data());
      simd::avx2::dot_cols(a.data(), b.data(), n, k, o1.data());
      expect_vec_bits_eq(o0, o1);
      // Column kernels must also agree with the per-column strided kernel —
      // that is what ties the batched CG to the single-RHS recurrences.
      for (std::size_t j = 0; j < k; ++j)
        EXPECT_BITS_EQ(o0[j], simd::scalar::dot_strided(a.data(), b.data(), k, j, n));
    }
  }
}

TEST_F(SimdKernelIdentityTest, CgStepColsMasked) {
  par::Rng rng(7);
  for (const std::size_t k : {2u, 4u, 7u, 12u}) {
    for (int kind = 0; kind < 3; ++kind) {
      const std::size_t n = 53;
      const auto active = random_mask(rng, k, kind);
      Vec alpha(k);
      for (auto& a : alpha) a = rng.next_double() - 0.5;
      const Vec p = random_vec(rng, n * k);
      const Vec mp = random_vec(rng, n * k);
      Vec x0 = random_vec(rng, n * k), x1 = x0;
      Vec r0 = random_vec(rng, n * k), r1 = r0;
      Vec rr0(k, -1.0), rr1(k, -1.0);
      simd::scalar::cg_step_cols(x0.data(), r0.data(), p.data(), mp.data(), alpha.data(),
                                 active.data(), n, k, rr0.data());
      simd::avx2::cg_step_cols(x1.data(), r1.data(), p.data(), mp.data(), alpha.data(),
                               active.data(), n, k, rr1.data());
      // Inactive columns must be preserved bit for bit in x and r; rr is
      // only specified for active columns.
      expect_vec_bits_eq(x0, x1);
      expect_vec_bits_eq(r0, r1);
      for (std::size_t j = 0; j < k; ++j) {
        if (active[j]) {
          EXPECT_BITS_EQ(rr0[j], rr1[j]) << "col " << j;
        }
      }
    }
  }
}

TEST_F(SimdKernelIdentityTest, JacobiRefreshColsMasked) {
  par::Rng rng(8);
  const std::size_t n = 61;
  for (const std::size_t k : {3u, 4u, 9u}) {
    for (int kind = 0; kind < 3; ++kind) {
      const auto active = random_mask(rng, k, kind);
      const Vec dinv = random_vec(rng, n);
      const Vec r = random_vec(rng, n * k);
      Vec z0 = random_vec(rng, n * k), z1 = z0;
      Vec rz0(k, -1.0), rz1(k, -1.0);
      simd::scalar::jacobi_refresh_cols(dinv.data(), r.data(), z0.data(), active.data(), n, k,
                                        rz0.data());
      simd::avx2::jacobi_refresh_cols(dinv.data(), r.data(), z1.data(), active.data(), n, k,
                                      rz1.data());
      expect_vec_bits_eq(z0, z1);
      for (std::size_t j = 0; j < k; ++j) {
        if (active[j]) {
          EXPECT_BITS_EQ(rz0[j], rz1[j]) << "col " << j;
        }
      }
    }
  }
}

TEST_F(SimdKernelIdentityTest, AxpbyColsMasked) {
  par::Rng rng(9);
  const std::size_t n = 47;
  for (const std::size_t k : {2u, 4u, 10u}) {
    for (int kind = 0; kind < 3; ++kind) {
      const auto active = random_mask(rng, k, kind);
      Vec beta(k);
      for (auto& b : beta) b = rng.next_double() - 0.5;
      const Vec x = random_vec(rng, n * k);
      Vec y0 = random_vec(rng, n * k), y1 = y0;
      simd::scalar::axpby_cols(y0.data(), 1.0, x.data(), beta.data(), active.data(), n, k);
      simd::avx2::axpby_cols(y1.data(), 1.0, x.data(), beta.data(), active.data(), n, k);
      expect_vec_bits_eq(y0, y1);
    }
  }
}

TEST_F(SimdKernelIdentityTest, CsrBlockSpmv) {
  par::Rng rng(10);
  const graph::Digraph g = graph::random_flow_network(40, 260, 30, 30, rng);
  Vec d(static_cast<std::size_t>(g.num_arcs()));
  for (auto& x : d) x = 0.25 + rng.next_double();
  const linalg::Csr m = linalg::reduced_laplacian(g, d, g.num_vertices() - 1);
  const std::size_t n = m.dim();
  for (const std::size_t k : {1u, 2u, 4u, 6u, 9u}) {
    const Vec x = random_vec(rng, n * k);
    Vec y0(n * k, 0.0), y1(n * k, 0.0);
    simd::scalar::csr_block_spmv(m.offsets().data(), m.cols().data(), m.vals().data(), x.data(),
                                 y0.data(), 0, n, k);
    simd::avx2::csr_block_spmv(m.offsets().data(), m.cols().data(), m.vals().data(), x.data(),
                               y1.data(), 0, n, k);
    expect_vec_bits_eq(y0, y1);
  }
}

TEST_F(SimdKernelIdentityTest, IncidenceApply) {
  par::Rng rng(11);
  for (const std::size_t m : {1u, 4u, 5u, 63u, 256u, 1027u}) {
    const std::size_t n = 32;
    std::vector<std::int32_t> from(m), to(m);
    for (std::size_t e = 0; e < m; ++e) {
      from[e] = static_cast<std::int32_t>(rng.next_u64() % n);
      to[e] = static_cast<std::int32_t>(rng.next_u64() % n);
    }
    const Vec h = random_vec(rng, n);
    const auto dropped = static_cast<std::int32_t>(n - 1);
    Vec y0(m, 0.0), y1(m, 0.0);
    simd::scalar::incidence_apply(from.data(), to.data(), h.data(), y0.data(), m, dropped);
    simd::avx2::incidence_apply(from.data(), to.data(), h.data(), y1.data(), m, dropped);
    expect_vec_bits_eq(y0, y1);
  }
}

TEST_F(SimdKernelIdentityTest, IcCols) {
  par::Rng rng(12);
  for (const std::size_t n : {5u, 64u, 97u}) {
    const LowerFactor f = random_lower(rng, n, 6);
    for (const std::size_t k : {1u, 4u, 7u}) {
      const Vec r = random_vec(rng, n * k);
      Vec fwd0(n * k, 0.0), fwd1(n * k, 0.0);
      simd::scalar::ic_fwd_cols(f.loff.data(), f.lcol.data(), f.lval.data(), f.ldiag_inv.data(),
                                r.data(), fwd0.data(), n, k);
      simd::avx2::ic_fwd_cols(f.loff.data(), f.lcol.data(), f.lval.data(), f.ldiag_inv.data(),
                              r.data(), fwd1.data(), n, k);
      expect_vec_bits_eq(fwd0, fwd1);
      const auto active = random_mask(rng, k, 2);
      Vec z0 = random_vec(rng, n * k), z1 = z0;
      simd::scalar::ic_bwd_cols(f.coff.data(), f.crow.data(), f.cidx.data(), f.lval.data(),
                                f.ldiag_inv.data(), fwd0.data(), z0.data(), active.data(), n, k);
      simd::avx2::ic_bwd_cols(f.coff.data(), f.crow.data(), f.cidx.data(), f.lval.data(),
                              f.ldiag_inv.data(), fwd1.data(), z1.data(), active.data(), n, k);
      expect_vec_bits_eq(z0, z1);
    }
  }
}

#endif  // PMCF_SIMD_AVX2

// ---------------------------------------------------------------------------
// Dispatch-level invariants (run in every build configuration).
// ---------------------------------------------------------------------------

/// Column j of a row-major block with k columns.
Vec column(const Vec& block, std::size_t k, std::size_t j) {
  Vec c(block.size() / k);
  for (std::size_t i = 0; i < c.size(); ++i) c[i] = block[i * k + j];
  return c;
}

TEST_F(KernelSimdTest, ColumnKernelsMatchSingleColumnTwins) {
  // The rule that keeps column j of a k-column CG block equal to its k = 1
  // solve, whose column dispatchers run the contiguous kernels: on every
  // active column, each batched kernel computes bit for bit what the
  // contiguous kernel computes on that column alone (rr and rz included),
  // and it leaves inactive columns' bits unchanged. Checked through the
  // dispatch and with the scalar kernels forced.
  namespace simd = linalg::simd;
  par::Rng rng(13);
  const graph::Digraph g = graph::random_flow_network(40, 260, 30, 30, rng);
  Vec w(static_cast<std::size_t>(g.num_arcs()));
  for (auto& x : w) x = 0.25 + rng.next_double();
  const linalg::Csr m = linalg::reduced_laplacian(g, w, g.num_vertices() - 1);
  const std::size_t n = m.dim();
  const LowerFactor f = random_lower(rng, n, 6);
  const Vec dinv = random_vec(rng, n);
  for (const bool force_scalar : {false, true}) {
    simd::set_force_scalar(force_scalar);
    for (const std::size_t k : {1u, 3u, 4u, 7u}) {
      for (int kind = 0; kind < 3; ++kind) {
        SCOPED_TRACE(testing::Message() << "scalar=" << force_scalar << " k=" << k
                                        << " mask=" << kind);
        const auto active = random_mask(rng, k, kind);
        const Vec a = random_vec(rng, n * k), b = random_vec(rng, n * k);
        const Vec c = random_vec(rng, n * k);
        Vec coef(k);
        for (auto& v : coef) v = rng.next_double() - 0.5;

        // Unmasked kernels: every column is checked.
        Vec y(n * k), fwd(n * k), dots(k);
        simd::csr_block_spmv(m.offsets().data(), m.cols().data(), m.vals().data(), a.data(),
                             y.data(), 0, n, k);
        simd::ic_fwd_cols(f.loff.data(), f.lcol.data(), f.lval.data(), f.ldiag_inv.data(),
                          a.data(), fwd.data(), n, k);
        simd::dot_cols(a.data(), b.data(), n, k, dots.data());

        // Masked kernels: every output block starts as c.
        Vec x1 = c, r1 = c, rr(k);
        simd::cg_step_cols(x1.data(), r1.data(), a.data(), b.data(), coef.data(), active.data(),
                           n, k, rr.data());
        Vec z1 = c, rz(k);
        simd::jacobi_refresh_cols(dinv.data(), a.data(), z1.data(), active.data(), n, k,
                                  rz.data());
        Vec y1 = c;
        simd::axpby_cols(y1.data(), 1.5, a.data(), coef.data(), active.data(), n, k);
        Vec zb = c;
        simd::ic_bwd_cols(f.coff.data(), f.crow.data(), f.cidx.data(), f.lval.data(),
                          f.ldiag_inv.data(), fwd.data(), zb.data(), active.data(), n, k);

        for (std::size_t j = 0; j < k; ++j) {
          SCOPED_TRACE(j);
          const Vec aj = column(a, k, j), bj = column(b, k, j), cj = column(c, k, j);
          Vec yj(n), fj(n);
          simd::scalar::csr_spmv(m.offsets().data(), m.cols().data(), m.vals().data(), aj.data(),
                                 yj.data(), 0, n);
          expect_vec_bits_eq(column(y, k, j), yj);
          simd::scalar::ic_fwd(f.loff.data(), f.lcol.data(), f.lval.data(), f.ldiag_inv.data(),
                               aj.data(), fj.data(), n);
          expect_vec_bits_eq(column(fwd, k, j), fj);
          EXPECT_BITS_EQ(dots[j], simd::dot(aj.data(), bj.data(), n));
          if (!active[j]) {
            for (const Vec* out : {&x1, &r1, &z1, &y1, &zb})
              expect_vec_bits_eq(column(*out, k, j), cj);
            continue;
          }
          Vec xj = cj, rj = cj;
          EXPECT_BITS_EQ(rr[j],
                         simd::cg_step(xj.data(), rj.data(), aj.data(), bj.data(), coef[j], n));
          expect_vec_bits_eq(column(x1, k, j), xj);
          expect_vec_bits_eq(column(r1, k, j), rj);
          Vec zj = cj;
          EXPECT_BITS_EQ(rz[j], simd::jacobi_refresh(dinv.data(), aj.data(), zj.data(), n));
          expect_vec_bits_eq(column(z1, k, j), zj);
          Vec y1j = cj;
          simd::axpby(y1j.data(), 1.5, aj.data(), coef[j], n);
          expect_vec_bits_eq(column(y1, k, j), y1j);
          Vec zbj(n);
          simd::scalar::ic_bwd(f.coff.data(), f.crow.data(), f.cidx.data(), f.lval.data(),
                               f.ldiag_inv.data(), fj.data(), zbj.data(), n);
          expect_vec_bits_eq(column(zb, k, j), zbj);
        }
      }
    }
  }
}

struct SolveProblem {
  graph::Digraph g{0};
  linalg::Csr lap;
  std::vector<Vec> rhs;
};

SolveProblem make_solve_problem(std::uint64_t seed, std::size_t k) {
  par::Rng rng(seed);
  SolveProblem p;
  p.g = graph::random_flow_network(48, 320, 40, 40, rng);
  const linalg::IncidenceOp a(p.g);
  Vec d(a.rows());
  for (auto& x : d) x = 0.25 + rng.next_double();
  p.lap = linalg::reduced_laplacian(p.g, d, a.dropped());
  p.rhs.assign(k, Vec(a.cols()));
  for (auto& b : p.rhs) {
    for (auto& x : b) x = rng.next_double() - 0.5;
    b[static_cast<std::size_t>(a.dropped())] = 0.0;
  }
  return p;
}

void run_solver_dispatch_invariance(linalg::PrecondKind kind) {
  const std::size_t k = 5;
  const SolveProblem p = make_solve_problem(99, k);
  linalg::SddPreconditioner precond;
  precond.build(p.lap, kind);
  ASSERT_TRUE(precond.valid());
  linalg::SolveOptions opts;
  opts.tolerance = 1e-10;
  opts.max_iters = 400;

  core::SolverContext ctx_simd, ctx_scalar;
  std::vector<linalg::SolveResult> with_simd, with_scalar;
  for (std::size_t j = 0; j < k; ++j)
    with_simd.push_back(linalg::solve_sdd(ctx_simd, p.lap, p.rhs[j], precond, opts));
  const auto multi_simd = linalg::solve_sdd_multi(ctx_simd, p.lap, p.rhs, precond, opts);

  linalg::simd::set_force_scalar(true);
  for (std::size_t j = 0; j < k; ++j)
    with_scalar.push_back(linalg::solve_sdd(ctx_scalar, p.lap, p.rhs[j], precond, opts));
  const auto multi_scalar = linalg::solve_sdd_multi(ctx_scalar, p.lap, p.rhs, precond, opts);
  linalg::simd::set_force_scalar(false);

  for (std::size_t j = 0; j < k; ++j) {
    EXPECT_TRUE(with_simd[j].converged) << "column " << j;
    EXPECT_EQ(with_simd[j].iterations, with_scalar[j].iterations) << "column " << j;
    EXPECT_BITS_EQ(with_simd[j].relative_residual, with_scalar[j].relative_residual);
    expect_vec_bits_eq(with_simd[j].x, with_scalar[j].x);
    EXPECT_EQ(multi_simd[j].iterations, multi_scalar[j].iterations) << "column " << j;
    expect_vec_bits_eq(multi_simd[j].x, multi_scalar[j].x);
  }
}

TEST_F(KernelSimdTest, SolverInvariantUnderDispatchJacobi) {
  run_solver_dispatch_invariance(linalg::PrecondKind::kJacobi);
}

TEST_F(KernelSimdTest, SolverInvariantUnderDispatchIncompleteCholesky) {
  run_solver_dispatch_invariance(linalg::PrecondKind::kIncompleteCholesky);
}

// ---------------------------------------------------------------------------
// PRAM charges. Each kernel charges at entry what the primitive sequence it
// stands for charges; those sequences are written out below with the par::
// primitives over dummy bodies, so a changed charge fails here rather than
// only in the perf-trajectory PRAM columns.
// ---------------------------------------------------------------------------

class KernelChargeTest : public KernelSimdTest {};

const std::size_t kChargeSizes[] = {0, 1, 2, 3, 5, 128, 129, 1000};

/// (work, depth) charged by f under a fresh instrumented context.
template <class F>
std::string charged(F&& f) {
  core::SolverContext ctx;
  const core::ContextScope scope(ctx);
  f();
  return par::to_string(ctx.tracker().snapshot());
}

void seq_pass(std::size_t n) { par::parallel_for(0, n, [](std::size_t) {}); }

void seq_reduce(std::size_t n) {
  (void)par::parallel_reduce<double>(
      0, n, 0.0, [](std::size_t) { return 0.0; }, [](double a, double b) { return a + b; });
}

/// The per-row charging loop an SpMV over k columns stands for.
void seq_spmv(const linalg::Csr& m, std::size_t k) {
  par::parallel_for(0, m.dim(), [&](std::size_t r) {
    const auto row_nnz = static_cast<std::uint64_t>(m.offsets()[r + 1] - m.offsets()[r]);
    par::charge(k * row_nnz, par::ceil_log2(std::max<std::uint64_t>(row_nnz, 1)));
  });
}

/// n×n CSR whose rows cycle through 0, 1 and many nonzeros.
linalg::Csr mixed_rows(std::size_t n) {
  std::vector<std::int64_t> off{0};
  std::vector<std::int32_t> col;
  Vec val;
  for (std::size_t r = 0; r < n; ++r) {
    const std::size_t len = r % 3 == 0 ? 0 : r % 3 == 1 ? 1 : std::min<std::size_t>(n, 37);
    for (std::size_t t = 0; t < len; ++t) {
      col.push_back(static_cast<std::int32_t>(len == 1 ? r * 7 % n : t * n / len));
      val.push_back(1.0 + 0.25 * static_cast<double>(t));
    }
    off.push_back(static_cast<std::int64_t>(col.size()));
  }
  return linalg::Csr(n, std::move(off), std::move(col), std::move(val));
}

/// SPD M-matrix I + L(G) with G a star from vertex 0 to every fifth vertex
/// plus scattered path edges: rows of 1, 2 and many nonzeros.
linalg::Csr sdd_mixed(std::size_t n) {
  std::vector<std::int32_t> rows, cols;
  Vec vals;
  const auto add = [&](std::size_t i, std::size_t j, double v) {
    rows.push_back(static_cast<std::int32_t>(i));
    cols.push_back(static_cast<std::int32_t>(j));
    vals.push_back(v);
  };
  for (std::size_t r = 0; r < n; ++r) add(r, r, 1.0);
  for (std::size_t r = 1; r < n; ++r) {
    if (r % 5 != 0 && r % 5 != 2) continue;
    const std::size_t u = r % 5 == 0 ? 0 : r - 1;
    add(u, u, 1.0);
    add(r, r, 1.0);
    add(u, r, -1.0);
    add(r, u, -1.0);
  }
  return linalg::Csr::from_triplets(n, rows, cols, vals);
}

TEST_F(KernelChargeTest, VectorKernelsChargeTheirPrimitiveSequences) {
  // The harness really instruments, so equal strings are not two zeros.
  ASSERT_EQ(charged([] { seq_reduce(1000); }), "work=1000 depth=20");
  for (const std::size_t n : kChargeSizes) {
    SCOPED_TRACE(n);
    const Vec a(n, 0.5), b(n, 0.25);
    EXPECT_EQ(charged([&] { (void)linalg::dot(a, b); }), charged([&] { seq_reduce(n); }));
    EXPECT_EQ(charged([&] { (void)linalg::dot_strided(a, b, 1, 0, n); }),
              charged([&] { seq_reduce(n); }));
    // The CG step's x, r update and r.r (sdd_solver.cpp).
    EXPECT_EQ(charged([&] { linalg::charge_passes(n, 2, 1); }), charged([&] {
                seq_pass(n);
                seq_pass(n);
                seq_reduce(n);
              }));
  }
}

TEST_F(KernelChargeTest, SpmvChargesThePerRowLoop) {
  for (const std::size_t n : kChargeSizes) {
    SCOPED_TRACE(n);
    const linalg::Csr m = mixed_rows(n);
    const Vec x(n, 1.0);
    Vec y(n, 0.0);
    EXPECT_EQ(charged([&] { m.apply_into(x, y); }), charged([&] { seq_spmv(m, 1); }));
    for (const std::size_t k : {1u, 3u, 4u}) {
      SCOPED_TRACE(k);
      const Vec xb(n * k, 1.0);
      Vec yb(n * k, 0.0);
      EXPECT_EQ(charged([&] { m.apply_block_into(xb, yb, k); }),
                charged([&] { seq_spmv(m, k); }));
    }
  }
}

TEST_F(KernelChargeTest, IncidenceApplyChargesOnePerArc) {
  for (const std::size_t m : kChargeSizes) {
    SCOPED_TRACE(m);
    const auto nv = static_cast<graph::Vertex>(std::max<std::size_t>(m, 2));
    graph::Digraph g(nv);
    for (std::size_t e = 0; e < m; ++e)
      g.add_arc(static_cast<graph::Vertex>(e) % nv, static_cast<graph::Vertex>(e + 1) % nv, 1, 1);
    const linalg::IncidenceOp a(g);
    const Vec h(a.cols(), 1.0);
    Vec y(a.rows(), 0.0);
    EXPECT_EQ(charged([&] { a.apply_into(h, y); }), charged([&] {
                par::parallel_for(0, m, [](std::size_t) { par::charge(1, 1); });
              }));
  }
}

TEST_F(KernelChargeTest, PreconditionerAppliesChargeEachColumn) {
  for (const std::size_t n : kChargeSizes) {
    if (n == 0) continue;  // no preconditioner for an empty matrix
    SCOPED_TRACE(n);
    const linalg::Csr m = sdd_mixed(n);
    std::uint64_t lower = 0;
    for (std::size_t r = 0; r < n; ++r)
      for (std::int64_t t = m.offsets()[r]; t < m.offsets()[r + 1]; ++t)
        lower += static_cast<std::size_t>(m.cols()[static_cast<std::size_t>(t)]) < r ? 1 : 0;
    for (const auto kind : {linalg::PrecondKind::kJacobi, linalg::PrecondKind::kIncompleteCholesky}) {
      SCOPED_TRACE(static_cast<int>(kind));
      linalg::SddPreconditioner p;
      p.build(m, kind);
      ASSERT_EQ(p.effective_kind(), kind);
      // Jacobi stands for mul_into + dot; IC(0) for the two triangular
      // sweeps (charge_sweeps in preconditioner.cpp) + dot.
      const auto one_column = [&] {
        if (kind == linalg::PrecondKind::kJacobi) {
          seq_pass(n);
        } else {
          par::charge(2 * (lower + n), 2 * par::ceil_log2(std::max<std::size_t>(n, 2)));
        }
        seq_reduce(n);
      };
      for (const std::size_t k : {1u, 3u, 4u}) {
        SCOPED_TRACE(k);
        std::vector<unsigned char> active(k);
        std::size_t live = 0;
        for (std::size_t j = 0; j < k; ++j) {
          active[j] = j != 1 ? 1 : 0;
          live += active[j];
        }
        const Vec rb(n * k, 1.0);
        Vec zb(n * k, 0.0), fwd(n * k, 0.0), rz(k, 0.0);
        EXPECT_EQ(charged([&] { p.apply_cols(rb, zb, k, active.data(), fwd, rz.data()); }),
                  charged([&] {
                    for (std::size_t c = 0; c < live; ++c) one_column();
                  }));
      }
    }
  }
}

TEST_F(KernelChargeTest, SingleSolveChargesTheCgRule) {
  // One iteration of a k = 1 solve (max_iters = 1), written out as the
  // primitives the CG loop charges a column (sdd_solver.cpp): ||b||; the
  // start, r = b unseeded or the seed's SpMV, r = b - Mx and ||r|| seeded,
  // plus a pass when the seed is rejected; the preconditioner apply and
  // p = z; one iteration; the unconverged epilogue's ||r||. Tolerance 0
  // keeps the solve unconverged: sdd_mixed is a forest, so its IC(0) factor
  // is exact and one step already reaches rounding noise.
  for (const std::size_t n : {128u, 129u, 1000u}) {
    SCOPED_TRACE(n);
    const linalg::Csr m = sdd_mixed(n);
    par::Rng rng(n);
    Vec b(n);
    for (auto& v : b) v = rng.next_double() - 0.5;
    // 1e-3·b keeps its residual below ||b|| (M = I + L(G), 1e-3·λmax < 2);
    // the all-1e6 seed's residual is ~1e6·√n, so it is rejected.
    const Vec kept = linalg::scale(b, 1e-3);
    const Vec rejected(n, 1e6);
    for (const auto kind : {linalg::PrecondKind::kJacobi, linalg::PrecondKind::kIncompleteCholesky}) {
      SCOPED_TRACE(static_cast<int>(kind));
      linalg::SddPreconditioner p;
      p.build(m, kind);
      ASSERT_EQ(p.effective_kind(), kind);
      const auto apply = [&] {
        const unsigned char on = 1;
        Vec r(n, 1.0), z(n), fwd(n);
        double rz = 0.0;
        p.apply_cols(r, z, 1, &on, fwd, &rz);
      };
      for (const Vec* seed : {static_cast<const Vec*>(nullptr), &kept, &rejected}) {
        SCOPED_TRACE(seed == nullptr ? "unseeded" : seed == &kept ? "kept" : "rejected");
        core::SolverContext ctx;
        {
          const core::ContextScope scope(ctx);
          const linalg::SolveResult res =
              linalg::solve_sdd(ctx, m, b, p, {.tolerance = 0.0, .max_iters = 1}, seed);
          ASSERT_EQ(res.iterations, 1);
          ASSERT_FALSE(res.converged);
        }
        EXPECT_EQ(ctx.accel().warm_start_hits, seed == &kept ? 1u : 0u);
        EXPECT_EQ(par::to_string(ctx.tracker().snapshot()), charged([&] {
                    seq_reduce(n);
                    if (seed == nullptr) {
                      seq_pass(n);
                    } else {
                      seq_spmv(m, 1);
                      seq_pass(n);
                      seq_reduce(n);
                      if (seed == &rejected) seq_pass(n);
                    }
                    apply();
                    seq_pass(n);
                    seq_spmv(m, 1);
                    seq_reduce(n);
                    seq_pass(n);
                    seq_pass(n);
                    seq_reduce(n);
                    apply();
                    seq_pass(n);
                    seq_reduce(n);
                  }));
      }
    }
  }
}

}  // namespace
}  // namespace pmcf
