#pragma once
// Vector algebra for the CG and IPM loops.
//
// This header is the single kernel layer of the library (it absorbed the old
// vec_ops.hpp): by-value helpers for cold paths, allocation-free _into
// kernels for hot loops, the PRAM charge helper, and the strided column dot
// the CG epilogue uses.
//
// Every hot kernel has one body (DESIGN.md §8). It first charges the PRAM
// cost of the primitive sequence it stands for — a no-op unless the current
// tracker records — and then runs the canonical simd:: kernel
// (linalg/simd_kernels.hpp) on the calling thread: AVX2 when available, else
// the portable scalar kernel, bit for bit the same (dot_strided has only the
// scalar kernel). So each kernel does one arithmetic in every execution
// mode: an instrumented run computes exactly what a wall-clock run
// computes, and its PRAM counts describe the computation actually served.
// Reductions use the stripe-4 order, which keeps the contiguous, strided
// and batched column kernels bitwise interchangeable (tests/accel_test.cpp,
// tests/kernel_simd_test.cpp).
//
// Charges (lg n = par::ceil_log2(n); an empty range charges nothing),
// pinned by KernelChargeTest in tests/kernel_simd_test.cpp:
//
//   elementwise pass over n   (n, lg n)       one parallel_for
//   reduction over n          (n, 2 lg n)     one parallel_reduce
//
// The CG loop (sdd_solver.cpp) charges each column its own sequence of
// these passes and reductions (DESIGN.md §10; written out for k = 1 by
// KernelChargeTest.SingleSolveChargesTheCgRule). The SpMV, incidence and
// IC(0) charges live with those kernels (csr.hpp, incidence.cpp,
// preconditioner.cpp).

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "linalg/simd_kernels.hpp"
#include "parallel/scheduler.hpp"

namespace pmcf::linalg {

using Vec = std::vector<double>;

/// Charges what `passes` parallel_for and `reductions` parallel_reduce calls
/// over n elements would: (passes + reductions)·n work and
/// (passes + 2·reductions)·lg n depth.
inline void charge_passes(std::size_t n, std::uint64_t passes, std::uint64_t reductions) {
  if (n == 0) return;
  par::charge((passes + reductions) * n, (passes + 2 * reductions) * par::ceil_log2(n));
}

/// charge_passes summed over a run of passes, charged once by charge().
struct PassTally {
  std::uint64_t work = 0;
  std::uint64_t depth = 0;
  void add(std::size_t n, std::uint64_t passes, std::uint64_t reductions) {
    if (n == 0) return;
    work += (passes + reductions) * n;
    depth += (passes + 2 * reductions) * par::ceil_log2(n);
  }
  void charge() const { par::charge(work, depth); }
};

// ---------------------------------------------------------------------------
// By-value helpers (cold paths; allocate their result).
// ---------------------------------------------------------------------------

inline Vec constant(std::size_t n, double v) {
  return par::tabulate<double>(n, [&](std::size_t) { return v; });
}

template <class F>
Vec map(const Vec& a, F&& f) {
  return par::tabulate<double>(a.size(), [&](std::size_t i) { return f(a[i]); });
}

template <class F>
Vec zip(const Vec& a, const Vec& b, F&& f) {
  return par::tabulate<double>(a.size(), [&](std::size_t i) { return f(a[i], b[i]); });
}

inline Vec add(const Vec& a, const Vec& b) { return zip(a, b, [](double x, double y) { return x + y; }); }
inline Vec sub(const Vec& a, const Vec& b) { return zip(a, b, [](double x, double y) { return x - y; }); }
inline Vec mul(const Vec& a, const Vec& b) { return zip(a, b, [](double x, double y) { return x * y; }); }
inline Vec scale(const Vec& a, double s) { return map(a, [s](double x) { return x * s; }); }

// ---------------------------------------------------------------------------
// Reductions.
// ---------------------------------------------------------------------------

inline double dot(const Vec& a, const Vec& b) {
  charge_passes(a.size(), 0, 1);
  return simd::dot(a.data(), b.data(), a.size());
}

inline double sum(const Vec& a) {
  return par::parallel_reduce<double>(
      0, a.size(), 0.0, [&](std::size_t i) { return a[i]; },
      [](double x, double y) { return x + y; });
}

inline double norm2(const Vec& a) { return std::sqrt(dot(a, a)); }

inline double norm_inf(const Vec& a) {
  return par::parallel_reduce<double>(
      0, a.size(), 0.0, [&](std::size_t i) { return std::abs(a[i]); },
      [](double x, double y) { return x > y ? x : y; });
}

/// ||v||_tau = sqrt(sum tau_i v_i^2)  (Section 2.1).
inline double norm_tau(const Vec& v, const Vec& tau) {
  return std::sqrt(par::parallel_reduce<double>(
      0, v.size(), 0.0, [&](std::size_t i) { return tau[i] * v[i] * v[i]; },
      [](double x, double y) { return x + y; }));
}

/// Mixed norm ||v||_{tau+inf} = ||v||_inf + c_norm * ||v||_tau  (Section 2.1).
inline double norm_tau_inf(const Vec& v, const Vec& tau, double c_norm) {
  return norm_inf(v) + c_norm * norm_tau(v, tau);
}

/// Entrywise u ≈_eps v: exp(-eps) v_i <= u_i <= exp(eps) v_i for all i
/// (requires same strict sign; used for approximation invariants).
bool approx_eq(const Vec& u, const Vec& v, double eps);

// ---------------------------------------------------------------------------
// Allocation-free elementwise kernels (write into caller-owned buffers).
// ---------------------------------------------------------------------------

/// out[i] = f(a[i]); out must already have a.size() elements.
template <class F>
void map_into(const Vec& a, Vec& out, F&& f) {
  par::parallel_for(0, a.size(), [&](std::size_t i) { out[i] = f(a[i]); });
}

/// out[i] = f(a[i], b[i]); out must already have a.size() elements.
template <class F>
void zip_into(const Vec& a, const Vec& b, Vec& out, F&& f) {
  par::parallel_for(0, a.size(), [&](std::size_t i) { out[i] = f(a[i], b[i]); });
}

inline void sub_into(const Vec& a, const Vec& b, Vec& out) {
  zip_into(a, b, out, [](double x, double y) { return x - y; });
}
inline void mul_into(const Vec& a, const Vec& b, Vec& out) {
  zip_into(a, b, out, [](double x, double y) { return x * y; });
}
inline void scale_into(const Vec& a, double s, Vec& out) {
  map_into(a, out, [s](double x) { return x * s; });
}

/// dot over column j of a row-major n×k block: sum_i a[i*k+j] * b[i*k+j],
/// in the same stripe-4 order as dot() on the column alone.
inline double dot_strided(const Vec& a, const Vec& b, std::size_t k, std::size_t j,
                          std::size_t n) {
  charge_passes(n, 0, 1);
  return simd::scalar::dot_strided(a.data(), b.data(), k, j, n);
}

}  // namespace pmcf::linalg
