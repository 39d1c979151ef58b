#pragma once
// Raw-pointer kernels behind the SIMD dispatch seam (DESIGN.md §13).
//
// Two kinds of kernel:
//
//   dispatched   — declared by PMCF_DECLARE_SIMD_KERNELS and implemented
//                  twice. simd::scalar::* (portable C++, always compiled) is
//                  the canonical definition: the exact per-element
//                  expressions and the exact reduction order. simd::avx2::*
//                  (AVX2 intrinsics, compiled only under PMCF_SIMD=ON; its TU
//                  gets -mavx2 -ffp-contract=off) reproduces it bit for bit
//                  by construction: same expressions, separate mul/add
//                  (never FMA), identical reduction orders, masked blends
//                  (never arithmetic) for inactive lanes so even NaN/±0
//                  payloads survive. The dispatchers at the bottom pick
//                  avx2:: when simd::enabled().
//   scalar-only  — dot_strided, csr_spmv, ic_fwd and ic_bwd, declared once
//                  in simd::scalar. Stride-k loads do not vectorize
//                  profitably, and a row sum or a triangular sweep has no
//                  vector form that keeps the canonical order without
//                  another layout or row order. The last three serve the
//                  k = 1 case of their column dispatchers.
//
// All are plain kernels: no PRAM charges, no tracker access, no pool
// dispatch. The callers (kernels.hpp, Csr, IncidenceOp, SddPreconditioner,
// the CG loop in sdd_solver.cpp) charge the PRAM cost at kernel entry and
// then call here in every execution mode, so these kernels are the only
// arithmetic served.
//
// Reduction order contract: every dot-like reduction is "stripe-4": four
// accumulators acc[i mod 4] folded left to right over ascending i, combined
// as (acc0 + acc1) + (acc2 + acc3). The stripes break the scalar add
// dependency chain, map 1:1 onto a 4-lane vector register, and — because the
// order depends only on n — keep the contiguous, strided, and batched
// column kernels bitwise interchangeable (tests/accel_test.cpp leans on
// this: column j of a k-column solve_sdd_block must equal its k = 1 solve).

#include <cstddef>
#include <cstdint>

#include "linalg/simd.hpp"

namespace pmcf::linalg::simd {

// The dispatched kernels: implemented once in simd_kernels_scalar.cpp and
// once (same signatures) in simd_kernels_avx2.cpp.
#define PMCF_DECLARE_SIMD_KERNELS                                              \
  /* stripe-4 dot over contiguous storage */                                   \
  double dot(const double* a, const double* b, std::size_t n);                 \
  /* y[i] = a*x[i] + b*y[i] */                                                 \
  void axpby(double* y, double a, const double* x, double b, std::size_t n);   \
  /* x += alpha*p, r -= alpha*mp; returns stripe-4 sum of r[i]^2 */            \
  double cg_step(double* x, double* r, const double* p, const double* mp,      \
                 double alpha, std::size_t n);                                 \
  /* z = dinv .* r; returns stripe-4 sum of r[i]*z[i] */                       \
  double jacobi_refresh(const double* dinv, const double* r, double* z,        \
                        std::size_t n);                                        \
  /* out[j] = dot_strided(a, b, k, j, n) for every column j < k */             \
  void dot_cols(const double* a, const double* b, std::size_t n,               \
                std::size_t k, double* out);                                   \
  /* per active column j: x_col += alpha[j]*p_col, r_col -= alpha[j]*mp_col,  \
     rr[j] = stripe-4 sum r_col^2; inactive columns are left bit-identical    \
     (masked blends) and their rr slot is unspecified */                       \
  void cg_step_cols(double* x, double* r, const double* p, const double* mp,   \
                    const double* alpha, const unsigned char* active,          \
                    std::size_t n, std::size_t k, double* rr);                 \
  /* per active column j: z_col = dinv .* r_col, rz[j] = stripe-4 r.z */       \
  void jacobi_refresh_cols(const double* dinv, const double* r, double* z,     \
                           const unsigned char* active, std::size_t n,         \
                           std::size_t k, double* rz);                         \
  /* per active column j: y_col = a*x_col + b[j]*y_col */                      \
  void axpby_cols(double* y, double a, const double* x, const double* b,       \
                  const unsigned char* active, std::size_t n, std::size_t k);  \
  /* block SpMV rows [r0, r1) of a row-major n×k block: per (row, j) the     \
     accumulation runs in CSR order from +0.0, bitwise equal to csr_spmv on   \
     column j alone */                                                         \
  void csr_block_spmv(const std::int64_t* off, const std::int32_t* col,        \
                      const double* val, const double* x, double* y,           \
                      std::size_t r0, std::size_t r1, std::size_t k);          \
  /* incidence gather: y[e] = hv - hu with h[dropped] read as +0.0 */          \
  void incidence_apply(const std::int32_t* from, const std::int32_t* to,       \
                       const double* h, double* y, std::size_t m,              \
                       std::int32_t dropped);                                  \
  /* batched IC sweeps over row-major n×k blocks, vectorized across          \
     columns; fwd is caller scratch (n×k), z writes are masked by `active` */ \
  void ic_fwd_cols(const std::int64_t* loff, const std::int32_t* lcol,         \
                   const double* lval, const double* ldiag_inv,                \
                   const double* r, double* fwd, std::size_t n,                \
                   std::size_t k);                                             \
  void ic_bwd_cols(const std::int64_t* coff, const std::int32_t* crow,         \
                   const std::int64_t* cidx, const double* lval,               \
                   const double* ldiag_inv, const double* fwd, double* z,      \
                   const unsigned char* active, std::size_t n, std::size_t k);

namespace scalar {
PMCF_DECLARE_SIMD_KERNELS

// The scalar-only kernels (simd_kernels_scalar.cpp).

/// stripe-4 dot over column j of a row-major n×k block (slot i*k+j)
double dot_strided(const double* a, const double* b, std::size_t k, std::size_t j,
                   std::size_t n);
/// CSR SpMV rows [r0, r1): y[r] = sum_t val[t]*x[col[t]] in CSR order from +0.0
void csr_spmv(const std::int64_t* off, const std::int32_t* col, const double* val,
              const double* x, double* y, std::size_t r0, std::size_t r1);
/// IC(0) forward sweep, single RHS: fwd[i] = (r[i] - L(i,:)·fwd) / L(i,i),
/// rows ascending, per-row pattern order
void ic_fwd(const std::int64_t* loff, const std::int32_t* lcol, const double* lval,
            const double* ldiag_inv, const double* r, double* fwd, std::size_t n);
/// IC(0) backward sweep, single RHS, via the CSC view of L, rows descending
void ic_bwd(const std::int64_t* coff, const std::int32_t* crow, const std::int64_t* cidx,
            const double* lval, const double* ldiag_inv, const double* fwd, double* z,
            std::size_t n);
}  // namespace scalar

#if defined(PMCF_SIMD_AVX2)
namespace avx2 {
PMCF_DECLARE_SIMD_KERNELS
}  // namespace avx2
#endif

#undef PMCF_DECLARE_SIMD_KERNELS

// ---------------------------------------------------------------------------
// Dispatchers: one runtime check per kernel call, then straight-line code.
// With PMCF_SIMD=OFF these compile to direct scalar calls.
// ---------------------------------------------------------------------------

#if defined(PMCF_SIMD_AVX2)
#define PMCF_SIMD_DISPATCH(fn, ...) \
  return enabled() ? avx2::fn(__VA_ARGS__) : scalar::fn(__VA_ARGS__)
#else
#define PMCF_SIMD_DISPATCH(fn, ...) return scalar::fn(__VA_ARGS__)
#endif

inline double dot(const double* a, const double* b, std::size_t n) {
  PMCF_SIMD_DISPATCH(dot, a, b, n);
}
inline void axpby(double* y, double a, const double* x, double b, std::size_t n) {
  PMCF_SIMD_DISPATCH(axpby, y, a, x, b, n);
}
inline double cg_step(double* x, double* r, const double* p, const double* mp,
                      double alpha, std::size_t n) {
  PMCF_SIMD_DISPATCH(cg_step, x, r, p, mp, alpha, n);
}
inline double jacobi_refresh(const double* dinv, const double* r, double* z,
                             std::size_t n) {
  PMCF_SIMD_DISPATCH(jacobi_refresh, dinv, r, z, n);
}

// At k = 1 a row-major n×k block is a plain vector, so each column
// dispatcher serves it with the contiguous kernel (the column kernels are
// its bitwise twins): the k = 1 CG loop runs the single-vector bodies, with
// no stride or mask bookkeeping, and a k fixed at compile time folds the test.
inline void dot_cols(const double* a, const double* b, std::size_t n,
                     std::size_t k, double* out) {
  if (k == 1) {
    out[0] = dot(a, b, n);
    return;
  }
  PMCF_SIMD_DISPATCH(dot_cols, a, b, n, k, out);
}
inline void cg_step_cols(double* x, double* r, const double* p, const double* mp,
                         const double* alpha, const unsigned char* active,
                         std::size_t n, std::size_t k, double* rr) {
  if (k == 1) {
    if (active[0]) rr[0] = cg_step(x, r, p, mp, alpha[0], n);
    return;
  }
  PMCF_SIMD_DISPATCH(cg_step_cols, x, r, p, mp, alpha, active, n, k, rr);
}
inline void jacobi_refresh_cols(const double* dinv, const double* r, double* z,
                                const unsigned char* active, std::size_t n,
                                std::size_t k, double* rz) {
  if (k == 1) {
    if (active[0]) rz[0] = jacobi_refresh(dinv, r, z, n);
    return;
  }
  PMCF_SIMD_DISPATCH(jacobi_refresh_cols, dinv, r, z, active, n, k, rz);
}
inline void axpby_cols(double* y, double a, const double* x, const double* b,
                       const unsigned char* active, std::size_t n, std::size_t k) {
  if (k == 1) {
    if (active[0]) axpby(y, a, x, b[0], n);
    return;
  }
  PMCF_SIMD_DISPATCH(axpby_cols, y, a, x, b, active, n, k);
}
inline void csr_block_spmv(const std::int64_t* off, const std::int32_t* col,
                           const double* val, const double* x, double* y,
                           std::size_t r0, std::size_t r1, std::size_t k) {
  if (k == 1) return scalar::csr_spmv(off, col, val, x, y, r0, r1);
  PMCF_SIMD_DISPATCH(csr_block_spmv, off, col, val, x, y, r0, r1, k);
}
inline void incidence_apply(const std::int32_t* from, const std::int32_t* to,
                            const double* h, double* y, std::size_t m,
                            std::int32_t dropped) {
  PMCF_SIMD_DISPATCH(incidence_apply, from, to, h, y, m, dropped);
}
inline void ic_fwd_cols(const std::int64_t* loff, const std::int32_t* lcol,
                        const double* lval, const double* ldiag_inv,
                        const double* r, double* fwd, std::size_t n,
                        std::size_t k) {
  if (k == 1) return scalar::ic_fwd(loff, lcol, lval, ldiag_inv, r, fwd, n);
  PMCF_SIMD_DISPATCH(ic_fwd_cols, loff, lcol, lval, ldiag_inv, r, fwd, n, k);
}
inline void ic_bwd_cols(const std::int64_t* coff, const std::int32_t* crow,
                        const std::int64_t* cidx, const double* lval,
                        const double* ldiag_inv, const double* fwd, double* z,
                        const unsigned char* active, std::size_t n,
                        std::size_t k) {
  if (k == 1) {
    if (active[0]) scalar::ic_bwd(coff, crow, cidx, lval, ldiag_inv, fwd, z, n);
    return;
  }
  PMCF_SIMD_DISPATCH(ic_bwd_cols, coff, crow, cidx, lval, ldiag_inv, fwd, z,
                     active, n, k);
}

#undef PMCF_SIMD_DISPATCH

}  // namespace pmcf::linalg::simd
