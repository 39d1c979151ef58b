// Canonical portable implementations of the kernel-layer contract declared
// in simd_kernels.hpp: every dispatched kernel, whose AVX2 twin must match
// it bit for bit, and the scalar-only kernels (dot_strided, csr_spmv,
// ic_fwd, ic_bwd), which have no vector twin. This TU is compiled with the
// project's default flags (no -march, and -ffp-contract=off via CMake so no
// toolchain can sneak an FMA in): what these loops compute, bit for bit, is
// what the AVX2 TU must reproduce and what tests/kernel_simd_test.cpp pins
// down.
//
// The stripe-4 accumulators are written as plain arrays indexed by i & 3 —
// the same association order the AVX2 lanes produce — and combined as
// (acc0 + acc1) + (acc2 + acc3).

#include "linalg/simd_kernels.hpp"

namespace pmcf::linalg::simd::scalar {

double dot(const double* a, const double* b, std::size_t n) {
  double acc[4] = {0.0, 0.0, 0.0, 0.0};
  for (std::size_t i = 0; i < n; ++i) acc[i & 3] += a[i] * b[i];
  return (acc[0] + acc[1]) + (acc[2] + acc[3]);
}

double dot_strided(const double* a, const double* b, std::size_t k,
                   std::size_t j, std::size_t n) {
  double acc[4] = {0.0, 0.0, 0.0, 0.0};
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t s = i * k + j;
    acc[i & 3] += a[s] * b[s];
  }
  return (acc[0] + acc[1]) + (acc[2] + acc[3]);
}

void axpby(double* y, double a, const double* x, double b, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] = a * x[i] + b * y[i];
}

double cg_step(double* x, double* r, const double* p, const double* mp,
               double alpha, std::size_t n) {
  double acc[4] = {0.0, 0.0, 0.0, 0.0};
  for (std::size_t i = 0; i < n; ++i) {
    x[i] += alpha * p[i];
    const double ri = r[i] - alpha * mp[i];
    r[i] = ri;
    acc[i & 3] += ri * ri;
  }
  return (acc[0] + acc[1]) + (acc[2] + acc[3]);
}

double jacobi_refresh(const double* dinv, const double* r, double* z,
                      std::size_t n) {
  double acc[4] = {0.0, 0.0, 0.0, 0.0};
  for (std::size_t i = 0; i < n; ++i) {
    const double zi = dinv[i] * r[i];
    z[i] = zi;
    acc[i & 3] += r[i] * zi;
  }
  return (acc[0] + acc[1]) + (acc[2] + acc[3]);
}

void dot_cols(const double* a, const double* b, std::size_t n, std::size_t k,
              double* out) {
  for (std::size_t j = 0; j < k; ++j) out[j] = dot_strided(a, b, k, j, n);
}

void cg_step_cols(double* x, double* r, const double* p, const double* mp,
                  const double* alpha, const unsigned char* active,
                  std::size_t n, std::size_t k, double* rr) {
  for (std::size_t j = 0; j < k; ++j) {
    if (!active[j]) continue;
    const double al = alpha[j];
    double acc[4] = {0.0, 0.0, 0.0, 0.0};
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t s = i * k + j;
      x[s] += al * p[s];
      const double ri = r[s] - al * mp[s];
      r[s] = ri;
      acc[i & 3] += ri * ri;
    }
    rr[j] = (acc[0] + acc[1]) + (acc[2] + acc[3]);
  }
}

void jacobi_refresh_cols(const double* dinv, const double* r, double* z,
                         const unsigned char* active, std::size_t n,
                         std::size_t k, double* rz) {
  for (std::size_t j = 0; j < k; ++j) {
    if (!active[j]) continue;
    double acc[4] = {0.0, 0.0, 0.0, 0.0};
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t s = i * k + j;
      const double zi = dinv[i] * r[s];
      z[s] = zi;
      acc[i & 3] += r[s] * zi;
    }
    rz[j] = (acc[0] + acc[1]) + (acc[2] + acc[3]);
  }
}

void axpby_cols(double* y, double a, const double* x, const double* b,
                const unsigned char* active, std::size_t n, std::size_t k) {
  for (std::size_t j = 0; j < k; ++j) {
    if (!active[j]) continue;
    const double bj = b[j];
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t s = i * k + j;
      y[s] = a * x[s] + bj * y[s];
    }
  }
}

void csr_spmv(const std::int64_t* off, const std::int32_t* col,
              const double* val, const double* x, double* y, std::size_t r0,
              std::size_t r1) {
  for (std::size_t r = r0; r < r1; ++r) {
    double acc = 0.0;
    for (std::int64_t t = off[r]; t < off[r + 1]; ++t)
      acc += val[static_cast<std::size_t>(t)] *
             x[static_cast<std::size_t>(col[static_cast<std::size_t>(t)])];
    y[r] = acc;
  }
}

void csr_block_spmv(const std::int64_t* off, const std::int32_t* col,
                    const double* val, const double* x, double* y,
                    std::size_t r0, std::size_t r1, std::size_t k) {
  for (std::size_t r = r0; r < r1; ++r) {
    double* yr = y + r * k;
    for (std::size_t j = 0; j < k; ++j) yr[j] = 0.0;
    for (std::int64_t t = off[r]; t < off[r + 1]; ++t) {
      const double v = val[static_cast<std::size_t>(t)];
      const double* xc =
          x + static_cast<std::size_t>(col[static_cast<std::size_t>(t)]) * k;
      for (std::size_t j = 0; j < k; ++j) yr[j] += v * xc[j];
    }
  }
}

void incidence_apply(const std::int32_t* from, const std::int32_t* to,
                     const double* h, double* y, std::size_t m,
                     std::int32_t dropped) {
  for (std::size_t e = 0; e < m; ++e) {
    const double hu = from[e] == dropped ? 0.0 : h[static_cast<std::size_t>(from[e])];
    const double hv = to[e] == dropped ? 0.0 : h[static_cast<std::size_t>(to[e])];
    y[e] = hv - hu;
  }
}

void ic_fwd(const std::int64_t* loff, const std::int32_t* lcol,
            const double* lval, const double* ldiag_inv, const double* r,
            double* fwd, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    double s = r[i];
    for (std::int64_t t = loff[i]; t < loff[i + 1]; ++t)
      s -= lval[static_cast<std::size_t>(t)] *
           fwd[static_cast<std::size_t>(lcol[static_cast<std::size_t>(t)])];
    fwd[i] = s * ldiag_inv[i];
  }
}

void ic_bwd(const std::int64_t* coff, const std::int32_t* crow,
            const std::int64_t* cidx, const double* lval,
            const double* ldiag_inv, const double* fwd, double* z,
            std::size_t n) {
  for (std::size_t ii = n; ii-- > 0;) {
    double s = fwd[ii];
    for (std::int64_t t = coff[ii]; t < coff[ii + 1]; ++t)
      s -= lval[static_cast<std::size_t>(cidx[static_cast<std::size_t>(t)])] *
           z[static_cast<std::size_t>(crow[static_cast<std::size_t>(t)])];
    z[ii] = s * ldiag_inv[ii];
  }
}

void ic_fwd_cols(const std::int64_t* loff, const std::int32_t* lcol,
                 const double* lval, const double* ldiag_inv, const double* r,
                 double* fwd, std::size_t n, std::size_t k) {
  // All k columns sweep together (inactive columns produce garbage into the
  // fwd scratch, never into caller state; column independence keeps the
  // active columns bit-exact).
  for (std::size_t i = 0; i < n; ++i) {
    double* fi = fwd + i * k;
    const double* ri = r + i * k;
    const double di = ldiag_inv[i];
    for (std::size_t j = 0; j < k; ++j) fi[j] = ri[j];
    for (std::int64_t t = loff[i]; t < loff[i + 1]; ++t) {
      const double lv = lval[static_cast<std::size_t>(t)];
      const double* fc =
          fwd + static_cast<std::size_t>(lcol[static_cast<std::size_t>(t)]) * k;
      for (std::size_t j = 0; j < k; ++j) fi[j] -= lv * fc[j];
    }
    for (std::size_t j = 0; j < k; ++j) fi[j] *= di;
  }
}

void ic_bwd_cols(const std::int64_t* coff, const std::int32_t* crow,
                 const std::int64_t* cidx, const double* lval,
                 const double* ldiag_inv, const double* fwd, double* z,
                 const unsigned char* active, std::size_t n, std::size_t k) {
  for (std::size_t ii = n; ii-- > 0;) {
    const double* fi = fwd + ii * k;
    double* zi = z + ii * k;
    const double di = ldiag_inv[ii];
    for (std::size_t j = 0; j < k; ++j) {
      if (!active[j]) continue;
      double s = fi[j];
      for (std::int64_t t = coff[ii]; t < coff[ii + 1]; ++t)
        s -= lval[static_cast<std::size_t>(cidx[static_cast<std::size_t>(t)])] *
             z[static_cast<std::size_t>(crow[static_cast<std::size_t>(t)]) * k + j];
      zi[j] = s * di;
    }
  }
}

}  // namespace pmcf::linalg::simd::scalar
