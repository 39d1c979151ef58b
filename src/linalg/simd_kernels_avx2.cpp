// AVX2 implementations of the dispatched kernels in simd_kernels.hpp. The
// scalar-only kernels (dot_strided, csr_spmv, ic_fwd, ic_bwd) have no body
// here: every function below is a vector kernel.
//
// Compiled with -mavx2 -ffp-contract=off (see src/CMakeLists.txt): the rest
// of the library keeps the baseline ISA, and no mul+add pair here may fuse
// into an FMA — fusion would change roundings and break the bitwise
// equivalence with the scalar TU that tests/kernel_simd_test.cpp asserts.
//
// Identity techniques used throughout (DESIGN.md §13):
//   - stripe-4 reductions: vector lane l accumulates indices i ≡ l (mod 4)
//     in ascending order, exactly the scalar canonical association; the
//     lanes combine as (acc0+acc1) + (acc2+acc3).
//   - masked lanes use blends, never arithmetic: an inactive column's state
//     is copied bit for bit (NaN payloads and -0.0 included).

#include <immintrin.h>

#include "linalg/simd_kernels.hpp"

namespace pmcf::linalg::simd::avx2 {

namespace {

/// Per-column-group mask: all-ones lanes for active[j] != 0.
inline __m256d col_mask(const unsigned char* active, std::size_t jc) {
  const __m256i m = _mm256_setr_epi64x(
      active[jc] ? -1 : 0, active[jc + 1] ? -1 : 0, active[jc + 2] ? -1 : 0,
      active[jc + 3] ? -1 : 0);
  return _mm256_castsi256_pd(m);
}

inline bool any_active(const unsigned char* active, std::size_t jc) {
  return active[jc] || active[jc + 1] || active[jc + 2] || active[jc + 3];
}

}  // namespace

double dot(const double* a, const double* b, std::size_t n) {
  __m256d acc = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4)
    acc = _mm256_add_pd(
        acc, _mm256_mul_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i)));
  double lane[4];
  _mm256_storeu_pd(lane, acc);
  for (; i < n; ++i) lane[i & 3] += a[i] * b[i];
  return (lane[0] + lane[1]) + (lane[2] + lane[3]);
}

void axpby(double* y, double a, const double* x, double b, std::size_t n) {
  const __m256d va = _mm256_set1_pd(a);
  const __m256d vb = _mm256_set1_pd(b);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d vy = _mm256_add_pd(_mm256_mul_pd(va, _mm256_loadu_pd(x + i)),
                                     _mm256_mul_pd(vb, _mm256_loadu_pd(y + i)));
    _mm256_storeu_pd(y + i, vy);
  }
  for (; i < n; ++i) y[i] = a * x[i] + b * y[i];
}

double cg_step(double* x, double* r, const double* p, const double* mp,
               double alpha, std::size_t n) {
  const __m256d va = _mm256_set1_pd(alpha);
  __m256d acc = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d vx = _mm256_add_pd(
        _mm256_loadu_pd(x + i), _mm256_mul_pd(va, _mm256_loadu_pd(p + i)));
    _mm256_storeu_pd(x + i, vx);
    const __m256d vr = _mm256_sub_pd(
        _mm256_loadu_pd(r + i), _mm256_mul_pd(va, _mm256_loadu_pd(mp + i)));
    _mm256_storeu_pd(r + i, vr);
    acc = _mm256_add_pd(acc, _mm256_mul_pd(vr, vr));
  }
  double lane[4];
  _mm256_storeu_pd(lane, acc);
  for (; i < n; ++i) {
    x[i] += alpha * p[i];
    const double ri = r[i] - alpha * mp[i];
    r[i] = ri;
    lane[i & 3] += ri * ri;
  }
  return (lane[0] + lane[1]) + (lane[2] + lane[3]);
}

double jacobi_refresh(const double* dinv, const double* r, double* z,
                      std::size_t n) {
  __m256d acc = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d vr = _mm256_loadu_pd(r + i);
    const __m256d vz = _mm256_mul_pd(_mm256_loadu_pd(dinv + i), vr);
    _mm256_storeu_pd(z + i, vz);
    acc = _mm256_add_pd(acc, _mm256_mul_pd(vr, vz));
  }
  double lane[4];
  _mm256_storeu_pd(lane, acc);
  for (; i < n; ++i) {
    const double zi = dinv[i] * r[i];
    z[i] = zi;
    lane[i & 3] += r[i] * zi;
  }
  return (lane[0] + lane[1]) + (lane[2] + lane[3]);
}

void dot_cols(const double* a, const double* b, std::size_t n, std::size_t k,
              double* out) {
  std::size_t jc = 0;
  for (; jc + 4 <= k; jc += 4) {
    __m256d acc0 = _mm256_setzero_pd();
    __m256d acc1 = _mm256_setzero_pd();
    __m256d acc2 = _mm256_setzero_pd();
    __m256d acc3 = _mm256_setzero_pd();
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
      const double* ai = a + i * k + jc;
      const double* bi = b + i * k + jc;
      acc0 = _mm256_add_pd(
          acc0, _mm256_mul_pd(_mm256_loadu_pd(ai), _mm256_loadu_pd(bi)));
      acc1 = _mm256_add_pd(acc1, _mm256_mul_pd(_mm256_loadu_pd(ai + k),
                                               _mm256_loadu_pd(bi + k)));
      acc2 = _mm256_add_pd(acc2, _mm256_mul_pd(_mm256_loadu_pd(ai + 2 * k),
                                               _mm256_loadu_pd(bi + 2 * k)));
      acc3 = _mm256_add_pd(acc3, _mm256_mul_pd(_mm256_loadu_pd(ai + 3 * k),
                                               _mm256_loadu_pd(bi + 3 * k)));
    }
    for (; i < n; ++i) {
      const __m256d prod = _mm256_mul_pd(_mm256_loadu_pd(a + i * k + jc),
                                         _mm256_loadu_pd(b + i * k + jc));
      switch (i & 3) {
        case 0: acc0 = _mm256_add_pd(acc0, prod); break;
        case 1: acc1 = _mm256_add_pd(acc1, prod); break;
        case 2: acc2 = _mm256_add_pd(acc2, prod); break;
        default: acc3 = _mm256_add_pd(acc3, prod); break;
      }
    }
    _mm256_storeu_pd(out + jc,
                     _mm256_add_pd(_mm256_add_pd(acc0, acc1),
                                   _mm256_add_pd(acc2, acc3)));
  }
  for (; jc < k; ++jc) out[jc] = scalar::dot_strided(a, b, k, jc, n);
}

void cg_step_cols(double* x, double* r, const double* p, const double* mp,
                  const double* alpha, const unsigned char* active,
                  std::size_t n, std::size_t k, double* rr) {
  std::size_t jc = 0;
  for (; jc + 4 <= k; jc += 4) {
    if (!any_active(active, jc)) continue;
    const __m256d mask = col_mask(active, jc);
    // Inactive lanes of `va` may hold stale alpha values; every use below is
    // blended away before it can touch caller state.
    const __m256d va = _mm256_loadu_pd(alpha + jc);
    __m256d acc0 = _mm256_setzero_pd();
    __m256d acc1 = _mm256_setzero_pd();
    __m256d acc2 = _mm256_setzero_pd();
    __m256d acc3 = _mm256_setzero_pd();
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t s = i * k + jc;
      const __m256d vxo = _mm256_loadu_pd(x + s);
      const __m256d vxn =
          _mm256_add_pd(vxo, _mm256_mul_pd(va, _mm256_loadu_pd(p + s)));
      _mm256_storeu_pd(x + s, _mm256_blendv_pd(vxo, vxn, mask));
      const __m256d vro = _mm256_loadu_pd(r + s);
      const __m256d vrn =
          _mm256_sub_pd(vro, _mm256_mul_pd(va, _mm256_loadu_pd(mp + s)));
      const __m256d vr = _mm256_blendv_pd(vro, vrn, mask);
      _mm256_storeu_pd(r + s, vr);
      const __m256d prod = _mm256_mul_pd(vr, vr);
      switch (i & 3) {
        case 0: acc0 = _mm256_add_pd(acc0, prod); break;
        case 1: acc1 = _mm256_add_pd(acc1, prod); break;
        case 2: acc2 = _mm256_add_pd(acc2, prod); break;
        default: acc3 = _mm256_add_pd(acc3, prod); break;
      }
    }
    // rr slots of inactive columns are unspecified by contract; storing the
    // whole group keeps the epilogue branch-free.
    _mm256_storeu_pd(rr + jc,
                     _mm256_add_pd(_mm256_add_pd(acc0, acc1),
                                   _mm256_add_pd(acc2, acc3)));
  }
  for (; jc < k; ++jc) {
    if (!active[jc]) continue;
    const double al = alpha[jc];
    double acc[4] = {0.0, 0.0, 0.0, 0.0};
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t s = i * k + jc;
      x[s] += al * p[s];
      const double ri = r[s] - al * mp[s];
      r[s] = ri;
      acc[i & 3] += ri * ri;
    }
    rr[jc] = (acc[0] + acc[1]) + (acc[2] + acc[3]);
  }
}

void jacobi_refresh_cols(const double* dinv, const double* r, double* z,
                         const unsigned char* active, std::size_t n,
                         std::size_t k, double* rz) {
  std::size_t jc = 0;
  for (; jc + 4 <= k; jc += 4) {
    if (!any_active(active, jc)) continue;
    const __m256d mask = col_mask(active, jc);
    __m256d acc0 = _mm256_setzero_pd();
    __m256d acc1 = _mm256_setzero_pd();
    __m256d acc2 = _mm256_setzero_pd();
    __m256d acc3 = _mm256_setzero_pd();
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t s = i * k + jc;
      const __m256d vd = _mm256_set1_pd(dinv[i]);
      const __m256d vr = _mm256_loadu_pd(r + s);
      const __m256d vzn = _mm256_mul_pd(vd, vr);
      const __m256d vz = _mm256_blendv_pd(_mm256_loadu_pd(z + s), vzn, mask);
      _mm256_storeu_pd(z + s, vz);
      const __m256d prod = _mm256_mul_pd(vr, vz);
      switch (i & 3) {
        case 0: acc0 = _mm256_add_pd(acc0, prod); break;
        case 1: acc1 = _mm256_add_pd(acc1, prod); break;
        case 2: acc2 = _mm256_add_pd(acc2, prod); break;
        default: acc3 = _mm256_add_pd(acc3, prod); break;
      }
    }
    _mm256_storeu_pd(rz + jc,
                     _mm256_add_pd(_mm256_add_pd(acc0, acc1),
                                   _mm256_add_pd(acc2, acc3)));
  }
  for (; jc < k; ++jc) {
    if (!active[jc]) continue;
    double acc[4] = {0.0, 0.0, 0.0, 0.0};
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t s = i * k + jc;
      const double zi = dinv[i] * r[s];
      z[s] = zi;
      acc[i & 3] += r[s] * zi;
    }
    rz[jc] = (acc[0] + acc[1]) + (acc[2] + acc[3]);
  }
}

void axpby_cols(double* y, double a, const double* x, const double* b,
                const unsigned char* active, std::size_t n, std::size_t k) {
  const __m256d va = _mm256_set1_pd(a);
  std::size_t jc = 0;
  for (; jc + 4 <= k; jc += 4) {
    if (!any_active(active, jc)) continue;
    const __m256d mask = col_mask(active, jc);
    const __m256d vb = _mm256_loadu_pd(b + jc);
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t s = i * k + jc;
      const __m256d vyo = _mm256_loadu_pd(y + s);
      const __m256d vyn = _mm256_add_pd(
          _mm256_mul_pd(va, _mm256_loadu_pd(x + s)), _mm256_mul_pd(vb, vyo));
      _mm256_storeu_pd(y + s, _mm256_blendv_pd(vyo, vyn, mask));
    }
  }
  for (; jc < k; ++jc) {
    if (!active[jc]) continue;
    const double bj = b[jc];
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t s = i * k + jc;
      y[s] = a * x[s] + bj * y[s];
    }
  }
}

void csr_block_spmv(const std::int64_t* off, const std::int32_t* col,
                    const double* val, const double* x, double* y,
                    std::size_t r0, std::size_t r1, std::size_t k) {
  for (std::size_t r = r0; r < r1; ++r) {
    double* yr = y + r * k;
    const std::int64_t t0 = off[r];
    const std::int64_t t1 = off[r + 1];
    std::size_t jc = 0;
    for (; jc + 4 <= k; jc += 4) {
      // Register accumulation starting from +0.0 — the same value the
      // scalar kernel stores before accumulating in CSR order.
      __m256d acc = _mm256_setzero_pd();
      for (std::int64_t t = t0; t < t1; ++t) {
        const __m256d vv = _mm256_set1_pd(val[static_cast<std::size_t>(t)]);
        const double* xc =
            x + static_cast<std::size_t>(col[static_cast<std::size_t>(t)]) * k;
        acc = _mm256_add_pd(acc, _mm256_mul_pd(vv, _mm256_loadu_pd(xc + jc)));
      }
      _mm256_storeu_pd(yr + jc, acc);
    }
    for (; jc < k; ++jc) {
      double acc = 0.0;
      for (std::int64_t t = t0; t < t1; ++t)
        acc += val[static_cast<std::size_t>(t)] *
               x[static_cast<std::size_t>(col[static_cast<std::size_t>(t)]) * k + jc];
      yr[jc] = acc;
    }
  }
}

void incidence_apply(const std::int32_t* from, const std::int32_t* to,
                     const double* h, double* y, std::size_t m,
                     std::int32_t dropped) {
  const __m128i vd = _mm_set1_epi32(dropped);
  const __m256d zero = _mm256_setzero_pd();
  std::size_t e = 0;
  for (; e + 4 <= m; e += 4) {
    if (e + 16 < m) {
      // Software prefetch of the gather targets a few groups ahead; the
      // index streams themselves are sequential and hardware-prefetched.
      _mm_prefetch(reinterpret_cast<const char*>(
                       h + static_cast<std::size_t>(from[e + 16])),
                   _MM_HINT_T0);
      _mm_prefetch(reinterpret_cast<const char*>(
                       h + static_cast<std::size_t>(to[e + 16])),
                   _MM_HINT_T0);
    }
    const __m128i f4 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(from + e));
    const __m128i t4 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(to + e));
    __m256d hu = _mm256_i32gather_pd(h, f4, 8);
    __m256d hv = _mm256_i32gather_pd(h, t4, 8);
    const __m256d mf = _mm256_castsi256_pd(
        _mm256_cvtepi32_epi64(_mm_cmpeq_epi32(f4, vd)));
    const __m256d mt = _mm256_castsi256_pd(
        _mm256_cvtepi32_epi64(_mm_cmpeq_epi32(t4, vd)));
    hu = _mm256_blendv_pd(hu, zero, mf);
    hv = _mm256_blendv_pd(hv, zero, mt);
    _mm256_storeu_pd(y + e, _mm256_sub_pd(hv, hu));
  }
  for (; e < m; ++e) {
    const double hu = from[e] == dropped ? 0.0 : h[static_cast<std::size_t>(from[e])];
    const double hv = to[e] == dropped ? 0.0 : h[static_cast<std::size_t>(to[e])];
    y[e] = hv - hu;
  }
}

void ic_fwd_cols(const std::int64_t* loff, const std::int32_t* lcol,
                 const double* lval, const double* ldiag_inv, const double* r,
                 double* fwd, std::size_t n, std::size_t k) {
  std::size_t jc = 0;
  for (; jc + 4 <= k; jc += 4) {
    for (std::size_t i = 0; i < n; ++i) {
      __m256d s = _mm256_loadu_pd(r + i * k + jc);
      for (std::int64_t t = loff[i]; t < loff[i + 1]; ++t) {
        const __m256d lv = _mm256_set1_pd(lval[static_cast<std::size_t>(t)]);
        const double* fc =
            fwd + static_cast<std::size_t>(lcol[static_cast<std::size_t>(t)]) * k;
        s = _mm256_sub_pd(s, _mm256_mul_pd(lv, _mm256_loadu_pd(fc + jc)));
      }
      _mm256_storeu_pd(
          fwd + i * k + jc,
          _mm256_mul_pd(s, _mm256_set1_pd(ldiag_inv[i])));
    }
  }
  for (; jc < k; ++jc) {
    for (std::size_t i = 0; i < n; ++i) {
      double s = r[i * k + jc];
      for (std::int64_t t = loff[i]; t < loff[i + 1]; ++t)
        s -= lval[static_cast<std::size_t>(t)] *
             fwd[static_cast<std::size_t>(lcol[static_cast<std::size_t>(t)]) * k + jc];
      fwd[i * k + jc] = s * ldiag_inv[i];
    }
  }
}

void ic_bwd_cols(const std::int64_t* coff, const std::int32_t* crow,
                 const std::int64_t* cidx, const double* lval,
                 const double* ldiag_inv, const double* fwd, double* z,
                 const unsigned char* active, std::size_t n, std::size_t k) {
  std::size_t jc = 0;
  for (; jc + 4 <= k; jc += 4) {
    if (!any_active(active, jc)) continue;
    const __m256d mask = col_mask(active, jc);
    for (std::size_t ii = n; ii-- > 0;) {
      __m256d s = _mm256_loadu_pd(fwd + ii * k + jc);
      for (std::int64_t t = coff[ii]; t < coff[ii + 1]; ++t) {
        const __m256d lv = _mm256_set1_pd(
            lval[static_cast<std::size_t>(cidx[static_cast<std::size_t>(t)])]);
        const double* zr =
            z + static_cast<std::size_t>(crow[static_cast<std::size_t>(t)]) * k;
        s = _mm256_sub_pd(s, _mm256_mul_pd(lv, _mm256_loadu_pd(zr + jc)));
      }
      const __m256d zn = _mm256_mul_pd(s, _mm256_set1_pd(ldiag_inv[ii]));
      const __m256d zo = _mm256_loadu_pd(z + ii * k + jc);
      _mm256_storeu_pd(z + ii * k + jc, _mm256_blendv_pd(zo, zn, mask));
    }
  }
  for (; jc < k; ++jc) {
    if (!active[jc]) continue;
    for (std::size_t ii = n; ii-- > 0;) {
      double s = fwd[ii * k + jc];
      for (std::int64_t t = coff[ii]; t < coff[ii + 1]; ++t)
        s -= lval[static_cast<std::size_t>(cidx[static_cast<std::size_t>(t)])] *
             z[static_cast<std::size_t>(crow[static_cast<std::size_t>(t)]) * k + jc];
      z[ii * k + jc] = s * ldiag_inv[ii];
    }
  }
}

}  // namespace pmcf::linalg::simd::avx2
