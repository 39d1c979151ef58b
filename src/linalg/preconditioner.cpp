#include "linalg/preconditioner.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "linalg/simd_kernels.hpp"
#include "parallel/scheduler.hpp"

namespace pmcf::linalg {

void SddPreconditioner::build(const Csr& m, PrecondKind requested) {
  n_ = m.dim();
  fell_back_ = false;
  if (requested == PrecondKind::kIncompleteCholesky && build_ic0(m)) {
    kind_ = PrecondKind::kIncompleteCholesky;
    return;
  }
  fell_back_ = requested == PrecondKind::kIncompleteCholesky;
  kind_ = PrecondKind::kJacobi;
  build_jacobi(m);
}

void SddPreconditioner::build_jacobi(const Csr& m) {
  dinv_.resize(n_);
  m.diagonal_into(dinv_);
  map_into(dinv_, dinv_, [](double d) { return d > 0.0 ? 1.0 / d : 1.0; });
}

bool SddPreconditioner::build_ic0(const Csr& m) {
  const auto& off = m.offsets();
  const auto& col = m.cols();
  const auto& val = m.vals();

  // Pattern: the strictly lower triangle of M, row by row (columns already
  // ascending in CSR), plus the diagonal extracted alongside.
  loff_.assign(n_ + 1, 0);
  std::size_t lower_nnz = 0;
  for (std::size_t i = 0; i < n_; ++i) {
    for (std::int64_t t = off[i]; t < off[i + 1]; ++t)
      lower_nnz += static_cast<std::size_t>(col[static_cast<std::size_t>(t)]) < i ? 1 : 0;
    loff_[i + 1] = static_cast<std::int64_t>(lower_nnz);
  }
  lcol_.resize(lower_nnz);
  lval_.resize(lower_nnz);
  ldiag_inv_.resize(n_);
  Vec diag(n_, 0.0);
  {
    std::size_t w = 0;
    for (std::size_t i = 0; i < n_; ++i) {
      for (std::int64_t t = off[i]; t < off[i + 1]; ++t) {
        const auto c = static_cast<std::size_t>(col[static_cast<std::size_t>(t)]);
        if (c < i) {
          lcol_[w] = col[static_cast<std::size_t>(t)];
          lval_[w] = val[static_cast<std::size_t>(t)];
          ++w;
        } else if (c == i) {
          diag[i] += val[static_cast<std::size_t>(t)];
        }
      }
    }
  }

  // Up-looking factorization. For row i, left to right over its pattern:
  //   L(i,j) = (A(i,j) - <L(i,:j), L(j,:j)>) / L(j,j)
  //   L(i,i) = sqrt(A(i,i) - ||L(i,:i)||^2)
  // The sparse dots two-pointer over the already-final prefixes of rows i
  // and j. The traversal cost is pattern-determined, so the PRAM charge
  // below is deterministic for a fixed matrix structure.
  std::uint64_t ops = 0;
  for (std::size_t i = 0; i < n_; ++i) {
    double sq = 0.0;
    for (std::int64_t t = loff_[i]; t < loff_[i + 1]; ++t) {
      const auto j = static_cast<std::size_t>(lcol_[static_cast<std::size_t>(t)]);
      double s = lval_[static_cast<std::size_t>(t)];
      std::int64_t a = loff_[i];
      std::int64_t b = loff_[j];
      while (a < t && b < loff_[j + 1]) {
        const std::int32_t ca = lcol_[static_cast<std::size_t>(a)];
        const std::int32_t cb = lcol_[static_cast<std::size_t>(b)];
        ++ops;
        if (ca == cb) {
          s -= lval_[static_cast<std::size_t>(a)] * lval_[static_cast<std::size_t>(b)];
          ++a;
          ++b;
        } else if (ca < cb) {
          ++a;
        } else {
          ++b;
        }
      }
      const double lij = s * ldiag_inv_[j];
      lval_[static_cast<std::size_t>(t)] = lij;
      sq += lij * lij;
      ++ops;
    }
    const double piv = diag[i] - sq;
    if (!(piv > 0.0) || !std::isfinite(piv)) return false;  // breakdown
    ldiag_inv_[i] = 1.0 / std::sqrt(piv);
    ++ops;
  }

  // CSC index of the strictly lower factor for the backward sweep.
  coff_.assign(n_ + 1, 0);
  for (const std::int32_t c : lcol_) ++coff_[static_cast<std::size_t>(c) + 1];
  for (std::size_t i = 0; i < n_; ++i) coff_[i + 1] += coff_[i];
  crow_.resize(lower_nnz);
  cidx_.resize(lower_nnz);
  {
    std::vector<std::int64_t> cur(coff_.begin(), coff_.end() - 1);
    for (std::size_t i = 0; i < n_; ++i) {
      for (std::int64_t t = loff_[i]; t < loff_[i + 1]; ++t) {
        const auto c = static_cast<std::size_t>(lcol_[static_cast<std::size_t>(t)]);
        crow_[static_cast<std::size_t>(cur[c])] = static_cast<std::int32_t>(i);
        cidx_[static_cast<std::size_t>(cur[c])] = t;
        ++cur[c];
      }
    }
  }
  par::charge(ops + 2 * lower_nnz + n_,
              2 * par::ceil_log2(std::max<std::size_t>(n_, 2)));
  return true;
}

namespace {

// The triangular sweeps run sequentially on the calling thread; in the PRAM
// model they stand in for level-scheduled substitution (work O(nnz(L)),
// depth O(#levels)), charged once per column swept at 2⌈lg max(n, 2)⌉ depth
// whatever the factor's real level count. See DESIGN.md §10.
inline void charge_sweeps(std::size_t lnnz, std::size_t n, std::uint64_t cols) {
  par::charge(cols * 2 * (lnnz + n), cols * 2 * par::ceil_log2(std::max<std::size_t>(n, 2)));
}

}  // namespace

void SddPreconditioner::apply_cols(const Vec& r, Vec& z, std::size_t k,
                                   const unsigned char* active,
                                   Vec& fwd_scratch, double* rz) const {
  assert(valid() && r.size() == n_ * k && z.size() == n_ * k);
  // Each active column is charged what its apply alone stands for.
  std::uint64_t cols = 0;
  for (std::size_t j = 0; j < k; ++j) cols += active[j] != 0 ? 1 : 0;
  if (kind_ == PrecondKind::kJacobi) {
    charge_passes(n_, cols, cols);
    simd::jacobi_refresh_cols(dinv_.data(), r.data(), z.data(), active, n_, k,
                              rz);
    return;
  }
  assert(fwd_scratch.size() >= n_ * k);
  charge_sweeps(lval_.size(), n_, cols);
  charge_passes(n_, 0, cols);
  // The forward sweep computes every column (inactive ones land in the
  // caller's scratch, never in z); the backward sweep masks z writes per
  // column. At k = 1 the column kernels are the single-vector sweeps.
  simd::ic_fwd_cols(loff_.data(), lcol_.data(), lval_.data(),
                    ldiag_inv_.data(), r.data(), fwd_scratch.data(), n_, k);
  simd::ic_bwd_cols(coff_.data(), crow_.data(), cidx_.data(), lval_.data(),
                    ldiag_inv_.data(), fwd_scratch.data(), z.data(), active,
                    n_, k);
  // rz for every column in one pass; inactive slots are unspecified anyway.
  simd::dot_cols(r.data(), z.data(), n_, k, rz);
}

}  // namespace pmcf::linalg
