#pragma once
// Reusable SDD preconditioner for the CG solver (DESIGN.md §10, §13).
//
// Two kinds behind one interface:
//
//   kJacobi             — diag(M)^{-1}; build is one pass, apply is fused
//                         into the residual refresh. The seed solver's
//                         behaviour, kept as the universal fallback.
//   kIncompleteCholesky — IC(0): a scaled incomplete Cholesky factor on the
//                         exact sparsity pattern of tril(M). The reduced
//                         Laplacian is an M-matrix, for which IC(0) exists
//                         [Meijerink–van der Vorst]; a non-positive pivot
//                         (possible after aggressive reweighting) degrades
//                         the build to Jacobi and reports it via
//                         effective_kind(), so solves never fail on the
//                         preconditioner's account.
//
// The object is built once per weight vector and reused across IPM
// iterations while weight drift stays under the AccelCache's threshold; its
// apply writes only into caller-owned buffers (allocation-free applies,
// asserted by tests/alloc_count_test.cpp).
//
// apply_cols() is the one apply, over row-major n×k block storage: for every
// active column it sets z = P^{-1} r and returns dot(r, z) beside it, so the
// CG loop keeps the fused residual-refresh shape; k = 1 is a plain vector.
// Each active column is charged the PRAM cost of the sequence it stands for
// — an elementwise pass plus a dot for Jacobi, charge_sweeps plus a dot for
// IC(0) — then the same arithmetic runs in every execution mode. The IC(0)
// triangular sweeps run sequentially on the calling thread, vectorized
// across columns, never across rows.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "linalg/csr.hpp"
#include "linalg/kernels.hpp"

namespace pmcf::linalg {

enum class PrecondKind : std::uint8_t {
  kJacobi = 0,
  kIncompleteCholesky = 1,
};

class SddPreconditioner {
 public:
  /// Factor `m`. Requesting kIncompleteCholesky may still yield a Jacobi
  /// preconditioner when the factorization breaks down; check fell_back().
  void build(const Csr& m, PrecondKind requested = PrecondKind::kIncompleteCholesky);

  [[nodiscard]] bool valid() const { return n_ > 0; }
  [[nodiscard]] std::size_t dim() const { return n_; }
  [[nodiscard]] PrecondKind effective_kind() const { return kind_; }
  [[nodiscard]] bool fell_back() const { return fell_back_; }

  /// For every column j with active[j] != 0: z_col = P^{-1} r_col and
  /// rz[j] = dot(r_col, z_col). Inactive columns of z are preserved bit for
  /// bit; their rz slots are unspecified. For IC(0), `fwd_scratch` must hold
  /// n*k doubles (caller-owned so repeated applies stay allocation-free);
  /// Jacobi ignores it.
  void apply_cols(const Vec& r, Vec& z, std::size_t k,
                  const unsigned char* active, Vec& fwd_scratch,
                  double* rz) const;

 private:
  void build_jacobi(const Csr& m);
  bool build_ic0(const Csr& m);

  std::size_t n_ = 0;
  PrecondKind kind_ = PrecondKind::kJacobi;
  bool fell_back_ = false;

  Vec dinv_;  // Jacobi: diag(M)^{-1}

  // IC(0) factor L = (strictly lower triangle, CSR) + sqrt-pivot diagonal.
  std::vector<std::int64_t> loff_;
  std::vector<std::int32_t> lcol_;
  Vec lval_;
  Vec ldiag_inv_;
  // CSC view of the strictly lower part for the backward (L^T) sweep:
  // column i holds the rows i2 > i with L(i2, i) = lval_[cidx_].
  std::vector<std::int64_t> coff_;
  std::vector<std::int32_t> crow_;
  std::vector<std::int64_t> cidx_;
};

}  // namespace pmcf::linalg
