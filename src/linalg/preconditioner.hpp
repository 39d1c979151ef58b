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
// iterations while weight drift stays under the AccelCache's threshold; it
// must therefore own all its apply-time scratch (allocation-free applies,
// asserted by tests/alloc_count_test.cpp).
//
// apply() returns dot(r, z) so the CG loop keeps the fused
// residual-refresh shape; apply_cols() is the batched form over row-major
// n×k block storage used by the multi-RHS CG. Both produce bit-identical z
// columns, which is what keeps solve_sdd_block bit-identical to k
// single-RHS solves. Both charge the PRAM cost of the sequence they stand
// for — precond_refresh for Jacobi, charge_sweeps plus a dot for IC(0) —
// once per column, then run the same arithmetic in every execution mode.
// apply() runs the sequential triangular sweeps on the calling thread;
// apply_cols() vectorizes across columns, never across rows.

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

  /// z = P^{-1} r; returns dot(r, z). No allocation.
  double apply(const Vec& r, Vec& z) const;

  /// Batched twin of apply(): for every column j with active[j] != 0,
  /// z_col = P^{-1} r_col and rz[j] = dot(r_col, z_col), bit for bit what
  /// apply() returns on the column alone. Inactive columns of z are
  /// preserved bit for bit; their rz slots are unspecified. For IC(0),
  /// `fwd_scratch` must hold n*k doubles (caller-owned so repeated applies
  /// stay allocation-free); Jacobi ignores it.
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
  mutable Vec fwd_;  // forward-solve scratch (owned so applies are alloc-free)
};

}  // namespace pmcf::linalg
