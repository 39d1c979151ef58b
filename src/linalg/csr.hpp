#pragma once
// Compressed sparse row matrix — used for the reduced Laplacians A^T D A that
// the IPM's Newton steps solve against (Lemma A.1).
//
// Every SpMV charges the PRAM cost of a parallel_for over the rows in which
// row r charges (nnz_r, lg max(nnz_r, 1)): (nnz + n, d_max + lg n) for one
// vector, (k·nnz + n, same depth) for an n×k block. d_max, the largest row
// term, is computed once at construction (the structure is immutable).
//
// The arithmetic is the canonical per-row sum in CSR term order from +0.0,
// exact per row, so both execution paths produce the same bits: the calling
// thread walks the rows in order, and a multi-thread wall pool splits them
// into nnz-balanced row blocks, each running the same row kernel. The block
// partition is a lazily built cache keyed on the sparsity structure, so
// value rewrites through vals_mut() leave it valid.

#include <array>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

#include "linalg/kernels.hpp"

namespace pmcf::linalg {

class Csr {
 public:
  Csr() = default;
  Csr(std::size_t n, std::vector<std::int64_t> offsets, std::vector<std::int32_t> cols,
      std::vector<double> vals);

  // The partition cache makes the implicit special members unusable (mutex
  // member); copies reset it, moves carry it along.
  Csr(const Csr& o)
      : n_(o.n_), off_(o.off_), col_(o.col_), val_(o.val_), row_depth_(o.row_depth_) {}
  Csr& operator=(const Csr& o);
  Csr(Csr&& o) noexcept;
  Csr& operator=(Csr&& o) noexcept;
  ~Csr() = default;

  [[nodiscard]] std::size_t dim() const { return n_; }
  [[nodiscard]] std::size_t nnz() const { return val_.size(); }

  /// y = M x. Work O(nnz), depth O(log n).
  [[nodiscard]] Vec apply(const Vec& x) const;

  /// y = M x into a caller-owned buffer (y.size() == dim()); no allocation.
  /// The k = 1 case of apply_block_into.
  void apply_into(const Vec& x, Vec& y) const;

  /// Y = M X for a row-major n×k block (X[i*k + j] is column j of row i),
  /// one pass over the matrix shared by all k columns. A multi-thread wall
  /// pool splits rows into nnz-balanced blocks so skewed row lengths cannot
  /// serialize the SpMV; otherwise the calling thread walks the rows. Each
  /// output entry accumulates in CSR order, so column j of the result is
  /// bit-identical to apply_into on column j alone.
  void apply_block_into(const Vec& x, Vec& y, std::size_t k) const;

  /// Diagonal of M (for the Jacobi preconditioner).
  [[nodiscard]] Vec diagonal() const;

  /// Diagonal into a caller-owned buffer (d.size() == dim()); no allocation.
  void diagonal_into(Vec& d) const;

  [[nodiscard]] const std::vector<std::int64_t>& offsets() const { return off_; }
  [[nodiscard]] const std::vector<std::int32_t>& cols() const { return col_; }
  [[nodiscard]] const std::vector<double>& vals() const { return val_; }

  /// Mutable value array, for owners that rewrite values over a fixed
  /// sparsity pattern (Laplacian::refresh_values). The structure arrays stay
  /// immutable through this interface.
  [[nodiscard]] std::vector<double>& vals_mut() { return val_; }

  /// Build from coordinate triplets (duplicates are summed).
  static Csr from_triplets(std::size_t n,
                           const std::vector<std::int32_t>& rows,
                           const std::vector<std::int32_t>& cols,
                           const std::vector<double>& vals);

 private:
  struct RowPartition {
    std::size_t blocks = 0;
    std::array<std::size_t, par::detail::kMaxBlocks + 1> bounds{};
  };

  /// Copy the cached nnz-balanced partition for `blocks` into `bounds`
  /// (recomputing the cache if it was built for a different block count).
  void partition_rows(std::size_t blocks, std::size_t* bounds) const;

  /// Under a multi-thread wall pool, runs rows(r0, r1) over nnz-balanced
  /// row blocks and returns true; otherwise returns false without running
  /// anything, leaving the caller to run on its own thread.
  template <class F>
  bool run_row_blocks(F&& rows) const;

  /// PRAM charge of an SpMV over k columns (see the header comment).
  void charge_spmv(std::size_t k) const;

  std::size_t n_ = 0;
  std::vector<std::int64_t> off_;
  std::vector<std::int32_t> col_;
  std::vector<double> val_;
  std::uint64_t row_depth_ = 0;  // lg max(1, longest row): the SpMV's row depth

  mutable std::mutex cache_mu_;  // guards part_
  mutable RowPartition part_;
};

}  // namespace pmcf::linalg
