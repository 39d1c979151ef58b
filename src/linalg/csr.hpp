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
// exact per row, so every execution path below produces the same bits:
//
//   - on the calling thread, a SELL-4-σ layout (sliced ELL, C = 4 lanes,
//     σ = 64 sorting window) in RCM row order when the AVX2 kernels are
//     enabled. Rows are only *processed* in the renumbered order; each
//     result is scattered back to its original index.
//   - under a multi-thread wall pool, nnz-balanced row blocks, each running
//     the same simd:: row kernel.
//
// Both layouts are lazily built caches keyed on the sparsity structure.
// vals_mut() (value rewrites over a fixed pattern) only marks the SELL
// value array stale; the next apply regathers values into the existing
// layout without allocating, preserving the warmup-then-zero-alloc protocol
// (tests/alloc_count_test.cpp). The partition survives value rewrites
// untouched.

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "linalg/kernels.hpp"

namespace pmcf::linalg {

class Csr {
 public:
  Csr() = default;
  Csr(std::size_t n, std::vector<std::int64_t> offsets, std::vector<std::int32_t> cols,
      std::vector<double> vals);

  // The caches make the implicit special members unusable (mutex member);
  // copies reset the caches, moves carry them along.
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

  /// y = M x into a caller-owned buffer (y.size() == dim()); no allocation
  /// once the layout caches are warm. A multi-thread wall pool splits rows
  /// into nnz-balanced blocks so skewed row lengths cannot serialize the
  /// SpMV; otherwise the calling thread runs the SELL-4-σ kernel.
  void apply_into(const Vec& x, Vec& y) const;

  /// Y = M X for a row-major n×k block (X[i*k + j] is column j of row i),
  /// one nnz-balanced pass over the matrix shared by all k columns. Each
  /// output entry accumulates in the same CSR order as apply_into, so column
  /// j of the result is bit-identical to apply_into on column j alone.
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
  /// immutable through this interface; the SELL value copy is regathered
  /// (allocation-free) on the next calling-thread apply.
  [[nodiscard]] std::vector<double>& vals_mut();

  /// Build from coordinate triplets (duplicates are summed).
  static Csr from_triplets(std::size_t n,
                           const std::vector<std::int32_t>& rows,
                           const std::vector<std::int32_t>& cols,
                           const std::vector<double>& vals);

  /// Force-build the lazy layout caches (SELL + partition) outside any
  /// allocation-measured region. Called at instance admission / warmup.
  void warm_caches() const;

 private:
  /// SELL-4-σ: rows (in RCM order, length-sorted within σ-windows) are
  /// packed 4 to a slice; slot [slice_off[s] + 4*t + lane] holds element t
  /// of the slice's lane-th row. order[4s+lane] maps lane -> original row
  /// (-1 = padding lane); lens4 holds per-lane row lengths for masking.
  struct SellLayout {
    std::vector<std::int32_t> order;
    std::vector<std::int64_t> slice_off;
    std::vector<std::int32_t> cols;
    std::vector<double> vals;
    std::vector<std::int64_t> lens4;
    std::size_t slices = 0;
  };
  struct RowPartition {
    std::size_t blocks = 0;
    std::array<std::size_t, par::detail::kMaxBlocks + 1> bounds{};
  };

  /// Layout for the calling-thread SpMV; builds (allocates) on first use,
  /// regathers values in place when only vals changed. Thread-safe.
  const SellLayout* sell() const;
  void build_sell() const;      // allocates; cache_mu_ held
  void regather_sell() const;   // allocation-free; cache_mu_ held

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

  mutable std::mutex cache_mu_;
  mutable std::unique_ptr<SellLayout> sell_;
  mutable bool sell_fresh_ = false;
  mutable RowPartition part_;
};

}  // namespace pmcf::linalg
