#include "linalg/csr.hpp"

#include <algorithm>
#include <cassert>
#include <numeric>

#include "linalg/simd_kernels.hpp"
#include "parallel/scheduler.hpp"

namespace pmcf::linalg {

Csr::Csr(std::size_t n, std::vector<std::int64_t> offsets, std::vector<std::int32_t> cols,
         std::vector<double> vals)
    : n_(n), off_(std::move(offsets)), col_(std::move(cols)), val_(std::move(vals)) {
  std::int64_t longest = 1;
  for (std::size_t r = 0; r < n_; ++r) longest = std::max(longest, off_[r + 1] - off_[r]);
  row_depth_ = par::ceil_log2(static_cast<std::uint64_t>(longest));
}

Csr& Csr::operator=(const Csr& o) {
  if (this != &o) {
    n_ = o.n_;
    off_ = o.off_;
    col_ = o.col_;
    val_ = o.val_;
    row_depth_ = o.row_depth_;
    std::lock_guard<std::mutex> g(cache_mu_);
    part_.blocks = 0;
  }
  return *this;
}

Csr::Csr(Csr&& o) noexcept
    : n_(o.n_),
      off_(std::move(o.off_)),
      col_(std::move(o.col_)),
      val_(std::move(o.val_)),
      row_depth_(o.row_depth_),
      part_(o.part_) {
  o.n_ = 0;
  o.part_.blocks = 0;
}

Csr& Csr::operator=(Csr&& o) noexcept {
  if (this != &o) {
    n_ = o.n_;
    off_ = std::move(o.off_);
    col_ = std::move(o.col_);
    val_ = std::move(o.val_);
    row_depth_ = o.row_depth_;
    part_ = o.part_;
    o.n_ = 0;
    o.part_.blocks = 0;
  }
  return *this;
}

void Csr::partition_rows(std::size_t blocks, std::size_t* bounds) const {
  const std::size_t nnz = val_.size();
  std::lock_guard<std::mutex> g(cache_mu_);
  if (part_.blocks != blocks) {
    part_.bounds[0] = 0;
    for (std::size_t b = 1; b < blocks; ++b) {
      const auto target = static_cast<std::int64_t>(nnz / blocks * b);
      const auto it = std::upper_bound(off_.begin(), off_.end(), target);
      const auto row = static_cast<std::size_t>(std::distance(off_.begin(), it)) - 1;
      part_.bounds[b] = std::clamp(row, part_.bounds[b - 1], n_);
    }
    part_.bounds[blocks] = n_;
    part_.blocks = blocks;
  }
  std::copy_n(part_.bounds.data(), blocks + 1, bounds);
}

template <class F>
bool Csr::run_row_blocks(F&& rows) const {
  par::ThreadPool* pool = par::current_wall_pool();
  if (pool == nullptr || pool->num_threads() <= 1) return false;
  const std::size_t nnz = val_.size();
  const auto plan = pool->plan_blocks(0, nnz, par::detail::auto_grain(nnz, pool->num_threads()));
  if (plan.blocks <= 1) return false;
  // Block b owns rows [bounds[b], bounds[b+1]) holding roughly nnz/blocks
  // nonzeros, served from the structure-keyed cache.
  std::size_t bounds[par::detail::kMaxBlocks + 1];
  partition_rows(plan.blocks, bounds);
  pool->run_planned(0, plan.blocks, par::ThreadPool::BlockPlan{plan.blocks, 1},
                    [&](std::size_t blk0, std::size_t blk1) {
                      for (std::size_t blk = blk0; blk < blk1; ++blk)
                        rows(bounds[blk], bounds[blk + 1]);
                    });
  return true;
}

void Csr::charge_spmv(std::size_t k) const {
  if (n_ == 0) return;
  par::charge(k * val_.size() + n_, row_depth_ + par::ceil_log2(n_));
}

Vec Csr::apply(const Vec& x) const {
  Vec y(n_);
  apply_into(x, y);
  return y;
}

void Csr::apply_into(const Vec& x, Vec& y) const { apply_block_into(x, y, 1); }

void Csr::apply_block_into(const Vec& x, Vec& y, std::size_t k) const {
  assert(x.size() == n_ * k);
  assert(y.size() == n_ * k);
  // Per output row: clear the k slots, then stream the row's nonzeros once,
  // scattering each into all k columns. For a fixed (row, column) pair the
  // additions happen in CSR order starting from zero — exactly the
  // accumulation order of the single-vector row walk csr_spmv, which serves
  // k = 1 — so every column matches it bit for bit while the matrix is
  // only traversed once for all k columns.
  charge_spmv(k);
  const auto rows = [&](std::size_t r0, std::size_t r1) {
    simd::csr_block_spmv(off_.data(), col_.data(), val_.data(), x.data(), y.data(), r0, r1, k);
  };
  if (!run_row_blocks(rows)) rows(0, n_);
}

Vec Csr::diagonal() const {
  Vec d(n_);
  diagonal_into(d);
  return d;
}

void Csr::diagonal_into(Vec& d) const {
  assert(d.size() == n_);
  par::parallel_for(0, n_, [&](std::size_t r) {
    double acc = 0.0;
    for (std::int64_t k = off_[r]; k < off_[r + 1]; ++k)
      if (static_cast<std::size_t>(col_[static_cast<std::size_t>(k)]) == r)
        acc += val_[static_cast<std::size_t>(k)];
    d[r] = acc;
    par::charge(static_cast<std::uint64_t>(off_[r + 1] - off_[r]), 1);
  });
}

Csr Csr::from_triplets(std::size_t n, const std::vector<std::int32_t>& rows,
                       const std::vector<std::int32_t>& cols,
                       const std::vector<double>& vals) {
  assert(rows.size() == cols.size() && cols.size() == vals.size());
  const std::size_t k = rows.size();
  std::vector<std::size_t> order(k);
  std::iota(order.begin(), order.end(), 0);
  par::parallel_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return rows[a] != rows[b] ? rows[a] < rows[b] : cols[a] < cols[b];
  });

  std::vector<std::int64_t> off(n + 1, 0);
  std::vector<std::int32_t> out_cols;
  std::vector<double> out_vals;
  out_cols.reserve(k);
  out_vals.reserve(k);
  for (std::size_t idx = 0; idx < k;) {
    const std::int32_t r = rows[order[idx]];
    const std::int32_t c = cols[order[idx]];
    double acc = 0.0;
    while (idx < k && rows[order[idx]] == r && cols[order[idx]] == c)
      acc += vals[order[idx++]];
    out_cols.push_back(c);
    out_vals.push_back(acc);
    ++off[static_cast<std::size_t>(r) + 1];
  }
  for (std::size_t i = 0; i < n; ++i) off[i + 1] += off[i];
  par::charge(k + n, 2 * par::ceil_log2(std::max<std::size_t>(k + n, 1)));
  return Csr(n, std::move(off), std::move(out_cols), std::move(out_vals));
}

}  // namespace pmcf::linalg
