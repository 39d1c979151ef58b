#include "linalg/csr.hpp"

#include <algorithm>
#include <cassert>
#include <numeric>

#include "linalg/rcm.hpp"
#include "linalg/simd.hpp"
#include "linalg/simd_kernels.hpp"
#include "parallel/scheduler.hpp"

namespace pmcf::linalg {

namespace {
/// Sorting window of the SELL-4-σ layout: rows are length-sorted within
/// σ-sized windows of the RCM order — large enough to squeeze padding out of
/// the 4-row slices, small enough to keep the RCM locality.
constexpr std::size_t kSellSigma = 64;
}  // namespace

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
    sell_.reset();
    sell_fresh_ = false;
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
      sell_(std::move(o.sell_)),
      sell_fresh_(o.sell_fresh_),
      part_(o.part_) {
  o.n_ = 0;
  o.sell_fresh_ = false;
  o.part_.blocks = 0;
}

Csr& Csr::operator=(Csr&& o) noexcept {
  if (this != &o) {
    n_ = o.n_;
    off_ = std::move(o.off_);
    col_ = std::move(o.col_);
    val_ = std::move(o.val_);
    row_depth_ = o.row_depth_;
    sell_ = std::move(o.sell_);
    sell_fresh_ = o.sell_fresh_;
    part_ = o.part_;
    o.n_ = 0;
    o.sell_fresh_ = false;
    o.part_.blocks = 0;
  }
  return *this;
}

std::vector<double>& Csr::vals_mut() {
  std::lock_guard<std::mutex> g(cache_mu_);
  sell_fresh_ = false;  // values about to change; regather on the next apply
  return val_;
}

void Csr::build_sell() const {
  auto layout = std::make_unique<SellLayout>();
  std::vector<std::int32_t> perm = rcm_order(n_, off_, col_);
  // Descending row length within σ-windows: slices of similar-length rows
  // waste almost no padding slots, while rows stay near their RCM position.
  for (std::size_t w = 0; w < n_; w += kSellSigma) {
    const std::size_t hi = std::min(n_, w + kSellSigma);
    std::stable_sort(perm.begin() + static_cast<std::ptrdiff_t>(w),
                     perm.begin() + static_cast<std::ptrdiff_t>(hi),
                     [&](std::int32_t a, std::int32_t b) {
                       return off_[static_cast<std::size_t>(a) + 1] - off_[static_cast<std::size_t>(a)] >
                              off_[static_cast<std::size_t>(b) + 1] - off_[static_cast<std::size_t>(b)];
                     });
  }
  const std::size_t slices = (n_ + 3) / 4;
  layout->slices = slices;
  layout->order.assign(4 * slices, -1);
  layout->lens4.assign(4 * slices, 0);
  layout->slice_off.assign(slices + 1, 0);
  for (std::size_t p = 0; p < n_; ++p) {
    layout->order[p] = perm[p];
    layout->lens4[p] = off_[static_cast<std::size_t>(perm[p]) + 1] -
                       off_[static_cast<std::size_t>(perm[p])];
  }
  for (std::size_t s = 0; s < slices; ++s) {
    std::int64_t width = 0;
    for (std::size_t l = 0; l < 4; ++l)
      width = std::max(width, layout->lens4[4 * s + l]);
    layout->slice_off[s + 1] = layout->slice_off[s] + 4 * width;
  }
  const auto slots = static_cast<std::size_t>(layout->slice_off[slices]);
  // Padding slots: column 0 keeps the pad-lane gathers in bounds; the value
  // is never read (the kernels blend pad products away).
  layout->cols.assign(slots, 0);
  layout->vals.assign(slots, -0.0);
  for (std::size_t s = 0; s < slices; ++s) {
    const auto base = static_cast<std::size_t>(layout->slice_off[s]);
    for (std::size_t l = 0; l < 4; ++l) {
      const std::int32_t row = layout->order[4 * s + l];
      if (row < 0) continue;
      const std::int64_t r0 = off_[static_cast<std::size_t>(row)];
      const auto len = static_cast<std::size_t>(layout->lens4[4 * s + l]);
      for (std::size_t t = 0; t < len; ++t) {
        const std::size_t slot = base + 4 * t + l;
        layout->cols[slot] = col_[static_cast<std::size_t>(r0) + t];
        layout->vals[slot] = val_[static_cast<std::size_t>(r0) + t];
      }
    }
  }
  sell_ = std::move(layout);
}

void Csr::regather_sell() const {
  SellLayout& s = *sell_;
  for (std::size_t sl = 0; sl < s.slices; ++sl) {
    const auto base = static_cast<std::size_t>(s.slice_off[sl]);
    for (std::size_t l = 0; l < 4; ++l) {
      const std::int32_t row = s.order[4 * sl + l];
      if (row < 0) continue;
      const std::int64_t r0 = off_[static_cast<std::size_t>(row)];
      const auto len = static_cast<std::size_t>(s.lens4[4 * sl + l]);
      for (std::size_t t = 0; t < len; ++t)
        s.vals[base + 4 * t + l] = val_[static_cast<std::size_t>(r0) + t];
    }
  }
}

const Csr::SellLayout* Csr::sell() const {
  std::lock_guard<std::mutex> g(cache_mu_);
  if (!sell_fresh_) {
    if (!sell_) build_sell();
    else regather_sell();
    sell_fresh_ = true;
  }
  return sell_.get();
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

void Csr::warm_caches() const {
  if (n_ == 0) return;
  if (simd::available()) (void)sell();
}

Vec Csr::apply(const Vec& x) const {
  Vec y(n_);
  apply_into(x, y);
  return y;
}

void Csr::apply_into(const Vec& x, Vec& y) const {
  assert(x.size() == n_);
  assert(y.size() == n_);
  charge_spmv(1);
  const auto rows = [&](std::size_t r0, std::size_t r1) {
    simd::csr_spmv(off_.data(), col_.data(), val_.data(), x.data(), y.data(), r0, r1);
  };
  if (run_row_blocks(rows)) return;
  // Calling thread: SELL-4-σ when the AVX2 kernels are live, else the row
  // walk. Per-row sums are identical either way (same CSR accumulation
  // order; SELL only changes which row is processed when).
  if (simd::enabled() && n_ > 0) {
    const SellLayout* s = sell();
    simd::sell_spmv(s->slice_off.data(), s->cols.data(), s->vals.data(), s->lens4.data(),
                    s->order.data(), s->slices, x.data(), y.data());
  } else {
    rows(0, n_);
  }
}

void Csr::apply_block_into(const Vec& x, Vec& y, std::size_t k) const {
  assert(x.size() == n_ * k);
  assert(y.size() == n_ * k);
  // Per output row: clear the k slots, then stream the row's nonzeros once,
  // scattering each into all k columns. For a fixed (row, column) pair the
  // additions happen in CSR order starting from zero — exactly the
  // accumulation order of the single-vector apply_into, so results match it
  // bit for bit while the matrix is only traversed once for all k columns.
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
