#include "linalg/dense.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace pmcf::linalg {

Dense Dense::transpose() const {
  Dense t(c_, r_);
  for (std::size_t i = 0; i < r_; ++i)
    for (std::size_t j = 0; j < c_; ++j) t.at(j, i) = at(i, j);
  return t;
}

Dense Dense::matmul(const Dense& o) const {
  assert(c_ == o.r_);
  Dense out(r_, o.c_);
  for (std::size_t i = 0; i < r_; ++i)
    for (std::size_t k = 0; k < c_; ++k) {
      const double aik = at(i, k);
      if (aik == 0.0) continue;
      for (std::size_t j = 0; j < o.c_; ++j) out.at(i, j) += aik * o.at(k, j);
    }
  return out;
}

Vec Dense::apply(const Vec& x) const {
  assert(x.size() == c_);
  Vec y(r_, 0.0);
  for (std::size_t i = 0; i < r_; ++i)
    for (std::size_t j = 0; j < c_; ++j) y[i] += at(i, j) * x[j];
  return y;
}

Vec Dense::solve(Vec b) const {
  assert(r_ == c_ && b.size() == r_);
  Dense a = *this;
  const std::size_t n = r_;
  std::vector<std::size_t> perm(n);
  for (std::size_t i = 0; i < n; ++i) perm[i] = i;
  for (std::size_t col = 0; col < n; ++col) {
    std::size_t piv = col;
    for (std::size_t i = col + 1; i < n; ++i)
      if (std::abs(a.at(i, col)) > std::abs(a.at(piv, col))) piv = i;
    if (std::abs(a.at(piv, col)) < 1e-300) throw std::runtime_error("Dense::solve: singular matrix");
    if (piv != col) {
      for (std::size_t j = 0; j < n; ++j) std::swap(a.at(piv, j), a.at(col, j));
      std::swap(b[piv], b[col]);
    }
    for (std::size_t i = col + 1; i < n; ++i) {
      const double f = a.at(i, col) / a.at(col, col);
      if (f == 0.0) continue;
      for (std::size_t j = col; j < n; ++j) a.at(i, j) -= f * a.at(col, j);
      b[i] -= f * b[col];
    }
  }
  Vec x(n, 0.0);
  for (std::size_t ii = n; ii-- > 0;) {
    double acc = b[ii];
    for (std::size_t j = ii + 1; j < n; ++j) acc -= a.at(ii, j) * x[j];
    x[ii] = acc / a.at(ii, ii);
  }
  return x;
}

Vec Dense::solve_pinned(Vec b, double rel_pivot_tol) const {
  assert(r_ == c_ && b.size() == r_);
  Dense a = *this;
  const std::size_t n = r_;
  double max_abs = 0.0;
  for (const double v : a.a_) max_abs = std::max(max_abs, std::abs(v));
  const double floor = std::max(max_abs * rel_pivot_tol, 1e-300);
  std::vector<bool> pinned(n, false);
  for (std::size_t col = 0; col < n; ++col) {
    std::size_t piv = col;
    for (std::size_t i = col + 1; i < n; ++i)
      if (std::abs(a.at(i, col)) > std::abs(a.at(piv, col))) piv = i;
    if (std::abs(a.at(piv, col)) < floor) {
      // Degenerate column: pin x[col] = 0 by replacing its row with the
      // identity row. Entries below the pivot are no larger than the pivot
      // (partial pivoting), so the remaining elimination is unaffected.
      pinned[col] = true;
      for (std::size_t j = 0; j < n; ++j) a.at(col, j) = j == col ? 1.0 : 0.0;
      b[col] = 0.0;
      continue;
    }
    if (piv != col) {
      for (std::size_t j = 0; j < n; ++j) std::swap(a.at(piv, j), a.at(col, j));
      std::swap(b[piv], b[col]);
    }
    for (std::size_t i = col + 1; i < n; ++i) {
      const double f = a.at(i, col) / a.at(col, col);
      if (f == 0.0) continue;
      for (std::size_t j = col; j < n; ++j) a.at(i, j) -= f * a.at(col, j);
      b[i] -= f * b[col];
    }
  }
  Vec x(n, 0.0);
  for (std::size_t ii = n; ii-- > 0;) {
    if (pinned[ii]) continue;
    double acc = b[ii];
    for (std::size_t j = ii + 1; j < n; ++j) acc -= a.at(ii, j) * x[j];
    x[ii] = acc / a.at(ii, ii);
  }
  return x;
}

}  // namespace pmcf::linalg
