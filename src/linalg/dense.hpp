#pragma once
// Small dense matrix with Gaussian-elimination solve. Used as the exact
// oracle in tests (projections, SDD solves) and by the CG ladder's dense
// fallback (solve_pinned). Not part of the parallel fast path.

#include <cassert>
#include <cstddef>
#include <vector>

#include "linalg/kernels.hpp"

namespace pmcf::linalg {

class Dense {
 public:
  Dense() = default;
  Dense(std::size_t rows, std::size_t cols) : r_(rows), c_(cols), a_(rows * cols, 0.0) {}

  [[nodiscard]] std::size_t rows() const { return r_; }
  [[nodiscard]] std::size_t cols() const { return c_; }
  double& at(std::size_t i, std::size_t j) { return a_[i * c_ + j]; }
  [[nodiscard]] double at(std::size_t i, std::size_t j) const { return a_[i * c_ + j]; }

  [[nodiscard]] Dense transpose() const;
  [[nodiscard]] Dense matmul(const Dense& o) const;
  [[nodiscard]] Vec apply(const Vec& x) const;

  /// Solve this * x = b by partial-pivot Gaussian elimination (square only).
  [[nodiscard]] Vec solve(Vec b) const;

  /// Like solve(), but a pivot below `rel_pivot_tol` times the largest
  /// absolute entry pins that unknown to zero instead of throwing. Intended
  /// for the degenerate systems the CG fallback can meet: a reduced
  /// Laplacian whose row scale underflowed at the current reweighting is
  /// effectively disconnected there, and the Newton direction on that
  /// coordinate is arbitrary — zero is the safe choice.
  [[nodiscard]] Vec solve_pinned(Vec b, double rel_pivot_tol = 1e-14) const;

 private:
  std::size_t r_ = 0, c_ = 0;
  std::vector<double> a_;
};

}  // namespace pmcf::linalg
