#include "ds/flat_norm.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "parallel/scheduler.hpp"

namespace pmcf::ds {

namespace {

using linalg::Vec;

/// The entries in water-filling order: sorted by a_i = |v_i|/τ_i descending,
/// ties by index, so that for every λ the entries clipped at β are a prefix.
/// Zero entries of v (a_i = 0) come last and never clip.
struct Profile {
  std::vector<std::size_t> order;  ///< order[p]: index of the p-th entry
  Vec a;                           ///< a[p] = |v|/τ of entry order[p]
  Vec tau_pre;                     ///< T_k = tau_pre[k] = Σ_{p<k} τ
  Vec abs_pre;                     ///< P_k = abs_pre[k] = Σ_{p<k} |v|
  Vec sq_suf;                      ///< S_k = sq_suf[k] = Σ_{p>=k} v²/τ, summed from the back
  std::size_t nonzero = 0;         ///< entries with v != 0: order[0, nonzero)
};

Profile build_profile(const Vec& v, const Vec& tau) {
  const std::size_t d = v.size();
  Profile pr;
  Vec key(d);
  for (std::size_t i = 0; i < d; ++i) key[i] = std::abs(v[i]) / tau[i];
  pr.order.resize(d);
  std::iota(pr.order.begin(), pr.order.end(), std::size_t{0});
  par::parallel_sort(pr.order.begin(), pr.order.end(), [&](std::size_t i, std::size_t j) {
    return key[i] > key[j] || (key[i] == key[j] && i < j);
  });
  pr.a.resize(d);
  pr.tau_pre.assign(d + 1, 0.0);
  pr.abs_pre.assign(d + 1, 0.0);
  pr.sq_suf.assign(d + 1, 0.0);
  for (std::size_t p = 0; p < d; ++p) {
    const std::size_t i = pr.order[p];
    pr.a[p] = key[i];
    pr.tau_pre[p + 1] = pr.tau_pre[p] + tau[i];
    pr.abs_pre[p + 1] = pr.abs_pre[p] + std::abs(v[i]);
    if (key[i] > 0.0) pr.nonzero = p + 1;
  }
  for (std::size_t p = d; p-- > 0;) {
    const std::size_t i = pr.order[p];
    pr.sq_suf[p] = pr.sq_suf[p + 1] + v[i] * v[i] / tau[i];
  }
  return pr;
}

/// The water level for split β and τ budget r: the first `clipped` entries
/// of the order sit at β and the rest at λ a_p, so ⟨|v|, |w|⟩ = β·P_k + λ·S_k.
struct Level {
  std::size_t clipped = 0;
  double lambda = 0.0;
  double value = 0.0;
};

Level water_level(const Profile& pr, double beta, double r) {
  if (beta <= 0.0 || r <= 0.0) return {};
  const double b2 = beta * beta;
  const double r2 = r * r;
  // The τ-norm² when entry k just clips (λ = β/a_k) is
  //   f_k = β²·T_{k+1} + (β/a_k)²·S_{k+1},
  // non-decreasing in k. The clip count is the first k with f_k >= r²; none
  // means every non-zero entry clips with budget to spare. f_{k-1} < r²
  // keeps the radicand of λ positive.
  std::size_t lo = 0, hi = pr.nonzero;
  while (lo < hi) {
    const std::size_t k = lo + (hi - lo) / 2;
    const double level = beta / pr.a[k];
    if (b2 * pr.tau_pre[k + 1] + level * level * pr.sq_suf[k + 1] >= r2) {
      hi = k;
    } else {
      lo = k + 1;
    }
  }
  if (lo == pr.nonzero) return {lo, 0.0, beta * pr.abs_pre[lo]};
  const double lambda = std::sqrt((r2 - b2 * pr.tau_pre[lo]) / pr.sq_suf[lo]);
  return {lo, lambda, beta * pr.abs_pre[lo] + lambda * pr.sq_suf[lo]};
}

}  // namespace

FlatNormResult flat_norm_argmax(const Vec& v, const Vec& tau, double c_norm) {
  const std::size_t d = v.size();
  if (d == 0) return {};
  // PRAM charge (DESIGN §5.8); parallel_sort charges the sort.
  const std::uint64_t lg = par::ceil_log2(d);
  const std::uint64_t search = par::ceil_log2(d + 1) + 1;  // probes + closed form
  const Profile pr = build_profile(v, tau);
  par::charge(7 * d, 3 * lg);             // keys (d, lg) + three side-by-side scans (6d, 2lg)
  par::charge(64 * search, 64 * search);  // 32 ternary steps, two splits each
  par::charge(2 * d, 3 * lg);             // write w (d, lg) + reduce <v, w> (d, 2lg)

  // Outer ternary search over beta in [0, 1]; objective is unimodal in the
  // budget split (it is the support function of a convex body sliced along
  // a line of feasible splits).
  auto value_at = [&](double beta) { return water_level(pr, beta, (1.0 - beta) / c_norm).value; };
  double lo = 0.0, hi = 1.0;
  for (int it = 0; it < 32; ++it) {
    const double m1 = lo + (hi - lo) / 3.0;
    const double m2 = hi - (hi - lo) / 3.0;
    if (value_at(m1) < value_at(m2)) {
      lo = m1;
    } else {
      hi = m2;
    }
  }
  const double beta = 0.5 * (lo + hi);
  const Level lv = water_level(pr, beta, (1.0 - beta) / c_norm);

  FlatNormResult res;
  res.w.assign(d, 0.0);
  for (std::size_t p = 0; p < d; ++p) {
    const double mag = p < lv.clipped ? beta : std::min(beta, lv.lambda * pr.a[p]);
    const std::size_t i = pr.order[p];
    res.w[i] = v[i] >= 0.0 ? mag : -mag;
  }
  for (std::size_t i = 0; i < d; ++i) res.value += v[i] * res.w[i];
  return res;
}

}  // namespace pmcf::ds
