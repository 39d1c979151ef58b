#include "linalg/lewis.hpp"

#include <cmath>

#include "parallel/scheduler.hpp"

namespace pmcf::linalg {

double lewis_p(std::size_t m, std::size_t n) {
  const double ratio = 4.0 * static_cast<double>(m) / static_cast<double>(n);
  return 1.0 - 1.0 / (4.0 * std::log(ratio));
}

Vec lewis_weights(core::SolverContext& ctx, const IncidenceOp& a, const Vec& v, const Vec& z,
                  double p, par::Rng& rng, const LewisOptions& opts) {
  const std::size_t m = a.rows();
  const double expo = 0.5 - 1.0 / p;

  Vec tau(m, 1.0);
  Vec scaled(m);  // fixed-point round scratch, reused across rounds
  Vec next(m);
  for (std::int32_t round = 0; round < opts.max_rounds; ++round) {
    // scaled rows: tau^{1/2 - 1/p} .* v
    par::parallel_for(0, m, [&](std::size_t i) { scaled[i] = std::pow(tau[i], expo) * v[i]; });
    Vec sigma = leverage_scores(ctx, a, scaled, rng, opts.leverage);
    double max_rel = 0.0;
    for (std::size_t i = 0; i < m; ++i) {
      next[i] = sigma[i] + z[i];
      max_rel = std::max(max_rel, std::abs(next[i] - tau[i]) / std::max(tau[i], 1e-12));
    }
    par::charge(m, par::ceil_log2(std::max<std::size_t>(m, 1)));
    std::swap(tau, next);
    if (max_rel < opts.fixpoint_tol) break;
  }
  return tau;
}

Vec ipm_lewis_weights(core::SolverContext& ctx, const IncidenceOp& a, const Vec& v,
                      par::Rng& rng, const LewisOptions& opts) {
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();
  const double reg = static_cast<double>(n) / static_cast<double>(m);
  return lewis_weights(ctx, a, v, constant(m, reg), lewis_p(m, n), rng, opts);
}

}  // namespace pmcf::linalg
