#pragma once
// Regularized l_p Lewis weights (Appendix A / eq. (2)).
//
// The weights tau in R^m_{>0} solve the fixed point
//     tau = sigma(T^{1/2 - 1/p} V A) + z
// with p = 1 - 1/(4 log(4m/n)) and regularizer z (the IPM uses z = n/m * 1).
// For p in (0, 2) the map is a contraction [CP15], so we iterate it.

#include "core/solver_context.hpp"
#include "linalg/incidence.hpp"
#include "linalg/leverage.hpp"
#include "linalg/kernels.hpp"
#include "parallel/rng.hpp"

namespace pmcf::linalg {

struct LewisOptions {
  std::int32_t max_rounds = core::default_ingredients().sketch.lewis_fixpoint_rounds;
  /// Stop when tau changes by < tol entrywise.
  double fixpoint_tol = core::default_ingredients().sketch.lewis_fixpoint_tol;
  LeverageOptions leverage;
};

/// The IPM's Lewis-weight exponent p = 1 - 1/(4 log(4m/n)).
double lewis_p(std::size_t m, std::size_t n);

/// Compute regularized l_p Lewis weights of Diag(v) * A.
/// `z` is the regularizer added each round (entrywise, z_i >= n/m expected).
Vec lewis_weights(core::SolverContext& ctx, const IncidenceOp& a, const Vec& v, const Vec& z,
                  double p, par::Rng& rng, const LewisOptions& opts = {});

/// Convenience: IPM defaults (p from lewis_p, z = n/m).
Vec ipm_lewis_weights(core::SolverContext& ctx, const IncidenceOp& a, const Vec& v,
                      par::Rng& rng, const LewisOptions& opts = {});

}  // namespace pmcf::linalg
