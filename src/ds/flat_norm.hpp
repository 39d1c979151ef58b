#pragma once
// The mixed-norm maximizer v^♭(τ) = argmax_{||w||_{τ+∞} <= 1} <v, w>
// (Section 2.1, Lemma D.2 / Corollary D.3), where
//   ||w||_{τ+∞} = ||w||_∞ + c_norm * ||w||_τ ,  ||w||_τ = sqrt(Σ τ_i w_i²).
//
// Structure of the optimum: for a split β = ||w||_∞ the optimal w is the
// water-filling w_i = sign(v_i) * min(β, λ |v_i|/τ_i) with λ matched to the
// residual budget (1-β)/c_norm; the outer 1-D problem over β is unimodal.
// One sort by |v_i|/τ_i and three scans make every split a binary search
// plus a closed-form λ, and a 32-step ternary search picks β (DESIGN §5.8).
// Work O(d log d), depth O(log² d) for the sort plus 64 split evaluations
// of O(log d) each, d = |v|. Requires τ > 0.

#include <cstdint>

#include "linalg/kernels.hpp"

namespace pmcf::ds {

struct FlatNormResult {
  linalg::Vec w;        ///< the maximizer, ||w||_{τ+∞} <= 1
  double value = 0.0;   ///< <v, w>
};

/// c_norm is the C log(4m/n) constant of the mixed norm.
FlatNormResult flat_norm_argmax(const linalg::Vec& v, const linalg::Vec& tau, double c_norm);

}  // namespace pmcf::ds
