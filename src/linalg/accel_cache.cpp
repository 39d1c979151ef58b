#include "linalg/accel_cache.hpp"

#include <algorithm>
#include <cmath>

#include "parallel/scheduler.hpp"

namespace pmcf::linalg {

const Csr& AccelCache::laplacian(core::SolverContext& ctx, const graph::Digraph& g, const Vec& d,
                                 graph::Vertex dropped) {
  if (lap_.matches(g, dropped)) {
    lap_.refresh_values(d);
    ++ctx.accel().laplacian_refreshes;
  } else {
    lap_.build(g, d, dropped);
    ++ctx.accel().laplacian_builds;
  }
  return lap_.matrix();
}

namespace {

/// max_i |w_i - ref_i| / max(|ref_i|, tiny): the relative reweighting drift
/// the preconditioner staleness gate tracks. A weight appearing where the
/// reference had (near-)zero reads as huge drift, which is exactly right —
/// the factor knows nothing about that coordinate.
double relative_drift(const Vec& w, const Vec& ref) {
  return par::parallel_reduce<double>(
      0, w.size(), 0.0,
      [&](std::size_t i) { return std::abs(w[i] - ref[i]) / std::max(std::abs(ref[i]), 1e-300); },
      [](double a, double b) { return a > b ? a : b; });
}

/// Refactor once any weight drifted past this relative to the factor's
/// reference weights.
constexpr double kDriftThreshold = 0.5;

}  // namespace

const SddPreconditioner& AccelCache::preconditioner(core::SolverContext& ctx, AccelSite site,
                                                    const Csr& m, const Vec& w) {
  PrecondSlot& slot = precond_[static_cast<std::size_t>(site)];
  const bool shape_ok = slot.built && slot.dim == m.dim() && slot.nnz == m.nnz() &&
                        slot.w_ref.size() == w.size();
  if (shape_ok && relative_drift(w, slot.w_ref) <= kDriftThreshold) {
    ++ctx.accel().precond_reuses;
    return slot.precond;
  }
  slot.precond.build(m, site == AccelSite::kRobustStep ? PrecondKind::kJacobi
                                                       : PrecondKind::kIncompleteCholesky);
  slot.w_ref = w;
  slot.dim = m.dim();
  slot.nnz = m.nnz();
  slot.built = true;
  ++ctx.accel().precond_builds;
  if (slot.precond.fell_back()) ++ctx.accel().precond_fallbacks;
  return slot.precond;
}

Vec& AccelCache::warm_start(AccelSite site, std::size_t slot, std::size_t n) {
  auto& slots = warm_[static_cast<std::size_t>(site)];
  // Grow to at least 4 slots in one go so callers holding references to
  // sibling slots (e.g. the robust step's dy/q pair) never see them
  // invalidated by a later fetch.
  if (slot >= slots.size()) slots.resize(std::max<std::size_t>(slot + 1, 4));
  Vec& v = slots[slot];
  if (v.size() != n) v.assign(n, 0.0);
  return v;
}

namespace {
void destroy_accel_cache(void* p) { delete static_cast<AccelCache*>(p); }
}  // namespace

AccelCache& accel_cache(core::SolverContext& ctx) {
  return *static_cast<AccelCache*>(
      ctx.ensure_scratch([]() -> void* { return new AccelCache(); }, &destroy_accel_cache));
}

}  // namespace pmcf::linalg
