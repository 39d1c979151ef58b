#include "ds/heavy_hitter.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdlib>
#include <limits>

#include "core/solver_context.hpp"
#include "parallel/fault_injection.hpp"
#include "parallel/scheduler.hpp"

namespace pmcf::ds {

namespace {
using expander::DynamicExpanderDecomposition;
using graph::Vertex;
using linalg::Vec;

constexpr std::int32_t kZeroWeight = std::numeric_limits<std::int32_t>::min();

/// A row stays in class e while ⌊log₂ w⌋ ∈ [e − kClassSlack, e + kClassSlack],
/// so a class holds weights in [2^(e−1), 2^(e+2)), a factor 8. heavy_query's
/// threshold and kLeverageOversample read this range.
constexpr std::int32_t kClassSlack = 1;

/// Oversampling of the 1/deg leverage overestimate. Within a cluster the
/// weights agree within a factor 8 (kClassSlack), not 2, which needs 4× the
/// oversampling the factor-2 classes needed (16).
constexpr double kLeverageOversample = 64.0;

/// Degree-weighted mean of h over a cluster (the shift making h' orthogonal
/// to the degree vector, eq. (8)).
double cluster_shift(const DynamicExpanderDecomposition::Cluster& cl, const Vec& h) {
  const auto& g = cl.graph();
  double s1 = 0.0, s2 = 0.0;
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    const auto d = static_cast<double>(g.degree(v));
    if (d == 0.0) continue;
    s1 += d * h[static_cast<std::size_t>(cl.to_global(v))];
    s2 += d;
  }
  par::charge(static_cast<std::uint64_t>(g.num_vertices()),
              par::ceil_log2(static_cast<std::uint64_t>(g.num_vertices()) + 2));
  return s2 > 0.0 ? s1 / s2 : 0.0;
}

}  // namespace

std::int32_t HeavyHitter::exponent_of(double w) {
  return static_cast<std::int32_t>(std::floor(std::log2(w)));
}

HeavyHitter::Bucket& HeavyHitter::bucket_for(std::int32_t exp) {
  const auto it = bucket_index_.find(exp);
  if (it != bucket_index_.end()) return buckets_[it->second];
  bucket_index_.emplace(exp, buckets_.size());
  Bucket b;
  b.exponent = exp;
  auto opts = opts_.decomp;
  opts.phi = opts_.phi;
  opts.seed = opts_.seed + static_cast<std::uint64_t>(exp + 1024);
  b.decomp = std::make_unique<DynamicExpanderDecomposition>(*ctx_, g_->num_vertices(), opts);
  buckets_.push_back(std::move(b));
  return buckets_.back();
}

HeavyHitter::HeavyHitter(core::SolverContext& ctx, const graph::Digraph& g, Vec weights,
                         Options opts)
    : ctx_(&ctx), g_(&g), weights_(std::move(weights)), opts_(opts), rng_(opts.seed) {
  const auto m = static_cast<std::size_t>(g.num_arcs());
  assert(weights_.size() == m);
  row_bucket_.assign(m, kZeroWeight);
  // Group rows by weight exponent, one insert batch per bucket.
  std::unordered_map<std::int32_t, std::vector<DynamicExpanderDecomposition::EdgeSpec>> batches;
  for (std::size_t e = 0; e < m; ++e) {
    const auto& a = g.arc(static_cast<graph::EdgeId>(e));
    if (weights_[e] <= 0.0 || a.from == a.to) continue;
    const std::int32_t exp = exponent_of(weights_[e]);
    row_bucket_[e] = exp;
    batches[exp].push_back({a.from, a.to, static_cast<std::int64_t>(e)});
  }
  for (auto& [exp, batch] : batches) {
    Bucket& b = bucket_for(exp);
    b.decomp->insert(batch);
    b.count += batch.size();
  }
  par::charge(m, par::ceil_log2(std::max<std::size_t>(m, 2)));
}

void HeavyHitter::scale(const std::vector<std::size_t>& idx, const Vec& vals) {
  // Group removals and insertions per bucket, then apply batched.
  std::unordered_map<std::int32_t, std::vector<std::int64_t>> erases;
  std::unordered_map<std::int32_t, std::vector<DynamicExpanderDecomposition::EdgeSpec>> inserts;
  for (std::size_t k = 0; k < idx.size(); ++k) {
    const std::size_t e = idx[k];
    const auto& a = g_->arc(static_cast<graph::EdgeId>(e));
    const std::int32_t nb =
        (vals[k] <= 0.0 || a.from == a.to) ? kZeroWeight : exponent_of(vals[k]);
    const std::int32_t cur = row_bucket_[e];
    const bool stays = (cur == kZeroWeight || nb == kZeroWeight)
                           ? nb == cur
                           : std::abs(nb - cur) <= kClassSlack;
    if (!stays) {
      if (cur != kZeroWeight) erases[cur].push_back(static_cast<std::int64_t>(e));
      if (nb != kZeroWeight) inserts[nb].push_back({a.from, a.to, static_cast<std::int64_t>(e)});
      row_bucket_[e] = nb;
      ++class_moves_;
    }
    weights_[e] = vals[k];
  }
  for (auto& [exp, ids] : erases) {
    Bucket& b = bucket_for(exp);
    b.decomp->erase(ids);
    b.count -= ids.size();
  }
  for (auto& [exp, batch] : inserts) {
    Bucket& b = bucket_for(exp);
    b.decomp->insert(batch);
    b.count += batch.size();
  }
  par::charge(idx.size() + 1, par::ceil_log2(idx.size() + 2));
}

std::vector<std::size_t> HeavyHitter::heavy_query(const Vec& h, double eps) {
  last_query_scans_ = 0;
  std::vector<std::size_t> out;
  // Injected total false negative: every heavy row goes unreported, exactly
  // the w.h.p. failure mode of Lemma B.1.
  if (ctx_->fault().should_fire(par::FaultKind::kHeavyHitterMiss)) return out;
  for (const Bucket& b : buckets_) {
    if (b.count == 0) continue;
    // g_e < 2^{exp+2} (kClassSlack), so a heavy row needs
    // |h_u - h_v| >= eps / 2^{exp+2}, hence an endpoint with
    // |h'_v| >= eps / 2^{exp+3}.
    const double delta = eps / std::ldexp(1.0, b.exponent + 1 + kClassSlack);
    for (const auto* cl : b.decomp->clusters()) {
      const double shift = cluster_shift(*cl, h);
      const auto& cg = cl->graph();
      for (Vertex v = 0; v < cg.num_vertices(); ++v) {
        if (cg.degree(v) == 0) continue;
        ++last_query_scans_;
        const double hp = h[static_cast<std::size_t>(cl->to_global(v))] - shift;
        if (std::abs(hp) < 0.5 * delta * (1.0 - 1e-12)) continue;
        for (const auto& inc : cg.incident(v)) {
          ++last_query_scans_;
          const auto e = static_cast<std::size_t>(cl->ext_of(inc.edge));
          const auto& a = g_->arc(static_cast<graph::EdgeId>(e));
          const double val = weights_[e] * std::abs(h[static_cast<std::size_t>(a.to)] -
                                                    h[static_cast<std::size_t>(a.from)]);
          if (val >= eps * (1.0 - 1e-12)) out.push_back(e);
        }
      }
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  par::charge(last_query_scans_ + 1, par::ceil_log2(last_query_scans_ + 2));
  return out;
}

double HeavyHitter::sample_mass(const Vec& h) const {
  double mass = 0.0;
  for (const Bucket& b : buckets_) {
    if (b.count == 0) continue;
    // The representative w² = 2^{2e} of a class's weights in [2^{e−1}, 2^{e+2}):
    // any common scale cancels in q = K / mass.
    const double w2 = std::ldexp(1.0, 2 * b.exponent);
    for (const auto* cl : b.decomp->clusters()) {
      const double shift = cluster_shift(*cl, h);
      const auto& cg = cl->graph();
      for (Vertex v = 0; v < cg.num_vertices(); ++v) {
        const auto d = static_cast<double>(cg.degree(v));
        if (d == 0.0) continue;
        const double hp = h[static_cast<std::size_t>(cl->to_global(v))] - shift;
        mass += w2 * hp * hp * d;
      }
    }
  }
  return mass;
}

std::vector<std::size_t> HeavyHitter::sample(const Vec& h, double big_k) {
  const double mass = sample_mass(h);
  std::vector<std::size_t> out;
  if (ctx_->fault().should_fire(par::FaultKind::kHeavyHitterMiss)) return out;
  if (mass <= 0.0) return out;
  const double q = big_k / mass;
  for (const Bucket& b : buckets_) {
    if (b.count == 0) continue;
    const double w2 = std::ldexp(1.0, 2 * b.exponent);
    for (const auto* cl : b.decomp->clusters()) {
      const double shift = cluster_shift(*cl, h);
      const auto& cg = cl->graph();
      for (Vertex v = 0; v < cg.num_vertices(); ++v) {
        if (cg.degree(v) == 0) continue;
        const double hp = h[static_cast<std::size_t>(cl->to_global(v))] - shift;
        const double p = std::min(q * w2 * hp * hp, 1.0);
        if (p <= 0.0) continue;
        const auto incidents = cg.incident(v);
        if (p >= 1.0) {
          for (const auto& inc : incidents)
            out.push_back(static_cast<std::size_t>(cl->ext_of(inc.edge)));
          continue;
        }
        const double log1mp = std::log1p(-p);
        double j = -1.0;
        for (;;) {
          double u = rng_.next_double();
          while (u <= 0.0) u = rng_.next_double();
          j += 1.0 + std::floor(std::log(u) / log1mp);
          if (j >= static_cast<double>(incidents.size())) break;
          out.push_back(
              static_cast<std::size_t>(cl->ext_of(incidents[static_cast<std::size_t>(j)].edge)));
        }
      }
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  par::charge(out.size() + 1, par::ceil_log2(out.size() + 2));
  return out;
}

double HeavyHitter::vertex_sample_prob(const Vec& h, double big_k, std::size_t arc,
                                       double mass) const {
  if (row_bucket_[arc] == kZeroWeight || mass <= 0.0) return 0.0;
  const auto bit = bucket_index_.find(row_bucket_[arc]);
  if (bit == bucket_index_.end()) return 0.0;
  const Bucket& b = buckets_[bit->second];
  graph::EdgeId local = -1;
  const auto* cl = b.decomp->find(static_cast<std::int64_t>(arc), &local);
  if (cl == nullptr) return 0.0;
  const double shift = cluster_shift(*cl, h);
  const double q = big_k / mass;
  const double w2 = std::ldexp(1.0, 2 * b.exponent);
  const auto ep = cl->graph().endpoints(local);
  const double hu = h[static_cast<std::size_t>(cl->to_global(ep.u))] - shift;
  const double hv = h[static_cast<std::size_t>(cl->to_global(ep.v))] - shift;
  const double pu = std::min(q * w2 * hu * hu, 1.0);
  const double pv = std::min(q * w2 * hv * hv, 1.0);
  return 1.0 - (1.0 - pu) * (1.0 - pv);
}

Vec HeavyHitter::probability(const std::vector<std::size_t>& idx, const Vec& h,
                             double big_k) const {
  const double mass = sample_mass(h);
  Vec out(idx.size(), 0.0);
  for (std::size_t k = 0; k < idx.size(); ++k)
    out[k] = vertex_sample_prob(h, big_k, idx[k], mass);
  par::charge(idx.size() + 1, par::ceil_log2(idx.size() + 2));
  return out;
}

std::vector<std::size_t> HeavyHitter::leverage_sample(double k_prime) {
  std::vector<std::size_t> out;
  if (ctx_->fault().should_fire(par::FaultKind::kHeavyHitterMiss)) return out;
  const double lg = std::max<double>(par::ceil_log2(static_cast<std::uint64_t>(g_->num_vertices()) + 2), 1);
  for (const Bucket& b : buckets_) {
    if (b.count == 0) continue;
    for (const auto* cl : b.decomp->clusters()) {
      const auto& cg = cl->graph();
      for (Vertex v = 0; v < cg.num_vertices(); ++v) {
        const auto d = static_cast<double>(cg.degree(v));
        if (d == 0.0) continue;
        const double p =
            std::min(kLeverageOversample * k_prime * lg / (opts_.phi * opts_.phi * d), 1.0);
        const auto incidents = cg.incident(v);
        if (p >= 1.0) {
          for (const auto& inc : incidents)
            out.push_back(static_cast<std::size_t>(cl->ext_of(inc.edge)));
          continue;
        }
        const double log1mp = std::log1p(-p);
        double j = -1.0;
        for (;;) {
          double u = rng_.next_double();
          while (u <= 0.0) u = rng_.next_double();
          j += 1.0 + std::floor(std::log(u) / log1mp);
          if (j >= static_cast<double>(incidents.size())) break;
          out.push_back(
              static_cast<std::size_t>(cl->ext_of(incidents[static_cast<std::size_t>(j)].edge)));
        }
      }
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  par::charge(out.size() + 1, par::ceil_log2(out.size() + 2));
  return out;
}

Vec HeavyHitter::leverage_bound(const std::vector<std::size_t>& idx, double k_prime) const {
  Vec out(idx.size(), 0.0);
  const double lg = std::max<double>(par::ceil_log2(static_cast<std::uint64_t>(g_->num_vertices()) + 2), 1);
  for (std::size_t k = 0; k < idx.size(); ++k) {
    const std::size_t e = idx[k];
    if (row_bucket_[e] == kZeroWeight) continue;
    const auto bit = bucket_index_.find(row_bucket_[e]);
    if (bit == bucket_index_.end()) continue;
    graph::EdgeId local = -1;
    const auto* cl = buckets_[bit->second].decomp->find(static_cast<std::int64_t>(e), &local);
    if (cl == nullptr) continue;
    const auto ep = cl->graph().endpoints(local);
    const auto du = static_cast<double>(cl->graph().degree(ep.u));
    const auto dv = static_cast<double>(cl->graph().degree(ep.v));
    const double pu =
        std::min(kLeverageOversample * k_prime * lg / (opts_.phi * opts_.phi * du), 1.0);
    const double pv =
        std::min(kLeverageOversample * k_prime * lg / (opts_.phi * opts_.phi * dv), 1.0);
    out[k] = std::min(pu + pv, 1.0);
  }
  par::charge(idx.size() + 1, par::ceil_log2(idx.size() + 2));
  return out;
}

}  // namespace pmcf::ds
