#include "linalg/laplacian.hpp"

#include <algorithm>
#include <cassert>

#include "parallel/scheduler.hpp"

namespace pmcf::linalg {

Csr reduced_laplacian(const graph::Digraph& g, const Vec& d, graph::Vertex dropped) {
  assert(d.size() == static_cast<std::size_t>(g.num_arcs()));
  const auto n = static_cast<std::size_t>(g.num_vertices());
  const auto drop = static_cast<std::size_t>(dropped);

  std::vector<std::int32_t> rows, cols;
  std::vector<double> vals;
  rows.reserve(4 * d.size() + n);
  cols.reserve(4 * d.size() + n);
  vals.reserve(4 * d.size() + n);
  for (graph::EdgeId e = 0; e < g.num_arcs(); ++e) {
    const auto& a = g.arc(e);
    const auto u = static_cast<std::size_t>(a.from);
    const auto v = static_cast<std::size_t>(a.to);
    const double w = d[static_cast<std::size_t>(e)];
    if (u != drop) {
      rows.push_back(static_cast<std::int32_t>(u));
      cols.push_back(static_cast<std::int32_t>(u));
      vals.push_back(w);
    }
    if (v != drop) {
      rows.push_back(static_cast<std::int32_t>(v));
      cols.push_back(static_cast<std::int32_t>(v));
      vals.push_back(w);
    }
    if (u != drop && v != drop) {
      rows.push_back(static_cast<std::int32_t>(u));
      cols.push_back(static_cast<std::int32_t>(v));
      vals.push_back(-w);
      rows.push_back(static_cast<std::int32_t>(v));
      cols.push_back(static_cast<std::int32_t>(u));
      vals.push_back(-w);
    }
  }
  // Pin the dropped vertex: row becomes the identity row.
  rows.push_back(static_cast<std::int32_t>(drop));
  cols.push_back(static_cast<std::int32_t>(drop));
  vals.push_back(1.0);
  par::charge(d.size(), par::ceil_log2(std::max<std::size_t>(d.size(), 1)));
  return Csr::from_triplets(n, rows, cols, vals);
}

bool Laplacian::matches(const graph::Digraph& g, graph::Vertex dropped) const {
  if (!bound() || dropped_ != dropped) return false;
  if (n_ != static_cast<std::size_t>(g.num_vertices())) return false;
  if (arc_from_.size() != static_cast<std::size_t>(g.num_arcs())) return false;
  for (graph::EdgeId e = 0; e < g.num_arcs(); ++e) {
    const auto& a = g.arc(e);
    const auto i = static_cast<std::size_t>(e);
    if (arc_from_[i] != static_cast<std::int32_t>(a.from) ||
        arc_to_[i] != static_cast<std::int32_t>(a.to))
      return false;
  }
  par::charge(arc_from_.size(), 1);
  return true;
}

void Laplacian::build(const graph::Digraph& g, const Vec& d, graph::Vertex dropped) {
  assert(d.size() == static_cast<std::size_t>(g.num_arcs()));
  n_ = static_cast<std::size_t>(g.num_vertices());
  dropped_ = dropped;
  const auto m = static_cast<std::size_t>(g.num_arcs());
  arc_from_.resize(m);
  arc_to_.resize(m);
  for (std::size_t e = 0; e < m; ++e) {
    const auto& a = g.arc(static_cast<graph::EdgeId>(e));
    arc_from_[e] = static_cast<std::int32_t>(a.from);
    arc_to_[e] = static_cast<std::int32_t>(a.to);
  }

  // Pattern via the one-shot path (the from_triplets values are immediately
  // rewritten below: duplicate summation order under the unstable triplet
  // sort is unspecified, so canonical values always come from the
  // contribution map — making build + refresh_values bit-consistent).
  mat_ = reduced_laplacian(g, d, dropped);

  // Contribution list in arc order (pin appended last), then a stable
  // counting sort by CSR slot so each slot sums its arcs in ascending id.
  const auto drop = static_cast<std::size_t>(dropped);
  const auto& off = mat_.offsets();
  const auto& col = mat_.cols();
  auto slot_of = [&](std::size_t r, std::size_t c) {
    const auto* first = col.data() + off[r];
    const auto* last = col.data() + off[r + 1];
    const auto* it = std::lower_bound(first, last, static_cast<std::int32_t>(c));
    assert(it != last && *it == static_cast<std::int32_t>(c));
    return static_cast<std::size_t>(off[r] + (it - first));
  };
  std::vector<std::int64_t> ent_slot;
  std::vector<std::int32_t> ent_arc;
  std::vector<std::int8_t> ent_sign;
  ent_slot.reserve(4 * m + 1);
  ent_arc.reserve(4 * m + 1);
  ent_sign.reserve(4 * m + 1);
  for (std::size_t e = 0; e < m; ++e) {
    const auto u = static_cast<std::size_t>(arc_from_[e]);
    const auto v = static_cast<std::size_t>(arc_to_[e]);
    if (u != drop) {
      ent_slot.push_back(static_cast<std::int64_t>(slot_of(u, u)));
      ent_arc.push_back(static_cast<std::int32_t>(e));
      ent_sign.push_back(1);
    }
    if (v != drop) {
      ent_slot.push_back(static_cast<std::int64_t>(slot_of(v, v)));
      ent_arc.push_back(static_cast<std::int32_t>(e));
      ent_sign.push_back(1);
    }
    if (u != drop && v != drop) {
      ent_slot.push_back(static_cast<std::int64_t>(slot_of(u, v)));
      ent_arc.push_back(static_cast<std::int32_t>(e));
      ent_sign.push_back(-1);
      ent_slot.push_back(static_cast<std::int64_t>(slot_of(v, u)));
      ent_arc.push_back(static_cast<std::int32_t>(e));
      ent_sign.push_back(-1);
    }
  }
  ent_slot.push_back(static_cast<std::int64_t>(slot_of(drop, drop)));
  ent_arc.push_back(-1);  // the unit pin
  ent_sign.push_back(1);

  const std::size_t nnz = mat_.nnz();
  slot_off_.assign(nnz + 1, 0);
  for (const std::int64_t s : ent_slot) ++slot_off_[static_cast<std::size_t>(s) + 1];
  for (std::size_t s = 0; s < nnz; ++s) slot_off_[s + 1] += slot_off_[s];
  slot_arc_.resize(ent_slot.size());
  slot_sign_.resize(ent_slot.size());
  {
    std::vector<std::int64_t> cur(slot_off_.begin(), slot_off_.end() - 1);
    for (std::size_t t = 0; t < ent_slot.size(); ++t) {
      const auto s = static_cast<std::size_t>(ent_slot[t]);
      slot_arc_[static_cast<std::size_t>(cur[s])] = ent_arc[t];
      slot_sign_[static_cast<std::size_t>(cur[s])] = ent_sign[t];
      ++cur[s];
    }
  }
  par::charge(ent_slot.size() + nnz, par::ceil_log2(std::max<std::size_t>(nnz, 2)));
  refresh_values(d);
}

void Laplacian::refresh_values(const Vec& d) {
  assert(bound() && d.size() == arc_from_.size());
  auto& vals = mat_.vals_mut();
  par::parallel_for(0, vals.size(), [&](std::size_t s) {
    double acc = 0.0;
    for (std::int64_t t = slot_off_[s]; t < slot_off_[s + 1]; ++t) {
      const std::int32_t arc = slot_arc_[static_cast<std::size_t>(t)];
      const double w = arc < 0 ? 1.0 : d[static_cast<std::size_t>(arc)];
      acc += static_cast<double>(slot_sign_[static_cast<std::size_t>(t)]) * w;
    }
    vals[s] = acc;
    const auto cnt = static_cast<std::uint64_t>(slot_off_[s + 1] - slot_off_[s]);
    par::charge(cnt, par::ceil_log2(std::max<std::uint64_t>(cnt, 1)));
  });
}

void GroundedFactor::factor(const IncidenceOp& a, const Vec& conductance, double pin_floor) {
  const std::size_t m = a.rows();
  const std::size_t d = a.cols() - 1;
  assert(conductance.size() == m);
  d_ = d;
  dropped_ = a.dropped();
  // The passes below: zeroing the d×d conductance matrix and scattering
  // the arcs; per pivot k, with r = d − 1 − k rows after it, the pivot sum,
  // the multipliers, the ground update and the Schur update of the
  // r(r − 1)/2 pairs after it.
  PassTally cost;
  cost.add(d * d, 1, 0);
  cost.add(m, 1, 0);
  for (std::size_t k = 0; k < d; ++k) {
    const std::size_t r = d - 1 - k;
    cost.add(r, 2, 1);
    cost.add(r * (r - 1) / 2, 1, 0);
  }
  cost.charge();

  // The upper triangle of c_ holds the conductances between the rows not
  // yet eliminated, g_ their conductances to ground.
  c_.assign(d * d, 0.0);
  g_.assign(d, 0.0);
  pivot_.assign(d, 0.0);
  const std::int32_t* from = a.from().data();
  const std::int32_t* to = a.to().data();
  for (std::size_t e = 0; e < m; ++e) {
    const std::size_t lo = std::min(row(from[e]), row(to[e]));
    const std::size_t hi = std::max(row(from[e]), row(to[e]));
    if (lo == hi) continue;
    (hi == d ? g_[lo] : c_[lo * d + hi]) += conductance[e];
  }

  // GTH elimination in row order. Eliminating k adds c_ki c_kj / p_k to
  // each later pair and c_ki g_k / p_k to ground, so every entry stays a
  // sum of non-negative terms. Row k is then overwritten with the
  // multipliers c_ki / p_k: column k of F.
  for (std::size_t k = 0; k < d; ++k) {
    double* ck = c_.data() + k * d;
    double p = g_[k];
    for (std::size_t i = k + 1; i < d; ++i) p += ck[i];
    if (p <= pin_floor) {
      // Pinned: k is held at ground potential, so its conductances to the
      // later rows become theirs to ground. At floor 0 they are all 0.
      for (std::size_t i = k + 1; i < d; ++i) {
        g_[i] += ck[i];
        ck[i] = 0.0;
      }
      continue;
    }
    pivot_[k] = p;
    for (std::size_t i = k + 1; i < d; ++i) {
      const double f = ck[i] / p;
      if (f == 0.0) continue;
      g_[i] += f * g_[k];
      double* ci = c_.data() + i * d;
      for (std::size_t j = i + 1; j < d; ++j) ci[j] += f * ck[j];
    }
    for (std::size_t i = k + 1; i < d; ++i) ck[i] /= p;
  }
}

void GroundedFactor::solve(const Vec& b, Vec& x) {
  const std::size_t d = d_;
  const auto drop = static_cast<std::size_t>(dropped_);
  assert(b.size() == d + 1 && x.size() == d + 1);
  // The passes below: the gather of b, step k of each substitution over
  // the r = d − 1 − k rows after k (an update, then a reduction), the
  // pivot division and the scatter into x.
  PassTally cost;
  cost.add(d, 2, 0);
  cost.add(d + 1, 1, 0);
  for (std::size_t k = 0; k < d; ++k) cost.add(d - 1 - k, 1, 1);
  cost.charge();

  z_.resize(d);
  std::copy_n(b.begin(), drop, z_.begin());
  std::copy(b.begin() + static_cast<std::ptrdiff_t>(drop) + 1, b.end(),
            z_.begin() + static_cast<std::ptrdiff_t>(drop));
  // (I − F) u = b, column by column: u_i = b_i + Σ_{k<i} F_ik u_k.
  for (std::size_t k = 0; k < d; ++k) {
    const double t = z_[k];
    if (t == 0.0) continue;
    const double* fk = multipliers(k);
    for (std::size_t i = k + 1; i < d; ++i) z_[i] += fk[i] * t;
  }
  // D w = u, with w = 0 on pinned rows.
  for (std::size_t k = 0; k < d; ++k) z_[k] = pivot_[k] > 0.0 ? z_[k] / pivot_[k] : 0.0;
  // (I − F)ᵀ x = w, last row first: x_k = w_k + Σ_{i>k} F_ik x_i.
  for (std::size_t k = d; k-- > 0;) {
    const double* fk = multipliers(k);
    double s = z_[k];
    for (std::size_t i = k + 1; i < d; ++i) s += fk[i] * z_[i];
    z_[k] = s;
  }
  std::copy_n(z_.begin(), drop, x.begin());
  x[drop] = 0.0;
  std::copy(z_.begin() + static_cast<std::ptrdiff_t>(drop), z_.end(),
            x.begin() + static_cast<std::ptrdiff_t>(drop) + 1);
}

}  // namespace pmcf::linalg
