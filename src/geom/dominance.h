// Dominance tests between points and between R-tree entries (MBRs).
//
// Dominance is minimization: u dominates v (u ≺ v) iff u.i <= v.i on every
// dimension and u.j < v.j on at least one. Entry-level dominance follows
// Section II-B of the paper:
//
//   * E fully dominates E'   if E.max ≺ E'.min (every element of E
//     dominates every element of E');
//   * E partially dominates E' if E.min ≺ E'.max but not fully (some
//     elements of E' *might* be dominated by elements of E — Theorem 1);
//   * otherwise E does not dominate E' (no element of E' can be dominated
//     by any element of E).
//
// The paper additionally counts E.max == E'.min as full dominance when no
// element sits at the shared corner; tracking corner occupancy is not worth
// its cost, so we conservatively classify that case as partial. This only
// means one extra level of descent in degenerate ties — never an incorrect
// probability.
//
// Everything here is inline: these predicates run hundreds of times per
// stream step inside the operators' scans, and an out-of-line call per
// point pair dominates the hot-path profile. The block-oriented SoA kernel
// lives in dominance_kernel.h.

#ifndef PSKY_GEOM_DOMINANCE_H_
#define PSKY_GEOM_DOMINANCE_H_

#include "geom/mbr.h"
#include "geom/point.h"

namespace psky {

/// Relation of an entry E to another entry E' (or a point).
enum class DomRelation {
  kFull,     ///< E ≺ E': every element under E dominates everything in E'.
  kPartial,  ///< E ≺_partial E': some elements of E' might be dominated.
  kNone,     ///< E ⊀ E': nothing in E' is dominated by anything in E.
};

/// True iff `u` dominates `v` (u ≺ v).
inline bool Dominates(const Point& u, const Point& v) {
  PSKY_DCHECK(u.dims() == v.dims());
  bool strict = false;
  for (int i = 0; i < u.dims(); ++i) {
    if (u[i] > v[i]) return false;
    if (u[i] < v[i]) strict = true;
  }
  return strict;
}

/// Bitmask of the mutual dominance relation, computed in one pass:
/// bit 0 set iff u ≺ v, bit 1 set iff v ≺ u (never both). Hot-path helper
/// for code that needs both directions.
inline int DominanceCompare(const Point& u, const Point& v) {
  PSKY_DCHECK(u.dims() == v.dims());
  bool u_le = true, v_le = true;
  bool strict = false;
  for (int i = 0; i < u.dims(); ++i) {
    if (u[i] < v[i]) {
      v_le = false;
      strict = true;
    } else if (u[i] > v[i]) {
      u_le = false;
      strict = true;
    }
    if (!u_le && !v_le) return 0;
  }
  if (!strict) return 0;  // equal points dominate neither way
  return (u_le ? 1 : 0) | (v_le ? 2 : 0);
}

/// True iff `u` dominates or equals `v` component-wise (u ⪯ v).
inline bool DominatesOrEqual(const Point& u, const Point& v) {
  PSKY_DCHECK(u.dims() == v.dims());
  for (int i = 0; i < u.dims(); ++i) {
    if (u[i] > v[i]) return false;
  }
  return true;
}

/// Classifies the dominance relation of entry `e` over entry `ep`.
inline DomRelation Classify(const Mbr& e, const Mbr& ep) {
  PSKY_DCHECK(!e.empty() && !ep.empty());
  if (Dominates(e.max(), ep.min())) return DomRelation::kFull;
  if (Dominates(e.min(), ep.max())) return DomRelation::kPartial;
  return DomRelation::kNone;
}

/// Classifies the dominance relation of point `p` over entry `e`.
inline DomRelation Classify(const Point& p, const Mbr& e) {
  return Classify(Mbr(p), e);
}

/// Classifies the dominance relation of entry `e` over point `p`.
inline DomRelation Classify(const Mbr& e, const Point& p) {
  return Classify(e, Mbr(p));
}

/// Both directions of the point-vs-entry relation, computed in a single
/// pass over the dimensions.
struct PointEntryRelation {
  DomRelation entry_over_point = DomRelation::kNone;  ///< E vs p
  DomRelation point_over_entry = DomRelation::kNone;  ///< p vs E
};

inline PointEntryRelation ClassifyPointEntry(const Point& p, const Mbr& e) {
  PSKY_DCHECK(!e.empty());
  PSKY_DCHECK(p.dims() == e.dims());
  const Point& lo = e.min();
  const Point& hi = e.max();
  bool p_ge_min = true, p_gt_min = false;  // lo ⪯ p / with a strict dim
  bool p_le_min = true, p_lt_min = false;  // p ⪯ lo / with a strict dim
  bool p_ge_max = true, p_gt_max = false;
  bool p_le_max = true, p_lt_max = false;
  for (int i = 0; i < p.dims(); ++i) {
    const double v = p[i];
    if (v > lo[i]) {
      p_le_min = false;
      p_gt_min = true;
    } else if (v < lo[i]) {
      p_ge_min = false;
      p_lt_min = true;
    }
    if (v > hi[i]) {
      p_le_max = false;
      p_gt_max = true;
    } else if (v < hi[i]) {
      p_ge_max = false;
      p_lt_max = true;
    }
  }
  PointEntryRelation rel;
  if (p_ge_max && p_gt_max) {
    rel.entry_over_point = DomRelation::kFull;  // e.max ≺ p
  } else if (p_ge_min && p_gt_min) {
    rel.entry_over_point = DomRelation::kPartial;  // e.min ≺ p
  }
  if (p_le_min && p_lt_min) {
    rel.point_over_entry = DomRelation::kFull;  // p ≺ e.min
  } else if (p_le_max && p_lt_max) {
    rel.point_over_entry = DomRelation::kPartial;  // p ≺ e.max
  }
  return rel;
}

}  // namespace psky

#endif  // PSKY_GEOM_DOMINANCE_H_
