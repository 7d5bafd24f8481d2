// Dominance tests between points.
//
// Dominance is minimization: u dominates v (u ≺ v) iff u.i <= v.i on every
// dimension and u.j < v.j on at least one. The candidate store's test of a
// point against a block's min and max corners is SkyTree::ReachOf.
//
// Everything here is inline: these predicates run hundreds of times per
// stream step inside the operators' scans, and an out-of-line call per
// point pair dominates the hot-path profile. The block-oriented SoA kernel
// lives in dominance_kernel.h.

#ifndef PSKY_GEOM_DOMINANCE_H_
#define PSKY_GEOM_DOMINANCE_H_

#include "base/check.h"
#include "geom/point.h"

namespace psky {

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

}  // namespace psky

#endif  // PSKY_GEOM_DOMINANCE_H_
