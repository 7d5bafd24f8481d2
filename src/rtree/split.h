// Guttman's quadratic node-split of the generic R-tree.

#ifndef PSKY_RTREE_SPLIT_H_
#define PSKY_RTREE_SPLIT_H_

#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "base/check.h"
#include "geom/mbr.h"

namespace psky {

/// Distributes the entries of *all into *left and *right using Guttman's
/// quadratic PickSeeds/PickNext heuristic. `mbr_of` maps an entry to its
/// MBR; both groups end with at least `min_entries` members. *all is left
/// empty.
template <typename Entry, typename MbrOf>
void QuadraticSplit(std::vector<Entry>* all, std::vector<Entry>* left,
                    std::vector<Entry>* right, MbrOf mbr_of,
                    int min_entries) {
  const int n = static_cast<int>(all->size());
  PSKY_DCHECK(n >= 2);
  PSKY_DCHECK(n >= 2 * min_entries);

  // PickSeeds: the pair wasting the most area if grouped together.
  int seed_a = 0, seed_b = 1;
  double worst = -std::numeric_limits<double>::infinity();
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      Mbr merged = mbr_of((*all)[i]);
      merged.Expand(mbr_of((*all)[j]));
      const double waste =
          merged.Area() - mbr_of((*all)[i]).Area() - mbr_of((*all)[j]).Area();
      if (waste > worst) {
        worst = waste;
        seed_a = i;
        seed_b = j;
      }
    }
  }

  Mbr left_mbr = mbr_of((*all)[seed_a]);
  Mbr right_mbr = mbr_of((*all)[seed_b]);
  left->push_back(std::move((*all)[seed_a]));
  right->push_back(std::move((*all)[seed_b]));

  std::vector<bool> assigned(static_cast<size_t>(n), false);
  assigned[static_cast<size_t>(seed_a)] = true;
  assigned[static_cast<size_t>(seed_b)] = true;
  int remaining = n - 2;

  while (remaining > 0) {
    // If one group needs every remaining entry to reach min fill, assign
    // them wholesale.
    const int left_need = min_entries - static_cast<int>(left->size());
    const int right_need = min_entries - static_cast<int>(right->size());
    if (left_need >= remaining || right_need >= remaining) {
      const bool to_left = left_need >= remaining;
      for (int i = 0; i < n; ++i) {
        if (assigned[static_cast<size_t>(i)]) continue;
        assigned[static_cast<size_t>(i)] = true;
        if (to_left) {
          left->push_back(std::move((*all)[i]));
        } else {
          right->push_back(std::move((*all)[i]));
        }
      }
      break;
    }

    // PickNext: the entry with the strongest group preference.
    int best = -1;
    double best_diff = -1.0;
    double best_dl = 0.0, best_dr = 0.0;
    for (int i = 0; i < n; ++i) {
      if (assigned[static_cast<size_t>(i)]) continue;
      const double dl = left_mbr.Enlargement(mbr_of((*all)[i]));
      const double dr = right_mbr.Enlargement(mbr_of((*all)[i]));
      const double diff = std::abs(dl - dr);
      if (diff > best_diff) {
        best_diff = diff;
        best = i;
        best_dl = dl;
        best_dr = dr;
      }
    }
    PSKY_DCHECK(best >= 0);
    assigned[static_cast<size_t>(best)] = true;
    --remaining;
    bool to_left = best_dl < best_dr;
    if (best_dl == best_dr) {
      if (left_mbr.Area() != right_mbr.Area()) {
        to_left = left_mbr.Area() < right_mbr.Area();
      } else {
        to_left = left->size() <= right->size();
      }
    }
    if (to_left) {
      left_mbr.Expand(mbr_of((*all)[best]));
      left->push_back(std::move((*all)[best]));
    } else {
      right_mbr.Expand(mbr_of((*all)[best]));
      right->push_back(std::move((*all)[best]));
    }
  }
  all->clear();
}

}  // namespace psky

#endif  // PSKY_RTREE_SPLIT_H_
