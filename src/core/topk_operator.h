// Probabilistic top-k skyline over sliding windows (paper Section VI):
// the k elements with the highest skyline probabilities among those with
// P_sky >= q.
//
// Maintenance is identical to SSKY; a query ranks the stored P_sky sums
// (the paper treats R1 and R2 as heap trees to the same end).

#ifndef PSKY_CORE_TOPK_OPERATOR_H_
#define PSKY_CORE_TOPK_OPERATOR_H_

#include <vector>

#include "core/operator.h"
#include "core/sky_tree.h"

namespace psky {

/// Continuous top-k probabilistic skyline operator.
class TopKSkylineOperator {
 public:
  /// `q` is the minimum admissible skyline probability; `k` the result
  /// size cap.
  TopKSkylineOperator(int dims, double q, size_t k,
                      SkyTree::Options options = {});

  void Insert(const UncertainElement& e);
  void Expire(const UncertainElement& e);

  int dims() const { return tree_.dims(); }
  double threshold() const { return tree_.thresholds().front(); }
  size_t k() const { return k_; }
  size_t candidate_count() const { return tree_.size(); }

  /// The current top-k: at most k members with P_sky >= q, ordered by
  /// decreasing P_sky.
  std::vector<SkylineMember> TopK() const;

  const SkyTree& tree() const { return tree_; }

 private:
  size_t k_;
  SkyTree tree_;
};

}  // namespace psky

#endif  // PSKY_CORE_TOPK_OPERATOR_H_
