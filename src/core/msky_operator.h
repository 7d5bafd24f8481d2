// MSKY / QSKY: multiple pre-given probability thresholds and ad-hoc
// threshold queries (paper Section IV-D).
//
// For descending thresholds q_1 > q_2 > ... > q_k, the operator maintains
// the candidate set S_{N,q_k} in one candidate store whose bands are the
// paper's k + 1 solution sets: band i holds elements with
// P_sky ∈ [q_i, q_{i-1}), band k + 1 the remaining candidates. An ad-hoc
// query with q' >= q_k (QSKY) is answered from the same structure without
// touching any maintained state.

#ifndef PSKY_CORE_MSKY_OPERATOR_H_
#define PSKY_CORE_MSKY_OPERATOR_H_

#include <vector>

#include "core/operator.h"
#include "core/sky_tree.h"

namespace psky {

/// Continuous multi-threshold skyline operator.
class MskyOperator {
 public:
  /// `thresholds` must be strictly decreasing, each in (1e-9, 1].
  MskyOperator(int dims, std::vector<double> thresholds,
               SkyTree::Options options = {});

  /// Stream maintenance (same contract as WindowSkylineOperator).
  void Insert(const UncertainElement& e);
  void Expire(const UncertainElement& e);

  int dims() const { return tree_.dims(); }
  int num_thresholds() const { return tree_.num_thresholds(); }
  const std::vector<double>& thresholds() const { return tree_.thresholds(); }

  size_t candidate_count() const { return tree_.size(); }

  /// |SKY_{N,q_i}| for the i-th threshold (1-based): all elements with
  /// P_sky >= q_i.
  size_t skyline_count(int i) const { return tree_.CountUpToBand(i); }

  /// The continuous result for the i-th threshold (1-based), sorted by
  /// arrival sequence.
  std::vector<SkylineMember> Skyline(int i) const;

  /// Ad-hoc query (QSKY): skyline with probability at least q', where
  /// q' >= q_k. Read-only; changes no stored state.
  std::vector<SkylineMember> AdHocQuery(double q_prime) const;

  /// Ad-hoc count-only query: one scan of the stored P_sky sums.
  size_t AdHocCount(double q_prime) const;

  const SkyTree& tree() const { return tree_; }

 private:
  SkyTree tree_;
};

}  // namespace psky

#endif  // PSKY_CORE_MSKY_OPERATOR_H_
