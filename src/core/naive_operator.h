// The paper's "trivial algorithm" (beginning of Section IV): maintain the
// candidate set S_{N,q} as a flat list and touch every member on each
// arrival / expiry. Amortized O(|S_{N,q}|) per element.
//
// Roles in this repository:
//   * reference semantics — the efficient SSKY operator is validated
//     against it step-by-step;
//   * the baseline of the paper's inline claim that SSKY is ~20x faster
//     (bench/bench_trivial_vs_ssky).

#ifndef PSKY_CORE_NAIVE_OPERATOR_H_
#define PSKY_CORE_NAIVE_OPERATOR_H_

#include <cstdint>
#include <vector>

#include "core/operator.h"

namespace psky {

/// Flat-list continuous q-skyline operator.
class NaiveSkylineOperator : public WindowSkylineOperator {
 public:
  /// `dims` is the stream dimensionality, `q` the probability threshold
  /// (must lie in (1e-9, 1]).
  NaiveSkylineOperator(int dims, double q);

  void Insert(const UncertainElement& e) override;
  void Expire(const UncertainElement& e) override;

  size_t candidate_count() const override { return set_.size(); }
  size_t skyline_count() const override;
  std::vector<SkylineMember> Skyline() const override;
  std::vector<SkylineMember> Candidates() const override;
  const OperatorStats& stats() const override { return stats_; }
  double threshold() const override { return q_; }
  int dims() const override { return dims_; }

 private:
  // Probability bookkeeping is in exact log-space sums of quantized
  // terms, as in the candidate store (see operator.h): a step's decisions
  // match the store's bit for bit, at a threshold too.
  struct Entry {
    UncertainElement elem;
    int64_t term = 0;
    int64_t log_prob = 0;
    LogSum pnew = 0;
    LogSum pold = 0;
    LogSum psky() const { return log_prob + pnew + pold; }
  };

  std::vector<SkylineMember> Collect(bool skyline_only) const;

  int dims_;
  double q_;
  LogSum q_sum_;
  std::vector<Entry> set_;
  OperatorStats stats_;
};

}  // namespace psky

#endif  // PSKY_CORE_NAIVE_OPERATOR_H_
