// SSKY: the paper's efficient continuous q-skyline operator (Section IV),
// built on the flat candidate store (core/sky_tree.h).

#ifndef PSKY_CORE_SSKY_OPERATOR_H_
#define PSKY_CORE_SSKY_OPERATOR_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/operator.h"
#include "core/sky_tree.h"

namespace psky {

/// Continuous q-skyline operator over a sliding window (SSKY).
///
/// Typical use:
///
///   SskyOperator op(/*dims=*/3, /*q=*/0.3);
///   StreamProcessor proc(&op, /*window_size=*/1'000'000);
///   for (const UncertainElement& e : stream) {
///     proc.Step(e);
///     // op.skyline_count(), op.Skyline(), ... reflect the current window
///   }
class SskyOperator : public WindowSkylineOperator {
 public:
  SskyOperator(int dims, double q, SkyTree::Options options = {});

  void Insert(const UncertainElement& e) override;
  void Expire(const UncertainElement& e) override;

  size_t candidate_count() const override { return tree_.size(); }
  size_t skyline_count() const override { return tree_.skyline_size(); }
  std::vector<SkylineMember> Skyline() const override;
  std::vector<SkylineMember> Candidates() const override;
  const OperatorStats& stats() const override;
  double threshold() const override { return q_; }
  int dims() const override { return tree_.dims(); }

  /// Underlying tree, exposed for instrumentation and invariant checks.
  const SkyTree& tree() const { return tree_; }

  /// Mutable store access for the integrity subsystem (core/audit.h): the
  /// auditor repairs damaged per-element sums in place via
  /// SkyTree::RepairElement. Not part of the operator interface.
  SkyTree* mutable_tree() { return &tree_; }

  /// Net skyline membership changes since the last call, for push-style
  /// consumers of the continuous query. Requires
  /// SkyTree::Options::record_events (otherwise both lists stay empty).
  struct SkylineDelta {
    std::vector<uint64_t> entered;  ///< seqs that joined SKY_{N,q}
    std::vector<uint64_t> left;     ///< seqs that left SKY_{N,q}
  };
  SkylineDelta TakeSkylineDelta();

 private:
  // Per-element net band move composed from an event chain: only the
  // first origin and the final destination matter for membership.
  struct NetBandMove {
    int first_old = 0;
    int last_new = 0;
  };

  double q_;
  SkyTree tree_;
  mutable OperatorStats stats_;
  // Scratch reused across TakeSkylineDelta calls (the per-step hot path
  // of delta-emitting streams): buffer capacity and hash buckets persist.
  std::vector<SkyTree::BandChange> scratch_events_;
  std::unordered_map<uint64_t, NetBandMove> scratch_net_;
};

}  // namespace psky

#endif  // PSKY_CORE_SSKY_OPERATOR_H_
