#include "core/msky_operator.h"

#include <utility>

namespace psky {

MskyOperator::MskyOperator(int dims, std::vector<double> thresholds,
                           SkyTree::Options options)
    : tree_(dims, std::move(thresholds), options) {}

void MskyOperator::Insert(const UncertainElement& e) {
  UncertainElement clamped = e;
  clamped.prob = ClampProb(clamped.prob);
  tree_.Arrive(clamped);
}

void MskyOperator::Expire(const UncertainElement& e) { tree_.Expire(e); }

std::vector<SkylineMember> MskyOperator::Skyline(int i) const {
  PSKY_CHECK(i >= 1 && i <= num_thresholds());
  std::vector<SkylineMember> out;
  out.reserve(tree_.CountUpToBand(i));
  tree_.ForEach([&out, i](const SkylineMember& m, int band) {
    if (band <= i) out.push_back(m);
  });
  return out;  // ForEach visits in seq order
}

std::vector<SkylineMember> MskyOperator::AdHocQuery(double q_prime) const {
  return tree_.CollectAtLeast(q_prime);
}

size_t MskyOperator::AdHocCount(double q_prime) const {
  return tree_.CountAtLeast(q_prime);
}

}  // namespace psky
