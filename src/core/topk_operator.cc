#include "core/topk_operator.h"

namespace psky {

TopKSkylineOperator::TopKSkylineOperator(int dims, double q, size_t k,
                                         SkyTree::Options options)
    : k_(k), tree_(dims, {q}, options) {
  PSKY_CHECK_MSG(k > 0, "k must be positive");
}

void TopKSkylineOperator::Insert(const UncertainElement& e) {
  UncertainElement clamped = e;
  clamped.prob = ClampProb(clamped.prob);
  tree_.Arrive(clamped);
}

void TopKSkylineOperator::Expire(const UncertainElement& e) {
  tree_.Expire(e);
}

std::vector<SkylineMember> TopKSkylineOperator::TopK() const {
  std::vector<SkylineMember> best = tree_.TopK(k_);
  // The store retains candidates below q (they may re-enter the skyline
  // later); the reported top-k must not include them. Ranked by P_sky, so
  // they form a suffix.
  while (!best.empty() && !best.back().in_skyline) best.pop_back();
  return best;
}

}  // namespace psky
