#include "core/ssky_operator.h"

#include <algorithm>
#include <unordered_map>

namespace psky {

SskyOperator::SskyOperator(int dims, double q, SkyTree::Options options)
    : q_(q), tree_(dims, {q}, options) {}

void SskyOperator::Insert(const UncertainElement& e) {
  ++stats_.arrivals;
  UncertainElement clamped = e;
  clamped.prob = ClampProb(clamped.prob);
  tree_.Arrive(clamped);
}

void SskyOperator::Expire(const UncertainElement& e) {
  ++stats_.expirations;
  tree_.Expire(e);
}

std::vector<SkylineMember> SskyOperator::Skyline() const {
  std::vector<SkylineMember> out;
  out.reserve(tree_.skyline_size());
  tree_.ForEach([&out](const SkylineMember& m, int band) {
    if (band == 1) out.push_back(m);
  });
  return out;  // ForEach visits in seq order
}

std::vector<SkylineMember> SskyOperator::Candidates() const {
  std::vector<SkylineMember> out;
  out.reserve(tree_.size());
  tree_.ForEach(
      [&out](const SkylineMember& m, int /*band*/) { out.push_back(m); });
  return out;
}

SskyOperator::SkylineDelta SskyOperator::TakeSkylineDelta() {
  tree_.DrainBandChanges(&scratch_events_);
  scratch_net_.clear();
  for (const SkyTree::BandChange& ev : scratch_events_) {
    auto [it, inserted] =
        scratch_net_.try_emplace(ev.seq, NetBandMove{ev.old_band, 0});
    it->second.last_new = ev.new_band;
  }
  SkylineDelta delta;
  for (const auto& [seq, n] : scratch_net_) {
    const bool was_sky = n.first_old == 1;
    const bool is_sky = n.last_new == 1;
    if (!was_sky && is_sky) delta.entered.push_back(seq);
    if (was_sky && !is_sky) delta.left.push_back(seq);
  }
  std::sort(delta.entered.begin(), delta.entered.end());
  std::sort(delta.left.begin(), delta.left.end());
  return delta;
}

const OperatorStats& SskyOperator::stats() const {
  const SkyTree::Counters& c = tree_.counters();
  stats_.evictions = c.evictions;
  stats_.nodes_visited = c.nodes_visited;
  stats_.elements_touched = c.elements_touched;
  return stats_;
}

}  // namespace psky
