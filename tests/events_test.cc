// Delta-event feed: reconstructing the skyline purely from
// TakeSkylineDelta() / DrainBandChanges() must reproduce the full result
// at every stream step.

#include <set>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "core/ssky_operator.h"
#include "stream/generator.h"
#include "test_util.h"

namespace psky {
namespace {

TEST(Events, DisabledByDefault) {
  SskyOperator op(2, 0.3);
  op.Insert(MakeElement({0.5, 0.5}, 0.9, 1));
  EXPECT_TRUE(op.TakeSkylineDelta().entered.empty());
}

TEST(Events, SingleArrivalAndExpiry) {
  SkyTree::Options opt;
  opt.record_events = true;
  SskyOperator op(2, 0.3, opt);
  const UncertainElement e = MakeElement({0.5, 0.5}, 0.9, 1);
  op.Insert(e);
  auto delta = op.TakeSkylineDelta();
  EXPECT_EQ(delta.entered, std::vector<uint64_t>{1});
  EXPECT_TRUE(delta.left.empty());
  op.Expire(e);
  delta = op.TakeSkylineDelta();
  EXPECT_TRUE(delta.entered.empty());
  EXPECT_EQ(delta.left, std::vector<uint64_t>{1});
}

TEST(Events, DominationMovesElementOutAndBack) {
  SkyTree::Options opt;
  opt.record_events = true;
  SskyOperator op(2, 0.5, opt);
  op.Insert(MakeElement({0.5, 0.5}, 0.9, 1));
  (void)op.TakeSkylineDelta();
  // A dominator with P = 0.5 demotes seq 1 below q (P_sky = 0.45) while
  // keeping it in the candidate set (P_new = 0.5 >= q); anything stronger
  // would *evict* seq 1, which is irreversible by design (Theorem 5).
  const UncertainElement dom = MakeElement({0.1, 0.1}, 0.5, 2);
  op.Insert(dom);
  auto delta = op.TakeSkylineDelta();
  EXPECT_EQ(delta.entered, std::vector<uint64_t>{2});
  EXPECT_EQ(delta.left, std::vector<uint64_t>{1});
  // ...and its expiry brings seq 1 back.
  op.Expire(dom);
  delta = op.TakeSkylineDelta();
  EXPECT_EQ(delta.entered, std::vector<uint64_t>{1});
  EXPECT_EQ(delta.left, std::vector<uint64_t>{2});
}

TEST(Events, ReconstructsSkylineOnRandomStream) {
  SkyTree::Options opt;
  opt.record_events = true;
  for (int dims : {2, 3}) {
    StreamConfig cfg;
    cfg.dims = dims;
    cfg.spatial = SpatialDistribution::kAntiCorrelated;
    cfg.seed = 500 + static_cast<uint64_t>(dims);
    StreamGenerator gen(cfg);
    SskyOperator op(dims, 0.3, opt);
    StreamProcessor proc(&op, 60);
    std::set<uint64_t> reconstructed;
    for (const UncertainElement& e : gen.Take(600)) {
      proc.Step(e);
      const auto delta = op.TakeSkylineDelta();
      for (uint64_t seq : delta.left) {
        ASSERT_TRUE(reconstructed.erase(seq)) << "left but absent: " << seq;
      }
      for (uint64_t seq : delta.entered) {
        ASSERT_TRUE(reconstructed.insert(seq).second)
            << "entered but present: " << seq;
      }
      ASSERT_EQ(reconstructed, [&op] {
        std::set<uint64_t> s;
        for (const auto& m : op.Skyline()) s.insert(m.element.seq);
        return s;
      }()) << "at seq " << e.seq;
    }
  }
}

TEST(Events, BandChangesReconstructAllBandsForMsky) {
  SkyTree::Options opt;
  opt.record_events = true;
  SkyTree tree(3, {0.7, 0.4, 0.2}, opt);
  StreamConfig cfg;
  cfg.dims = 3;
  cfg.seed = 901;
  StreamGenerator gen(cfg);
  CountWindow window(50);
  std::unordered_map<uint64_t, int> bands;
  std::vector<SkyTree::BandChange> events;
  for (UncertainElement e : gen.Take(400)) {
    e.prob = ClampProb(e.prob);
    if (auto expired = window.Push(e)) tree.Expire(*expired);
    tree.Arrive(e);
    tree.DrainBandChanges(&events);
    for (const auto& ev : events) {
      if (ev.new_band == 0) {
        bands.erase(ev.seq);
      } else {
        bands[ev.seq] = ev.new_band;
      }
    }
    // Reconstructed bands must match the tree's own classification.
    std::unordered_map<uint64_t, int> want;
    tree.ForEach([&want](const SkylineMember& m, int band) {
      want[m.element.seq] = band;
    });
    ASSERT_EQ(want, bands) << "at seq " << e.seq;
  }
}

}  // namespace
}  // namespace psky
