// Query-path coverage of the candidate store: ForEach / CollectAtLeast
// / CountAtLeast / TopK consistency with each other and with oracles,
// across live streams with dead slots not yet compacted.

#include <algorithm>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "core/sky_tree.h"
#include "core/ssky_operator.h"
#include "stream/generator.h"
#include "stream/window.h"
#include "test_util.h"

namespace psky {
namespace {

// A store fed mid-stream, with dead slots not yet compacted away, when
// the queries run.
class SkyTreeQueryTest : public ::testing::Test {
 protected:
  void Feed(SkyTree* tree, size_t n, size_t window, uint64_t seed) {
    StreamConfig cfg;
    cfg.dims = 3;
    cfg.spatial = SpatialDistribution::kAntiCorrelated;
    cfg.seed = seed;
    StreamGenerator gen(cfg);
    CountWindow win(window);
    for (size_t i = 0; i < n; ++i) {
      UncertainElement e = gen.Next();
      // A second Feed continues the stream: seqs keep increasing.
      e.seq = next_seq_++;
      e.prob = ClampProb(e.prob);
      if (auto expired = win.Push(e)) tree->Expire(*expired);
      tree->Arrive(e);
    }
  }

 private:
  uint64_t next_seq_ = 0;
};

TEST_F(SkyTreeQueryTest, ForEachVisitsEveryCandidateOnce) {
  SkyTree tree(3, {0.3});
  Feed(&tree, 500, 80, 11);
  std::set<uint64_t> seen;
  size_t visits = 0;
  tree.ForEach([&](const SkylineMember& m, int band) {
    ++visits;
    EXPECT_TRUE(seen.insert(m.element.seq).second) << "duplicate visit";
    EXPECT_GE(band, 1);
    EXPECT_LE(band, 2);
    EXPECT_GT(m.psky, 0.0);
    EXPECT_LE(m.psky, 1.0 + 1e-12);
    EXPECT_LE(m.pnew, 1.0 + 1e-12);
    EXPECT_LE(m.pold, 1.0 + 1e-12);
  });
  EXPECT_EQ(visits, tree.size());
}

TEST_F(SkyTreeQueryTest, CollectAtLeastEqualsForEachFilter) {
  SkyTree tree(3, {0.2});
  Feed(&tree, 600, 100, 13);
  for (double qp : {0.2, 0.35, 0.6, 0.9}) {
    std::set<uint64_t> want;
    tree.ForEach([&](const SkylineMember& m, int) {
      if (m.psky >= qp) want.insert(m.element.seq);
    });
    const auto got = tree.CollectAtLeast(qp);
    std::set<uint64_t> got_set;
    for (const auto& m : got) got_set.insert(m.element.seq);
    // Tolerate only exact-boundary rounding differences.
    std::vector<uint64_t> diff;
    std::set_symmetric_difference(want.begin(), want.end(), got_set.begin(),
                                  got_set.end(), std::back_inserter(diff));
    EXPECT_TRUE(diff.empty())
        << diff.size() << " members differ at qp = " << qp;
  }
}

TEST_F(SkyTreeQueryTest, CountAtLeastEqualsCollectSize) {
  SkyTree tree(3, {0.25});
  Feed(&tree, 700, 120, 17);
  for (double qp : {0.25, 0.4, 0.55, 0.7, 0.85, 1.0}) {
    EXPECT_EQ(tree.CountAtLeast(qp), tree.CollectAtLeast(qp).size())
        << "qp = " << qp;
  }
}

TEST_F(SkyTreeQueryTest, CountAtLeastMonotoneInThreshold) {
  SkyTree tree(3, {0.2});
  Feed(&tree, 500, 90, 19);
  size_t prev = tree.size() + 1;
  for (double qp = 0.2; qp <= 1.0; qp += 0.1) {
    const size_t count = tree.CountAtLeast(qp);
    EXPECT_LE(count, prev);
    prev = count;
  }
}

TEST_F(SkyTreeQueryTest, TopKMatchesSortOfForEach) {
  SkyTree tree(3, {0.15});
  Feed(&tree, 600, 100, 23);
  std::vector<double> all;
  tree.ForEach([&all](const SkylineMember& m, int) { all.push_back(m.psky); });
  std::sort(all.rbegin(), all.rend());
  for (size_t k : {size_t{1}, size_t{5}, size_t{25}, all.size() + 10}) {
    const auto top = tree.TopK(k);
    ASSERT_EQ(top.size(), std::min(k, all.size()));
    for (size_t i = 0; i < top.size(); ++i) {
      EXPECT_NEAR(top[i].psky, all[i], 1e-9) << "rank " << i;
    }
  }
}

TEST_F(SkyTreeQueryTest, BandSizesSumToTreeSize) {
  SkyTree tree(3, {0.7, 0.4, 0.2});
  Feed(&tree, 800, 130, 29);
  size_t sum = 0;
  for (int b = 1; b <= tree.num_thresholds() + 1; ++b) {
    sum += tree.band_size(b);
  }
  EXPECT_EQ(sum, tree.size());
  EXPECT_EQ(tree.CountUpToBand(tree.num_thresholds() + 1), tree.size());
  // Band membership must match materialized P_sky.
  tree.ForEach([&tree](const SkylineMember& m, int band) {
    const auto& qs = tree.thresholds();
    const double hi = band == 1 ? 2.0 : qs[static_cast<size_t>(band) - 2];
    const double lo = band == tree.num_thresholds() + 1
                          ? 0.0
                          : qs[static_cast<size_t>(band) - 1];
    EXPECT_GE(m.psky, lo - 1e-9);
    EXPECT_LT(m.psky, hi + 1e-9);
  });
}

TEST_F(SkyTreeQueryTest, QueriesDoNotPerturbState) {
  SkyTree tree(3, {0.3});
  Feed(&tree, 400, 70, 31);
  const size_t size_before = tree.size();
  const size_t sky_before = tree.skyline_size();
  (void)tree.CollectAtLeast(0.5);
  (void)tree.CountAtLeast(0.4);
  (void)tree.TopK(7);
  tree.ForEach([](const SkylineMember&, int) {});
  EXPECT_EQ(tree.size(), size_before);
  EXPECT_EQ(tree.skyline_size(), sky_before);
  tree.CheckInvariants(true);
  // The tree must keep working after const queries.
  Feed(&tree, 100, 70, 37);
  tree.CheckInvariants(true);
}

TEST(SkyTreeEdge, ThresholdValidationAborts) {
  EXPECT_DEATH(SkyTree(2, std::vector<double>{}), "threshold");
  EXPECT_DEATH(SkyTree(2, {0.5, 0.5}), "decreasing");
  EXPECT_DEATH(SkyTree(2, {0.3, 0.5}), "decreasing");
  EXPECT_DEATH(SkyTree(2, {1.5}), "threshold");
}

TEST(SkyTreeEdge, RetentionNearQOne) {
  // q just below 1: only (near-)certain undominated elements qualify;
  // every element dominated by a certain one is evicted immediately.
  // (Exactly q = 1.0 is unreachable because probabilities are clamped to
  // 1 - 1e-12 — see ClampProb.)
  SskyOperator op(2, 1.0 - 1e-6);
  op.Insert(MakeElement({0.5, 0.5}, 1.0, 1));
  EXPECT_EQ(op.skyline_count(), 1u);
  op.Insert(MakeElement({0.6, 0.6}, 1.0, 2));  // dominated: evicted
  EXPECT_EQ(op.candidate_count(), 2u);  // arrival always enters with pnew=1
  EXPECT_EQ(op.skyline_count(), 1u);
  op.Insert(MakeElement({0.4, 0.4}, 1.0, 3));  // dominates seq 1 and 2
  EXPECT_EQ(op.candidate_count(), 1u);
  EXPECT_EQ(op.skyline_count(), 1u);
}

}  // namespace
}  // namespace psky
