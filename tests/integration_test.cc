// End-to-end integration: stream generators feeding windows feeding
// operators, time-based windows (Section VI), ad-hoc + continuous +
// top-k side by side, and long-run stability.

#include <algorithm>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "core/msky_operator.h"
#include "geom/dominance.h"
#include "core/naive_operator.h"
#include "core/snapshot.h"
#include "core/ssky_operator.h"
#include "core/topk_operator.h"
#include "stream/generator.h"
#include "stream/stock.h"
#include "stream/window.h"
#include "test_util.h"

namespace psky {
namespace {

std::set<uint64_t> SeqSet(const std::vector<SkylineMember>& ms) {
  std::set<uint64_t> out;
  for (const auto& m : ms) out.insert(m.element.seq);
  return out;
}

TEST(Integration, TimeBasedWindowMatchesSnapshotOracle) {
  // Section VI: expire by timestamp instead of count. Drive SSKY from a
  // TimeWindow and compare against the definitional oracle on the window
  // contents after every step.
  StreamConfig cfg;
  cfg.dims = 2;
  cfg.seed = 61;
  cfg.arrival_rate = 100.0;  // ~100 elements/second
  StreamGenerator gen(cfg);

  const double span = 0.25;  // ~25 live elements on average
  TimeWindow window(span);
  SskyOperator op(2, 0.3);
  std::vector<UncertainElement> expired;
  for (const UncertainElement& e : gen.Take(400)) {
    expired.clear();
    window.Push(e, &expired);
    for (const auto& old : expired) op.Expire(old);
    op.Insert(e);

    const auto snap = window.Snapshot();
    std::set<uint64_t> want;
    for (size_t idx : QSkylineIndices(snap, 0.3)) want.insert(snap[idx].seq);
    ASSERT_EQ(want, SeqSet(op.Skyline())) << "at seq " << e.seq;
  }
  op.tree().CheckInvariants(true);
}

TEST(Integration, AllOperatorsConsistentOnOneStream) {
  // SSKY, MSKY (whose first band equals SSKY's skyline at the same q) and
  // top-k (whose members are the highest-P_sky skyline elements) must all
  // tell one consistent story.
  StreamConfig cfg;
  cfg.dims = 3;
  cfg.spatial = SpatialDistribution::kAntiCorrelated;
  cfg.seed = 71;
  StreamGenerator gen(cfg);

  const double q = 0.3;
  SskyOperator ssky(3, q);
  MskyOperator msky(3, {0.7, 0.5, q});
  TopKSkylineOperator topk(3, q, 4);
  CountWindow window(60);

  for (const UncertainElement& e : gen.Take(400)) {
    if (auto expired = window.Push(e)) {
      ssky.Expire(*expired);
      msky.Expire(*expired);
      topk.Expire(*expired);
    }
    ssky.Insert(e);
    msky.Insert(e);
    topk.Insert(e);

    const auto sky = ssky.Skyline();
    ASSERT_EQ(SeqSet(sky), SeqSet(msky.Skyline(3)));

    // Top-k members must be among the skyline, with the largest P_sky.
    const auto top = topk.TopK();
    ASSERT_LE(top.size(), 4u);
    const auto sky_set = SeqSet(sky);
    double kth = 2.0;
    for (const auto& m : top) {
      EXPECT_TRUE(sky_set.count(m.element.seq));
      EXPECT_LE(m.psky, kth + 1e-9);
      kth = m.psky;
    }
    if (top.size() == 4) {
      // Every skyline element not reported must not beat the k-th.
      for (const auto& m : sky) {
        bool reported = false;
        for (const auto& t : top) {
          if (t.element.seq == m.element.seq) reported = true;
        }
        if (!reported) {
          EXPECT_LE(m.psky, kth + 1e-9);
        }
      }
    }
  }
}

TEST(Integration, StockMonitoringPipeline) {
  // The paper's motivating scenario: monitor "top deals" (cheap and large
  // trades) over the most recent N transactions.
  StockConfig scfg;
  scfg.seed = 2001;
  StockStreamGenerator gen(scfg);
  SskyOperator op(2, 0.3);
  StreamProcessor proc(&op, 500);
  for (const UncertainElement& e : gen.Take(3000)) proc.Step(e);

  // The skyline of (price, -volume) must be a staircase: sorted by price,
  // volumes strictly decrease in magnitude as price rises... i.e. no
  // member dominates another.
  const auto sky = op.Skyline();
  ASSERT_FALSE(sky.empty());
  for (size_t i = 0; i < sky.size(); ++i) {
    for (size_t j = 0; j < sky.size(); ++j) {
      if (i == j) continue;
      EXPECT_FALSE(Dominates(sky[i].element.pos, sky[j].element.pos) &&
                   sky[j].psky >= 0.3 && sky[i].element.prob > 0.999)
          << "a near-certain dominator forbids skyline membership";
    }
  }
  op.tree().CheckInvariants(true);
}

TEST(Integration, WindowSizeOneDegenerates) {
  // With N = 1 every arrival instantly replaces the previous element; the
  // skyline is the single live element iff its own probability >= q.
  SskyOperator op(2, 0.5);
  StreamProcessor proc(&op, 1);
  StreamConfig cfg;
  cfg.seed = 81;
  cfg.dims = 2;
  StreamGenerator gen(cfg);
  for (const UncertainElement& e : gen.Take(200)) {
    proc.Step(e);
    ASSERT_EQ(op.candidate_count(), 1u);
    const size_t want = ClampProb(e.prob) >= 0.5 ? 1u : 0u;
    ASSERT_EQ(op.skyline_count(), want);
  }
}

TEST(Integration, LongRunCandidateSetStaysSmall) {
  // Sanity check of the paper's core space claim at test scale: the
  // candidate set stays orders of magnitude below the window size.
  StreamConfig cfg;
  cfg.dims = 3;
  cfg.spatial = SpatialDistribution::kAntiCorrelated;
  cfg.seed = 91;
  StreamGenerator gen(cfg);
  SskyOperator op(3, 0.3);
  StreamProcessor proc(&op, 2000);
  size_t peak = 0;
  for (const UncertainElement& e : gen.Take(6000)) {
    proc.Step(e);
    peak = std::max(peak, op.candidate_count());
  }
  EXPECT_LT(peak, 500u);  // << window size 2000
  op.tree().CheckInvariants(true);
}

TEST(Integration, OperatorStatsAreTracked) {
  StreamConfig cfg;
  cfg.dims = 2;
  cfg.seed = 95;
  StreamGenerator gen(cfg);
  SskyOperator op(2, 0.3);
  StreamProcessor proc(&op, 50);
  for (const UncertainElement& e : gen.Take(300)) proc.Step(e);
  const OperatorStats& stats = op.stats();
  EXPECT_EQ(stats.arrivals, 300u);
  EXPECT_EQ(stats.expirations, 250u);
  EXPECT_GT(stats.nodes_visited, 0u);
  EXPECT_GT(stats.evictions, 0u);
}

// A certain, monotone chain: element i at (i, i, i) with P = 1 (clamped
// to 1 - 1e-12). Nothing newer dominates anything, so every window
// element stays in S_{N,q}; each one is dominated by every older one, so
// only the oldest is a q-skyline member. The newest element's log P_old
// sums 19,999 factors of log(1e-12): about -552,593, beyond the +-524,288
// that a 64-bit fixed-point sum at 2^-44 could hold. The CLI test
// cli_certain_chain_sharded_matches_sequential runs the same stream
// through psky_stream against --shards 3.
TEST(Integration, CertainChainKeepsEveryElementAndTheOldest) {
  constexpr size_t kWindow = 20000;
  constexpr size_t kCount = 30000;
  SskyOperator op(3, 0.3);
  StreamProcessor proc(&op, kWindow);
  UncertainElement e;
  for (size_t i = 0; i < kCount; ++i) {
    const double x = static_cast<double>(i);
    e.pos = Point({x, x, x});
    e.prob = ClampProb(1.0);
    e.seq = i;
    e.time = x;
    proc.Step(e);
  }
  op.tree().CheckInvariants();
  EXPECT_EQ(op.candidate_count(), kWindow);
  const std::vector<SkylineMember> sky = op.Skyline();
  ASSERT_EQ(sky.size(), 1u);
  EXPECT_EQ(sky[0].element.seq, kCount - kWindow);
  // Its P_old is restored to 1 from a sum that passed -552,000 on the
  // way, and the rounding left in that sum (it lands about 9e-9 above
  // log 1) must not reach the report: a probability is at most 1, and
  // within the 1e-9 that core/operator.h promises.
  EXPECT_LE(sky[0].psky, 1.0);
  EXPECT_NEAR(sky[0].psky, 1.0, 1e-9);

  const SkyTree::AuditView newest = op.tree().LookupForAudit(e.pos, e.seq);
  ASSERT_TRUE(newest.found);
  EXPECT_EQ(newest.pnew_log, 0.0);
  const double want = static_cast<double>(kWindow - 1) *
                      LogOneMinusProb(ClampProb(1.0));
  EXPECT_NEAR(newest.pold_log, want, 1e-9 * -want);
  EXPECT_LT(newest.pold_log, -524288.0);
}

}  // namespace
}  // namespace psky
