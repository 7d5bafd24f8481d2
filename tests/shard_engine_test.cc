// Sharded-vs-sequential equivalence suite.
//
// The contract under test (see core/shard_engine.h): the merged global
// skyline contains exactly the same members, by arrival sequence, as the
// sequential SSKY operator run over the same stream, and every reported
// probability agrees within summation-order rounding. The sequential
// side accumulates P_new/P_old lazily in arrival order while the merge
// recomputes them canonically per shard, so doubles are compared within
// 1e-9 — far above ulp noise, far below any honest probability gap —
// while membership and ordering are compared exactly. Window snapshots,
// by contrast, pass elements through untouched and must be
// byte-identical (checkpoint interchangeability), and the merge itself
// must be bitwise equal to a single-threaded reference that restricts
// its sums to S* before deciding (MergeBitIdentity below), whichever
// threads ran its probes.

#include "core/shard_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "base/check.h"
#include "core/checkpoint.h"
#include "geom/dominance.h"
#include "core/operator.h"
#include "core/ssky_operator.h"
#include "geom/cell_grid.h"
#include "geom/dominance_kernel.h"
#include "store/segment_store.h"
#include "stream/generator.h"
#include "stream/window.h"

namespace psky {
namespace {

constexpr int kDims = 3;
constexpr double kQ = 0.3;
constexpr size_t kStream = 6000;
constexpr size_t kWindow = 2000;
constexpr double kTol = 1e-9;

std::vector<UncertainElement> MakeStream(SpatialDistribution spatial,
                                         uint64_t seed = 77) {
  StreamConfig cfg;
  cfg.dims = kDims;
  cfg.spatial = spatial;
  cfg.seed = seed;
  return StreamGenerator(cfg).Take(kStream);
}

void ExpectSkylineEquivalent(const std::vector<SkylineMember>& seq,
                             const std::vector<SkylineMember>& sharded) {
  ASSERT_EQ(seq.size(), sharded.size());
  for (size_t i = 0; i < seq.size(); ++i) {
    ASSERT_EQ(seq[i].element.seq, sharded[i].element.seq);
    EXPECT_NEAR(seq[i].pnew, sharded[i].pnew, kTol);
    EXPECT_NEAR(seq[i].pold, sharded[i].pold, kTol);
    EXPECT_NEAR(seq[i].psky, sharded[i].psky, kTol);
    EXPECT_TRUE(sharded[i].in_skyline);
  }
}

void ExpectWindowsIdentical(const std::vector<UncertainElement>& a,
                            const std::vector<UncertainElement>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].seq, b[i].seq);
    EXPECT_EQ(a[i].pos, b[i].pos);
    // Bit-identity: elements pass through the router untouched.
    EXPECT_EQ(a[i].prob, b[i].prob);
    EXPECT_EQ(a[i].time, b[i].time);
  }
}

ShardEngine::Options CountOptions(int shards) {
  ShardEngine::Options opts;
  opts.dims = kDims;
  opts.q = kQ;
  opts.shards = shards;
  opts.window_capacity = kWindow;
  return opts;
}

// An engine without a window of its own, fed through Insert/Expire.
ShardEngine::Options FedOptions(int shards) {
  ShardEngine::Options opts = CountOptions(shards);
  opts.window_capacity = 0;
  return opts;
}

// Seconds a time window spans; ~2000 elements at the default rate.
constexpr double kSpan = 2.0;

// Pushes `e` through the test's own time window and sends the engine the
// expiries and the insert that admission implies, as psky_stream's window
// step does. Returns false when the window refuses `e`.
bool FeedThrough(TimeWindow* window, ShardEngine* engine,
                 UncertainElement e) {
  std::vector<UncertainElement> expired;
  if (!window->TryPush(&e, &expired)) return false;
  for (const UncertainElement& old : expired) engine->Expire(old);
  engine->Insert(e);
  return true;
}

// Runs the stream through a sequential StreamProcessor and a sharded
// engine side by side, comparing skylines at several mid-stream barriers
// (window filling, full, steady state) and at the end.
void RunCountEquivalence(SpatialDistribution spatial, int shards) {
  const std::vector<UncertainElement> stream = MakeStream(spatial);
  SskyOperator seq_op(kDims, kQ);
  StreamProcessor seq(&seq_op, kWindow);
  ShardEngine engine(CountOptions(shards));

  const size_t checkpoints[] = {kWindow / 2, kWindow, kStream / 2, kStream};
  size_t next = 0;
  for (size_t i = 0; i < stream.size(); ++i) {
    seq.Step(stream[i]);
    ASSERT_TRUE(engine.Route(stream[i]));
    if (next < std::size(checkpoints) && i + 1 == checkpoints[next]) {
      ++next;
      ExpectSkylineEquivalent(seq_op.Skyline(), engine.GlobalSkyline());
      ExpectWindowsIdentical(seq.window().Snapshot(),
                             engine.WindowSnapshot());
    }
  }
  ASSERT_EQ(next, std::size(checkpoints));
}

TEST(ShardEquivalence, AntiCorrelatedGrid) {
  RunCountEquivalence(SpatialDistribution::kAntiCorrelated, 4);
}

TEST(ShardEquivalence, IndependentGrid) {
  RunCountEquivalence(SpatialDistribution::kIndependent, 3);
}

TEST(ShardEquivalence, CorrelatedGrid) {
  RunCountEquivalence(SpatialDistribution::kCorrelated, 2);
}

TEST(ShardEquivalence, SingleShardDegeneratesToSequential) {
  RunCountEquivalence(SpatialDistribution::kIndependent, 1);
}

// Time-window equivalence: one TimeWindow, the test's own, feeds both
// the sequential operator and the engine (through Insert/Expire), as
// psky_stream's one window feeds either engine.
void RunTimeEquivalence(SpatialDistribution spatial, int shards,
                        TimestampPolicy policy, bool scramble) {
  std::vector<UncertainElement> stream = MakeStream(spatial);
  if (scramble) {
    // Pull every 7th timestamp backwards so the policy actually fires.
    for (size_t i = 7; i < stream.size(); i += 7) {
      stream[i].time = stream[i - 3].time;
    }
  }

  SskyOperator seq_op(kDims, kQ);
  TimeWindow window(kSpan, policy);
  ShardEngine engine(FedOptions(shards));

  std::vector<UncertainElement> expired;
  const size_t checkpoints[] = {kStream / 4, kStream / 2, kStream};
  size_t next = 0;
  for (size_t i = 0; i < stream.size(); ++i) {
    UncertainElement e = stream[i];
    expired.clear();
    if (window.TryPush(&e, &expired)) {
      for (const UncertainElement& x : expired) {
        seq_op.Expire(x);
        engine.Expire(x);
      }
      seq_op.Insert(e);
      engine.Insert(e);
    }
    if (next < std::size(checkpoints) && i + 1 == checkpoints[next]) {
      ++next;
      ExpectSkylineEquivalent(seq_op.Skyline(), engine.GlobalSkyline());
    }
  }
  ASSERT_EQ(next, std::size(checkpoints));
  if (scramble) {
    EXPECT_GT(policy == TimestampPolicy::kReject ? window.rejected()
                                                 : window.clamped(),
              0u);
  }
}

TEST(ShardEquivalence, TimeWindowInOrder) {
  RunTimeEquivalence(SpatialDistribution::kAntiCorrelated, 3,
                     TimestampPolicy::kReject, /*scramble=*/false);
}

TEST(ShardEquivalence, TimeWindowRejectsOutOfOrder) {
  RunTimeEquivalence(SpatialDistribution::kIndependent, 2,
                     TimestampPolicy::kReject, /*scramble=*/true);
}

TEST(ShardEquivalence, TimeWindowClampsOutOfOrder) {
  RunTimeEquivalence(SpatialDistribution::kCorrelated, 4,
                     TimestampPolicy::kClampToWatermark, /*scramble=*/true);
}

// Resume-from-checkpoint equivalence, both directions: a sequential
// window snapshot restores into a sharded engine (and vice versa via
// WindowSnapshot), and the continued streams stay equivalent.
TEST(ShardEquivalence, ResumeSequentialCheckpointIntoShardedRun) {
  const std::vector<UncertainElement> stream =
      MakeStream(SpatialDistribution::kAntiCorrelated);
  const size_t cut = kStream / 2;

  SskyOperator warm_op(kDims, kQ);
  StreamProcessor warm(&warm_op, kWindow);
  for (size_t i = 0; i < cut; ++i) warm.Step(stream[i]);
  const std::vector<UncertainElement> snapshot = warm.window().Snapshot();

  // Restored sharded engine vs. the uninterrupted sequential run.
  ShardEngine engine(CountOptions(4));
  for (const UncertainElement& e : snapshot) ASSERT_TRUE(engine.Route(e));
  ExpectWindowsIdentical(snapshot, engine.WindowSnapshot());
  for (size_t i = cut; i < stream.size(); ++i) {
    warm.Step(stream[i]);
    ASSERT_TRUE(engine.Route(stream[i]));
  }
  ExpectSkylineEquivalent(warm_op.Skyline(), engine.GlobalSkyline());
}

TEST(ShardEquivalence, ShardedCheckpointRestoresIntoSequentialRun) {
  const std::vector<UncertainElement> stream =
      MakeStream(SpatialDistribution::kIndependent);
  const size_t cut = kStream / 2;

  ShardEngine engine(CountOptions(3));
  for (size_t i = 0; i < cut; ++i) ASSERT_TRUE(engine.Route(stream[i]));
  const std::vector<UncertainElement> snapshot = engine.WindowSnapshot();

  // The snapshot must be what a sequential run would have checkpointed —
  // byte-for-byte, through the real checkpoint encoder.
  SskyOperator seq_op(kDims, kQ);
  StreamProcessor seq(&seq_op, kWindow);
  for (size_t i = 0; i < cut; ++i) seq.Step(stream[i]);
  CheckpointState a;
  a.dims = kDims;
  a.q = kQ;
  a.window_kind = WindowKind::kCount;
  a.window_capacity = kWindow;
  a.window = seq.window().Snapshot();
  CheckpointState b = a;
  b.window = snapshot;
  EXPECT_EQ(EncodeCheckpoint(a), EncodeCheckpoint(b));

  // Replay the sharded snapshot into a fresh sequential operator and
  // continue both; they must stay equivalent.
  SskyOperator resumed_op(kDims, kQ);
  StreamProcessor resumed(&resumed_op, kWindow);
  for (const UncertainElement& e : snapshot) resumed.Step(e);
  ShardEngine resumed_engine(CountOptions(5));
  for (const UncertainElement& e : snapshot) {
    ASSERT_TRUE(resumed_engine.Route(e));
  }
  for (size_t i = cut; i < stream.size(); ++i) {
    resumed.Step(stream[i]);
    ASSERT_TRUE(resumed_engine.Route(stream[i]));
  }
  ExpectSkylineEquivalent(resumed_op.Skyline(),
                          resumed_engine.GlobalSkyline());
}

TEST(ShardEquivalence, ResumeWithDifferentShardCountAndTimeWindow) {
  const std::vector<UncertainElement> stream =
      MakeStream(SpatialDistribution::kCorrelated);
  const size_t cut = kStream / 3;
  const double span = 1.5;

  // A 2-shard run up to the cut, whose window is the checkpoint; it must
  // agree with the sequential run there.
  SskyOperator seq_op(kDims, kQ);
  TimeWindow seq_win(span);
  TimeWindow first_window(span);
  ShardEngine first(FedOptions(2));
  std::vector<UncertainElement> expired;
  auto step_sequential = [&](size_t i) {
    UncertainElement e = stream[i];
    expired.clear();
    ASSERT_TRUE(seq_win.TryPush(&e, &expired));
    for (const UncertainElement& x : expired) seq_op.Expire(x);
    seq_op.Insert(e);
  };
  for (size_t i = 0; i < cut; ++i) {
    step_sequential(i);
    ASSERT_TRUE(FeedThrough(&first_window, &first, stream[i]));
  }
  ExpectSkylineEquivalent(seq_op.Skyline(), first.GlobalSkyline());
  const std::vector<UncertainElement> snapshot = first_window.Snapshot();

  // A 4-shard run rebuilt from that window, then continued.
  TimeWindow second_window(span);
  ShardEngine second(FedOptions(4));
  for (const UncertainElement& e : snapshot) {
    ASSERT_TRUE(FeedThrough(&second_window, &second, e));
  }
  for (size_t i = cut; i < stream.size(); ++i) {
    step_sequential(i);
    ASSERT_TRUE(FeedThrough(&second_window, &second, stream[i]));
  }
  ExpectSkylineEquivalent(seq_op.Skyline(), second.GlobalSkyline());
}

// Per-shard auditing rides inside the workers; on an honest stream it
// must observe elements and report no violations.
TEST(ShardEngine, PerShardAuditRunsClean) {
  const std::vector<UncertainElement> stream =
      MakeStream(SpatialDistribution::kIndependent);
  ShardEngine::Options opts = CountOptions(3);
  opts.audit.mode = AuditMode::kCheck;
  opts.audit.audit_every = 32;
  opts.audit.oracle_every = 2000;
  ShardEngine engine(opts);
  for (const UncertainElement& e : stream) ASSERT_TRUE(engine.Route(e));
  engine.Barrier();
  const AuditReport report = engine.AuditReportMerged();
  EXPECT_EQ(report.steps_seen, kStream);
  EXPECT_GT(report.elements_audited, 0u);
  EXPECT_GT(report.oracle_replays, 0u);
  EXPECT_EQ(report.violations_unrepaired, 0u);
  EXPECT_EQ(report.oracle_mismatches, 0u);
}

// The degradation ladder's audit effects reach every shard auditor in
// order with the inserts: degraded from the first insert, no shard
// replays its oracle and slices run 8x apart, against an undegraded twin;
// released, replays resume.
TEST(ShardEngine, AuditDegradationReachesShardAuditors) {
  StreamConfig cfg;
  cfg.dims = kDims;
  cfg.spatial = SpatialDistribution::kIndependent;
  cfg.seed = 78;
  const std::vector<UncertainElement> stream =
      StreamGenerator(cfg).Take(kStream + kWindow);
  ShardEngine::Options opts = CountOptions(3);
  opts.audit.mode = AuditMode::kCheck;
  opts.audit.audit_every = 8;
  opts.audit.oracle_every = 500;
  ShardEngine twin(opts);
  ShardEngine degraded(opts);
  degraded.SetAuditDegradation(/*suspend_oracle=*/true, /*audit_stretch=*/8);
  for (size_t i = 0; i < kStream; ++i) {
    ASSERT_TRUE(twin.Route(stream[i]));
    ASSERT_TRUE(degraded.Route(stream[i]));
    // Repeating the current setting sends no command.
    degraded.SetAuditDegradation(true, 8);
  }
  twin.Barrier();
  degraded.Barrier();

  // A slice audits 4 elements whenever a shard's step count is a multiple
  // of its cadence: 8 steps for the twin, 64 for the degraded engine.
  uint64_t twin_audited = 0;
  uint64_t degraded_audited = 0;
  const ShardEngine::Stats stats = degraded.GetStats();
  for (const ShardEngine::ShardStats& s : stats.shards) {
    twin_audited += s.inserted / 8 * 4;
    degraded_audited += s.inserted / 64 * 4;
    EXPECT_EQ(s.routed, s.inserted + (s.inserted - s.window_elements) + 1);
  }
  const AuditReport twin_report = twin.AuditReportMerged();
  const AuditReport degraded_report = degraded.AuditReportMerged();
  EXPECT_GT(twin_report.oracle_replays, 0u);
  EXPECT_EQ(degraded_report.oracle_replays, 0u);
  EXPECT_EQ(twin_report.elements_audited, twin_audited);
  EXPECT_EQ(degraded_report.elements_audited, degraded_audited);
  EXPECT_LT(degraded_audited, twin_audited);

  degraded.SetAuditDegradation(/*suspend_oracle=*/false, /*audit_stretch=*/1);
  for (size_t i = kStream; i < stream.size(); ++i) {
    ASSERT_TRUE(degraded.Route(stream[i]));
  }
  degraded.Barrier();
  const AuditReport released = degraded.AuditReportMerged();
  EXPECT_GT(released.oracle_replays, 0u);
  EXPECT_EQ(released.oracle_mismatches, 0u);
  EXPECT_EQ(released.violations_unrepaired, 0u);
}

TEST(ShardEngine, StatsExposeDepthImbalanceAndMergeCounters) {
  const std::vector<UncertainElement> stream =
      MakeStream(SpatialDistribution::kAntiCorrelated);
  ShardEngine engine(CountOptions(4));
  for (const UncertainElement& e : stream) ASSERT_TRUE(engine.Route(e));
  (void)engine.GlobalSkyline();
  // The merge's internal probe round leaves every shard fully applied
  // and is not a barrier of its own: only GlobalSkyline's leading
  // Barrier() counts.
  const ShardEngine::Stats merged = engine.GetStats();
  for (const ShardEngine::ShardStats& s : merged.shards) {
    EXPECT_EQ(s.routed, s.applied);
  }
  EXPECT_EQ(merged.barriers, 1u);
  engine.Barrier();
  const ShardEngine::Stats stats = engine.GetStats();
  EXPECT_EQ(stats.barriers, 2u);
  ASSERT_EQ(stats.shards.size(), 4u);
  uint64_t window_total = 0;
  uint64_t inserted_total = 0;
  for (const ShardEngine::ShardStats& s : stats.shards) {
    EXPECT_EQ(s.routed, s.applied);  // post-barrier
    EXPECT_EQ(s.queue_depth, 0u);
    window_total += s.window_elements;
    inserted_total += s.inserted;
  }
  EXPECT_EQ(window_total, kWindow);
  EXPECT_EQ(inserted_total, kStream);
  EXPECT_GE(stats.imbalance, 1.0);
  EXPECT_EQ(stats.merges, 1u);
  EXPECT_GT(stats.merge_candidates, 0u);
  // Every (candidate, shard) pair is probed.
  EXPECT_EQ(stats.merge_probes, stats.shards.size() * stats.merge_candidates);
  EXPECT_GT(stats.merge_ns, 0u);
}

TEST(ShardEngineDeathTest, RouterCallsAfterShutdownFailLoudly) {
  ShardEngine engine(CountOptions(2));
  ASSERT_TRUE(engine.Route(StreamGenerator(StreamConfig{}).Next()));
  engine.Shutdown();  // joins the workers: each death test forks one thread
  EXPECT_DEATH(engine.Barrier(), "!shutdown_");
  EXPECT_DEATH((void)engine.GlobalSkyline(), "!shutdown_");
  EXPECT_DEATH((void)engine.WindowSnapshot(), "!shutdown_");
}

// --- Merge bit-identity -------------------------------------------------
//
// The engine runs the merge's dominator probes on the shard workers (and
// shard 0's on the router) and decides every member in one pass over
// the U-sums. The reference below is the two-phase merge the engine
// once ran, written serially with public accessors: per candidate,
// ExactDominators against every shard in shard-index order, then a
// scalar Dominates loop over U \ S* in U order that restricts the sums
// to S* before deciding. Call it after a Barrier(), while the workers
// are parked.
//
// A q-skyline member never has a dominator in U \ S*: the newest such
// dominator is rejected by newer dominators that all lie in S* and also
// dominate the member, which already pushes its P_sky below q. So,
// short of rounding at the threshold, the restriction changes no
// reported value, and the one-pass merge must match the reference bit
// for bit, also where U \ S* is large.

struct ReferenceMerge {
  std::vector<SkylineMember> skyline;
  size_t candidates = 0;  ///< |S*|
  size_t rejected = 0;    ///< |U \ S*|
};

ReferenceMerge SerialReferenceMerge(const ShardEngine& engine) {
  struct Candidate {
    UncertainElement element;
    double newer_log = 0.0;
    double older_log = 0.0;
    bool in_sstar = false;
  };
  const double q_log = std::log(engine.threshold());
  std::vector<Candidate> u;
  for (int i = 0; i < engine.shards(); ++i) {
    for (const SkylineMember& m : engine.shard_operator(i).Candidates()) {
      u.push_back(Candidate{m.element});
    }
  }
  for (Candidate& c : u) {
    for (int j = 0; j < engine.shards(); ++j) {
      const SkyTree::DominatorSums sums =
          engine.shard_operator(j).tree().ExactDominators(c.element.pos,
                                                          c.element.seq);
      c.newer_log += sums.newer_log;
      c.older_log += sums.older_log;
    }
    c.in_sstar = c.newer_log >= q_log;
  }
  std::vector<const Candidate*> rejected;
  for (const Candidate& c : u) {
    if (!c.in_sstar) rejected.push_back(&c);
  }
  ReferenceMerge ref;
  ref.candidates = u.size() - rejected.size();
  ref.rejected = rejected.size();
  for (Candidate& c : u) {
    if (!c.in_sstar) continue;
    for (const Candidate* r : rejected) {
      if (!Dominates(r->element.pos, c.element.pos)) continue;
      const double factor = LogOneMinusProb(r->element.prob);
      if (r->element.seq > c.element.seq) {
        c.newer_log -= factor;
      } else {
        c.older_log -= factor;
      }
    }
    const double psky_log = std::log(c.element.prob) + c.newer_log +
                            c.older_log;
    if (psky_log >= q_log) {
      SkylineMember m;
      m.element = c.element;
      m.pnew = std::exp(c.newer_log);
      m.pold = std::exp(c.older_log);
      m.psky = std::exp(psky_log);
      m.in_skyline = true;
      ref.skyline.push_back(m);
    }
  }
  std::sort(ref.skyline.begin(), ref.skyline.end(),
            [](const SkylineMember& a, const SkylineMember& b) {
              return a.element.seq < b.element.seq;
            });
  return ref;
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// Bitwise comparison of two merges: candidate counts, members by seq,
// and the bits of every reported probability.
void ExpectSameBits(size_t want_candidates,
                    const std::vector<SkylineMember>& want,
                    size_t got_candidates,
                    const std::vector<SkylineMember>& got) {
  EXPECT_EQ(want_candidates, got_candidates);
  EXPECT_EQ(want.size(), got.size());
  for (size_t i = 0; i < std::min(want.size(), got.size()); ++i) {
    EXPECT_EQ(want[i].element.seq, got[i].element.seq) << "member " << i;
    EXPECT_TRUE(SameBits(want[i].pnew, got[i].pnew)) << "member " << i;
    EXPECT_TRUE(SameBits(want[i].pold, got[i].pold)) << "member " << i;
    EXPECT_TRUE(SameBits(want[i].psky, got[i].psky)) << "member " << i;
    EXPECT_TRUE(got[i].in_skyline);
  }
}

// Merges once against the reference and compares bitwise; returns
// |U \ S*| so callers can assert which regime they exercised.
size_t ExpectMergeBitIdentical(ShardEngine* engine) {
  engine->Barrier();
  const ReferenceMerge ref = SerialReferenceMerge(*engine);
  size_t candidates = 0;
  const std::vector<SkylineMember> got = engine->GlobalSkyline(&candidates);
  ExpectSameBits(ref.candidates, ref.skyline, candidates, got);
  return ref.rejected;
}

using MergeParam = std::tuple<SpatialDistribution, int, WindowKind>;

class MergeBitIdentity : public ::testing::TestWithParam<MergeParam> {};

// Merges at three points of the stream (window filling, just full,
// steady state), each against the serial reference.
TEST_P(MergeBitIdentity, MatchesSerialReference) {
  const auto [spatial, shards, kind] = GetParam();
  const std::vector<UncertainElement> stream = MakeStream(spatial);
  // A time window is the test's own, feeding the engine; a count window
  // is the engine's, fed by Route.
  const bool timed = kind == WindowKind::kTime;
  TimeWindow time_window(kSpan);
  ShardEngine engine(timed ? FedOptions(shards) : CountOptions(shards));
  const size_t merges_at[] = {kWindow / 2, kWindow, kStream};
  size_t next = 0;
  for (size_t i = 0; i < stream.size(); ++i) {
    ASSERT_TRUE(timed ? FeedThrough(&time_window, &engine, stream[i])
                      : engine.Route(stream[i]));
    if (next < std::size(merges_at) && i + 1 == merges_at[next]) {
      ++next;
      ExpectMergeBitIdentical(&engine);
    }
  }
  ASSERT_EQ(next, std::size(merges_at));
}

std::string MergeParamName(const ::testing::TestParamInfo<MergeParam>& info) {
  const auto [spatial, shards, kind] = info.param;
  return std::string(SpatialDistributionName(spatial)) + "_s" +
         std::to_string(shards) +
         (kind == WindowKind::kCount ? "_count" : "_time");
}

INSTANTIATE_TEST_SUITE_P(
    AllDistributions, MergeBitIdentity,
    ::testing::Combine(::testing::Values(SpatialDistribution::kAntiCorrelated,
                                         SpatialDistribution::kIndependent,
                                         SpatialDistribution::kCorrelated),
                       ::testing::Values(1, 2, 3, 4),
                       ::testing::Values(WindowKind::kCount,
                                         WindowKind::kTime)),
    MergeParamName);

// A rejected set of more than 256 candidates, so the reference's
// restriction walks a large U \ S* that the one-pass merge never looks
// at. Sector routing keeps U close to S*, so it takes d = 6 and 7 shards
// to reject that many (317 here; 80 at d = 4 and 4 shards).
TEST(MergeBitIdentityEdge, RejectedSetSpansSeveralKernelBlocks) {
  StreamConfig cfg;
  cfg.dims = 6;
  cfg.spatial = SpatialDistribution::kAntiCorrelated;
  cfg.seed = 91;
  const std::vector<UncertainElement> stream =
      StreamGenerator(cfg).Take(kStream);
  ShardEngine::Options opts = CountOptions(7);
  opts.dims = cfg.dims;
  ShardEngine engine(opts);
  for (const UncertainElement& e : stream) ASSERT_TRUE(engine.Route(e));
  EXPECT_GT(ExpectMergeBitIdentical(&engine),
            static_cast<size_t>(kDominanceKernelMaxBlock));
}

// A stream confined to one sector leaves the other shards empty: they
// probe nothing and contribute only zero sums. Each point's coordinates
// are reordered so that x2 is the largest and x0 > x1, which puts its
// angle around the diagonal in (-pi/2, 0): sector 1 of 4.
TEST(MergeBitIdentityEdge, EmptyShardsOnOneSectorStream) {
  std::vector<UncertainElement> stream =
      MakeStream(SpatialDistribution::kAntiCorrelated);
  for (UncertainElement& e : stream) {
    double c[kDims] = {e.pos[0], e.pos[1], e.pos[2]};
    std::sort(c, c + kDims);
    e.pos = Point({c[1], c[0], c[2]});
  }
  ShardEngine engine(CountOptions(4));
  size_t i = 0;
  for (const UncertainElement& e : stream) {
    ASSERT_TRUE(engine.Route(e));
    if (++i % kWindow == 0) ExpectMergeBitIdentical(&engine);
  }
  const ShardEngine::Stats stats = engine.GetStats();
  EXPECT_EQ(stats.shards[1].window_elements, kWindow);
  EXPECT_EQ(stats.shards[0].inserted, 0u);
  EXPECT_EQ(stats.shards[2].inserted, 0u);
  EXPECT_EQ(stats.shards[3].inserted, 0u);
}

// The merge folds each candidate's per-shard sums in shard-index order,
// as the serial reference does. A q-skyline member at d = 2 (hashed grid
// cells) has one newer dominator in each of three shards, with P = 0.1,
// 0.2 and 0.3 in shard-index order. Their log(1 - P) terms sum to other
// bits in reverse order, so a merge that folded the shards in another
// order would report another P_new and fail the bitwise comparison.
TEST(MergeBitIdentityEdge, ThreeShardFoldOrderShowsInTheBits) {
  ShardEngine::Options opts = CountOptions(4);
  opts.dims = 2;
  ShardEngine engine(opts);
  auto element = [](double x0, double x1, double prob, uint64_t seq) {
    UncertainElement e;
    e.pos = Point({x0, x1});
    e.prob = prob;
    e.seq = seq;
    e.time = static_cast<double>(seq);
    return e;
  };
  const UncertainElement member = element(0.5, 0.5, 0.9, 0);
  // Dominators from a scan of the lower-left quadrant, the first one
  // routed to each shard, in shard-index order.
  std::map<int, UncertainElement> by_shard;
  for (int i = 0; i < 40 && by_shard.size() < 3; ++i) {
    for (int j = 0; j < 40 && by_shard.size() < 3; ++j) {
      const UncertainElement d =
          element(0.05 + 0.01 * i, 0.05 + 0.01 * j, 0.5, 0);
      by_shard.emplace(engine.ShardOf(d), d);
    }
  }
  ASSERT_EQ(by_shard.size(), 3u);
  const double probs[] = {0.1, 0.2, 0.3};
  double terms[3];
  size_t k = 0;
  for (auto& [shard, d] : by_shard) {
    d = element(d.pos[0], d.pos[1], probs[k], k + 1);
    terms[k++] = LogOneMinusProb(d.prob);
  }
  const double forward = (terms[0] + terms[1]) + terms[2];
  ASSERT_FALSE(SameBits(forward, (terms[2] + terms[1]) + terms[0]));

  ASSERT_TRUE(engine.Route(member));
  for (const auto& [shard, d] : by_shard) ASSERT_TRUE(engine.Route(d));
  EXPECT_EQ(ExpectMergeBitIdentical(&engine), 0u);
  size_t candidates = 0;
  const std::vector<SkylineMember> sky = engine.GlobalSkyline(&candidates);
  ASSERT_FALSE(sky.empty());
  ASSERT_EQ(sky.front().element.seq, member.seq);
  EXPECT_TRUE(SameBits(sky.front().pnew, std::exp(forward)));
}

// --- Fed from the caller's window ---------------------------------------
//
// psky_stream keeps one window for both engines and feeds the shards
// through Insert/Expire. Fed from any window kind, the engine must merge
// bit for bit what the serial reference merges, agree with the
// sequential operator fed from the same window, and, over a count
// window, merge bit for bit what Route gives over the engine's own.

using Expired = std::vector<UncertainElement>;

// Streams `stream` through `push` (the caller's window: false when it
// refuses the element, else the expired elements land in `expired`) into
// an engine without a window and into the sequential operator, and, when
// `opts` has a window capacity, through Route into an engine built with
// `opts`; all of them agree at three points.
template <typename Push>
void RunFedFromWindow(const std::vector<UncertainElement>& stream,
                      const ShardEngine::Options& opts, Push push) {
  ShardEngine::Options fed_opts = opts;
  fed_opts.window_capacity = 0;
  ShardEngine fed(fed_opts);
  std::optional<ShardEngine> routed;
  if (opts.window_capacity > 0) routed.emplace(opts);
  SskyOperator seq_op(opts.dims, opts.q);
  Expired expired;
  const size_t merges_at[] = {kWindow / 2, kWindow, kStream};
  size_t next = 0;
  for (size_t i = 0; i < stream.size(); ++i) {
    UncertainElement e = stream[i];
    expired.clear();
    if (push(&e, &expired)) {
      for (const UncertainElement& old : expired) {
        fed.Expire(old);
        seq_op.Expire(old);
      }
      fed.Insert(e);
      seq_op.Insert(e);
    }
    if (routed.has_value()) {
      ASSERT_TRUE(routed->Route(stream[i]));
    }
    if (next < std::size(merges_at) && i + 1 == merges_at[next]) {
      ++next;
      fed.Barrier();
      const ReferenceMerge ref = SerialReferenceMerge(fed);
      size_t got_candidates = 0;
      const std::vector<SkylineMember> got =
          fed.GlobalSkyline(&got_candidates);
      ExpectSameBits(ref.candidates, ref.skyline, got_candidates, got);
      EXPECT_EQ(got_candidates, seq_op.candidate_count());
      ExpectSkylineEquivalent(seq_op.Skyline(), got);
      if (routed.has_value()) {
        size_t want_candidates = 0;
        const std::vector<SkylineMember> want =
            routed->GlobalSkyline(&want_candidates);
        ExpectSameBits(want_candidates, want, got_candidates, got);
      }
    }
  }
  ASSERT_EQ(next, std::size(merges_at));
}

// The push of a count window (CountWindow, StoredCountWindow).
template <typename W>
auto CountPush(W* window) {
  return [window](UncertainElement* e, Expired* out) {
    if (const auto old = window->Push(*e)) out->push_back(*old);
    return true;
  };
}

TEST(ShardEngineFedFromWindow, CountWindow) {
  CountWindow window(kWindow);
  RunFedFromWindow(MakeStream(SpatialDistribution::kAntiCorrelated),
                   CountOptions(3), CountPush(&window));
}

void RunFedFromTimeWindow(TimestampPolicy policy) {
  std::vector<UncertainElement> stream =
      MakeStream(SpatialDistribution::kIndependent);
  // Pull every 7th timestamp backwards so the policy fires.
  for (size_t i = 7; i < stream.size(); i += 7) {
    stream[i].time = stream[i - 3].time;
  }
  TimeWindow window(kSpan, policy);
  RunFedFromWindow(stream, FedOptions(4),
                   [&](UncertainElement* e, Expired* out) {
                     return window.TryPush(e, out);
                   });
  EXPECT_GT(policy == TimestampPolicy::kReject ? window.rejected()
                                               : window.clamped(),
            0u);
}

TEST(ShardEngineFedFromWindow, TimeWindowRejectingLateElements) {
  RunFedFromTimeWindow(TimestampPolicy::kReject);
}

TEST(ShardEngineFedFromWindow, TimeWindowClampingLateElements) {
  RunFedFromTimeWindow(TimestampPolicy::kClampToWatermark);
}

TEST(ShardEngineFedFromWindow, StoredCountWindow) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "psky_shard_fed_segments";
  std::filesystem::remove_all(dir);
  SegmentStore::Options store;
  store.dir = dir.string();
  store.dims = kDims;
  store.elements_per_segment = 128;
  StoredCountWindow window(kWindow, store);
  std::string error;
  ASSERT_TRUE(window.Init(&error)) << error;
  RunFedFromWindow(MakeStream(SpatialDistribution::kCorrelated),
                   CountOptions(2), CountPush(&window));
}

TEST(ShardEngineDeathTest, FedOneWayOnly) {
  // The engines below run worker threads: fork a fresh process per
  // death instead of the threaded one.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const UncertainElement e = StreamGenerator(StreamConfig{}).Next();
  ShardEngine windowed(CountOptions(2));
  EXPECT_DEATH(windowed.Insert(e), "count_window_ == nullptr");
  EXPECT_DEATH(windowed.Expire(e), "count_window_ == nullptr");
  ShardEngine fed(FedOptions(2));
  EXPECT_DEATH((void)fed.Route(e), "count_window_ != nullptr");
  EXPECT_DEATH((void)fed.WindowSnapshot(), "count_window_ != nullptr");
}

// Routing is a pure function of the element, and the dimension picks
// its rule: at d >= 3 the sector around the diagonal, which routes a
// stream unlike the hashed grid cell that d <= 2 keeps.
TEST(ShardEngine, RoutingIsDeterministicAndStrategySensitive) {
  ShardEngine a(CountOptions(4));
  ShardEngine b(CountOptions(4));
  StreamConfig cfg;
  cfg.dims = kDims;
  StreamGenerator gen(cfg);
  int unlike_cell = 0;
  for (int i = 0; i < 100; ++i) {
    const UncertainElement e = gen.Next();
    EXPECT_EQ(a.ShardOf(e), a.ShardOf(e));
    EXPECT_EQ(a.ShardOf(e), b.ShardOf(e));
    const uint64_t cell = CellGrid::HashCell(a.grid().IndexOf(e.pos)) % 4;
    if (a.ShardOf(e) != static_cast<int>(cell)) ++unlike_cell;
  }
  EXPECT_GT(unlike_cell, 50);
}

// A check-failure handler that reports what the failing shard worker was
// applying, as psky_stream's quarantine dump does.
void ReportWorkerCommand(const char* /*condition*/, const char* /*file*/,
                         int /*line*/) {
  ShardEngine::WorkerCommand cmd;
  if (!ShardEngine::CurrentWorkerCommand(&cmd)) return;
  std::fprintf(stderr, "worker: shard=%d %s seq=%llu.\n", cmd.shard,
               cmd.kind, static_cast<unsigned long long>(cmd.seq));
}

// An auditing shard checks that every expiry names its substream's
// oldest element. Expiring a later element of the same shard fires that
// check on the shard's worker, whose failure handler can then name the
// shard, the command kind and the element.
TEST(ShardEngineDeathTest, WorkerCheckFailureNamesItsCommand) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const std::vector<UncertainElement> stream =
      MakeStream(SpatialDistribution::kIndependent);
  ShardEngine::Options opts = FedOptions(3);
  opts.audit.mode = AuditMode::kCheck;
  // The second element routed to the first element's shard.
  ShardEngine probe(opts);
  const int shard = probe.ShardOf(stream[0]);
  size_t second = 1;
  while (probe.ShardOf(stream[second]) != shard) ++second;
  const std::string expected = "shard=" + std::to_string(shard) +
                               " expire seq=" +
                               std::to_string(stream[second].seq) + "\\.";
  EXPECT_DEATH(
      {
        SetCheckFailureHandler(&ReportWorkerCommand);
        ShardEngine engine(opts);
        for (size_t i = 0; i <= second; ++i) engine.Insert(stream[i]);
        engine.Expire(stream[second]);
        engine.Barrier();
      },
      expected);
}

// --- Sector routing ---------------------------------------------------
//
// At d >= 3 an element routes by the angle of (x0, x1, x2) around the
// diagonal: c1 = x0 - x1, c2 = (x0 + x1 - 2 x2) / sqrt(3), shard
// floor(n (atan2(c2, c1) + pi) / (2 pi)).

UncertainElement At(double x0, double x1, double x2) {
  UncertainElement e;
  e.pos = Point({x0, x1, x2});
  e.prob = 0.5;
  return e;
}

TEST(ShardRouting, SectorRule) {
  // Points at least 6 degrees from every sector boundary for n = 2, 3, 4
  // and 7, with their angle and expected shard per n.
  struct Case {
    double x0, x1, x2;
    int shard[4];  // n = 2, 3, 4, 7
  };
  const Case cases[] = {
      {0.375, 0.0, 0.125, {1, 1, 2, 3}},    //  10.9 degrees
      {0.625, 0.125, 0.0, {1, 1, 2, 4}},    //  40.9
      {0.375, 0.25, 0.0, {1, 2, 2, 4}},     //  70.9
      {0.5, 0.625, 0.0, {1, 2, 3, 5}},      // 100.9
      {0.125, 0.625, 0.0, {1, 2, 3, 6}},    // 139.1
      {0.0, 0.5, 0.125, {1, 2, 3, 6}},      // 163.9
      {0.375, 0.0, 0.25, {0, 1, 1, 3}},     // -10.9
      {0.5, 0.0, 0.625, {0, 1, 1, 2}},      // -40.9
      {0.125, 0.0, 0.375, {0, 0, 1, 2}},    // -70.9
      {0.0, 0.125, 0.625, {0, 0, 0, 1}},    // -100.9
      {0.0, 0.5, 0.625, {0, 0, 0, 0}},      // -139.1
      {0.0, 0.5, 0.375, {0, 0, 0, 0}},      // -163.9
  };
  const int counts[] = {2, 3, 4, 7};
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  for (int k = 0; k < 4; ++k) {
    const int n = counts[k];
    ShardEngine engine(CountOptions(n));
    for (const Case& c : cases) {
      SCOPED_TRACE(::testing::Message() << "n=" << n << " at (" << c.x0
                                        << ", " << c.x1 << ", " << c.x2
                                        << ")");
      EXPECT_EQ(engine.ShardOf(At(c.x0, c.x1, c.x2)), c.shard[k]);
      // A common power-of-two scale or small dyadic shift is exact in
      // floating point and leaves the angle alone.
      for (double scale : {0.125, 4.0, 0x1p40, 0x1p-40}) {
        EXPECT_EQ(engine.ShardOf(At(c.x0 * scale, c.x1 * scale, c.x2 * scale)),
                  c.shard[k]);
      }
      for (double shift : {0.25, -0.5, 3.0}) {
        EXPECT_EQ(engine.ShardOf(At(c.x0 + shift, c.x1 + shift, c.x2 + shift)),
                  c.shard[k]);
      }
    }
    // The diagonal has no angle: all of it goes to one shard.
    for (double v : {0.0, -0.0, 0.5, 1.0, -3.0, 1e300}) {
      EXPECT_EQ(engine.ShardOf(At(v, v, v)), n / 2) << "n=" << n << " v=" << v;
    }
    // Non-finite and negative coordinates still reach a valid shard.
    const double odd[] = {kNaN, kInf, -kInf, -1.0, -0.25, 0.0};
    for (double x0 : odd) {
      for (double x1 : odd) {
        for (double x2 : odd) {
          const int shard = engine.ShardOf(At(x0, x1, x2));
          EXPECT_GE(shard, 0);
          EXPECT_LT(shard, n);
        }
      }
    }
  }
  // At d <= 2 the plane around the diagonal has no angle to route by, and
  // routing stays the hashed grid cell.
  for (int dims : {1, 2}) {
    for (int n : {2, 3, 4, 7}) {
      ShardEngine::Options opts = CountOptions(n);
      opts.dims = dims;
      ShardEngine engine(opts);
      StreamConfig cfg;
      cfg.dims = dims;
      cfg.spatial = SpatialDistribution::kIndependent;
      StreamGenerator gen(cfg);
      for (int i = 0; i < 200; ++i) {
        UncertainElement e = gen.Next();
        if (i % 10 == 0) e.pos[0] = i % 20 == 0 ? -0.5 : 2.0;  // off range
        EXPECT_EQ(engine.ShardOf(e),
                  static_cast<int>(
                      CellGrid::HashCell(engine.grid().IndexOf(e.pos)) %
                      static_cast<uint64_t>(n)))
            << "dims=" << dims << " n=" << n;
      }
    }
  }
}

// On the three symmetric generators the sector rule splits the window
// evenly, and the shard candidate union stays close to S*: a shard
// evicts on its local P_new, which misses only the dominators routed to
// other sectors. Correlated streams get a looser bound: their candidates
// hug the diagonal, where the angle says little about dominance, and at
// this window their S* is so small (27) that a handful of shard-local
// extras move the ratio a lot.
TEST(ShardRouting, BalancedAndTight) {
  struct Case {
    SpatialDistribution spatial;
    double max_inflation;
  };
  const Case cases[] = {{SpatialDistribution::kAntiCorrelated, 1.6},
                        {SpatialDistribution::kIndependent, 1.6},
                        {SpatialDistribution::kCorrelated, 2.3}};
  for (const Case& c : cases) {
    const std::vector<UncertainElement> stream = MakeStream(c.spatial);
    for (int shards : {3, 4}) {
      SCOPED_TRACE(::testing::Message()
                   << SpatialDistributionName(c.spatial) << " shards="
                   << shards);
      ShardEngine engine(CountOptions(shards));
      for (const UncertainElement& e : stream) ASSERT_TRUE(engine.Route(e));
      size_t sstar = 0;
      (void)engine.GlobalSkyline(&sstar);
      const ShardEngine::Stats stats = engine.GetStats();
      ASSERT_GT(sstar, 0u);
      EXPECT_LE(stats.imbalance, 1.1);
      // One merge: merge_candidates is |U|.
      EXPECT_LE(static_cast<double>(stats.merge_candidates) /
                    static_cast<double>(sstar),
                c.max_inflation);
    }
  }
}

// --- CellGrid ---------------------------------------------------------

TEST(CellGrid, ChooseResolutionRespectsBudget) {
  EXPECT_EQ(CellGrid::ChooseResolution(2), 64u);   // 64^2 = 4096
  EXPECT_EQ(CellGrid::ChooseResolution(3), 16u);   // 16^3 = 4096
  EXPECT_EQ(CellGrid::ChooseResolution(5), 5u);    // 5^5 = 3125
  EXPECT_EQ(CellGrid::ChooseResolution(8), 2u);    // floor
}

TEST(CellGrid, CellMappingClampsAndRoundTrips) {
  CellGrid grid(2, 4);
  EXPECT_EQ(grid.num_cells(), 16u);
  EXPECT_EQ(grid.IndexOf(Point{0.0, 0.0}), 0u);
  EXPECT_EQ(grid.IndexOf(Point{0.99, 0.99}), 15u);
  EXPECT_EQ(grid.IndexOf(Point{1.0, 1.0}), 15u);    // edge clamp
  EXPECT_EQ(grid.IndexOf(Point{-0.5, 2.0}), 3u);    // out-of-range clamp
  for (uint32_t x = 0; x < 4; ++x) {
    for (uint32_t y = 0; y < 4; ++y) {
      CellGrid::Cell cell;
      cell.coord[0] = x;
      cell.coord[1] = y;
      EXPECT_EQ(grid.IndexOf(cell), x * 4u + y);  // row-major
    }
  }
}

}  // namespace
}  // namespace psky
