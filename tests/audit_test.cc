// Integrity-audit subsystem tests: clean streams audit clean, injected
// corruption is detected (check mode) and healed (repair mode), the shadow
// oracle escalates correctly, and quarantine dumps round-trip. Long-stream
// metamorphic soaks live in audit_soak_test.cc (ctest label "soak").

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "base/build_info.h"
#include "base/check.h"
#include "core/audit.h"
#include "core/ssky_operator.h"
#include "geom/dominance.h"
#include "store/segment_store.h"
#include "stream/generator.h"
#include "stream/window.h"
#include "test_util.h"

namespace psky {
namespace {

namespace fs = std::filesystem;

constexpr int kDims = 3;
constexpr double kQ = 0.3;
constexpr size_t kWindow = 300;

StreamConfig ConfigFor(SpatialDistribution dist, uint64_t seed = 0xA0D17u) {
  StreamConfig cfg;
  cfg.dims = kDims;
  cfg.spatial = dist;
  cfg.seed = seed + static_cast<uint64_t>(dist);
  return cfg;
}

// An operator plus its window and audit manager, advanced in lockstep.
struct Pipeline {
  explicit Pipeline(AuditOptions options,
                    SpatialDistribution dist = SpatialDistribution::kIndependent,
                    size_t capacity = kWindow)
      : op(kDims, kQ),
        window(capacity),
        gen(ConfigFor(dist)),
        audit(&op, options, AuditManager::WindowStream::Of(&window)) {}

  void Run(size_t steps) {
    for (size_t i = 0; i < steps; ++i) {
      const UncertainElement e = gen.Next();
      if (auto expired = window.Push(e)) op.Expire(*expired);
      op.Insert(e);
      audit.Step();
    }
  }

  // Corrupts a current skyline member's probability state in place by the
  // given log-domain deltas — the damage unbounded rounding drift would
  // cause, writ large. Safe for pnew here because the tests audit before
  // any further arrival can act on the corrupted retention value. Returns
  // the victim's seq.
  uint64_t CorruptSkylineMember(double delta_new, double delta_old) {
    const std::vector<SkylineMember> sky = op.Skyline();
    EXPECT_FALSE(sky.empty()) << "stream produced no skyline to corrupt";
    const SkylineMember& victim = sky.front();
    const SkyTree::AuditView view =
        op.tree().LookupForAudit(victim.element.pos, victim.element.seq);
    EXPECT_TRUE(view.found);
    op.mutable_tree()->RepairElement(victim.element.pos, victim.element.seq,
                                     view.pnew_log + delta_new,
                                     view.pold_log + delta_old);
    return victim.element.seq;
  }

  SskyOperator op;
  CountWindow window;
  StreamGenerator gen;
  AuditManager audit;
};

AuditOptions Options(AuditMode mode) {
  AuditOptions o;
  o.mode = mode;
  o.audit_every = 4;
  o.elements_per_audit = 4;
  return o;
}

class AuditDistTest : public ::testing::TestWithParam<SpatialDistribution> {};

TEST_P(AuditDistTest, CleanStreamAuditsClean) {
  AuditOptions options = Options(AuditMode::kCheck);
  options.oracle_every = 2000;
  Pipeline p(options, GetParam());
  p.Run(10000);
  const AuditReport& r = p.audit.report();
  EXPECT_GT(r.elements_audited, 1000u);
  EXPECT_LT(r.max_drift, options.tolerance);
  EXPECT_EQ(r.drift_beyond_tolerance, 0u);
  EXPECT_EQ(r.false_evictions, 0u);
  EXPECT_EQ(r.oracle_replays, 5u);
  EXPECT_EQ(r.oracle_mismatches, 0u);
  EXPECT_EQ(r.violations_unrepaired, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllDistributions, AuditDistTest,
                         ::testing::Values(
                             SpatialDistribution::kAntiCorrelated,
                             SpatialDistribution::kIndependent,
                             SpatialDistribution::kCorrelated),
                         [](const auto& param_info) {
                           return std::string(
                               SpatialDistributionName(param_info.param));
                         });

TEST(AuditTest, StepHonorsCadence) {
  AuditOptions options = Options(AuditMode::kCheck);
  Pipeline p(options);
  p.Run(16);
  // Four slice audits (steps 4, 8, 12, 16) of four elements each.
  EXPECT_EQ(p.audit.report().elements_audited, 16u);
  EXPECT_EQ(p.audit.report().steps_seen, 16u);
}

TEST(AuditTest, OffModeNeverAudits) {
  Pipeline p(Options(AuditMode::kOff));
  p.Run(1000);
  EXPECT_EQ(p.audit.report().elements_audited, 0u);
  EXPECT_EQ(p.audit.report().oracle_replays, 0u);
}

TEST(AuditTest, CheckModeDetectsInjectedDriftWithoutMutating) {
  Pipeline p(Options(AuditMode::kCheck));
  p.Run(2000);
  const uint64_t seq = p.CorruptSkylineMember(-2.0, 0.0);

  EXPECT_GT(p.audit.AuditAll(), 0u);
  const AuditReport& r = p.audit.report();
  EXPECT_GE(r.drift_beyond_tolerance, 1u);
  EXPECT_GE(r.max_drift, 1.9);
  EXPECT_GT(r.violations_unrepaired, 0u);
  EXPECT_EQ(r.repairs_applied, 0u);

  // Check mode reports but never touches state: the corruption is intact.
  const std::vector<SkylineMember> sky = p.op.Skyline();
  for (const SkylineMember& m : sky) EXPECT_NE(m.element.seq, seq);
}

TEST(AuditTest, RepairModeHealsInjectedDrift) {
  Pipeline p(Options(AuditMode::kRepair));
  p.Run(2000);
  const std::vector<SkylineMember> before = p.op.Candidates();
  p.CorruptSkylineMember(-2.0, 0.0);

  EXPECT_EQ(p.audit.AuditAll(), 0u);
  const AuditReport& r = p.audit.report();
  EXPECT_GE(r.repairs_applied, 1u);
  EXPECT_EQ(r.violations_unrepaired, 0u);
  p.op.tree().CheckInvariants(/*deep=*/true);

  // The healed operator is value-identical to its pre-corruption self.
  const std::vector<SkylineMember> after = p.op.Candidates();
  ASSERT_EQ(SeqsOf(before), SeqsOf(after));
  for (size_t i = 0; i < before.size(); ++i) {
    EXPECT_NEAR(before[i].psky, after[i].psky, 1e-9)
        << "seq " << before[i].element.seq;
  }
}

TEST(AuditTest, RepairCountsPreventedBandFlips) {
  Pipeline p(Options(AuditMode::kRepair));
  p.Run(2000);
  const size_t skyline_before = p.op.skyline_count();
  // -5.0 in the log domain shrinks P_sky by >100x: a guaranteed band flip
  // for a skyline member, which repair must reverse and count.
  p.CorruptSkylineMember(0.0, -5.0);
  EXPECT_LT(p.op.skyline_count(), skyline_before);

  EXPECT_EQ(p.audit.AuditAll(), 0u);
  EXPECT_GE(p.audit.report().band_flips_prevented, 1u);
  EXPECT_EQ(p.op.skyline_count(), skyline_before);
}

TEST(AuditTest, OracleFlagsCorruptionInCheckMode) {
  Pipeline p(Options(AuditMode::kCheck));
  p.Run(2000);
  EXPECT_TRUE(p.audit.RunOracleCheck());
  p.CorruptSkylineMember(0.0, -5.0);
  EXPECT_FALSE(p.audit.RunOracleCheck());
  const AuditReport& r = p.audit.report();
  EXPECT_EQ(r.oracle_replays, 2u);
  EXPECT_EQ(r.oracle_mismatches, 1u);
}

TEST(AuditTest, OracleEscalatesToFullRepair) {
  Pipeline p(Options(AuditMode::kRepair));
  p.Run(2000);
  p.CorruptSkylineMember(0.0, -5.0);
  EXPECT_TRUE(p.audit.RunOracleCheck());
  const AuditReport& r = p.audit.report();
  EXPECT_EQ(r.oracle_mismatches, 0u);
  EXPECT_GE(r.repairs_applied, 1u);
  EXPECT_EQ(r.violations_unrepaired, 0u);
}

// --- quarantine files ----------------------------------------------------

QuarantineDump MakeDump() {
  QuarantineDump dump;
  dump.reason = "PSKY_CHECK failed: 1 == 2 at somewhere.cc:42";
  dump.report.steps_seen = 123456;
  dump.report.elements_audited = 7890;
  dump.report.max_drift = 3.25e-9;
  dump.report.drift_beyond_tolerance = 3;
  dump.report.repairs_applied = 2;
  dump.report.band_flips_prevented = 1;
  dump.report.false_evictions = 0;
  dump.report.oracle_replays = 12;
  dump.report.oracle_mismatches = 1;
  dump.report.violations_unrepaired = 2;
  dump.state.dims = 2;
  dump.state.q = kQ;
  dump.state.window_kind = WindowKind::kCount;
  dump.state.window_capacity = 16;
  dump.state.elements_consumed = 123456;
  dump.state.next_seq = 123456;
  dump.state.window = {MakeElement({0.1, 0.9}, 0.5, 123450),
                       MakeElement({0.4, 0.2}, 0.9, 123455)};
  return dump;
}

std::string TempPath(const std::string& name) {
  return (fs::path(::testing::TempDir()) / name).string();
}

TEST(QuarantineTest, RoundTripsDumpExactly) {
  const QuarantineDump dump = MakeDump();
  const std::string path = TempPath("roundtrip.pskyq");
  std::string error;
  ASSERT_TRUE(WriteQuarantineFile(path, dump, &error)) << error;

  QuarantineDump got;
  ASSERT_TRUE(ReadQuarantineFile(path, &got, &error)) << error;
  EXPECT_EQ(got.producer, BuildInfoString());  // stamped on write
  EXPECT_EQ(got.reason, dump.reason);
  EXPECT_EQ(got.report.steps_seen, dump.report.steps_seen);
  EXPECT_EQ(got.report.elements_audited, dump.report.elements_audited);
  EXPECT_EQ(got.report.max_drift, dump.report.max_drift);
  EXPECT_EQ(got.report.drift_beyond_tolerance,
            dump.report.drift_beyond_tolerance);
  EXPECT_EQ(got.report.repairs_applied, dump.report.repairs_applied);
  EXPECT_EQ(got.report.band_flips_prevented,
            dump.report.band_flips_prevented);
  EXPECT_EQ(got.report.oracle_replays, dump.report.oracle_replays);
  EXPECT_EQ(got.report.oracle_mismatches, dump.report.oracle_mismatches);
  EXPECT_EQ(got.report.violations_unrepaired,
            dump.report.violations_unrepaired);
  ASSERT_EQ(got.state.window.size(), dump.state.window.size());
  EXPECT_EQ(got.state.window[1].seq, dump.state.window[1].seq);
  EXPECT_EQ(got.state.window[1].prob, dump.state.window[1].prob);
  fs::remove(path);
}

TEST(QuarantineTest, EmbeddedStateReplaysLikeACheckpoint) {
  // The point of embedding a full checkpoint: post-mortem tooling rebuilds
  // the crashed operator with the ordinary restore path.
  const QuarantineDump dump = MakeDump();
  const std::string path = TempPath("replayable.pskyq");
  std::string error;
  ASSERT_TRUE(WriteQuarantineFile(path, dump, &error)) << error;
  QuarantineDump got;
  ASSERT_TRUE(ReadQuarantineFile(path, &got, &error)) << error;

  SskyOperator op(got.state.dims, got.state.q);
  ReplayWindow(got.state, &op);
  EXPECT_EQ(op.candidate_count(), 2u);
  op.tree().CheckInvariants(/*deep=*/true);
  fs::remove(path);
}

TEST(QuarantineTest, RejectsFlippedByteAndTruncation) {
  const std::string path = TempPath("corrupt.pskyq");
  std::string error;
  ASSERT_TRUE(WriteQuarantineFile(path, MakeDump(), &error)) << error;
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), {});
  }

  std::string flipped = bytes;
  flipped[flipped.size() / 2] ^= 0x40;
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(flipped.data(), static_cast<std::streamsize>(flipped.size()));
  }
  QuarantineDump got;
  EXPECT_FALSE(ReadQuarantineFile(path, &got, &error));
  EXPECT_NE(error.find("CRC"), std::string::npos) << error;

  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 3));
  }
  EXPECT_FALSE(ReadQuarantineFile(path, &got, &error));
  fs::remove(path);
}

TEST(QuarantineTest, FileNameIsZeroPaddedAndSortable) {
  EXPECT_EQ(QuarantineFileName(5000), "quarantine-00000000000000005000.pskyq");
  EXPECT_LT(QuarantineFileName(999), QuarantineFileName(1000));
}

// --- streamed-window auditing (out-of-core windows) ----------------------

// An operator over a StoredCountWindow, mirroring Pipeline but visiting
// the window one mapped segment at a time.
struct StreamedPipeline {
  explicit StreamedPipeline(
      AuditOptions options, const std::string& tag,
      SpatialDistribution dist = SpatialDistribution::kIndependent,
      size_t capacity = kWindow)
      : op(kDims, kQ),
        window(capacity, StoreOptions(tag)),
        gen(ConfigFor(dist)),
        audit(&op, options, AuditManager::WindowStream::Of(&window)) {
    std::string error;
    PSKY_CHECK_MSG(window.Init(&error), error.c_str());
  }

  static SegmentStore::Options StoreOptions(const std::string& tag) {
    SegmentStore::Options o;
    o.dir = TempPath("audit_stream_" + tag);
    fs::remove_all(o.dir);
    o.dims = kDims;
    o.elements_per_segment = 32;  // kWindow=300 spans ~10 segments
    o.resident_budget = 3;        // force remaps during audit scans
    return o;
  }

  void Run(size_t steps) {
    for (size_t i = 0; i < steps; ++i) {
      const UncertainElement e = gen.Next();
      if (auto expired = window.Push(e)) op.Expire(*expired);
      op.Insert(e);
      audit.Step();
    }
  }

  SskyOperator op;
  StoredCountWindow window;
  StreamGenerator gen;
  AuditManager audit;
};

// Same stream, same cadence: auditing a disk window must reach the same
// verdicts as auditing a memory window — clean stream, zero violations,
// and identical audit/oracle counts (the exact P_new sums are computed
// over the same elements in the same order).
TEST(AuditStreamedTest, MatchesSnapshotAuditOnCleanStream) {
  AuditOptions options = Options(AuditMode::kCheck);
  options.oracle_every = 1000;
  Pipeline snap(options);
  StreamedPipeline streamed(options, "clean");
  snap.Run(4000);
  streamed.Run(4000);
  const AuditReport& a = snap.audit.report();
  const AuditReport& b = streamed.audit.report();
  EXPECT_EQ(a.elements_audited, b.elements_audited);
  EXPECT_EQ(a.oracle_replays, b.oracle_replays);
  EXPECT_EQ(a.max_drift, b.max_drift);  // same sums, same order: bitwise
  EXPECT_EQ(b.drift_beyond_tolerance, 0u);
  EXPECT_EQ(b.false_evictions, 0u);
  EXPECT_EQ(b.oracle_mismatches, 0u);
  EXPECT_EQ(b.violations_unrepaired, 0u);
}

TEST(AuditStreamedTest, RepairsInjectedDriftThroughTheCursor) {
  StreamedPipeline p(Options(AuditMode::kRepair), "repair");
  p.Run(2000);
  // Corrupt a live skyline member exactly as the snapshot tests do.
  const std::vector<SkylineMember> sky = p.op.Skyline();
  ASSERT_FALSE(sky.empty());
  const SkylineMember& victim = sky.front();
  const SkyTree::AuditView view =
      p.op.tree().LookupForAudit(victim.element.pos, victim.element.seq);
  ASSERT_TRUE(view.found);
  p.op.mutable_tree()->RepairElement(victim.element.pos, victim.element.seq,
                                     view.pnew_log - 2.0, view.pold_log);
  EXPECT_EQ(p.audit.AuditAll(), 0u);
  const AuditReport& r = p.audit.report();
  EXPECT_GE(r.repairs_applied, 1u);
  EXPECT_EQ(r.violations_unrepaired, 0u);
  // The repaired value is exact again.
  const SkyTree::AuditView healed =
      p.op.tree().LookupForAudit(victim.element.pos, victim.element.seq);
  ASSERT_TRUE(healed.found);
  EXPECT_NEAR(healed.pnew_log, view.pnew_log, 1e-9);
}

// --- block audit vs the per-element scan --------------------------------

// The per-element scan the block audit replaced, kept as the reference:
// oldest to newest, one Dominates test and one log factor per (window
// element, target) pair.
double ScalarExactPnew(const AuditManager::WindowStream& window,
                       uint64_t target) {
  const UncertainElement t = window.at(target);
  double sum = 0.0;
  uint64_t j = 0;
  window.scan([&](const UncertainElement& w) {
    if (j > target && Dominates(w.pos, t.pos)) {
      sum += LogOneMinusProb(ClampProb(w.prob));
    }
    ++j;
  });
  return sum;
}

// Knocks the materialized P_new of every element at `indices` that is live
// in the candidate set 2.0 off in the log domain, so the next audit of it
// must repair it to its exact value. Returns the live indices. (Lazy
// bookkeeping can leave a zero P_old a few ulps positive, which
// RepairElement rejects; P_old is planted clamped to 0.)
template <typename P>
std::vector<uint64_t> PlantDrift(P* p, const AuditManager::WindowStream& ws,
                                 const std::vector<uint64_t>& indices) {
  std::vector<uint64_t> live;
  for (const uint64_t i : indices) {
    const UncertainElement e = ws.at(i);
    const SkyTree::AuditView view = p->op.tree().LookupForAudit(e.pos, e.seq);
    if (!view.found) continue;
    p->op.mutable_tree()->RepairElement(e.pos, e.seq, view.pnew_log - 2.0,
                                        std::min(view.pold_log, 0.0));
    live.push_back(i);
  }
  return live;
}

// A repair writes the auditor's exact P_new verbatim, so after one every
// repaired element must carry the reference sum bit for bit.
template <typename P>
void ExpectRepairedToScalar(P* p, const AuditManager::WindowStream& ws,
                            const std::vector<uint64_t>& indices) {
  for (const uint64_t i : indices) {
    const UncertainElement e = ws.at(i);
    const SkyTree::AuditView view = p->op.tree().LookupForAudit(e.pos, e.seq);
    ASSERT_TRUE(view.found) << "window index " << i;
    EXPECT_EQ(std::bit_cast<uint64_t>(view.pnew_log),
              std::bit_cast<uint64_t>(ScalarExactPnew(ws, i)))
        << "window index " << i << " of " << ws.size();
  }
}

// Runs `p`'s stream to a full window, then repairs planted drift twice —
// through a rotating slice that wraps the window end (targets n-2, n-1, 0,
// 1; n-2 and n-1 sit in the last, partial block) and through an AuditAll
// sweep of 256-target batches — checking each repaired P_new against the
// per-element scan.
template <typename P>
void ExpectBlockAuditMatchesScalarScan(P* p) {
  const AuditManager::WindowStream ws =
      AuditManager::WindowStream::Of(&p->window);
  p->Run(3 * p->window.capacity());
  const uint64_t n = ws.size();
  ASSERT_EQ(n, p->window.capacity());
  ASSERT_EQ(n % 4, 2u) << "the 4-wide slice cursor must land on n - 2";

  AuditOptions options = Options(AuditMode::kRepair);
  options.audit_every = 1;
  AuditManager audit(&p->op, options, ws);
  for (uint64_t k = 0; k < (n - 2) / 4; ++k) audit.Step();
  const std::vector<uint64_t> wrap = PlantDrift(p, ws, {n - 2, n - 1, 0, 1});
  ASSERT_FALSE(wrap.empty());  // the newest element is always a candidate
  const uint64_t repairs_before = audit.report().repairs_applied;
  audit.Step();
  EXPECT_GE(audit.report().repairs_applied - repairs_before, wrap.size());
  ExpectRepairedToScalar(p, ws, wrap);

  std::vector<uint64_t> all(n);
  for (uint64_t i = 0; i < n; ++i) all[i] = i;
  const std::vector<uint64_t> live = PlantDrift(p, ws, all);
  EXPECT_EQ(audit.AuditAll(), 0u);
  ExpectRepairedToScalar(p, ws, live);
  EXPECT_EQ(audit.report().violations_unrepaired, 0u);
}

// The auditor derives P_old as (candidate dominator sum) - P_new, summing
// the newer dominators in two different orders. For a live element with
// no older candidate dominator the true log P_old is 0, and the difference
// can round a few ulps positive: this stream holds such an element at
// window index 10 after 900 steps. Repairing it must write log P_old = 0,
// not trip RepairElement's log-domain check.
TEST(AuditTest, RepairClampsRoundedPositivePold) {
  SskyOperator op(kDims, kQ);
  CountWindow window(kWindow);
  StreamGenerator gen(ConfigFor(SpatialDistribution::kAntiCorrelated, 22));
  for (int i = 0; i < 900; ++i) {
    const UncertainElement e = gen.Next();
    if (auto expired = window.Push(e)) op.Expire(*expired);
    op.Insert(e);
  }
  const AuditManager::WindowStream ws = AuditManager::WindowStream::Of(&window);
  const UncertainElement e = window.At(10);
  const double exact_pnew = ScalarExactPnew(ws, 10);
  const SkyTree::DominatorSums sums = op.tree().ExactDominators(e.pos, e.seq);
  ASSERT_EQ(sums.older_log, 0.0);
  ASSERT_GT(sums.newer_log + sums.older_log - exact_pnew, 0.0);

  const SkyTree::AuditView view = op.tree().LookupForAudit(e.pos, e.seq);
  ASSERT_TRUE(view.found);
  op.mutable_tree()->RepairElement(e.pos, e.seq, view.pnew_log - 2.0,
                                   std::min(view.pold_log, 0.0));
  AuditManager audit(&op, Options(AuditMode::kRepair), ws);
  EXPECT_EQ(audit.AuditAll(), 0u);
  const SkyTree::AuditView healed = op.tree().LookupForAudit(e.pos, e.seq);
  EXPECT_EQ(std::bit_cast<uint64_t>(healed.pnew_log),
            std::bit_cast<uint64_t>(exact_pnew));
  EXPECT_EQ(healed.pold_log, 0.0);
}

class BlockAuditTest
    : public ::testing::TestWithParam<std::tuple<SpatialDistribution, bool>> {
};

// Windows of 150 (less than one 256-element block), 302 and 550 elements,
// each congruent to 2 mod 4 so the slice cursor reaches n - 2.
TEST_P(BlockAuditTest, RepairsToThePerElementScanBitForBit) {
  const auto [dist, disk] = GetParam();
  for (const size_t capacity : {150, 302, 550}) {
    SCOPED_TRACE("window " + std::to_string(capacity));
    AuditOptions off;
    off.mode = AuditMode::kOff;
    if (disk) {
      StreamedPipeline p(off,
                         std::string("block_") + SpatialDistributionName(dist) +
                             "_" + std::to_string(capacity),
                         dist, capacity);
      ExpectBlockAuditMatchesScalarScan(&p);
    } else {
      Pipeline p(off, dist, capacity);
      ExpectBlockAuditMatchesScalarScan(&p);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllDistributions, BlockAuditTest,
    ::testing::Combine(::testing::Values(SpatialDistribution::kAntiCorrelated,
                                         SpatialDistribution::kIndependent,
                                         SpatialDistribution::kCorrelated),
                       ::testing::Bool()),
    [](const auto& param_info) {
      return std::string(
                 SpatialDistributionName(std::get<0>(param_info.param))) +
             (std::get<1>(param_info.param) ? "_StoredCountWindow"
                                            : "_CountWindow");
    });

}  // namespace
}  // namespace psky
