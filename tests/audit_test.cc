// Integrity-audit subsystem tests: clean streams audit clean, injected
// corruption is detected (check mode) and healed (repair mode), the shadow
// oracle escalates correctly, and quarantine dumps (a checkpoint and a
// note) round-trip. Long-stream metamorphic soaks live in
// audit_soak_test.cc (ctest label "soak").

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "base/build_info.h"
#include "base/check.h"
#include "core/audit.h"
#include "core/checkpoint.h"
#include "core/ssky_operator.h"
#include "geom/dominance.h"
#include "store/recovery.h"
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

  SskyOperator op;
  CountWindow window;
  StreamGenerator gen;
  AuditManager audit;
};

// Corrupts the oldest skyline member's probability state in place by the
// given log-domain deltas — the damage a bookkeeping defect or a bit flip
// would cause. Safe for pnew in the tests that audit before any
// further arrival can act on the corrupted retention value. Returns the
// victim's seq.
uint64_t CorruptSkylineMember(SskyOperator* op, double delta_new,
                              double delta_old) {
  const std::vector<SkylineMember> sky = op->Skyline();
  EXPECT_FALSE(sky.empty()) << "stream produced no skyline to corrupt";
  const SkylineMember& victim = sky.front();
  const SkyTree::AuditView view =
      op->tree().LookupForAudit(victim.element.pos, victim.element.seq);
  EXPECT_TRUE(view.found);
  op->mutable_tree()->RepairElement(victim.element.pos, victim.element.seq,
                                    view.pnew + QuantizeLog(delta_new),
                                    view.pold + QuantizeLog(delta_old));
  return victim.element.seq;
}

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
  EXPECT_EQ(r.max_drift, 0.0);  // exact sums: nothing to drift
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
  // Steps still count (quarantine dumps carry them), but an auditor that
  // never runs does not lag.
  EXPECT_EQ(p.audit.report().steps_seen, 1000u);
  EXPECT_EQ(p.audit.steps_since_last_audit(), 0u);

  // Neither does a check-mode auditor whose slice cadence is 0.
  AuditOptions no_slices = Options(AuditMode::kCheck);
  no_slices.audit_every = 0;
  Pipeline q(no_slices);
  q.Run(1000);
  EXPECT_EQ(q.audit.report().elements_audited, 0u);
  EXPECT_EQ(q.audit.report().steps_seen, 1000u);
  EXPECT_EQ(q.audit.steps_since_last_audit(), 0u);
}

TEST(AuditTest, DegradationSuspendsOracleAndStretchesSlices) {
  AuditOptions options = Options(AuditMode::kCheck);  // a slice per 4 steps
  options.oracle_every = 100;
  Pipeline p(options);
  p.Run(400);
  EXPECT_EQ(p.audit.report().oracle_replays, 4u);
  EXPECT_EQ(p.audit.report().elements_audited, 400u);  // 100 slices of 4

  // Oracle suspended, slices 8x apart: steps 401..1040 hold 20 multiples
  // of 32 (416..1024), and the last slice ran 16 steps ago.
  p.audit.SetDegradation(/*suspend_oracle=*/true, /*audit_stretch=*/8);
  p.Run(640);
  EXPECT_EQ(p.audit.report().oracle_replays, 4u);
  EXPECT_EQ(p.audit.report().elements_audited, 400u + 80u);
  EXPECT_EQ(p.audit.steps_since_last_audit(), 16u);

  // Released: steps 1041..1440 run 100 slices and 4 replays again.
  p.audit.SetDegradation(/*suspend_oracle=*/false, /*audit_stretch=*/1);
  p.Run(400);
  EXPECT_EQ(p.audit.report().oracle_replays, 8u);
  EXPECT_EQ(p.audit.report().elements_audited, 480u + 400u);
  EXPECT_EQ(p.audit.report().oracle_mismatches, 0u);
  EXPECT_EQ(p.audit.report().violations_unrepaired, 0u);
}

TEST(AuditTest, CheckModeDetectsInjectedDriftWithoutMutating) {
  Pipeline p(Options(AuditMode::kCheck));
  p.Run(2000);
  const uint64_t seq = CorruptSkylineMember(&p.op, -2.0, 0.0);

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
  CorruptSkylineMember(&p.op, -2.0, 0.0);

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
    // The repair writes the exact sum back: the same bits as before.
    EXPECT_EQ(std::bit_cast<uint64_t>(before[i].pnew),
              std::bit_cast<uint64_t>(after[i].pnew))
        << "seq " << before[i].element.seq;
    EXPECT_EQ(std::bit_cast<uint64_t>(before[i].psky),
              std::bit_cast<uint64_t>(after[i].psky))
        << "seq " << before[i].element.seq;
  }
}

TEST(AuditTest, RepairCountsPreventedBandFlips) {
  Pipeline p(Options(AuditMode::kRepair));
  p.Run(2000);
  const size_t skyline_before = p.op.skyline_count();
  // -5.0 in the log domain shrinks P_sky by >100x: a guaranteed band flip
  // for a skyline member, which repair must reverse and count.
  CorruptSkylineMember(&p.op, 0.0, -5.0);
  EXPECT_LT(p.op.skyline_count(), skyline_before);

  EXPECT_EQ(p.audit.AuditAll(), 0u);
  EXPECT_GE(p.audit.report().band_flips_prevented, 1u);
  EXPECT_EQ(p.op.skyline_count(), skyline_before);
}

TEST(AuditTest, OracleFlagsCorruptionInCheckMode) {
  Pipeline p(Options(AuditMode::kCheck));
  p.Run(2000);
  EXPECT_TRUE(p.audit.RunOracleCheck());
  CorruptSkylineMember(&p.op, 0.0, -5.0);
  EXPECT_FALSE(p.audit.RunOracleCheck());
  const AuditReport& r = p.audit.report();
  EXPECT_EQ(r.oracle_replays, 2u);
  EXPECT_EQ(r.oracle_mismatches, 1u);
}

TEST(AuditTest, OracleEscalatesToFullRepair) {
  Pipeline p(Options(AuditMode::kRepair));
  p.Run(2000);
  CorruptSkylineMember(&p.op, 0.0, -5.0);
  EXPECT_TRUE(p.audit.RunOracleCheck());
  const AuditReport& r = p.audit.report();
  EXPECT_EQ(r.oracle_mismatches, 0u);
  EXPECT_GE(r.repairs_applied, 1u);
  EXPECT_EQ(r.violations_unrepaired, 0u);
}

// --- quarantine dumps ----------------------------------------------------
//
// A dump is what psky_stream's DumpQuarantine writes: a plain checkpoint
// of the window, named by QuarantineFileName, and a note beside it with
// the reason and the audit counters (WriteQuarantineNote).

struct Dump {
  std::string reason;
  AuditReport report;
  CheckpointState state;
};

Dump MakeDump() {
  Dump dump;
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

// A fresh directory per test, so parallel test runs cannot collide.
std::string DumpDir() {
  const std::string dir = TempPath(
      std::string("psky_quarantine_") +
      ::testing::UnitTest::GetInstance()->current_test_info()->name());
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::string NotePath(const std::string& dump_path) {
  return fs::path(dump_path).replace_extension(".txt").string();
}

// Writes `dump` into `dir` as psky_stream does; returns the dump's path.
std::string WriteDump(const std::string& dir, const Dump& dump) {
  const std::string path =
      dir + "/" + QuarantineFileName(dump.state.elements_consumed, 1);
  std::string error;
  EXPECT_TRUE(WriteCheckpointFile(path, dump.state, &error)) << error;
  EXPECT_TRUE(
      WriteQuarantineNote(NotePath(path), dump.reason, dump.report, &error))
      << error;
  return path;
}

TEST(QuarantineTest, RoundTripsDumpExactly) {
  const Dump dump = MakeDump();
  const std::string dir = DumpDir();
  const std::string path = WriteDump(dir, dump);

  // The dump reads back through the ordinary checkpoint reader.
  CheckpointState got;
  std::string error;
  ASSERT_TRUE(ReadCheckpointFile(path, &got, &error)) << error;
  EXPECT_EQ(got.producer, BuildInfoString());  // stamped on write
  EXPECT_EQ(got.elements_consumed, dump.state.elements_consumed);
  EXPECT_EQ(got.next_seq, dump.state.next_seq);
  EXPECT_EQ(got.window_capacity, dump.state.window_capacity);
  ASSERT_EQ(got.window.size(), dump.state.window.size());
  for (size_t i = 0; i < got.window.size(); ++i) {
    EXPECT_EQ(got.window[i].seq, dump.state.window[i].seq);
    EXPECT_EQ(std::bit_cast<uint64_t>(got.window[i].prob),
              std::bit_cast<uint64_t>(dump.state.window[i].prob));
    EXPECT_EQ(got.window[i].pos, dump.state.window[i].pos);
  }

  // The note holds the reason and the ten counters, in declaration order,
  // max_drift to the last bit.
  std::vector<std::pair<std::string, std::string>> note;
  {
    std::ifstream in(NotePath(path));
    std::string line;
    while (std::getline(in, line)) {
      const size_t eq = line.find('=');
      ASSERT_NE(eq, std::string::npos) << line;
      note.emplace_back(line.substr(0, eq), line.substr(eq + 1));
    }
  }
  const AuditReport& r = dump.report;
  const std::vector<std::pair<std::string, uint64_t>> counters = {
      {"steps_seen", r.steps_seen},
      {"elements_audited", r.elements_audited},
      {"max_drift", 0},
      {"drift_beyond_tolerance", r.drift_beyond_tolerance},
      {"repairs_applied", r.repairs_applied},
      {"band_flips_prevented", r.band_flips_prevented},
      {"false_evictions", r.false_evictions},
      {"oracle_replays", r.oracle_replays},
      {"oracle_mismatches", r.oracle_mismatches},
      {"violations_unrepaired", r.violations_unrepaired}};
  ASSERT_EQ(note.size(), 1 + counters.size());
  EXPECT_EQ(note[0], std::make_pair(std::string("reason"), dump.reason));
  for (size_t i = 0; i < counters.size(); ++i) {
    const auto& [key, value] = note[i + 1];
    EXPECT_EQ(key, counters[i].first);
    if (key == "max_drift") {
      EXPECT_EQ(std::bit_cast<uint64_t>(std::strtod(value.c_str(), nullptr)),
                std::bit_cast<uint64_t>(r.max_drift))
          << value;
    } else {
      EXPECT_EQ(value, std::to_string(counters[i].second)) << key;
    }
  }
  fs::remove_all(dir);
}

TEST(QuarantineTest, EmbeddedStateReplaysLikeACheckpoint) {
  // The dump is a checkpoint, so post-mortem tooling rebuilds the crashed
  // operator with the ordinary restore path, and a dump copied into a
  // checkpoint directory under a checkpoint's name is what recovery
  // (--resume) starts from. Left under its own name it is no checkpoint
  // of the run: recovery never picks a dump by itself.
  const Dump dump = MakeDump();
  const std::string dir = DumpDir();
  const std::string path = WriteDump(dir, dump);
  EXPECT_TRUE(ListCheckpointFiles(dir).empty());

  fs::create_directories(dir + "/resume");
  fs::copy_file(path, dir + "/resume/" +
                          CheckpointFileName(dump.state.elements_consumed));
  RecoveredState recovered;
  std::string error;
  ASSERT_TRUE(RecoverState(dir + "/resume", &recovered, &error)) << error;
  ASSERT_TRUE(recovered.has_checkpoint);
  EXPECT_EQ(recovered.checkpoint.elements_consumed,
            dump.state.elements_consumed);

  SskyOperator op(recovered.checkpoint.dims, recovered.checkpoint.q);
  ReplayWindow(recovered.checkpoint, &op);
  EXPECT_EQ(op.candidate_count(), 2u);
  op.tree().CheckInvariants(/*deep=*/true);
  fs::remove_all(dir);
}

TEST(QuarantineTest, RejectsFlippedByteAndTruncation) {
  const std::string dir = DumpDir();
  const std::string path = WriteDump(dir, MakeDump());
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), {});
  }

  // A corrupt dump delivers no element: the CRC is checked first.
  size_t delivered = 0;
  const auto count = [&delivered](const UncertainElement&) { ++delivered; };
  std::string flipped = bytes;
  flipped[flipped.size() / 2] ^= 0x40;
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(flipped.data(), static_cast<std::streamsize>(flipped.size()));
  }
  CheckpointState got;
  std::string error;
  EXPECT_FALSE(ReadCheckpointFileStreamed(path, &got, count, &error));
  EXPECT_NE(error.find("CRC"), std::string::npos) << error;

  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 3));
  }
  EXPECT_FALSE(ReadCheckpointFileStreamed(path, &got, count, &error));
  EXPECT_EQ(delivered, 0u);
  fs::remove_all(dir);
}

TEST(QuarantineTest, FileNameIsZeroPaddedAndSortable) {
  EXPECT_EQ(QuarantineFileName(5000, 7),
            "quarantine-00000000000000005000-007.psky");
  EXPECT_LT(QuarantineFileName(999, 1), QuarantineFileName(1000, 1));
}

// --- streamed-window auditing (out-of-core windows) ----------------------

// An operator over a StoredCountWindow, mirroring Pipeline but visiting
// the window one segment read at a time.
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
  EXPECT_EQ(a.max_drift, b.max_drift);  // same exact sums: bitwise
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
                                     view.pnew - QuantizeLog(2.0),
                                     view.pold);
  EXPECT_EQ(p.audit.AuditAll(), 0u);
  const AuditReport& r = p.audit.report();
  EXPECT_GE(r.repairs_applied, 1u);
  EXPECT_EQ(r.violations_unrepaired, 0u);
  // The repaired value is exact again.
  const SkyTree::AuditView healed =
      p.op.tree().LookupForAudit(victim.element.pos, victim.element.seq);
  ASSERT_TRUE(healed.found);
  EXPECT_EQ(healed.pnew, view.pnew);
}

// --- block audit vs the per-element scan --------------------------------

// The per-element scan the block audit replaced, kept as the reference:
// oldest to newest, one Dominates test and one quantized term per
// (window element, target) pair.
LogSum ScalarExactPnew(const AuditManager::WindowStream& window,
                       uint64_t target) {
  const UncertainElement t = window.at(target);
  LogSum sum = 0;
  uint64_t j = 0;
  window.scan([&](const UncertainElement& w) {
    if (j > target && Dominates(w.pos, t.pos)) {
      sum += LogTermOf(ClampProb(w.prob));
    }
    ++j;
  });
  return sum;
}

// Knocks the stored P_new of every element at `indices` that is live in
// the candidate set 2.0 off in the log domain, so the next audit of it
// must repair it to its exact value. Returns the live indices.
template <typename P>
std::vector<uint64_t> PlantDrift(P* p, const AuditManager::WindowStream& ws,
                                 const std::vector<uint64_t>& indices) {
  std::vector<uint64_t> live;
  for (const uint64_t i : indices) {
    const UncertainElement e = ws.at(i);
    const SkyTree::AuditView view = p->op.tree().LookupForAudit(e.pos, e.seq);
    if (!view.found) continue;
    p->op.mutable_tree()->RepairElement(e.pos, e.seq,
                                        view.pnew - QuantizeLog(2.0),
                                        view.pold);
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
    EXPECT_EQ(view.pnew, ScalarExactPnew(ws, i))
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
// the newer dominators twice. For a live element with no older candidate
// dominator the true log P_old is 0; summed in two orders in doubles, the
// difference once rounded a few ulps positive for the element this
// stream holds at window index 10 after 900 steps, and needed a clamp.
// Over exact integer terms the difference is exactly 0: repairing it
// writes log P_old = 0 and never trips RepairElement's log-domain check.
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
  const LogSum exact_pnew = ScalarExactPnew(ws, 10);
  const SkyTree::DominatorSums sums = op.tree().ExactDominators(e.pos, e.seq);
  ASSERT_EQ(sums.older, 0);
  ASSERT_EQ(sums.newer + sums.older - exact_pnew, 0);

  const SkyTree::AuditView view = op.tree().LookupForAudit(e.pos, e.seq);
  ASSERT_TRUE(view.found);
  op.mutable_tree()->RepairElement(e.pos, e.seq,
                                   view.pnew - QuantizeLog(2.0), view.pold);
  AuditManager audit(&op, Options(AuditMode::kRepair), ws);
  EXPECT_EQ(audit.AuditAll(), 0u);
  const SkyTree::AuditView healed = op.tree().LookupForAudit(e.pos, e.seq);
  EXPECT_EQ(healed.pnew, exact_pnew);
  EXPECT_EQ(healed.pold, 0);
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

// --- false evictions and where a scan stops --------------------------------

// Wraps `ws` so it counts at() calls and remembers the largest index read.
struct ReadCount {
  uint64_t calls = 0;
  uint64_t max_index = 0;
};
AuditManager::WindowStream Counted(AuditManager::WindowStream ws,
                                   ReadCount* count) {
  ws.at = [at = ws.at, count](uint64_t i) {
    ++count->calls;
    count->max_index = std::max(count->max_index, i);
    return at(i);
  };
  return ws;
}

void PushElement(SskyOperator* op, CountWindow* window,
                 const UncertainElement& e) {
  if (auto expired = window->Push(e)) op->Expire(*expired);
  op->Insert(e);
}

// A false eviction planted by hand: the newest window element, at a corner
// where it dominates nothing, leaves the tree but stays in the window.
// Nothing is newer, so its exact P_new is 1 >= q: a slice audit and an
// AuditAll each report one false eviction, and neither mode can repair it.
TEST(AuditFalseEvictionTest, NewestElementRemovedFromTheTreeIsReported) {
  constexpr uint64_t n = 600;
  for (const AuditMode mode : {AuditMode::kCheck, AuditMode::kRepair}) {
    SCOPED_TRACE(mode == AuditMode::kCheck ? "check" : "repair");
    AuditOptions off;
    off.mode = AuditMode::kOff;
    Pipeline p(off, SpatialDistribution::kIndependent, n);
    p.Run(3 * n - 1);
    const UncertainElement newest =
        MakeElement({1.0, 1.0, 1.0}, 0.5, p.window.At(n - 1).seq + 1);
    PushElement(&p.op, &p.window, newest);
    ASSERT_TRUE(p.op.tree().Contains(newest.pos, newest.seq));
    p.op.Expire(newest);
    ASSERT_FALSE(p.op.tree().Contains(newest.pos, newest.seq));
    ASSERT_EQ(p.window.At(n - 1).seq, newest.seq);

    AuditOptions options = Options(mode);
    options.audit_every = 1;
    AuditManager audit(&p.op, options,
                       AuditManager::WindowStream::Of(&p.window));
    // Step k audits positions 4(k - 1) .. 4k - 1, so step n / 4 holds n - 1.
    for (uint64_t k = 1; k < n / 4; ++k) ASSERT_TRUE(audit.Step());
    EXPECT_FALSE(audit.Step());
    EXPECT_EQ(audit.report().false_evictions, 1u);
    EXPECT_EQ(audit.report().violations_unrepaired, 1u);
    EXPECT_EQ(audit.AuditAll(), 1u);
    EXPECT_EQ(audit.report().false_evictions, 2u);
    EXPECT_EQ(audit.report().violations_unrepaired, 2u);
    EXPECT_EQ(audit.report().repairs_applied, 0u);
  }
}

// A hand-built window of 600: the target at index 0, (0.5, 0.5, 0.5),
// dominates nothing; its only newer dominators sit at the given indices
// near (0.4, 0.4, 0.4); every other position is a filler incomparable to
// all of them. A one-element slice at index 0 scans blocks [1, 257),
// [257, 513) and [513, 600).
struct HandWindow {
  static constexpr uint64_t kSize = 600;
  explicit HandWindow(std::vector<std::pair<uint64_t, double>> dominators)
      : op(kDims, kQ), window(kSize), dominators_(std::move(dominators)) {}

  // Pushes positions up to `end` (exclusive).
  void FillTo(uint64_t end) {
    for (; pushed_ < end; ++pushed_) {
      const uint64_t i = pushed_;
      UncertainElement e;
      if (i == 0) {
        e = MakeElement({0.5, 0.5, 0.5}, 0.9, i);
      } else if (next_ < dominators_.size() && dominators_[next_].first == i) {
        const double c = 0.4 + 0.01 * static_cast<double>(next_);
        e = MakeElement({c, c, c}, dominators_[next_++].second, i);
      } else {
        // x >= 0.6 and y < 0.3: incomparable to the target and to every
        // dominator.
        const double u = static_cast<double>((i * 37) % 101) / 101.0;
        const double v = static_cast<double>((i * 53) % 97) / 97.0;
        e = MakeElement({0.6 + 0.4 * u, 0.3 * v, u * v}, 0.5, i);
      }
      PushElement(&op, &window, e);
    }
  }

  const UncertainElement& target() const { return window.At(0); }

  // The auditor's sum for the target: its newer dominators' terms.
  LogSum ExactPnew() const {
    return ScalarExactPnew(AuditManager::WindowStream::Of(&window), 0);
  }

  SskyOperator op;
  CountWindow window;

 private:
  std::vector<std::pair<uint64_t, double>> dominators_;
  size_t next_ = 0;
  uint64_t pushed_ = 0;
};

// The settle bound AuditElement's false-eviction test uses.
LogSum SettleBound(const AuditOptions& options) {
  return QuantizeLog(std::log(kQ)) + QuantizeLog(options.tolerance);
}

// An evicted target whose newer dominators sum to exactly the settle
// bound, log q + tolerance, at the end of the middle block: it is a false
// eviction, and its scan runs to the window end. A scan that settled at
// <= would stop after the middle block.
TEST(AuditFalseEvictionTest, TargetAtTheBoundScansToTheWindowEnd) {
  const LogSum bound = SettleBound(Options(AuditMode::kCheck));
  // One dominator just above the bound, then a tiny one that brings the
  // sum of their terms to the bound exactly.
  const double p1 = -std::expm1(LogSumToDouble(bound) + 5e-10);
  const LogSum a = LogTermOf(ClampProb(p1));
  ASSERT_GT(a, bound);
  const auto sum_with = [a](double p2) {
    return a + LogTermOf(ClampProb(p2));
  };
  double lo = kMinElementProb, hi = 1e-8;
  ASSERT_GT(sum_with(lo), bound);
  ASSERT_LT(sum_with(hi), bound);
  for (int i = 0; i < 200; ++i) {
    const double mid = lo + (hi - lo) / 2;
    (sum_with(mid) > bound ? lo : hi) = mid;
  }
  ASSERT_EQ(sum_with(hi), bound);

  for (const AuditMode mode : {AuditMode::kCheck, AuditMode::kRepair}) {
    SCOPED_TRACE(mode == AuditMode::kCheck ? "check" : "repair");
    HandWindow h({{100, p1}, {400, hi}});
    h.FillTo(HandWindow::kSize);
    ASSERT_EQ(h.ExactPnew(), bound);
    ASSERT_TRUE(h.op.tree().Contains(h.target().pos, h.target().seq));
    h.op.Expire(h.target());

    AuditOptions options = Options(mode);
    options.audit_every = 1;
    options.elements_per_audit = 1;
    ReadCount reads;
    AuditManager audit(&h.op, options,
                       Counted(AuditManager::WindowStream::Of(&h.window),
                               &reads));
    EXPECT_FALSE(audit.Step());
    EXPECT_EQ(reads.max_index, HandWindow::kSize - 1);
    EXPECT_EQ(reads.calls, HandWindow::kSize);  // the target, then 1..599
    EXPECT_EQ(audit.report().false_evictions, 1u);
    EXPECT_EQ(audit.report().violations_unrepaired, 1u);
    EXPECT_EQ(audit.AuditAll(), 1u);
    EXPECT_EQ(audit.report().false_evictions, 2u);
  }
}

// An evicted target whose sum falls into [log q, log q + tolerance) in the
// first block: a sound eviction within the tolerance, so its scan stops
// after that block. A scan that settled only below log q would run on to
// the window end.
TEST(AuditFalseEvictionTest, TargetInsideTheToleranceSettlesAtItsBlock) {
  const AuditOptions options_check = Options(AuditMode::kCheck);
  const double p = -std::expm1(std::log(kQ) + options_check.tolerance / 2);
  HandWindow h({{100, p}});
  h.FillTo(HandWindow::kSize);
  ASSERT_GE(h.ExactPnew(), QuantizeLog(std::log(kQ)));
  ASSERT_LT(h.ExactPnew(), SettleBound(options_check));
  ASSERT_TRUE(h.op.tree().Contains(h.target().pos, h.target().seq));
  h.op.Expire(h.target());

  AuditOptions options = options_check;
  options.audit_every = 1;
  options.elements_per_audit = 1;
  ReadCount reads;
  AuditManager audit(
      &h.op, options,
      Counted(AuditManager::WindowStream::Of(&h.window), &reads));
  EXPECT_TRUE(audit.Step());
  EXPECT_EQ(reads.max_index, 256u);  // the end of block [1, 257)
  EXPECT_EQ(reads.calls, 257u);
  EXPECT_EQ(audit.report().false_evictions, 0u);
  EXPECT_EQ(audit.AuditAll(), 0u);
  EXPECT_EQ(audit.report().false_evictions, 0u);
}

// A held target whose exact P_new fell below q while the tree kept it (its
// stored P_new was knocked up before its second dominator arrived) never
// settles: its scan runs to the window end, and repair writes the full
// scan's sum.
TEST(AuditFalseEvictionTest, HeldTargetBelowTheBoundScansToTheWindowEnd) {
  // Stored: log(1 - 0.55) > log q, so the tree keeps the target; exact:
  // log(0.5 * 0.45) < log q.
  HandWindow h({{100, 0.5}, {400, 0.55}});
  h.FillTo(300);
  const SkyTree::AuditView view =
      h.op.tree().LookupForAudit(h.target().pos, h.target().seq);
  ASSERT_TRUE(view.found);
  h.op.mutable_tree()->RepairElement(h.target().pos, h.target().seq, 0,
                                     view.pold);
  h.FillTo(HandWindow::kSize);
  ASSERT_TRUE(h.op.tree().Contains(h.target().pos, h.target().seq));
  ASSERT_LT(h.ExactPnew(), QuantizeLog(std::log(kQ)));

  AuditOptions options = Options(AuditMode::kRepair);
  options.audit_every = 1;
  options.elements_per_audit = 1;
  ReadCount reads;
  AuditManager audit(
      &h.op, options,
      Counted(AuditManager::WindowStream::Of(&h.window), &reads));
  EXPECT_TRUE(audit.Step());
  EXPECT_EQ(reads.max_index, HandWindow::kSize - 1);
  EXPECT_EQ(audit.report().repairs_applied, 1u);
  const SkyTree::AuditView healed =
      h.op.tree().LookupForAudit(h.target().pos, h.target().seq);
  ASSERT_TRUE(healed.found);
  EXPECT_EQ(healed.pnew, h.ExactPnew());
}

// Every 4-wide slice of a clean window, against a test-local model of the
// pass: a slice whose targets the tree no longer holds reads up to the end
// of the 256-position block where its last target's sum first drops below
// the settle bound; a slice with a held target reads to the window end.
TEST(AuditFalseEvictionTest, EachSliceReadsToItsLastSettlingBlock) {
  for (const SpatialDistribution dist :
       {SpatialDistribution::kAntiCorrelated,
        SpatialDistribution::kIndependent, SpatialDistribution::kCorrelated}) {
    SCOPED_TRACE(SpatialDistributionName(dist));
    constexpr uint64_t n = 600;
    AuditOptions off;
    off.mode = AuditMode::kOff;
    Pipeline p(off, dist, n);
    p.Run(3 * n);
    const AuditManager::WindowStream ws =
        AuditManager::WindowStream::Of(&p.window);
    AuditOptions options = Options(AuditMode::kCheck);
    options.audit_every = 1;
    const LogSum bound = SettleBound(options);
    ReadCount reads;
    AuditManager audit(&p.op, options, Counted(ws, &reads));

    uint64_t evicted_slices = 0;
    uint64_t held_slices = 0;
    for (uint64_t first = 0; first < n; first += 4) {
      // The model: the pass starts just past the slice's oldest target.
      const uint64_t start = first + 1;
      uint64_t last = first + 3;  // the targets themselves
      bool any_held = false;
      for (uint64_t t = first; t < first + 4; ++t) {
        const UncertainElement e = ws.at(t);
        if (p.op.tree().Contains(e.pos, e.seq)) {
          any_held = true;
          continue;
        }
        uint64_t settle = n - 1;
        LogSum sum = 0;
        for (uint64_t j = t + 1; j < n; ++j) {
          const UncertainElement w = ws.at(j);
          if (Dominates(w.pos, e.pos)) {
            sum += LogTermOf(ClampProb(w.prob));
          }
          if ((j - start) % 256 == 255 && sum < bound) {
            settle = j;
            break;
          }
        }
        last = std::max(last, settle);
      }
      if (any_held) last = n - 1;
      (any_held ? held_slices : evicted_slices) += 1;

      reads = ReadCount{};
      ASSERT_TRUE(audit.Step());
      EXPECT_EQ(reads.max_index, last) << "slice at " << first;
      EXPECT_EQ(reads.calls, 4 + (last >= start ? last - start + 1 : 0))
          << "slice at " << first;
    }
    EXPECT_GT(evicted_slices, 0u);
    EXPECT_GT(held_slices, 0u);
  }
}

// --- recorded audit outcomes -----------------------------------------------

// Every AuditReport field, every SkyTree counter and every candidate's
// reported values, recorded for 96 audited runs. Any change to which
// terms a target's sum receives, or to which elements an audit repairs
// and when, fails here; a failure prints the new columns. The `outcome`
// column (every AuditReport field but max_drift, and the (seq, band) of
// every candidate) was recorded on the aggregate sky-tree this store
// replaced and must not change; the `hash` column was re-recorded once on
// the flat store, whose exact sums change the reported doubles' last bits
// and max_drift.

uint64_t Mix(uint64_t x) {
  // splitmix64 finalizer
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

uint64_t ReportHash(const AuditReport& r) {
  uint64_t h = 0;
  for (const uint64_t v :
       {r.steps_seen, r.elements_audited, std::bit_cast<uint64_t>(r.max_drift),
        r.drift_beyond_tolerance, r.repairs_applied, r.band_flips_prevented,
        r.false_evictions, r.oracle_replays, r.oracle_mismatches,
        r.violations_unrepaired}) {
    h = Mix(h ^ v);
  }
  return h;
}

// ReportHash without max_drift: what the audit decided, not how far the
// values it compared had drifted.
uint64_t OutcomeHash(const AuditReport& r) {
  uint64_t h = 0;
  for (const uint64_t v :
       {r.steps_seen, r.elements_audited, r.drift_beyond_tolerance,
        r.repairs_applied, r.band_flips_prevented, r.false_evictions,
        r.oracle_replays, r.oracle_mismatches, r.violations_unrepaired}) {
    h = Mix(h ^ v);
  }
  return h;
}

uint64_t CountersHash(const SkyTree::Counters& c) {
  uint64_t h = 0;
  for (const uint64_t v : {c.nodes_visited, c.elements_touched, c.evictions,
                           c.pushdowns, c.band_flips}) {
    h = Mix(h ^ v);
  }
  return h;
}

// Order-independent: a sum of per-candidate hashes over seq, band and the
// bits of the materialized P_new and P_old.
uint64_t CandidateHash(const SkyTree& tree) {
  uint64_t sum = 0;
  tree.ForEach([&sum](const SkylineMember& m, int band) {
    uint64_t h = Mix(m.element.seq ^ static_cast<uint64_t>(band) << 56);
    h = Mix(h ^ std::bit_cast<uint64_t>(m.pnew));
    sum += Mix(h ^ std::bit_cast<uint64_t>(m.pold));
  });
  return Mix(sum ^ tree.size());
}

// Order-independent: a sum of per-candidate hashes over (seq, band) only.
uint64_t MembershipHash(const SkyTree& tree) {
  uint64_t sum = 0;
  tree.ForEach([&sum](const SkylineMember& m, int band) {
    sum += Mix(Mix(m.element.seq) ^ static_cast<uint64_t>(band));
  });
  return Mix(sum ^ tree.size());
}

constexpr size_t kGoldenWindow = 600;  // three 256-position blocks

// Slice schedules: cadences 1, 4 and 64 with 4-element slices, and a
// slice wider than the window, so one batch holds some elements twice.
struct GoldenSchedule {
  uint64_t every;
  int width;
};
constexpr GoldenSchedule kGoldenSchedules[] = {
    {1, 4}, {4, 4}, {64, 4}, {64, static_cast<int>(kGoldenWindow) + 37}};

// Three windows of stream, hashed after each and after one closing
// AuditAll. With `plant`, two skyline members are knocked off before the
// third window: one's P_old (a band flip) and another's P_new, which can
// evict it early. Check mode keeps finding them (the second, once
// evicted, as a false eviction); repair mode heals what is still held on
// its slice or on an oracle escalation. `*outcome` chains the same
// snapshots over OutcomeHash and MembershipHash only.
template <typename P>
uint64_t GoldenRun(P* p, bool plant, uint64_t* outcome) {
  uint64_t state = 0;
  *outcome = 0;
  const auto snapshot = [&] {
    state = Mix(state ^ ReportHash(p->audit.report()));
    state = Mix(state ^ CountersHash(p->op.tree().counters()));
    state = Mix(state ^ CandidateHash(p->op.tree()));
    *outcome = Mix(*outcome ^ OutcomeHash(p->audit.report()));
    *outcome = Mix(*outcome ^ MembershipHash(p->op.tree()));
  };
  for (int w = 0; w < 3; ++w) {
    if (plant && w == 2) {
      CorruptSkylineMember(&p->op, 0.0, -5.0);
      CorruptSkylineMember(&p->op, -2.0, 0.0);
    }
    p->Run(kGoldenWindow);
    snapshot();
  }
  p->audit.AuditAll();
  snapshot();
  return state;
}

struct AuditGoldenCase {
  SpatialDistribution dist;
  AuditMode mode;
  bool disk;   // StoredCountWindow instead of CountWindow
  bool plant;  // planted drift
  uint64_t hash[std::size(kGoldenSchedules)];
  uint64_t outcome[std::size(kGoldenSchedules)];
};

std::string AuditGoldenName(const AuditGoldenCase& c) {
  return std::string(SpatialDistributionName(c.dist)) +
         (c.mode == AuditMode::kRepair ? "_repair" : "_check") +
         (c.disk ? "_StoredCountWindow" : "_CountWindow") +
         (c.plant ? "_drift" : "_clean");
}

void PrintTo(const AuditGoldenCase& c, std::ostream* os) {
  *os << AuditGoldenName(c);
}

class AuditGolden : public ::testing::TestWithParam<AuditGoldenCase> {};

TEST_P(AuditGolden, MatchesRecordedReports) {
  const AuditGoldenCase& want = GetParam();
  std::ostringstream got;
  std::ostringstream got_outcome;
  got << std::hex;
  got_outcome << std::hex;
  bool all_match = true;
  bool outcomes_match = true;
  for (size_t s = 0; s < std::size(kGoldenSchedules); ++s) {
    AuditOptions options = Options(want.mode);
    options.audit_every = kGoldenSchedules[s].every;
    options.elements_per_audit = kGoldenSchedules[s].width;
    options.oracle_every = 100;
    uint64_t hash = 0;
    uint64_t outcome = 0;
    if (want.disk) {
      StreamedPipeline p(options,
                         "golden_" + AuditGoldenName(want) + std::to_string(s),
                         want.dist, kGoldenWindow);
      hash = GoldenRun(&p, want.plant, &outcome);
    } else {
      Pipeline p(options, want.dist, kGoldenWindow);
      hash = GoldenRun(&p, want.plant, &outcome);
    }
    got << (s == 0 ? "0x" : "ULL, 0x") << hash;
    got_outcome << (s == 0 ? "0x" : "ULL, 0x") << outcome;
    all_match = all_match && hash == want.hash[s];
    outcomes_match = outcomes_match && outcome == want.outcome[s];
  }
  EXPECT_TRUE(all_match) << "audit outcomes differ; got {" << got.str()
                         << "ULL}";
  EXPECT_TRUE(outcomes_match) << "audit decisions or membership differ; got {"
                              << got_outcome.str() << "ULL}";
}

constexpr SpatialDistribution kGAnti = SpatialDistribution::kAntiCorrelated;
constexpr SpatialDistribution kGInde = SpatialDistribution::kIndependent;
constexpr SpatialDistribution kGCorr = SpatialDistribution::kCorrelated;
constexpr AuditMode kGCheck = AuditMode::kCheck;
constexpr AuditMode kGRepair = AuditMode::kRepair;

// Hash columns follow kGoldenSchedules.
// clang-format off
constexpr AuditGoldenCase kAuditGoldenCases[] = {
    {kGAnti, kGCheck, false, false,
     {0x5efd75d064e8273fULL, 0x4578ddaca93c434cULL, 0x8168da79cbe46cdfULL, 0xdc2f7586635819f7ULL},
     {0x91f5b4c54e141932ULL, 0xbfcde6d05ea22545ULL, 0xc286013dea37bd9aULL, 0x7bceeafbb1741ea3ULL}},
    {kGAnti, kGCheck, false, true,
     {0xff7d3aca1825f82aULL, 0x2335964d930ff910ULL, 0xaf236bd54608b085ULL, 0xb7e7ca1ae0ea53abULL},
     {0x3a2f8c1193f15766ULL, 0x3a660ad6acee5312ULL, 0xc286013dea37bd9aULL, 0x8d7cfe6d5c75e31cULL}},
    {kGAnti, kGCheck, true, false,
     {0x5efd75d064e8273fULL, 0x4578ddaca93c434cULL, 0x8168da79cbe46cdfULL, 0xdc2f7586635819f7ULL},
     {0x91f5b4c54e141932ULL, 0xbfcde6d05ea22545ULL, 0xc286013dea37bd9aULL, 0x7bceeafbb1741ea3ULL}},
    {kGAnti, kGCheck, true, true,
     {0xff7d3aca1825f82aULL, 0x2335964d930ff910ULL, 0xaf236bd54608b085ULL, 0xb7e7ca1ae0ea53abULL},
     {0x3a2f8c1193f15766ULL, 0x3a660ad6acee5312ULL, 0xc286013dea37bd9aULL, 0x8d7cfe6d5c75e31cULL}},
    {kGAnti, kGRepair, false, false,
     {0x5efd75d064e8273fULL, 0x4578ddaca93c434cULL, 0x8168da79cbe46cdfULL, 0xdc2f7586635819f7ULL},
     {0x91f5b4c54e141932ULL, 0xbfcde6d05ea22545ULL, 0xc286013dea37bd9aULL, 0x7bceeafbb1741ea3ULL}},
    {kGAnti, kGRepair, false, true,
     {0x65dbd1fb425fe43cULL, 0x7bd2988fe6d0754bULL, 0xaf236bd54608b085ULL, 0xb7e7ca1ae0ea53abULL},
     {0x9c2f293bdaa5cd5eULL, 0x66d883b000048197ULL, 0xc286013dea37bd9aULL, 0x8d7cfe6d5c75e31cULL}},
    {kGAnti, kGRepair, true, false,
     {0x5efd75d064e8273fULL, 0x4578ddaca93c434cULL, 0x8168da79cbe46cdfULL, 0xdc2f7586635819f7ULL},
     {0x91f5b4c54e141932ULL, 0xbfcde6d05ea22545ULL, 0xc286013dea37bd9aULL, 0x7bceeafbb1741ea3ULL}},
    {kGAnti, kGRepair, true, true,
     {0x65dbd1fb425fe43cULL, 0x7bd2988fe6d0754bULL, 0xaf236bd54608b085ULL, 0xb7e7ca1ae0ea53abULL},
     {0x9c2f293bdaa5cd5eULL, 0x66d883b000048197ULL, 0xc286013dea37bd9aULL, 0x8d7cfe6d5c75e31cULL}},
    {kGInde, kGCheck, false, false,
     {0xf5ab62ad4f288b27ULL, 0xa63d63e71a79ca45ULL, 0xcc53e1018fbde2d4ULL, 0x9cb86b02a0d477d8ULL},
     {0x51605981c6c2f024ULL, 0x32445101fd4e8a82ULL, 0x4802b7ee85bc74a2ULL, 0x18afe9ab3b99124eULL}},
    {kGInde, kGCheck, false, true,
     {0x12ab2b6bcc2d4b4dULL, 0x6224b28c3524d954ULL, 0xe8f862cd2d15a608ULL, 0xd3197fc033f665baULL},
     {0x1df423d241d43f5bULL, 0xcbd10241572b056ULL, 0x4802b7ee85bc74a2ULL, 0xdb2daf30b0be80d5ULL}},
    {kGInde, kGCheck, true, false,
     {0xf5ab62ad4f288b27ULL, 0xa63d63e71a79ca45ULL, 0xcc53e1018fbde2d4ULL, 0x9cb86b02a0d477d8ULL},
     {0x51605981c6c2f024ULL, 0x32445101fd4e8a82ULL, 0x4802b7ee85bc74a2ULL, 0x18afe9ab3b99124eULL}},
    {kGInde, kGCheck, true, true,
     {0x12ab2b6bcc2d4b4dULL, 0x6224b28c3524d954ULL, 0xe8f862cd2d15a608ULL, 0xd3197fc033f665baULL},
     {0x1df423d241d43f5bULL, 0xcbd10241572b056ULL, 0x4802b7ee85bc74a2ULL, 0xdb2daf30b0be80d5ULL}},
    {kGInde, kGRepair, false, false,
     {0xf5ab62ad4f288b27ULL, 0xa63d63e71a79ca45ULL, 0xcc53e1018fbde2d4ULL, 0x9cb86b02a0d477d8ULL},
     {0x51605981c6c2f024ULL, 0x32445101fd4e8a82ULL, 0x4802b7ee85bc74a2ULL, 0x18afe9ab3b99124eULL}},
    {kGInde, kGRepair, false, true,
     {0x12ab2b6bcc2d4b4dULL, 0x568153be05655987ULL, 0xe8f862cd2d15a608ULL, 0x8ad34ee43b87538dULL},
     {0x1df423d241d43f5bULL, 0x16a515836a31890bULL, 0x4802b7ee85bc74a2ULL, 0x7c1fdad820962822ULL}},
    {kGInde, kGRepair, true, false,
     {0xf5ab62ad4f288b27ULL, 0xa63d63e71a79ca45ULL, 0xcc53e1018fbde2d4ULL, 0x9cb86b02a0d477d8ULL},
     {0x51605981c6c2f024ULL, 0x32445101fd4e8a82ULL, 0x4802b7ee85bc74a2ULL, 0x18afe9ab3b99124eULL}},
    {kGInde, kGRepair, true, true,
     {0x12ab2b6bcc2d4b4dULL, 0x568153be05655987ULL, 0xe8f862cd2d15a608ULL, 0x8ad34ee43b87538dULL},
     {0x1df423d241d43f5bULL, 0x16a515836a31890bULL, 0x4802b7ee85bc74a2ULL, 0x7c1fdad820962822ULL}},
    {kGCorr, kGCheck, false, false,
     {0xe10ac39b92f87980ULL, 0x878d29712f8d9f72ULL, 0x2bfe810911bd825fULL, 0xd6025bd8cc92e1beULL},
     {0xf97bf67b1ce108eaULL, 0xb6ed55d13076b408ULL, 0x35ee067f538b56dfULL, 0x68468fa34729b556ULL}},
    {kGCorr, kGCheck, false, true,
     {0xec7c18145da779d7ULL, 0x1ea3dda565607bcULL, 0x1ef07b25974caae3ULL, 0x24d3b1ac91823da1ULL},
     {0x2ed58da2460f42aaULL, 0xe47ad06c5ff3729eULL, 0x24252bbbfd1b5439ULL, 0xadee164cd99c34b4ULL}},
    {kGCorr, kGCheck, true, false,
     {0xe10ac39b92f87980ULL, 0x878d29712f8d9f72ULL, 0x2bfe810911bd825fULL, 0xd6025bd8cc92e1beULL},
     {0xf97bf67b1ce108eaULL, 0xb6ed55d13076b408ULL, 0x35ee067f538b56dfULL, 0x68468fa34729b556ULL}},
    {kGCorr, kGCheck, true, true,
     {0xec7c18145da779d7ULL, 0x1ea3dda565607bcULL, 0x1ef07b25974caae3ULL, 0x24d3b1ac91823da1ULL},
     {0x2ed58da2460f42aaULL, 0xe47ad06c5ff3729eULL, 0x24252bbbfd1b5439ULL, 0xadee164cd99c34b4ULL}},
    {kGCorr, kGRepair, false, false,
     {0xe10ac39b92f87980ULL, 0x878d29712f8d9f72ULL, 0x2bfe810911bd825fULL, 0xd6025bd8cc92e1beULL},
     {0xf97bf67b1ce108eaULL, 0xb6ed55d13076b408ULL, 0x35ee067f538b56dfULL, 0x68468fa34729b556ULL}},
    {kGCorr, kGRepair, false, true,
     {0x432e50bb7ff93eddULL, 0x909fb49275bf5895ULL, 0x9728fb8a44c2cc25ULL, 0xe0773e34b5889113ULL},
     {0x3afc3dd8e607f5b2ULL, 0x1c471bae68f6d9bbULL, 0x9e16b0044a4393cdULL, 0x31fc4f9cb8fd5920ULL}},
    {kGCorr, kGRepair, true, false,
     {0xe10ac39b92f87980ULL, 0x878d29712f8d9f72ULL, 0x2bfe810911bd825fULL, 0xd6025bd8cc92e1beULL},
     {0xf97bf67b1ce108eaULL, 0xb6ed55d13076b408ULL, 0x35ee067f538b56dfULL, 0x68468fa34729b556ULL}},
    {kGCorr, kGRepair, true, true,
     {0x432e50bb7ff93eddULL, 0x909fb49275bf5895ULL, 0x9728fb8a44c2cc25ULL, 0xe0773e34b5889113ULL},
     {0x3afc3dd8e607f5b2ULL, 0x1c471bae68f6d9bbULL, 0x9e16b0044a4393cdULL, 0x31fc4f9cb8fd5920ULL}},
};
// clang-format on

INSTANTIATE_TEST_SUITE_P(Recorded, AuditGolden,
                         ::testing::ValuesIn(kAuditGoldenCases),
                         [](const auto& param_info) {
                           return AuditGoldenName(param_info.param);
                         });

}  // namespace
}  // namespace psky
