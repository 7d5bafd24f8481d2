// Fault injection: kill the streaming pipeline at arbitrary points —
// including mid-checkpoint-write via the crash hook — restore from the
// newest valid checkpoint, and require the resumed run to finish with
// exactly the state an uninterrupted run reaches. Also proves corrupted
// checkpoint files are rejected with diagnostics, never a crash.
//
// Process death is simulated by abandoning the in-memory pipeline: the
// checkpoint directory is the only state that survives, exactly as after
// SIGKILL. The crash hook makes WriteCheckpointFile stop partway, leaving
// the same on-disk wreckage (truncated temp file / unrenamed temp file) a
// real mid-write crash leaves.

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/checkpoint.h"
#include "core/ssky_operator.h"
#include "store/recovery.h"
#include "stream/generator.h"
#include "stream/window.h"

namespace psky {
namespace {

namespace fs = std::filesystem;

constexpr int kDims = 3;
constexpr double kQ = 0.3;
constexpr size_t kWindow = 400;
constexpr size_t kStreamLen = 2500;
constexpr uint64_t kCheckpointEvery = 300;

std::string FreshDir(const std::string& tag) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("psky_fault_" + tag);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

StreamConfig ConfigFor(SpatialDistribution dist) {
  StreamConfig cfg;
  cfg.dims = kDims;
  cfg.spatial = dist;
  cfg.seed = 0xFEEDu + static_cast<uint64_t>(dist);
  return cfg;
}

// Final observable state of a run: the candidate set with exact P_sky
// values (the skyline is the subset with psky >= q, so candidate equality
// subsumes skyline equality; we still record both).
struct RunResult {
  std::vector<SkylineMember> skyline;
  std::vector<SkylineMember> candidates;
};

RunResult Finish(const SskyOperator& op) {
  return RunResult{op.Skyline(), op.Candidates()};
}

void ExpectSameResult(const RunResult& want, const RunResult& got,
                      const std::string& label) {
  ASSERT_EQ(want.skyline.size(), got.skyline.size()) << label;
  for (size_t i = 0; i < want.skyline.size(); ++i) {
    EXPECT_EQ(want.skyline[i].element.seq, got.skyline[i].element.seq)
        << label << " skyline[" << i << "]";
  }
  ASSERT_EQ(want.candidates.size(), got.candidates.size()) << label;
  for (size_t i = 0; i < want.candidates.size(); ++i) {
    const SkylineMember& w = want.candidates[i];
    const SkylineMember& g = got.candidates[i];
    ASSERT_EQ(w.element.seq, g.element.seq) << label << " candidate " << i;
    EXPECT_EQ(w.in_skyline, g.in_skyline) << label << " seq " << w.element.seq;
    EXPECT_NEAR(w.psky, g.psky, 1e-12) << label << " seq " << w.element.seq;
  }
}

RunResult RunUninterrupted(SpatialDistribution dist) {
  StreamGenerator gen(ConfigFor(dist));
  SskyOperator op(kDims, kQ);
  CountWindow window(kWindow);
  for (size_t i = 0; i < kStreamLen; ++i) {
    const UncertainElement e = gen.Next();
    if (auto expired = window.Push(e)) op.Expire(*expired);
    op.Insert(e);
  }
  return Finish(op);
}

CheckpointState Capture(const CountWindow& window, uint64_t consumed) {
  CheckpointState state;
  state.dims = kDims;
  state.q = kQ;
  state.window_kind = WindowKind::kCount;
  state.window_capacity = kWindow;
  state.elements_consumed = consumed;
  state.next_seq = consumed;
  state.window = window.Snapshot();
  return state;
}

// Runs the pipeline from scratch, checkpointing into `dir` every
// kCheckpointEvery steps, and "dies" (returns, dropping all in-memory
// state) after `kill_at` steps. Checkpoint write failures are ignored,
// as a crashing process cannot act on them either.
void RunAndDie(SpatialDistribution dist, const std::string& dir,
               size_t kill_at) {
  StreamGenerator gen(ConfigFor(dist));
  SskyOperator op(kDims, kQ);
  CountWindow window(kWindow);
  for (size_t step = 1; step <= kill_at; ++step) {
    const UncertainElement e = gen.Next();
    if (auto expired = window.Push(e)) op.Expire(*expired);
    op.Insert(e);
    if (step % kCheckpointEvery == 0) {
      std::string error;
      if (WriteCheckpointFile(dir + "/" + CheckpointFileName(step),
                              Capture(window, step), &error)) {
        PruneCheckpoints(dir, 2);
      }
    }
  }
}

// Restores from the newest valid checkpoint in `dir` and runs the stream
// to its end, exactly as `psky_stream --resume` does: replay the window,
// fast-forward the deterministic source, continue stepping.
RunResult ResumeAndFinish(SpatialDistribution dist, const std::string& dir) {
  RecoveredState recovered;
  std::string error;
  EXPECT_TRUE(RecoverState(dir, &recovered, &error)) << error;
  const CheckpointState& state = recovered.checkpoint;

  SskyOperator op(kDims, kQ);
  CountWindow window(kWindow);
  ReplayWindow(state, &op);
  // The rebuilt tree must be structurally sound before any new element
  // touches it, or resume bugs masquerade as stream bugs downstream.
  op.tree().CheckInvariants(/*deep=*/true);
  for (const UncertainElement& e : state.window) window.Push(e);

  StreamGenerator gen(ConfigFor(dist));
  for (uint64_t i = 0; i < state.elements_consumed; ++i) gen.Next();
  for (uint64_t step = state.elements_consumed; step < kStreamLen; ++step) {
    const UncertainElement e = gen.Next();
    if (auto expired = window.Push(e)) op.Expire(*expired);
    op.Insert(e);
  }
  return Finish(op);
}

class FaultInjectionTest
    : public ::testing::TestWithParam<SpatialDistribution> {};

TEST_P(FaultInjectionTest, KillAtArbitraryStepsThenResumeMatchesUninterrupted) {
  const SpatialDistribution dist = GetParam();
  const RunResult want = RunUninterrupted(dist);
  // Kill right after a checkpoint, far between checkpoints, one step
  // before the next checkpoint, late in the stream, and before the window
  // has even filled once.
  const size_t kill_points[] = {300, 301, 599, 757, 1199, 2047, 2499};
  for (size_t kill_at : kill_points) {
    const std::string dir =
        FreshDir(SpatialDistributionName(dist) + std::to_string(kill_at));
    RunAndDie(dist, dir, kill_at);
    const RunResult got = ResumeAndFinish(dist, dir);
    ExpectSameResult(want, got,
                     std::string(SpatialDistributionName(dist)) + "/kill@" +
                         std::to_string(kill_at));
    fs::remove_all(dir);
  }
}

TEST_P(FaultInjectionTest, ResumeBeforeFirstCheckpointReplaysFromScratch) {
  // Death before any checkpoint exists: resume must fail cleanly, and the
  // operator restarts from the beginning (the caller's decision) — here we
  // just assert the failure is a diagnostic, not a crash.
  const SpatialDistribution dist = GetParam();
  const std::string dir =
      FreshDir(std::string("none_") + SpatialDistributionName(dist));
  RunAndDie(dist, dir, kCheckpointEvery - 1);
  RecoveredState recovered;
  std::string error;
  EXPECT_FALSE(RecoverState(dir, &recovered, &error));
  EXPECT_FALSE(error.empty());
  fs::remove_all(dir);
}

// Crash hooks are process-global; each test clears them on exit.
struct CrashAt {
  static CheckpointCrashPoint point;
  static int countdown;  // die on the countdown-th hook hit at `point`
  static bool Hook(CheckpointCrashPoint p) {
    if (p != point) return true;
    return --countdown > 0;
  }
};
CheckpointCrashPoint CrashAt::point = CheckpointCrashPoint::kMidPayload;
int CrashAt::countdown = 0;

class CrashHookGuard {
 public:
  CrashHookGuard(CheckpointCrashPoint point, int nth) {
    CrashAt::point = point;
    CrashAt::countdown = nth;
    SetCheckpointCrashHook(&CrashAt::Hook);
  }
  ~CrashHookGuard() { SetCheckpointCrashHook(nullptr); }
};

TEST_P(FaultInjectionTest, DeathMidCheckpointWriteFallsBackToPreviousOne) {
  const SpatialDistribution dist = GetParam();
  const RunResult want = RunUninterrupted(dist);
  for (CheckpointCrashPoint point : {CheckpointCrashPoint::kMidPayload,
                                     CheckpointCrashPoint::kBeforeRename}) {
    const std::string dir =
        FreshDir(std::string("midwrite_") + SpatialDistributionName(dist));
    {
      // The 3rd checkpoint write (step 900) dies partway; the process dies
      // with it, right after its last complete checkpoint at step 600.
      CrashHookGuard guard(point, 3);
      RunAndDie(dist, dir, 900);
    }
    // The wreckage must contain a usable older checkpoint.
    RecoveredState recovered;
    std::string error;
    ASSERT_TRUE(RecoverState(dir, &recovered, &error)) << error;
    EXPECT_EQ(recovered.checkpoint.elements_consumed, 600u);
    const RunResult got = ResumeAndFinish(dist, dir);
    ExpectSameResult(want, got, "mid-write crash resume");
    fs::remove_all(dir);
  }
}

TEST(FaultInjection, TamperedCheckpointFilesAreRejectedOnResume) {
  const std::string dir = FreshDir("tamper");
  RunAndDie(SpatialDistribution::kIndependent, dir, 700);
  const auto files = ListCheckpointFiles(dir);
  ASSERT_FALSE(files.empty());
  const std::string victim = files.front();

  std::string bytes;
  {
    std::ifstream in(victim, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  auto rewrite = [&](const std::string& contents) {
    std::ofstream out(victim, std::ios::binary | std::ios::trunc);
    out << contents;
  };

  CheckpointState state;
  std::string error;

  // Truncation.
  rewrite(bytes.substr(0, bytes.size() / 3));
  EXPECT_FALSE(ReadCheckpointFile(victim, &state, &error));
  EXPECT_FALSE(error.empty());

  // Bit flip in the header.
  std::string flipped = bytes;
  flipped[2] = static_cast<char>(flipped[2] ^ 0x01);
  rewrite(flipped);
  EXPECT_FALSE(ReadCheckpointFile(victim, &state, &error));

  // Bit flip in the body.
  flipped = bytes;
  flipped[bytes.size() - 9] = static_cast<char>(flipped[bytes.size() - 9] ^ 0x40);
  rewrite(flipped);
  EXPECT_FALSE(ReadCheckpointFile(victim, &state, &error));
  EXPECT_NE(error.find("CRC"), std::string::npos) << error;

  // With every file tampered, resume must fail with diagnostics — but the
  // original bytes restored must load again (the reject paths are pure).
  RecoveredState recovered;
  EXPECT_FALSE(RecoverState(dir, &recovered, &error) &&
               recovered.checkpoint.elements_consumed == 600u);
  rewrite(bytes);
  EXPECT_TRUE(ReadCheckpointFile(victim, &state, &error)) << error;
  fs::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(
    AllDistributions, FaultInjectionTest,
    ::testing::Values(SpatialDistribution::kAntiCorrelated,
                      SpatialDistribution::kIndependent,
                      SpatialDistribution::kCorrelated),
    [](const ::testing::TestParamInfo<SpatialDistribution>& param_info) {
      return SpatialDistributionName(param_info.param);
    });

}  // namespace
}  // namespace psky
