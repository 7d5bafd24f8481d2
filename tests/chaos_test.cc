// Chaos harness: the seeded fault-injection schedule language, retry with
// jittered backoff over injected transient I/O errors, the retrying
// checkpoint writer, which also writes quarantine dumps (including the
// fsync/rename regression the retry path exists for), quarantine burst
// governance, and an end-to-end pipeline run under a fault schedule with
// exact accounting.

#include <cerrno>
#include <filesystem>
#include <fstream>
#include <functional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "base/fault_injection.h"
#include "base/retry.h"
#include "core/audit.h"
#include "core/checkpoint.h"
#include "core/overload.h"
#include "core/ssky_operator.h"
#include "store/segment_store.h"
#include "store/wal.h"
#include "stream/generator.h"
#include "stream/window.h"
#include "test_util.h"

namespace psky {
namespace {

namespace fs = std::filesystem;

std::string TempTestDir(const char* tag) {
  const fs::path dir =
      fs::temp_directory_path() /
      (std::string(tag) + "_" +
       std::to_string(::testing::UnitTest::GetInstance()->random_seed()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

// Every test arms its own schedule; always disarm afterwards so fault
// state never leaks across tests (or into other suites via sharding).
class ChaosTest : public ::testing::Test {
 protected:
  void TearDown() override { fault::Clear(); }

  std::string Arm(const std::string& spec) {
    std::string error;
    EXPECT_TRUE(fault::LoadSchedule(spec, &error)) << error;
    return error;
  }
};

// --- schedule language ---------------------------------------------------

TEST_F(ChaosTest, DisarmedHooksAreInert) {
  EXPECT_FALSE(fault::Enabled());
  EXPECT_EQ(fault::FailErrno(fault::Site::kCheckpointFsync), 0);
  EXPECT_EQ(fault::DelayMs(fault::Site::kStep), 0u);
}

TEST_F(ChaosTest, FailClauseHitsExactOccurrences) {
  Arm("fail=ckpt-fsync@2..3:enospc");
  EXPECT_EQ(fault::FailErrno(fault::Site::kCheckpointFsync), 0);
  EXPECT_EQ(fault::FailErrno(fault::Site::kCheckpointFsync), ENOSPC);
  EXPECT_EQ(fault::FailErrno(fault::Site::kCheckpointFsync), ENOSPC);
  EXPECT_EQ(fault::FailErrno(fault::Site::kCheckpointFsync), 0);
  // Other sites are untouched.
  EXPECT_EQ(fault::FailErrno(fault::Site::kCheckpointRename), 0);
  EXPECT_EQ(fault::StatsSnapshot().failures_injected, 2u);
  EXPECT_EQ(fault::Occurrences(fault::Site::kCheckpointFsync), 4u);
}

TEST_F(ChaosTest, OpenRangeFailsForever) {
  Arm("fail=ckpt-write@3+");
  EXPECT_EQ(fault::FailErrno(fault::Site::kCheckpointWrite), 0);
  EXPECT_EQ(fault::FailErrno(fault::Site::kCheckpointWrite), 0);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(fault::FailErrno(fault::Site::kCheckpointWrite), EIO);
  }
}

TEST_F(ChaosTest, DelayClauseReportsMilliseconds) {
  Arm("delay=step@1..2:7");
  EXPECT_EQ(fault::DelayMs(fault::Site::kStep), 7u);
  EXPECT_EQ(fault::DelayMs(fault::Site::kStep), 7u);
  EXPECT_EQ(fault::DelayMs(fault::Site::kStep), 0u);
  const fault::Stats s = fault::StatsSnapshot();
  EXPECT_EQ(s.delays_injected, 2u);
  EXPECT_EQ(s.delay_ms_total, 14u);
}

TEST_F(ChaosTest, ProbabilisticFailureIsSeededAndReproducible) {
  auto run = [this]() {
    Arm("seed=11;pfail=wal-append:0.5");
    std::vector<int> outcomes;
    for (int i = 0; i < 64; ++i) {
      outcomes.push_back(fault::FailErrno(fault::Site::kWalAppend));
    }
    return outcomes;
  };
  const std::vector<int> first = run();
  const std::vector<int> second = run();
  EXPECT_EQ(first, second);  // same seed, same schedule, same outcomes
  int failures = 0;
  for (int e : first) failures += e != 0 ? 1 : 0;
  EXPECT_GT(failures, 10);  // p=0.5 over 64 draws
  EXPECT_LT(failures, 54);
}

TEST_F(ChaosTest, MalformedSchedulesAreRejectedWithDiagnostics) {
  const char* bad[] = {
      "nonsense",           "fail=bogus-site@1",  "fail=step@",
      "fail=step@5..3",     "fail=step@1:ebogus", "pfail=step:1.5",
      "delay=step@1",       "seed=notanumber",    "fail=@1",
  };
  for (const char* spec : bad) {
    std::string error;
    EXPECT_FALSE(fault::LoadSchedule(spec, &error)) << spec;
    EXPECT_FALSE(error.empty()) << spec;
  }
  // A rejected schedule must not arm anything.
  EXPECT_FALSE(fault::Enabled());
}

TEST_F(ChaosTest, EmptyScheduleDisarms) {
  Arm("fail=step@1+");
  EXPECT_TRUE(fault::Enabled());
  std::string error;
  EXPECT_TRUE(fault::LoadSchedule("", &error));
  EXPECT_FALSE(fault::Enabled());
}

// --- retry over injected faults ------------------------------------------

TEST(RetryTest, TransientErrnoClassification) {
  for (int e : {EIO, ENOSPC, EINTR, EAGAIN, EBUSY, EDQUOT}) {
    EXPECT_TRUE(IsTransientIoError(e)) << e;
  }
  for (int e : {0, EACCES, EROFS, ENOENT, EINVAL}) {
    EXPECT_FALSE(IsTransientIoError(e)) << e;
  }
}

TEST(RetryTest, BackoffGrowsExponentiallyAndRespectsCap) {
  RetryPolicy policy;
  policy.base_backoff_ms = 10;
  policy.max_backoff_ms = 100;
  policy.jitter = 0.0;
  EXPECT_EQ(BackoffMs(policy, 0, 0.0), 10u);
  EXPECT_EQ(BackoffMs(policy, 1, 0.0), 20u);
  EXPECT_EQ(BackoffMs(policy, 2, 0.0), 40u);
  EXPECT_EQ(BackoffMs(policy, 4, 0.0), 100u);   // capped
  EXPECT_EQ(BackoffMs(policy, 63, 0.0), 100u);  // shift overflow guarded
}

TEST(RetryTest, JitterShrinksBackoffWithinBounds) {
  RetryPolicy policy;
  policy.base_backoff_ms = 100;
  policy.jitter = 0.5;
  // u01=0 → full backoff; u01→1 → (1 - jitter) * backoff.
  EXPECT_EQ(BackoffMs(policy, 0, 0.0), 100u);
  const uint64_t jittered = BackoffMs(policy, 0, 0.999);
  EXPECT_GE(jittered, 50u);
  EXPECT_LT(jittered, 100u);
}

TEST(RetryTest, RecoversWithinBudgetAndCountsBackoff) {
  RetryPolicy policy;
  policy.max_attempts = 4;
  policy.jitter = 0.0;
  policy.base_backoff_ms = 5;
  RetryStats stats;
  std::vector<uint64_t> sleeps;
  int calls = 0;
  const bool ok = RetryWithBackoff(
      policy,
      [&](int* err) {
        if (++calls < 3) {
          *err = EIO;
          return false;
        }
        return true;
      },
      &stats, [&](uint64_t ms) { sleeps.push_back(ms); });
  EXPECT_TRUE(ok);
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(stats.attempts, 3u);
  EXPECT_EQ(stats.retries, 2u);
  EXPECT_EQ(sleeps, (std::vector<uint64_t>{5, 10}));
  EXPECT_EQ(stats.backoff_ms_total, 15u);
  EXPECT_EQ(stats.exhausted, 0u);
}

TEST(RetryTest, PermanentErrorFailsWithoutRetrying) {
  RetryPolicy policy;
  policy.max_attempts = 5;
  RetryStats stats;
  int calls = 0;
  const bool ok = RetryWithBackoff(
      policy,
      [&](int* err) {
        ++calls;
        *err = EACCES;
        return false;
      },
      &stats, [](uint64_t) {});
  EXPECT_FALSE(ok);
  EXPECT_EQ(calls, 1);  // no retry can fix a permission problem
  EXPECT_EQ(stats.permanent_failures, 1u);
  EXPECT_EQ(stats.exhausted, 0u);
}

TEST(RetryTest, BudgetExhaustionIsCounted) {
  RetryPolicy policy;
  policy.max_attempts = 3;
  RetryStats stats;
  int calls = 0;
  const bool ok = RetryWithBackoff(
      policy,
      [&](int* err) {
        ++calls;
        *err = ENOSPC;
        return false;
      },
      &stats, [](uint64_t) {});
  EXPECT_FALSE(ok);
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(stats.exhausted, 1u);
}

// --- retrying checkpoint writer (quarantine dumps included) --------------

CheckpointState SmallState() {
  CheckpointState state;
  state.dims = 2;
  state.q = 0.3;
  state.window_kind = WindowKind::kCount;
  state.window_capacity = 8;
  state.elements_consumed = 42;
  state.next_seq = 42;
  for (uint64_t i = 0; i < 4; ++i) {
    const double v = static_cast<double>(i);
    state.window.push_back(MakeElement({1.0 + v, 2.0 - v * 0.1}, 0.8, i));
  }
  return state;
}

// Source factory over `state.window`, as WriteCheckpointFileStreamedRetry
// takes it: each call starts a fresh pass at the oldest element and bumps
// `*passes` when given.
std::function<CheckpointElementSource()> WindowSource(
    const CheckpointState& state, int* passes = nullptr) {
  return [&state, passes]() -> CheckpointElementSource {
    if (passes != nullptr) ++*passes;
    return [&state, i = size_t{0}](UncertainElement* e) mutable {
      if (i >= state.window.size()) return false;
      *e = state.window[i++];
      return true;
    };
  };
}

RetryPolicy FastRetry(int attempts) {
  RetryPolicy policy;
  policy.max_attempts = attempts;
  policy.base_backoff_ms = 0;
  policy.jitter = 0.0;
  return policy;
}

class ChaosIoTest : public ChaosTest {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("psky_chaos_" +
            std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
            "_" + ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override {
    ChaosTest::TearDown();
    fs::remove_all(dir_);
  }
  std::string Path(const std::string& name) { return (dir_ / name).string(); }
  fs::path dir_;
};

// Satellite regression: a checkpoint whose fsync AND rename both hit
// transient errors must come back recoverable through the retry path —
// previously any such failure was terminal for the run.
TEST_F(ChaosIoTest, CheckpointSurvivesTransientFsyncAndRenameFailures) {
  // Attempt 1 dies at fsync; attempt 2 survives fsync but dies at its
  // first rename; attempt 3 completes. Occurrences count per site.
  Arm("fail=ckpt-fsync@1:eio;fail=ckpt-rename@1:enospc");
  const CheckpointState state = SmallState();
  RetryStats stats;
  std::string error;
  int passes = 0;
  ASSERT_TRUE(WriteCheckpointFileStreamedRetry(
      Path("ck.psky"), state, state.window.size(), WindowSource(state, &passes),
      FastRetry(4), &stats, &error))
      << error;
  EXPECT_EQ(stats.retries, 2u);  // one fsync hit, one rename hit
  EXPECT_EQ(passes, 3);          // every attempt restarts the window stream
  // The file on disk is complete and loadable.
  CheckpointState loaded;
  ASSERT_TRUE(ReadCheckpointFile(Path("ck.psky"), &loaded, &error)) << error;
  EXPECT_EQ(loaded.elements_consumed, 42u);
  EXPECT_EQ(loaded.window.size(), 4u);
}

TEST_F(ChaosIoTest, CheckpointErrnoIsReportedAndBudgetExhaustionFails) {
  Arm("fail=ckpt-write@1+:eio");
  RetryStats stats;
  std::string error;
  int err = 0;
  EXPECT_FALSE(
      WriteCheckpointFile(Path("ck.psky"), SmallState(), &error, &err));
  EXPECT_EQ(err, EIO);
  EXPECT_NE(error.find("injected"), std::string::npos);
  // Every retry re-hits the open range: the budget runs out.
  const CheckpointState state = SmallState();
  EXPECT_FALSE(WriteCheckpointFileStreamedRetry(
      Path("ck.psky"), state, state.window.size(), WindowSource(state),
      FastRetry(3), &stats, &error));
  EXPECT_EQ(stats.exhausted, 1u);
  // No half-written checkpoint left in place.
  EXPECT_FALSE(fs::exists(Path("ck.psky")));
}

// --- quarantine burst governance -----------------------------------------

TEST(QuarantineGovernorTest, OneDumpPerBurstWithMonotonicSequence) {
  QuarantineGovernor::Options options;
  options.burst_window_steps = 100;
  QuarantineGovernor governor(options);
  uint64_t seq = 0;
  // First failure of a burst is admitted.
  ASSERT_TRUE(governor.Admit(1000, &seq));
  EXPECT_EQ(seq, 1u);
  // A CHECK storm at nearby steps is one burst: suppressed.
  EXPECT_FALSE(governor.Admit(1000, &seq));
  EXPECT_FALSE(governor.Admit(1050, &seq));
  EXPECT_EQ(governor.dumps_suppressed(), 2u);
  // A failure beyond the burst window is new evidence.
  ASSERT_TRUE(governor.Admit(1100, &seq));
  EXPECT_EQ(seq, 2u);
  EXPECT_EQ(governor.dumps_admitted(), 2u);
}

TEST(QuarantineGovernorTest, SequencedFileNamesStaySortable) {
  const std::string a = QuarantineFileName(500, 1);
  const std::string b = QuarantineFileName(500, 2);
  const std::string c = QuarantineFileName(1500, 1);
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
  // A dump is a checkpoint file: it keeps the checkpoint suffix.
  EXPECT_TRUE(a.ends_with(".psky"));
}

// --- end-to-end pipeline under chaos -------------------------------------

// Drives a generator stream through the queue + operator pipeline twice —
// once clean, once under a fault schedule with retries — and requires the
// chaotic run to (a) survive, (b) account for every element exactly, and
// (c) when the schedule injects only recoverable faults under the block
// policy, reach the identical final skyline.
TEST_F(ChaosIoTest, PipelineUnderChaosMatchesCleanRunExactly) {
  constexpr uint64_t kCount = 4000;
  constexpr size_t kWindow = 300;

  auto run = [&](bool chaotic) {
    if (chaotic) {
      Arm("seed=5;delay=step@100..120:1;fail=ckpt-fsync@1:eio;"
          "fail=ckpt-rename@1:enospc");
    } else {
      fault::Clear();
    }
    StreamConfig cfg;
    cfg.dims = 3;
    cfg.seed = 77;
    StreamGenerator gen(cfg);
    SskyOperator op(3, 0.3);
    CountWindow window(kWindow);
    BoundedIngestQueue queue(32, OverloadPolicy::kBlock);
    std::thread producer([&] {
      for (uint64_t i = 0; i < kCount; ++i) {
        IngestItem item;
        item.element = gen.Next();
        item.next_seq_after = item.element.seq + 1;
        if (!queue.Push(std::move(item))) break;
      }
      queue.CloseProducer();
    });
    uint64_t processed = 0;
    uint64_t checkpoints = 0;
    std::vector<IngestItem> batch;
    for (;;) {
      const size_t n = queue.PopBatch(&batch, 64, 50);
      if (n == 0) {
        if (queue.drained()) break;
        continue;
      }
      for (const auto& item : batch) {
        if (fault::Enabled()) fault::MaybeDelay(fault::Site::kStep);
        if (window.full()) op.Expire(window.PushRotate(item.element));
        else window.Push(item.element);
        op.Insert(item.element);
        ++processed;
        if (processed % 1000 == 0) {
          CheckpointState state;
          state.dims = 3;
          state.q = 0.3;
          state.window_kind = WindowKind::kCount;
          state.window_capacity = kWindow;
          state.window = window.Snapshot();
          state.elements_consumed = processed;
          state.next_seq = processed;
          RetryStats stats;
          std::string error;
          EXPECT_TRUE(WriteCheckpointFileStreamedRetry(
              Path("chaos_ck.psky"), state, state.window.size(),
              WindowSource(state), FastRetry(4), &stats, &error))
              << error;
          ++checkpoints;
        }
      }
    }
    producer.join();
    EXPECT_EQ(processed, kCount);
    EXPECT_EQ(checkpoints, kCount / 1000);
    const QueueStats s = queue.StatsSnapshot();
    EXPECT_EQ(s.enqueued, kCount);
    EXPECT_EQ(s.dequeued, kCount);
    EXPECT_EQ(s.shed_oldest + s.shed_low_prob + s.shed_incoming, 0u);
    return SeqsOf(op.Skyline());
  };

  const std::vector<uint64_t> clean = run(false);
  const std::vector<uint64_t> chaotic = run(true);
  EXPECT_EQ(clean, chaotic);
  const fault::Stats fs_after = fault::StatsSnapshot();
  EXPECT_EQ(fs_after.failures_injected, 2u);  // both recovered by retry
  EXPECT_GE(fs_after.delays_injected, 21u);
}

// --- durability fault sites ----------------------------------------------

TEST_F(ChaosTest, WalAppendSiteInjectsScheduledFailures) {
  const std::string dir = TempTestDir("chaos_wal_append");
  WalWriter wal;
  std::string error;
  int err = 0;
  ASSERT_TRUE(
      wal.Create(dir + "/" + WalFileName(0), 2, 0, &error, &err))
      << error;
  Arm("fail=wal-append@2:enospc");
  WalRecord r;
  r.element.pos = Point(2);
  r.element.prob = 0.5;
  r.step_after = 1;
  EXPECT_TRUE(wal.Append(r, &error, &err)) << error;
  r.step_after = 2;
  err = 0;
  EXPECT_FALSE(wal.Append(r, &error, &err));
  EXPECT_EQ(err, ENOSPC);
  EXPECT_TRUE(wal.Append(r, &error, &err)) << error;  // 3rd occurrence clean
  wal.Close();
}

// The production response to a transiently failing group-commit fsync is
// retry-with-backoff — the WAL is never dropped. An injected EIO on the
// first attempt must be absorbed by the retry budget.
TEST_F(ChaosTest, WalFsyncSiteRecoversUnderRetry) {
  const std::string dir = TempTestDir("chaos_wal_fsync");
  WalWriter wal;
  std::string error;
  int err = 0;
  ASSERT_TRUE(
      wal.Create(dir + "/" + WalFileName(0), 2, 0, &error, &err))
      << error;
  WalRecord r;
  r.element.pos = Point(2);
  r.element.prob = 0.5;
  r.step_after = 1;
  ASSERT_TRUE(wal.Append(r, &error, &err)) << error;

  Arm("fail=wal-fsync@1");
  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.base_backoff_ms = 1;
  RetryStats stats;
  std::vector<uint64_t> sleeps;
  EXPECT_TRUE(RetryWithBackoff(
      policy, [&](int* e) { return wal.Sync(&error, e); }, &stats,
      [&](uint64_t ms) { sleeps.push_back(ms); }));
  EXPECT_EQ(stats.retries, 1u);
  EXPECT_EQ(wal.pending(), 0u);
  wal.Close();

  WalContents contents;
  ASSERT_TRUE(ReadWalFile(dir + "/" + WalFileName(0), &contents, &error))
      << error;
  EXPECT_EQ(contents.records.size(), 1u);
}

// segment-io fires at every segment file open, read and write. With
// two-element segments, occurrences 1-2 are the open and write of the
// first segment, 3-4 their retry, 5-6 the second segment's, and 7 the
// open that reads the second segment when it becomes the expiry
// frontier.
TEST_F(ChaosTest, SegmentIoSiteInjectsScheduledFailures) {
  SegmentStore::Options opts;
  opts.dir = TempTestDir("chaos_seg_io");
  opts.dims = 2;
  opts.elements_per_segment = 2;
  SegmentStore store(opts);
  std::string error;
  ASSERT_TRUE(store.Init(&error)) << error;
  Arm("fail=segment-io@2:enospc;fail=segment-io@7");
  UncertainElement e;
  e.pos = Point(2);
  e.prob = 0.5;
  for (int i = 0; i < 2; ++i) {
    e.seq = static_cast<uint64_t>(i);
    ASSERT_TRUE(store.PushBack(e, &error)) << error;  // no I/O yet
  }
  e.seq = 2;  // writes the first segment: the injected write failure fires
  EXPECT_FALSE(store.PushBack(e, &error));
  EXPECT_EQ(store.size(), 2u);
  ASSERT_TRUE(store.PushBack(e, &error)) << error;
  for (uint64_t seq = 3; seq < 5; ++seq) {
    e.seq = seq;
    ASSERT_TRUE(store.PushBack(e, &error)) << error;
  }
  UncertainElement out;
  for (uint64_t seq = 0; seq < 2; ++seq) {  // the first segment is in memory
    ASSERT_TRUE(store.PopFront(&out, &error)) << error;
    EXPECT_EQ(out.seq, seq);
  }
  EXPECT_FALSE(store.PopFront(&out, &error));  // the frontier open fails
  EXPECT_EQ(store.size(), 3u);
  ASSERT_TRUE(store.PopFront(&out, &error)) << error;  // retry succeeds
  EXPECT_EQ(out.seq, 2u);
}

// --- documentation lockstep ----------------------------------------------

// docs/operations.md documents the chaos-schedule site grammar; this
// lint-style test fails whenever a site is added to fault_injection.cc
// without updating the runbook (or vice versa).
TEST(ChaosDocsTest, OperationsRunbookListsExactlyTheImplementedSites) {
  std::ifstream in(PSKY_DOCS_OPERATIONS_PATH);
  ASSERT_TRUE(in.is_open()) << "cannot open " << PSKY_DOCS_OPERATIONS_PATH;
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);

  // Collect the "<site> := a | b | ..." block: the marker line plus the
  // continuation lines, which all end with '|'.
  std::string block;
  for (size_t i = 0; i < lines.size(); ++i) {
    const size_t at = lines[i].find("<site> :=");
    if (at == std::string::npos) continue;
    block = lines[i].substr(at + std::string("<site> :=").size());
    while (!block.empty() &&
           block.find_last_not_of(" \t") != std::string::npos &&
           block[block.find_last_not_of(" \t")] == '|' &&
           i + 1 < lines.size()) {
      block += " " + lines[++i];
    }
    break;
  }
  ASSERT_FALSE(block.empty()) << "no '<site> :=' grammar block in the docs";

  std::set<std::string> documented;
  std::string token;
  std::istringstream tokens(block);
  while (tokens >> token) {
    if (token != "|") documented.insert(token);
  }
  std::set<std::string> implemented;
  for (int i = 0; i < fault::kSiteCount; ++i) {
    implemented.insert(fault::SiteName(static_cast<fault::Site>(i)));
  }
  EXPECT_EQ(documented, implemented)
      << "docs/operations.md chaos site list and fault_injection.cc "
         "disagree - update both together";
}

}  // namespace
}  // namespace psky
