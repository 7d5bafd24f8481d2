// Write-ahead log: record round trips, torn/corrupt tail handling on
// every byte class a crash can leave behind (truncated frame, torn body,
// bit flip, zero-length tail), repair idempotence, rotation and
// retention, and the disk-pressure governor's hysteresis.

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "base/fault_injection.h"
#include "core/checkpoint.h"
#include "stream/generator.h"
#include "store/wal.h"

namespace psky {
namespace {

namespace fs = std::filesystem;

std::string TempDir(const char* tag) {
  const fs::path dir =
      fs::path(::testing::TempDir()) /
      (std::string("psky_wal_") + tag + "_" +
       std::to_string(::testing::UnitTest::GetInstance()->random_seed()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

WalRecord MakeRecord(int dims, uint64_t step, uint64_t seed) {
  StreamConfig cfg;
  cfg.dims = dims;
  cfg.seed = seed + step;
  StreamGenerator gen(cfg);
  WalRecord r;
  r.element = gen.Take(1).front();
  r.element.seq = step - 1;
  r.step_after = step;
  r.next_seq_after = step;
  r.lines_after = step * 2;
  r.skipped_total = step / 7;
  r.clamped_total = step / 11;
  r.ooo_total = step / 13;
  return r;
}

void ExpectRecordsEqual(const WalRecord& a, const WalRecord& b) {
  EXPECT_EQ(a.step_after, b.step_after);
  EXPECT_EQ(a.next_seq_after, b.next_seq_after);
  EXPECT_EQ(a.lines_after, b.lines_after);
  EXPECT_EQ(a.skipped_total, b.skipped_total);
  EXPECT_EQ(a.clamped_total, b.clamped_total);
  EXPECT_EQ(a.ooo_total, b.ooo_total);
  EXPECT_EQ(a.element.seq, b.element.seq);
  // Bitwise double equality: the format stores raw IEEE-754 bits.
  EXPECT_EQ(a.element.prob, b.element.prob);
  EXPECT_EQ(a.element.time, b.element.time);
  EXPECT_EQ(a.element.pos, b.element.pos);
}

// Writes `n` records into a fresh log and returns its path.
std::string WriteLog(const std::string& dir, int dims, uint64_t start,
                     int n) {
  const std::string path = dir + "/" + WalFileName(start);
  WalWriter w;
  std::string error;
  int err = 0;
  EXPECT_TRUE(
      w.Create(path, static_cast<uint32_t>(dims), start, &error, &err))
      << error;
  for (int i = 1; i <= n; ++i) {
    EXPECT_TRUE(w.Append(MakeRecord(dims, start + static_cast<uint64_t>(i),
                                    99),
                         &error, &err))
        << error;
  }
  EXPECT_TRUE(w.Sync(&error, &err)) << error;
  w.Close();
  return path;
}

std::string Slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void Spit(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(WalRecordFormat, EncodeDecodeRoundTrip) {
  for (int dims = 1; dims <= 5; ++dims) {
    const WalRecord r = MakeRecord(dims, 17, 42);
    WalRecord back;
    std::string error;
    ASSERT_TRUE(DecodeWalRecordBody(EncodeWalRecord(r), &back, &error))
        << error;
    ExpectRecordsEqual(r, back);
  }
}

TEST(WalRecordFormat, RejectsTruncatedBody) {
  const std::string body = EncodeWalRecord(MakeRecord(3, 1, 1));
  for (size_t cut = 0; cut < body.size(); ++cut) {
    WalRecord out;
    std::string error;
    EXPECT_FALSE(
        DecodeWalRecordBody(body.substr(0, cut), &out, &error))
        << "length " << cut << " decoded";
  }
}

TEST(WalFile, WriteReadRoundTrip) {
  const std::string dir = TempDir("roundtrip");
  const std::string path = WriteLog(dir, 3, 100, 20);
  WalContents contents;
  std::string error;
  ASSERT_TRUE(ReadWalFile(path, &contents, &error)) << error;
  EXPECT_EQ(contents.dims, 3u);
  EXPECT_EQ(contents.start_step, 100u);
  EXPECT_FALSE(contents.tail_truncated);
  ASSERT_EQ(contents.records.size(), 20u);
  for (int i = 0; i < 20; ++i) {
    ExpectRecordsEqual(MakeRecord(3, 100 + static_cast<uint64_t>(i) + 1, 99),
                       contents.records[static_cast<size_t>(i)]);
  }
}

TEST(WalFile, RejectsBadMagicAndShortHeader) {
  const std::string dir = TempDir("header");
  const std::string path = WriteLog(dir, 2, 0, 1);
  std::string bytes = Slurp(path);
  WalContents contents;
  std::string error;

  std::string bad = bytes;
  bad[0] = 'X';
  Spit(path, bad);
  EXPECT_FALSE(ReadWalFile(path, &contents, &error));

  Spit(path, bytes.substr(0, 10));  // shorter than a header
  EXPECT_FALSE(ReadWalFile(path, &contents, &error));
}

// Every truncation point inside the record area yields the longest valid
// record prefix — never an error, never a partial record.
TEST(WalFile, TruncatedTailRecoversValidPrefix) {
  const std::string dir = TempDir("trunc");
  const std::string path = WriteLog(dir, 2, 0, 8);
  const std::string bytes = Slurp(path);
  WalContents full;
  std::string error;
  ASSERT_TRUE(DecodeWalBytes(bytes, &full, &error)) << error;
  ASSERT_EQ(full.valid_bytes, bytes.size());

  for (size_t cut = 24; cut < bytes.size(); ++cut) {
    WalContents contents;
    ASSERT_TRUE(DecodeWalBytes(bytes.substr(0, cut), &contents, &error))
        << "cut at " << cut << ": " << error;
    EXPECT_LE(contents.valid_bytes, cut);
    EXPECT_EQ(contents.tail_truncated, contents.valid_bytes != cut);
    for (size_t i = 0; i < contents.records.size(); ++i) {
      ExpectRecordsEqual(full.records[i], contents.records[i]);
    }
  }
}

// A flipped bit anywhere in the final frame fails its CRC (or its frame
// geometry) and cuts the tail; earlier records survive untouched.
TEST(WalFile, BitFlipInTailRecordIsDetected) {
  const std::string dir = TempDir("bitflip");
  const std::string path = WriteLog(dir, 2, 0, 4);
  const std::string bytes = Slurp(path);
  WalContents full;
  std::string error;
  ASSERT_TRUE(DecodeWalBytes(bytes, &full, &error)) << error;
  const size_t last_frame_start =
      bytes.size() - (8 + EncodeWalRecord(full.records[3]).size());

  for (size_t pos = last_frame_start; pos < bytes.size(); ++pos) {
    std::string bad = bytes;
    bad[pos] = static_cast<char>(bad[pos] ^ 0x40);
    WalContents contents;
    ASSERT_TRUE(DecodeWalBytes(bad, &contents, &error)) << error;
    EXPECT_TRUE(contents.tail_truncated) << "flip at " << pos;
    EXPECT_LE(contents.records.size(), 3u) << "flip at " << pos;
    for (size_t i = 0; i < contents.records.size(); ++i) {
      ExpectRecordsEqual(full.records[i], contents.records[i]);
    }
  }
}

// A tail of zero bytes (preallocated-but-unwritten blocks after a crash)
// is a zero-length frame with CRC 0 over nothing — it must still be cut,
// not decoded as an empty record.
TEST(WalFile, ZeroFilledTailIsCut) {
  const std::string dir = TempDir("zeros");
  const std::string path = WriteLog(dir, 2, 0, 3);
  const std::string bytes = Slurp(path);
  for (size_t zeros : {1u, 7u, 8u, 9u, 64u}) {
    WalContents contents;
    std::string error;
    ASSERT_TRUE(DecodeWalBytes(bytes + std::string(zeros, '\0'), &contents,
                               &error))
        << error;
    EXPECT_TRUE(contents.tail_truncated) << zeros << " zero bytes";
    EXPECT_EQ(contents.records.size(), 3u);
    EXPECT_EQ(contents.valid_bytes, bytes.size());
  }
}

// An absurd frame length (corrupt length field) must not trigger a giant
// allocation; it is a torn tail like any other.
TEST(WalFile, OversizedFrameLengthIsCut) {
  const std::string dir = TempDir("oversize");
  const std::string path = WriteLog(dir, 2, 0, 2);
  std::string bytes = Slurp(path);
  const char huge[8] = {'\xff', '\xff', '\xff', '\x7f', 0, 0, 0, 0};
  bytes.append(huge, sizeof huge);
  WalContents contents;
  std::string error;
  ASSERT_TRUE(DecodeWalBytes(bytes, &contents, &error)) << error;
  EXPECT_TRUE(contents.tail_truncated);
  EXPECT_EQ(contents.records.size(), 2u);
}

TEST(WalFile, RepairTruncatesTornTailAndIsIdempotent) {
  const std::string dir = TempDir("repair");
  const std::string path = WriteLog(dir, 2, 0, 5);
  const std::string bytes = Slurp(path);
  Spit(path, bytes.substr(0, bytes.size() - 3));  // tear the last record

  std::string error;
  ASSERT_TRUE(RepairWalFile(path, &error)) << error;
  WalContents contents;
  ASSERT_TRUE(ReadWalFile(path, &contents, &error)) << error;
  EXPECT_FALSE(contents.tail_truncated);
  EXPECT_EQ(contents.records.size(), 4u);

  const std::string repaired = Slurp(path);
  ASSERT_TRUE(RepairWalFile(path, &error)) << error;  // no-op second pass
  EXPECT_EQ(Slurp(path), repaired);
}

TEST(WalWriterTest, AppendAfterTornTailContinuesCleanly) {
  const std::string dir = TempDir("append");
  const std::string path = WriteLog(dir, 2, 10, 4);
  const std::string bytes = Slurp(path);
  Spit(path, bytes.substr(0, bytes.size() - 5));

  WalWriter w;
  std::string error;
  int err = 0;
  uint64_t next_step = 0;
  ASSERT_TRUE(w.OpenForAppend(path, &error, &err, &next_step)) << error;
  EXPECT_EQ(next_step, 14u);  // 3 whole records survive after step 10
  ASSERT_TRUE(w.Append(MakeRecord(2, next_step, 99), &error, &err)) << error;
  ASSERT_TRUE(w.Sync(&error, &err)) << error;
  w.Close();

  WalContents contents;
  ASSERT_TRUE(ReadWalFile(path, &contents, &error)) << error;
  EXPECT_FALSE(contents.tail_truncated);
  ASSERT_EQ(contents.records.size(), 4u);
  EXPECT_EQ(contents.records.back().step_after, 14u);
}

TEST(WalWriterTest, CreateRefusesExistingFile) {
  const std::string dir = TempDir("exists");
  const std::string path = WriteLog(dir, 2, 0, 1);
  WalWriter w;
  std::string error;
  int err = 0;
  EXPECT_FALSE(w.Create(path, 2, 0, &error, &err));
}

TEST(WalWriterTest, RotationStartsNewLogAndListsInOrder) {
  const std::string dir = TempDir("rotate");
  WalWriter w;
  std::string error;
  int err = 0;
  ASSERT_TRUE(
      w.Create(dir + "/" + WalFileName(0), 2, 0, &error, &err))
      << error;
  for (uint64_t step = 1; step <= 6; ++step) {
    ASSERT_TRUE(w.Append(MakeRecord(2, step, 5), &error, &err)) << error;
    if (step % 2 == 0) {
      ASSERT_TRUE(w.RotateTo(dir, step, &error, &err)) << error;
    }
  }
  w.Close();
  EXPECT_EQ(w.stats().rotations, 3u);

  const std::vector<std::string> files = ListWalFiles(dir);
  ASSERT_EQ(files.size(), 4u);
  uint64_t prev = 0;
  for (size_t i = 0; i < files.size(); ++i) {
    uint64_t start = 0;
    ASSERT_TRUE(ParseWalStartStep(files[i], &start)) << files[i];
    EXPECT_EQ(start, i == 0 ? 0 : prev + 2);
    prev = start;
    WalContents contents;
    ASSERT_TRUE(ReadWalFile(files[i], &contents, &error)) << error;
    EXPECT_EQ(contents.start_step, start);
    // Each rotation happened right after appending records 2k-1, 2k.
    EXPECT_EQ(contents.records.size(), i == files.size() - 1 ? 0u : 2u);
  }
}

TEST(WalWriterTest, PruneKeepsFilesACheckpointCanNeed) {
  const std::string dir = TempDir("prune");
  for (uint64_t start : {0u, 10u, 20u, 30u}) WriteLog(dir, 2, start, 2);
  // Oldest retained checkpoint is at step 20: wal-0 and wal-10 only hold
  // records at or before it (their successors start at 10 and 20).
  EXPECT_EQ(PruneWalFiles(dir, 20), 2u);
  const std::vector<std::string> files = ListWalFiles(dir);
  ASSERT_EQ(files.size(), 2u);
  uint64_t start = 0;
  ASSERT_TRUE(ParseWalStartStep(files[0], &start));
  EXPECT_EQ(start, 20u);
}

// The psky_stream startup sweep (RemoveStaleCheckpointTemps) reaps the
// temps this program's writers leave in the durable directory, WAL
// rotation temps a crash mid-rotation leaves behind included. Finished
// logs stay put.
TEST(WalWriterTest, StartupSweepReapsOrphanedRotationTemps) {
  const std::string dir = TempDir("tmpsweep");
  WriteLog(dir, 2, 0, 2);
  std::ofstream(dir + "/" + WalFileName(50) + ".tmp") << "torn rotation";
  std::ofstream(dir + "/ckpt-00000000000000000009.psky.tmp") << "torn ckpt";
  EXPECT_EQ(RemoveStaleCheckpointTemps(dir), 2u);
  EXPECT_TRUE(fs::exists(dir + "/" + WalFileName(0)));
  EXPECT_FALSE(fs::exists(dir + "/" + WalFileName(50) + ".tmp"));
  EXPECT_EQ(ListWalFiles(dir).size(), 1u);  // temps are never listed
}

TEST(WalWriterTest, ParseRejectsUnrelatedNames) {
  uint64_t start = 0;
  EXPECT_FALSE(ParseWalStartStep("ckpt-00000000000000000001.psky", &start));
  EXPECT_FALSE(ParseWalStartStep("wal-123.pskywal", &start));
  EXPECT_FALSE(
      ParseWalStartStep("wal-0000000000000000000x.pskywal", &start));
  EXPECT_TRUE(ParseWalStartStep(WalFileName(42), &start));
  EXPECT_EQ(start, 42u);
}

TEST(WalWriterTest, FaultSitesInjectFailures) {
  const std::string dir = TempDir("faults");
  WalWriter w;
  std::string error;
  int err = 0;
  ASSERT_TRUE(
      w.Create(dir + "/" + WalFileName(0), 2, 0, &error, &err))
      << error;

  ASSERT_TRUE(fault::LoadSchedule(
      "fail=wal-append@2;fail=wal-fsync@1:enospc", &error))
      << error;
  EXPECT_TRUE(w.Append(MakeRecord(2, 1, 3), &error, &err));
  err = 0;
  EXPECT_FALSE(w.Append(MakeRecord(2, 2, 3), &error, &err));
  EXPECT_EQ(err, EIO);
  err = 0;
  EXPECT_FALSE(w.Sync(&error, &err));
  EXPECT_EQ(err, ENOSPC);
  EXPECT_TRUE(w.Sync(&error, &err)) << error;  // second attempt succeeds
  fault::Clear();
  w.Close();
}

TEST(WalWriterTest, AsyncSyncDurableAfterBarrier) {
  const std::string dir = TempDir("async");
  const std::string path = dir + "/" + WalFileName(0);
  WalWriter w;
  std::string error;
  int err = 0;
  ASSERT_TRUE(w.Create(path, 2, 0, &error, &err)) << error;
  w.SetAsyncSync(true);
  EXPECT_TRUE(w.async_sync());

  constexpr uint64_t kRecords = 40;
  for (uint64_t step = 1; step <= kRecords; ++step) {
    ASSERT_TRUE(w.Append(MakeRecord(2, step, 7), &error, &err)) << error;
    if (step % 4 == 0) {
      ASSERT_TRUE(w.Sync(&error, &err)) << error;
    }
  }
  ASSERT_TRUE(w.SyncBarrier(&error, &err)) << error;
  EXPECT_GT(w.stats().async_syncs, 0u);
  EXPECT_EQ(w.stats().async_syncs, w.stats().syncs);
  // Latency is recorded per completed fdatasync and read-once.
  w.TakeAsyncSyncLatencyMs();
  EXPECT_EQ(w.TakeAsyncSyncLatencyMs(), 0u);
  w.Close();

  WalContents contents;
  ASSERT_TRUE(ReadWalFile(path, &contents, &error)) << error;
  EXPECT_FALSE(contents.tail_truncated);
  ASSERT_EQ(contents.records.size(), kRecords);
  for (uint64_t i = 0; i < kRecords; ++i) {
    ExpectRecordsEqual(MakeRecord(2, i + 1, 7), contents.records[i]);
  }
}

// Rotation must not close an fd with a background fdatasync in flight:
// RotateTo barriers first. Both files decode cleanly afterwards.
TEST(WalWriterTest, AsyncSyncSurvivesRotation) {
  const std::string dir = TempDir("asyncrot");
  WalWriter w;
  std::string error;
  int err = 0;
  ASSERT_TRUE(
      w.Create(dir + "/" + WalFileName(0), 2, 0, &error, &err))
      << error;
  w.SetAsyncSync(true);
  for (uint64_t step = 1; step <= 4; ++step) {
    ASSERT_TRUE(w.Append(MakeRecord(2, step, 9), &error, &err)) << error;
    ASSERT_TRUE(w.Sync(&error, &err)) << error;
    if (step == 2) {
      ASSERT_TRUE(w.RotateTo(dir, step, &error, &err)) << error;
    }
  }
  w.Close();

  const std::vector<std::string> files = ListWalFiles(dir);
  ASSERT_EQ(files.size(), 2u);
  for (const std::string& f : files) {
    WalContents contents;
    ASSERT_TRUE(ReadWalFile(f, &contents, &error)) << error;
    EXPECT_FALSE(contents.tail_truncated);
    EXPECT_EQ(contents.records.size(), 2u);
  }
}

// Regression (TSan): the background sync worker used to read the live
// path_ while the appender thread rewrote it during rotation; the fd and
// path are now published together under the async lock. Hammering
// RotateTo/Sync cycles in async mode exercises that publish protocol on
// every rotation — under TSan the pre-fix code reports a race here.
TEST(WalWriterTest, AsyncSyncRotationCyclesKeepEveryLogDecodable) {
  const std::string dir = TempDir("asynccycles");
  WalWriter w;
  std::string error;
  int err = 0;
  ASSERT_TRUE(
      w.Create(dir + "/" + WalFileName(0), 2, 0, &error, &err))
      << error;
  w.SetAsyncSync(true);
  constexpr uint64_t kRotations = 8;
  constexpr uint64_t kPerLog = 5;
  uint64_t step = 0;
  for (uint64_t rot = 0; rot < kRotations; ++rot) {
    for (uint64_t i = 0; i < kPerLog; ++i) {
      ++step;
      ASSERT_TRUE(w.Append(MakeRecord(2, step, 3), &error, &err)) << error;
      ASSERT_TRUE(w.Sync(&error, &err)) << error;
    }
    ASSERT_TRUE(w.RotateTo(dir, step, &error, &err)) << error;
  }
  w.Close();
  EXPECT_EQ(w.stats().rotations, kRotations);

  const std::vector<std::string> files = ListWalFiles(dir);
  ASSERT_EQ(files.size(), kRotations + 1);
  uint64_t records = 0;
  for (const std::string& f : files) {
    WalContents contents;
    ASSERT_TRUE(ReadWalFile(f, &contents, &error)) << error;
    EXPECT_FALSE(contents.tail_truncated);
    records += contents.records.size();
  }
  EXPECT_EQ(records, kRotations * kPerLog);
}

// The wal-fsync fault site fires on the caller thread even in async
// mode, so chaos schedules behave identically in both sync modes.
TEST(WalWriterTest, AsyncSyncFaultSiteFiresOnCaller) {
  const std::string dir = TempDir("asyncfault");
  WalWriter w;
  std::string error;
  int err = 0;
  ASSERT_TRUE(
      w.Create(dir + "/" + WalFileName(0), 2, 0, &error, &err))
      << error;
  w.SetAsyncSync(true);
  ASSERT_TRUE(w.Append(MakeRecord(2, 1, 11), &error, &err)) << error;

  ASSERT_TRUE(fault::LoadSchedule("fail=wal-fsync@1:enospc", &error))
      << error;
  err = 0;
  EXPECT_FALSE(w.Sync(&error, &err));
  EXPECT_EQ(err, ENOSPC);
  EXPECT_TRUE(w.Sync(&error, &err)) << error;  // retry succeeds
  fault::Clear();
  ASSERT_TRUE(w.SyncBarrier(&error, &err)) << error;
  w.Close();

  WalContents contents;
  ASSERT_TRUE(
      ReadWalFile(dir + "/" + WalFileName(0), &contents, &error))
      << error;
  EXPECT_EQ(contents.records.size(), 1u);
}

// Toggling async off drains the background thread; the writer then runs
// plain synchronous group commit again.
TEST(WalWriterTest, AsyncSyncToggleOffDrains) {
  const std::string dir = TempDir("asynctoggle");
  WalWriter w;
  std::string error;
  int err = 0;
  ASSERT_TRUE(
      w.Create(dir + "/" + WalFileName(0), 2, 0, &error, &err))
      << error;
  w.SetAsyncSync(true);
  ASSERT_TRUE(w.Append(MakeRecord(2, 1, 13), &error, &err)) << error;
  ASSERT_TRUE(w.Sync(&error, &err)) << error;
  w.SetAsyncSync(false);
  EXPECT_FALSE(w.async_sync());
  ASSERT_TRUE(w.Append(MakeRecord(2, 2, 13), &error, &err)) << error;
  ASSERT_TRUE(w.Sync(&error, &err)) << error;
  EXPECT_EQ(w.stats().async_syncs, 1u);
  EXPECT_EQ(w.stats().syncs, 2u);
  w.Close();

  WalContents contents;
  ASSERT_TRUE(
      ReadWalFile(dir + "/" + WalFileName(0), &contents, &error))
      << error;
  EXPECT_EQ(contents.records.size(), 2u);
}

TEST(DiskPressureGovernorTest, EscalatesAndRecoversWithHysteresis) {
  DiskPressureGovernor::Options opts;
  opts.slow_sync_ms = 50;
  opts.escalate_factor = 4;
  opts.max_multiplier = 16;
  opts.recover_after = 3;
  DiskPressureGovernor gov(opts);
  EXPECT_EQ(gov.multiplier(), 1u);

  EXPECT_TRUE(gov.ObserveSync(true, 0));  // transient failure
  EXPECT_EQ(gov.multiplier(), 4u);
  EXPECT_TRUE(gov.ObserveSync(false, 80));  // slow sync
  EXPECT_EQ(gov.multiplier(), 16u);
  EXPECT_FALSE(gov.ObserveSync(true, 0));  // already at the ceiling
  EXPECT_EQ(gov.multiplier(), 16u);
  EXPECT_EQ(gov.escalations(), 2u);

  // Recovery needs recover_after *consecutive* clean syncs per step.
  EXPECT_FALSE(gov.ObserveSync(false, 1));
  EXPECT_FALSE(gov.ObserveSync(false, 1));
  EXPECT_TRUE(gov.ObserveSync(false, 1));
  EXPECT_EQ(gov.multiplier(), 4u);
  EXPECT_FALSE(gov.ObserveSync(false, 1));
  EXPECT_FALSE(gov.ObserveSync(false, 1));
  EXPECT_TRUE(gov.ObserveSync(false, 60));  // slow: re-escalates
  EXPECT_EQ(gov.multiplier(), 16u);
  EXPECT_EQ(gov.escalations(), 3u);
  for (int i = 0; i < 6; ++i) gov.ObserveSync(false, 1);
  EXPECT_EQ(gov.multiplier(), 1u);
  EXPECT_EQ(gov.recoveries(), 3u);
}

}  // namespace
}  // namespace psky
