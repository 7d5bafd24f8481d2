// Segment store: FIFO equivalence against an in-memory deque across
// segment boundaries, the three-buffer memory bound, deletion of drained
// files, the segment-io fault site, the startup sweep, and bit-equality
// of a StoredCountWindow-backed operator against the in-memory
// CountWindow pipeline.

#include <deque>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "base/check.h"
#include "base/fault_injection.h"
#include "base/random.h"
#include "core/ssky_operator.h"
#include "stream/generator.h"
#include "stream/window.h"
#include "store/segment_store.h"

namespace psky {
namespace {

namespace fs = std::filesystem;

std::string TempDir(const char* tag) {
  const fs::path dir =
      fs::path(::testing::TempDir()) /
      (std::string("psky_seg_") + tag + "_" +
       std::to_string(::testing::UnitTest::GetInstance()->random_seed()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

SegmentStore::Options MakeOptions(const std::string& dir, int dims,
                                  size_t per_segment) {
  SegmentStore::Options opts;
  opts.dir = dir;
  opts.dims = dims;
  opts.elements_per_segment = per_segment;
  return opts;
}

size_t FileCount(const std::string& dir) {
  size_t files = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    (void)entry;
    ++files;
  }
  return files;
}

void ExpectElementsEqual(const UncertainElement& a,
                         const UncertainElement& b) {
  EXPECT_EQ(a.seq, b.seq);
  // Bitwise double equality: slots hold raw IEEE-754 bit patterns.
  EXPECT_EQ(a.prob, b.prob);
  EXPECT_EQ(a.time, b.time);
  EXPECT_EQ(a.pos, b.pos);
}

TEST(SegmentStoreTest, InitValidatesOptions) {
  std::string error;
  SegmentStore bad_dims(MakeOptions(TempDir("dims"), 0, 4));
  EXPECT_FALSE(bad_dims.Init(&error));
  SegmentStore bad_slots(MakeOptions(TempDir("slots"), 2, 0));
  EXPECT_FALSE(bad_slots.Init(&error));
  SegmentStore ok(MakeOptions(TempDir("ok"), 2, 4));
  EXPECT_TRUE(ok.Init(&error)) << error;
}

// Mixed pushes and pops against a reference deque, with a segment size
// small enough that every operation class crosses file boundaries.
TEST(SegmentStoreTest, MatchesDequeAcrossSegmentBoundaries) {
  const std::string dir = TempDir("fifo");
  SegmentStore store(MakeOptions(dir, 3, 5));
  std::string error;
  ASSERT_TRUE(store.Init(&error)) << error;

  StreamConfig cfg;
  cfg.dims = 3;
  cfg.seed = 77;
  StreamGenerator gen(cfg);
  Rng rng(123);
  std::deque<UncertainElement> reference;

  for (int op = 0; op < 5000; ++op) {
    const bool push = reference.empty() || rng.NextDouble() < 0.55;
    if (push) {
      const UncertainElement e = gen.Take(1).front();
      reference.push_back(e);
      ASSERT_TRUE(store.PushBack(e, &error)) << error;
    } else {
      UncertainElement out;
      ASSERT_TRUE(store.PopFront(&out, &error)) << error;
      ExpectElementsEqual(reference.front(), out);
      reference.pop_front();
    }
    ASSERT_EQ(store.size(), reference.size());
    if (op % 97 == 0 && !reference.empty()) {
      ExpectElementsEqual(reference.front(), store.At(0));
      ExpectElementsEqual(reference.back(), store.At(store.size() - 1));
      const size_t mid = reference.size() / 2;
      ExpectElementsEqual(reference[mid], store.At(mid));
    }
  }
  const std::vector<UncertainElement> snap = store.Snapshot();
  ASSERT_EQ(snap.size(), reference.size());
  for (size_t i = 0; i < snap.size(); ++i) {
    ExpectElementsEqual(reference[i], snap[i]);
  }
}

TEST(SegmentStoreTest, DestructorRemovesScratchFiles) {
  const std::string dir = TempDir("cleanup");
  {
    SegmentStore store(MakeOptions(dir, 2, 4));
    std::string error;
    ASSERT_TRUE(store.Init(&error)) << error;
    StreamConfig cfg;
    cfg.dims = 2;
    StreamGenerator gen(cfg);
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(store.PushBack(gen.Take(1).front(), &error)) << error;
    }
    UncertainElement out;
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(store.PopFront(&out, &error)) << error;
    }
  }
  EXPECT_TRUE(fs::is_empty(dir));
}

TEST(SegmentStoreTest, SweepReapsLeftoverSegmentFiles) {
  const std::string dir = TempDir("sweep");
  // Orphans a crashed run could leave behind, plus files the sweep must
  // not touch.
  std::ofstream(dir + "/seg-00000000000000000003.pskyseg") << "junk";
  std::ofstream(dir + "/seg-00000000000000000009.pskyseg") << "junk";
  std::ofstream(dir + "/seg-123.pskyseg") << "not ours";
  std::ofstream(dir + "/ckpt-00000000000000000001.psky") << "not ours";
  EXPECT_EQ(SweepSegmentFiles(dir), 2u);
  EXPECT_TRUE(fs::exists(dir + "/seg-123.pskyseg"));
  EXPECT_TRUE(fs::exists(dir + "/ckpt-00000000000000000001.psky"));
  EXPECT_EQ(SweepSegmentFiles(dir), 0u);
  EXPECT_EQ(SweepSegmentFiles(dir + "/missing"), 0u);
}

// segment-io fires at the open and the write of a full tail: each failed
// push leaves the store as it was, and the retry succeeds.
TEST(SegmentStoreTest, IoFaultSiteFailsPushBack) {
  const std::string dir = TempDir("iofault_push");
  SegmentStore store(MakeOptions(dir, 2, 4));
  std::string error;
  ASSERT_TRUE(store.Init(&error)) << error;
  StreamConfig cfg;
  cfg.dims = 2;
  StreamGenerator gen(cfg);
  const std::vector<UncertainElement> pushed = gen.Take(5);
  for (size_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(store.PushBack(pushed[i], &error)) << error;  // no I/O yet
  }
  ASSERT_TRUE(fault::LoadSchedule("fail=segment-io@1..2:enospc", &error))
      << error;
  EXPECT_FALSE(store.PushBack(pushed[4], &error));  // the open fails
  EXPECT_NE(error.find("(injected)"), std::string::npos) << error;
  EXPECT_FALSE(store.PushBack(pushed[4], &error));  // the write fails
  EXPECT_EQ(store.size(), 4u);
  EXPECT_TRUE(store.PushBack(pushed[4], &error)) << error;
  fault::Clear();
  const std::vector<UncertainElement> snap = store.Snapshot();
  ASSERT_EQ(snap.size(), pushed.size());
  for (size_t i = 0; i < snap.size(); ++i) {
    ExpectElementsEqual(pushed[i], snap[i]);
  }
}

// segment-io fires at the open and the read of a new expiry frontier: the
// pop fails, the element stays queued, and the next attempt succeeds.
TEST(SegmentStoreTest, IoFaultSiteFailsPopAndRetries) {
  const std::string dir = TempDir("iofault_pop");
  SegmentStore store(MakeOptions(dir, 2, 2));
  std::string error;
  ASSERT_TRUE(store.Init(&error)) << error;
  StreamConfig cfg;
  cfg.dims = 2;
  StreamGenerator gen(cfg);
  const std::vector<UncertainElement> pushed = gen.Take(6);  // 3 segments
  for (const auto& e : pushed) {
    ASSERT_TRUE(store.PushBack(e, &error)) << error;
  }
  ASSERT_TRUE(fault::LoadSchedule("fail=segment-io@1..2", &error)) << error;
  UncertainElement out;
  // The first segment became the head buffer when it was written.
  for (size_t i = 0; i < 2; ++i) {
    ASSERT_TRUE(store.PopFront(&out, &error)) << error;
    ExpectElementsEqual(pushed[i], out);
  }
  EXPECT_FALSE(store.PopFront(&out, &error));  // the open fails
  EXPECT_FALSE(store.PopFront(&out, &error));  // the read fails
  EXPECT_EQ(store.size(), 4u);
  ASSERT_TRUE(store.PopFront(&out, &error)) << error;
  ExpectElementsEqual(pushed[2], out);
  fault::Clear();
}

// Rotate pushes before it pops: a rotation whose write or frontier read
// fails neither pushes nor pops, so the store keeps the whole window.
TEST(SegmentStoreTest, RotateFailsWithoutChangingTheStore) {
  const std::string dir = TempDir("iofault_rotate");
  SegmentStore store(MakeOptions(dir, 2, 2));
  std::string error;
  ASSERT_TRUE(store.Init(&error)) << error;
  StreamConfig cfg;
  cfg.dims = 2;
  StreamGenerator gen(cfg);
  std::deque<UncertainElement> reference;
  for (const auto& e : gen.Take(4)) {
    reference.push_back(e);
    ASSERT_TRUE(store.PushBack(e, &error)) << error;
  }
  // Occurrence 2 is the write of the full tail, 5 the open of the second
  // segment when it becomes the expiry frontier.
  ASSERT_TRUE(
      fault::LoadSchedule("fail=segment-io@2;fail=segment-io@5", &error))
      << error;
  int failures = 0;
  for (int i = 0; i < 4; ++i) {
    const UncertainElement e = gen.Next();
    UncertainElement out;
    while (!store.Rotate(e, &out, &error)) {
      ++failures;
      const std::vector<UncertainElement> snap = store.Snapshot();
      ASSERT_EQ(snap.size(), reference.size());
      for (size_t k = 0; k < snap.size(); ++k) {
        ExpectElementsEqual(reference[k], snap[k]);
      }
    }
    ExpectElementsEqual(reference.front(), out);
    reference.pop_front();
    reference.push_back(e);
  }
  EXPECT_EQ(failures, 2);
  fault::Clear();
}

// One element per segment: every push writes the full tail and starts a
// fresh one, and every pop lands exactly on a segment boundary — the degenerate geometry where
// off-by-one bugs in boundary handling live.
TEST(SegmentStoreTest, SingleElementSegments) {
  const std::string dir = TempDir("one");
  SegmentStore store(MakeOptions(dir, 2, 1));
  std::string error;
  ASSERT_TRUE(store.Init(&error)) << error;
  StreamConfig cfg;
  cfg.dims = 2;
  cfg.seed = 9;
  StreamGenerator gen(cfg);
  std::deque<UncertainElement> reference;
  for (int i = 0; i < 64; ++i) {
    const UncertainElement e = gen.Take(1).front();
    reference.push_back(e);
    ASSERT_TRUE(store.PushBack(e, &error)) << error;
  }
  for (int i = 0; i < 200; ++i) {
    UncertainElement out;
    ASSERT_TRUE(store.PopFront(&out, &error)) << error;
    ExpectElementsEqual(reference.front(), out);
    reference.pop_front();
    const UncertainElement e = gen.Take(1).front();
    reference.push_back(e);
    ASSERT_TRUE(store.PushBack(e, &error)) << error;
  }
  while (!reference.empty()) {
    UncertainElement out;
    ASSERT_TRUE(store.PopFront(&out, &error)) << error;
    ExpectElementsEqual(reference.front(), out);
    reference.pop_front();
  }
  EXPECT_TRUE(store.empty());
  // Every written segment was deleted when drained; the lone tail left
  // has no file.
  EXPECT_GT(store.stats().segments_created, 0u);
  EXPECT_TRUE(fs::is_empty(dir));
}

// A pop that drains the front segment must delete its file on that exact
// pop (not one early, not one late), and draining the store completely
// must rewind the lone tail segment in place.
TEST(SegmentStoreTest, PopDrainsExactlyAtSegmentBoundary) {
  const std::string dir = TempDir("boundary");
  SegmentStore store(MakeOptions(dir, 2, 4));
  std::string error;
  ASSERT_TRUE(store.Init(&error)) << error;
  StreamConfig cfg;
  cfg.dims = 2;
  cfg.seed = 41;
  StreamGenerator gen(cfg);
  const std::vector<UncertainElement> pushed = gen.Take(8);
  for (const auto& e : pushed) {
    ASSERT_TRUE(store.PushBack(e, &error)) << error;
  }
  ASSERT_EQ(store.stats().segments_live, 2u);
  EXPECT_EQ(FileCount(dir), 1u);  // the tail is not written yet
  UncertainElement out;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(store.PopFront(&out, &error)) << error;
    ExpectElementsEqual(pushed[static_cast<size_t>(i)], out);
    EXPECT_EQ(store.stats().segments_live, 2u) << "pop " << i;
    EXPECT_EQ(FileCount(dir), 1u) << "pop " << i;
  }
  // The 4th pop empties the front segment: its file goes right here.
  ASSERT_TRUE(store.PopFront(&out, &error)) << error;
  ExpectElementsEqual(pushed[3], out);
  EXPECT_EQ(store.stats().segments_live, 1u);
  EXPECT_EQ(FileCount(dir), 0u);
  for (int i = 4; i < 8; ++i) {
    ASSERT_TRUE(store.PopFront(&out, &error)) << error;
    ExpectElementsEqual(pushed[static_cast<size_t>(i)], out);
  }
  EXPECT_TRUE(store.empty());
  // Fully drained: the next push reuses the rewound tail in place.
  const UncertainElement e = gen.Take(1).front();
  ASSERT_TRUE(store.PushBack(e, &error)) << error;
  ExpectElementsEqual(e, store.At(0));
}

// A cursor opened before the head segment is drained keeps yielding the
// surviving elements in order: popped elements are skipped, elements
// pushed after creation are not yielded.
TEST(SegmentStoreTest, CursorSurvivesHeadRecycleMidIteration) {
  const std::string dir = TempDir("cursor");
  SegmentStore store(MakeOptions(dir, 3, 4));
  std::string error;
  ASSERT_TRUE(store.Init(&error)) << error;
  StreamConfig cfg;
  cfg.dims = 3;
  cfg.seed = 47;
  StreamGenerator gen(cfg);
  const std::vector<UncertainElement> pushed = gen.Take(16);
  for (const auto& e : pushed) {
    ASSERT_TRUE(store.PushBack(e, &error)) << error;
  }
  SegmentStore::Cursor cur = store.NewCursor();
  EXPECT_EQ(cur.remaining(), 16u);
  UncertainElement out;
  ASSERT_TRUE(cur.Next(&out));
  ExpectElementsEqual(pushed[0], out);
  ASSERT_TRUE(cur.Next(&out));
  ExpectElementsEqual(pushed[1], out);
  // Pop past the cursor position — including the whole head segment —
  // and push two replacements the cursor must NOT see.
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(store.PopFront(&out, &error)) << error;
  }
  for (const auto& e : gen.Take(2)) {
    ASSERT_TRUE(store.PushBack(e, &error)) << error;
  }
  EXPECT_EQ(cur.remaining(), 10u);  // pushed[6..16)
  for (size_t i = 6; i < 16; ++i) {
    ASSERT_TRUE(cur.Next(&out)) << "element " << i;
    ExpectElementsEqual(pushed[i], out);
  }
  EXPECT_FALSE(cur.Next(&out));
  EXPECT_EQ(cur.remaining(), 0u);
}

// Pure FIFO traffic reads only the expiry frontier, into the head
// buffer: rotation never needs the read buffer, so the store holds two
// segments whatever the window spans.
TEST(SegmentStoreTest, ReadaheadKeepsExpiryFrontierHot) {
  const std::string dir = TempDir("readahead");
  SegmentStore store(MakeOptions(dir, 2, 8));
  std::string error;
  ASSERT_TRUE(store.Init(&error)) << error;
  StreamConfig cfg;
  cfg.dims = 2;
  cfg.seed = 59;
  StreamGenerator gen(cfg);
  std::deque<UncertainElement> reference;
  for (const auto& e : gen.Take(80)) {  // 10 segments
    reference.push_back(e);
    ASSERT_TRUE(store.PushBack(e, &error)) << error;
  }
  for (int i = 0; i < 800; ++i) {
    const UncertainElement e = gen.Next();
    UncertainElement out;
    ASSERT_TRUE(store.Rotate(e, &out, &error)) << error;
    ExpectElementsEqual(reference.front(), out);
    reference.pop_front();
    reference.push_back(e);
  }
  EXPECT_EQ(store.stats().segments_resident, 2u);  // head and tail
  // 880 pushes fill 110 segments; all but the tail were written.
  EXPECT_EQ(store.stats().segments_created, 109u);
  EXPECT_EQ(store.stats().segments_live, 10u);
}

// A store mirrored by a std::deque: every push and pop goes to both, and
// every read is checked against the mirror.
struct MirroredStore {
  MirroredStore(const std::string& tag, size_t per_segment)
      : dir(TempDir(tag.c_str())),
        store(MakeOptions(dir, 3, per_segment)),
        gen(Config()) {
    std::string error;
    PSKY_CHECK_MSG(store.Init(&error), error.c_str());
  }
  static StreamConfig Config() {
    StreamConfig cfg;
    cfg.dims = 3;
    cfg.seed = 61;
    return cfg;
  }
  void Push(int count) {
    std::string error;
    for (int k = 0; k < count; ++k) {
      ref.push_back(gen.Next());
      ASSERT_TRUE(store.PushBack(ref.back(), &error)) << error;
    }
  }
  void Pop(int count) {
    std::string error;
    for (int k = 0; k < count; ++k) {
      UncertainElement out;
      ASSERT_TRUE(store.PopFront(&out, &error)) << error;
      ExpectElementsEqual(ref.front(), out);
      ref.pop_front();
    }
  }
  // Reads `count` elements through `cur`, which must yield ref[first...].
  void ExpectCursor(SegmentStore::Cursor* cur, size_t first, int count) {
    for (int k = 0; k < count; ++k) {
      UncertainElement out;
      ASSERT_TRUE(cur->Next(&out)) << "element " << first + k;
      ExpectElementsEqual(ref[first + static_cast<size_t>(k)], out);
    }
  }
  void ExpectAt(size_t i) { ExpectElementsEqual(ref[i], store.At(i)); }
  void ExpectSnapshot() {
    const std::vector<UncertainElement> snap = store.Snapshot();
    ASSERT_EQ(snap.size(), ref.size());
    for (size_t i = 0; i < snap.size(); ++i) {
      ExpectElementsEqual(ref[i], snap[i]);
    }
  }

  std::string dir;
  SegmentStore store;
  StreamGenerator gen;
  std::deque<UncertainElement> ref;
};

// The store holds three segment buffers whatever the window length: after
// a full At() sweep, a cursor pass and a drain, windows of 10 and 1,000
// segments both hold at most three segments in memory, every read is
// exact, and no segment file is left behind.
TEST(SegmentStoreTest, HoldsAtMostThreeSegmentsInMemory) {
  for (const int segments : {10, 1000}) {
    SCOPED_TRACE(segments);
    MirroredStore m("three_" + std::to_string(segments), 4);
    m.Push(4 * segments);
    for (size_t i = 0; i < m.ref.size(); ++i) m.ExpectAt(i);
    EXPECT_LE(m.store.stats().segments_resident, 3u);
    SegmentStore::Cursor cur = m.store.NewCursor();
    m.ExpectCursor(&cur, 0, 4 * segments);
    EXPECT_LE(m.store.stats().segments_resident, 3u);
    m.Pop(4 * segments);
    EXPECT_TRUE(m.store.empty());
    EXPECT_LE(m.store.stats().segments_resident, 3u);
    EXPECT_EQ(m.store.stats().segments_live, 1u);  // the rewound tail
    EXPECT_TRUE(fs::is_empty(m.dir));
  }
}

// Steady-state rotation drains front segments while filling tails: each
// drained segment's file is deleted by the pop that drains it, so over
// 40 segment drains the directory holds exactly the live segments that
// were written (all but the tail), and the contents stay exact.
TEST(SegmentStoreTest, DeletesDrainedSegments) {
  MirroredStore m("drain", 4);
  m.Push(12);  // 3 full segments
  for (int i = 0; i < 160; ++i) {
    m.Pop(1);
    m.Push(1);
    ASSERT_EQ(FileCount(m.dir), m.store.stats().segments_live - 1)
        << "rotation " << i;
  }
  EXPECT_EQ(m.store.stats().segments_created, 42u);
  EXPECT_LE(m.store.stats().segments_live, 4u);
  m.ExpectSnapshot();
}

// Reads find their element by absolute index in whichever buffer holds
// it. A cursor paused mid-segment must read its segment again, never
// through a buffer since refilled, when interleaved At() calls or a
// second cursor move the read buffer elsewhere.
TEST(SegmentStoreTest, PausedCursorRemapsAfterEviction) {
  MirroredStore m("stale_evict", 4);
  m.Push(40);  // 10 segments: head, 8 read through the read buffer, tail
  SegmentStore::Cursor cur = m.store.NewCursor();
  m.ExpectCursor(&cur, 0, 18);  // paused in the middle of segment 4
  for (size_t i = 24; i < 36; ++i) m.ExpectAt(i);  // segments 6..8
  m.ExpectCursor(&cur, 18, 4);  // back in segment 4, then on to 5
  SegmentStore::Cursor sweep = m.store.NewCursor();
  m.ExpectCursor(&sweep, 0, 40);
  m.ExpectCursor(&cur, 22, 18);
  UncertainElement out;
  EXPECT_FALSE(cur.Next(&out));
}

// A cursor paused mid-segment while PopFront drains that segment (its
// file deleted, the next segment read into the head buffer) resumes at
// the oldest survivor; a full drain rewinds the lone segment in place,
// after which At() and fresh cursors must see the new slot layout, not
// the old one.
TEST(SegmentStoreTest, PausedCursorSurvivesRecycleAndDrainRewind) {
  MirroredStore m("stale_recycle", 4);
  m.Push(16);
  SegmentStore::Cursor cur = m.store.NewCursor();
  m.ExpectCursor(&cur, 0, 2);  // paused mid head segment
  m.ExpectAt(1);
  m.Pop(5);   // drains the head segment under the cursor
  m.Push(6);  // writes the full tail and starts a new one
  m.ExpectCursor(&cur, 0, 11);  // survivors: original elements 5..15
  UncertainElement out;
  EXPECT_FALSE(cur.Next(&out));
  for (size_t i = 0; i < m.ref.size(); ++i) m.ExpectAt(i);

  MirroredStore one("stale_rewind", 8);
  one.Push(3);
  SegmentStore::Cursor before = one.store.NewCursor();
  one.ExpectCursor(&before, 0, 1);
  one.ExpectAt(2);  // At() resolves the lone segment
  one.Pop(3);       // fully drained: the segment rewinds in place
  EXPECT_FALSE(before.Next(&out));
  one.Push(5);  // slots 0..4 now hold absolute indices 3..7
  for (size_t i = 0; i < one.ref.size(); ++i) one.ExpectAt(i);
  SegmentStore::Cursor after = one.store.NewCursor();
  one.ExpectCursor(&after, 0, 5);
  EXPECT_FALSE(after.Next(&out));
}

// Sequential At(i) sweeps interleaved with PushBack calls that write a
// full tail: each sweep ends in the tail buffer, the push writes that
// tail to its file and starts a new one, and the next reads must read the
// old tail back from the file.
TEST(SegmentStoreTest, AtSweepSurvivesTailRemaps) {
  MirroredStore m("stale_tail", 4);
  m.Push(14);  // segments 0..3, the tail half full
  ASSERT_EQ(m.store.stats().segments_live, 4u);
  for (int round = 0; round < 8; ++round) {
    const size_t last = m.ref.size() - 1;
    for (size_t i = 0; i <= last; ++i) m.ExpectAt(i);
    m.Push(4);
    for (size_t i = last; i < m.ref.size(); ++i) m.ExpectAt(i);
    m.Pop(3);
  }
}

// The operator-visible contract: a stream driven through StoredCountWindow
// produces bit-identical skyline state to the same stream through
// CountWindow (the --window-store=disk acceptance check, in-process).
TEST(StoredCountWindowTest, OperatorStateMatchesInMemoryWindow) {
  const std::string dir = TempDir("bitequal");
  const int dims = 3;
  const size_t capacity = 64;
  StoredCountWindow stored(capacity, MakeOptions(dir, dims, 16));
  std::string error;
  ASSERT_TRUE(stored.Init(&error)) << error;
  CountWindow window(capacity);

  SskyOperator disk_op(dims, 0.3);
  SskyOperator mem_op(dims, 0.3);
  StreamConfig cfg;
  cfg.dims = dims;
  cfg.spatial = SpatialDistribution::kAntiCorrelated;
  cfg.seed = 31;
  StreamGenerator gen(cfg);

  for (int i = 0; i < 1500; ++i) {
    const UncertainElement e = gen.Take(1).front();
    if (stored.full()) {
      const UncertainElement disk_old = stored.PushRotate(e);
      const UncertainElement mem_old = window.PushRotate(e);
      ExpectElementsEqual(mem_old, disk_old);
      disk_op.Expire(disk_old);
      mem_op.Expire(mem_old);
    } else {
      stored.Push(e);
      window.Push(e);
    }
    disk_op.Insert(e);
    mem_op.Insert(e);
    ASSERT_EQ(disk_op.candidate_count(), mem_op.candidate_count())
        << "step " << i;
    ASSERT_EQ(disk_op.skyline_count(), mem_op.skyline_count())
        << "step " << i;
  }
  const auto disk_sky = disk_op.Skyline();
  const auto mem_sky = mem_op.Skyline();
  ASSERT_EQ(disk_sky.size(), mem_sky.size());
  for (size_t i = 0; i < disk_sky.size(); ++i) {
    EXPECT_EQ(disk_sky[i].element.seq, mem_sky[i].element.seq);
    EXPECT_EQ(disk_sky[i].psky, mem_sky[i].psky);  // bitwise
  }
  EXPECT_GT(stored.store_stats().segments_created, 0u);
  EXPECT_LE(stored.store_stats().segments_resident, 3u);
}

}  // namespace
}  // namespace psky
