// Segment store: FIFO equivalence against an in-memory deque across
// segment boundaries, file recycling, fault-injection sites, the startup
// sweep, and bit-equality of a StoredCountWindow-backed operator against
// the in-memory CountWindow pipeline.

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

// Steady-state rotation drains front segments while filling tails: the
// store must reuse drained files instead of growing the directory.
TEST(SegmentStoreTest, RecyclesDrainedSegments) {
  const std::string dir = TempDir("recycle");
  SegmentStore store(MakeOptions(dir, 2, 8));
  std::string error;
  ASSERT_TRUE(store.Init(&error)) << error;

  StreamConfig cfg;
  cfg.dims = 2;
  cfg.seed = 5;
  StreamGenerator gen(cfg);
  for (int i = 0; i < 24; ++i) {
    ASSERT_TRUE(store.PushBack(gen.Take(1).front(), &error)) << error;
  }
  for (int i = 0; i < 1000; ++i) {
    UncertainElement out;
    ASSERT_TRUE(store.PopFront(&out, &error)) << error;
    ASSERT_TRUE(store.PushBack(gen.Take(1).front(), &error)) << error;
  }
  const SegmentStore::Stats stats = store.stats();
  EXPECT_GT(stats.segments_recycled, 0u);
  // Live mappings stay bounded by the FIFO's footprint, not its history.
  EXPECT_LE(stats.segments_live, 5u);
  size_t files = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    (void)entry;
    ++files;
  }
  EXPECT_LE(files, 6u);  // live segments plus the free list
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

TEST(SegmentStoreTest, MapFaultSiteFailsPushBack) {
  const std::string dir = TempDir("mapfault");
  SegmentStore store(MakeOptions(dir, 2, 4));
  std::string error;
  ASSERT_TRUE(store.Init(&error)) << error;
  ASSERT_TRUE(fault::LoadSchedule("fail=segment-map@1:enospc", &error))
      << error;
  StreamConfig cfg;
  cfg.dims = 2;
  StreamGenerator gen(cfg);
  const UncertainElement e = gen.Take(1).front();
  EXPECT_FALSE(store.PushBack(e, &error));
  EXPECT_EQ(store.size(), 0u);
  // The next occurrence is clean: the push succeeds and the store works.
  EXPECT_TRUE(store.PushBack(e, &error)) << error;
  EXPECT_EQ(store.size(), 1u);
  fault::Clear();
}

TEST(SegmentStoreTest, RecycleFaultSiteFailsPopAndRetries) {
  const std::string dir = TempDir("recfault");
  SegmentStore store(MakeOptions(dir, 2, 2));
  std::string error;
  ASSERT_TRUE(store.Init(&error)) << error;
  StreamConfig cfg;
  cfg.dims = 2;
  StreamGenerator gen(cfg);
  std::vector<UncertainElement> pushed = gen.Take(4);
  for (const auto& e : pushed) {
    ASSERT_TRUE(store.PushBack(e, &error)) << error;
  }
  ASSERT_TRUE(fault::LoadSchedule("fail=segment-recycle@1", &error))
      << error;
  UncertainElement out;
  ASSERT_TRUE(store.PopFront(&out, &error)) << error;
  ExpectElementsEqual(pushed[0], out);
  // Draining the front segment hits the injected recycle failure; the
  // element stays queued and the next attempt succeeds.
  EXPECT_FALSE(store.PopFront(&out, &error));
  EXPECT_EQ(store.size(), 3u);
  ASSERT_TRUE(store.PopFront(&out, &error)) << error;
  ExpectElementsEqual(pushed[1], out);
  fault::Clear();
}

// One element per segment: every push maps a fresh tail and every pop
// lands exactly on a segment boundary — the degenerate geometry where
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
  EXPECT_GT(store.stats().segments_recycled, 0u);
}

// A pop that drains the front segment must recycle it on that exact pop
// (not one early, not one late), and draining the store completely must
// rewind the lone tail segment in place.
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
  UncertainElement out;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(store.PopFront(&out, &error)) << error;
    ExpectElementsEqual(pushed[static_cast<size_t>(i)], out);
    EXPECT_EQ(store.stats().segments_live, 2u) << "pop " << i;
  }
  // The 4th pop empties the front segment: it must recycle right here.
  ASSERT_TRUE(store.PopFront(&out, &error)) << error;
  ExpectElementsEqual(pushed[3], out);
  EXPECT_EQ(store.stats().segments_live, 1u);
  EXPECT_EQ(store.stats().segments_recycled, 0u);  // queued, reused later
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

// Steady-state rotation long enough for every segment file to be
// recycled several times over: contents must stay exact and the
// directory footprint bounded across >= 3 wrap-arounds of the free list.
TEST(SegmentStoreTest, RecyclesAcrossMultipleWrapArounds) {
  const std::string dir = TempDir("wrap");
  SegmentStore store(MakeOptions(dir, 2, 4));
  std::string error;
  ASSERT_TRUE(store.Init(&error)) << error;
  StreamConfig cfg;
  cfg.dims = 2;
  cfg.seed = 43;
  StreamGenerator gen(cfg);
  std::deque<UncertainElement> reference;
  for (int i = 0; i < 12; ++i) {  // 3 full segments
    const UncertainElement e = gen.Take(1).front();
    reference.push_back(e);
    ASSERT_TRUE(store.PushBack(e, &error)) << error;
  }
  // 160 rotations = 40 segment drains = each of the ~4 files recycled
  // ~10 times.
  for (int i = 0; i < 160; ++i) {
    UncertainElement out;
    ASSERT_TRUE(store.PopFront(&out, &error)) << error;
    ExpectElementsEqual(reference.front(), out);
    reference.pop_front();
    const UncertainElement e = gen.Take(1).front();
    reference.push_back(e);
    ASSERT_TRUE(store.PushBack(e, &error)) << error;
  }
  const SegmentStore::Stats stats = store.stats();
  EXPECT_GE(stats.segments_recycled, 30u);
  EXPECT_LE(stats.segments_live, 5u);
  size_t files = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    (void)entry;
    ++files;
  }
  EXPECT_LE(files, 6u);
  const std::vector<UncertainElement> snap = store.Snapshot();
  ASSERT_EQ(snap.size(), reference.size());
  for (size_t i = 0; i < snap.size(); ++i) {
    ExpectElementsEqual(reference[i], snap[i]);
  }
}

// A cursor opened before the head segment is drained keeps yielding the
// surviving elements in order: popped elements are skipped, elements
// pushed after creation are not yielded.
TEST(SegmentStoreTest, CursorSurvivesHeadRecycleMidIteration) {
  const std::string dir = TempDir("cursor");
  SegmentStore::Options opts = MakeOptions(dir, 3, 4);
  opts.resident_budget = 3;  // floor: cursor remaps evicted segments
  SegmentStore store(opts);
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

// Random access under a resident budget: the mapped-segment count stays
// within budget + 1 (the segment being read is protected while hot), and
// evicted segments fault back in with exact contents.
TEST(SegmentStoreTest, ResidentBudgetBoundsMappedSegments) {
  const std::string dir = TempDir("budget");
  SegmentStore::Options opts = MakeOptions(dir, 2, 4);
  opts.resident_budget = 4;
  SegmentStore store(opts);
  std::string error;
  ASSERT_TRUE(store.Init(&error)) << error;
  StreamConfig cfg;
  cfg.dims = 2;
  cfg.seed = 53;
  StreamGenerator gen(cfg);
  const std::vector<UncertainElement> pushed = gen.Take(64);  // 16 segments
  for (const auto& e : pushed) {
    ASSERT_TRUE(store.PushBack(e, &error)) << error;
  }
  EXPECT_LE(store.stats().segments_resident, 4u);
  Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    const size_t idx = static_cast<size_t>(rng.NextBounded(pushed.size()));
    ExpectElementsEqual(pushed[idx], store.At(idx));
    EXPECT_LE(store.stats().segments_resident, 5u) << "access " << i;
  }
  EXPECT_GT(store.stats().recycle_pressure, 0u);
  // Shrinking the budget evicts immediately, down to the pinned set.
  store.SetResidentBudget(3);
  EXPECT_LE(store.stats().segments_resident, 3u);
  // Unlimited budget: a full sweep maps everything and nothing evicts.
  store.SetResidentBudget(0);
  const uint64_t pressure_before = store.stats().recycle_pressure;
  const std::vector<UncertainElement> snap = store.Snapshot();
  ASSERT_EQ(snap.size(), pushed.size());
  for (size_t i = 0; i < snap.size(); ++i) {
    ExpectElementsEqual(pushed[i], snap[i]);
  }
  EXPECT_EQ(store.stats().segments_resident, store.stats().segments_live);
  EXPECT_EQ(store.stats().recycle_pressure, pressure_before);
}

// Steady-state FIFO rotation: the readahead cursor keeps the next expiry
// frontier mapped before PopFront reaches it, so front recycles are hits
// and residency stays at the steady-state minimum, independent of how
// many segments the window spans.
TEST(SegmentStoreTest, ReadaheadKeepsExpiryFrontierHot) {
  const std::string dir = TempDir("readahead");
  SegmentStore store(MakeOptions(dir, 2, 8));
  std::string error;
  ASSERT_TRUE(store.Init(&error)) << error;
  StreamConfig cfg;
  cfg.dims = 2;
  cfg.seed = 59;
  StreamGenerator gen(cfg);
  for (int i = 0; i < 80; ++i) {  // 10 segments
    ASSERT_TRUE(store.PushBack(gen.Take(1).front(), &error)) << error;
  }
  // Pure FIFO traffic never needs more than head + readahead + tail.
  for (int i = 0; i < 800; ++i) {
    UncertainElement out;
    ASSERT_TRUE(store.PopFront(&out, &error)) << error;
    ASSERT_TRUE(store.PushBack(gen.Take(1).front(), &error)) << error;
    ASSERT_LE(store.stats().segments_resident, 4u) << "rotation " << i;
  }
  const SegmentStore::Stats stats = store.stats();
  EXPECT_GT(stats.readahead_hits, 0u);
  // The frontier was prefetched by the preceding recycle every time.
  EXPECT_EQ(stats.readahead_misses, 0u);
  EXPECT_EQ(stats.recycle_pressure, 0u);
}

// A store mirrored by a std::deque: every push and pop goes to both, and
// every read is checked against the mirror.
struct MirroredStore {
  MirroredStore(const char* tag, size_t per_segment, size_t budget)
      : store(StoreOptions(tag, per_segment, budget)), gen(Config()) {
    std::string error;
    PSKY_CHECK_MSG(store.Init(&error), error.c_str());
  }
  static SegmentStore::Options StoreOptions(const char* tag,
                                            size_t per_segment,
                                            size_t budget) {
    SegmentStore::Options opts = MakeOptions(TempDir(tag), 3, per_segment);
    opts.resident_budget = budget;
    return opts;
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

  SegmentStore store;
  StreamGenerator gen;
  std::deque<UncertainElement> ref;
};

// Reads remember the segment they last resolved (mapped base, slot range,
// mapping epoch). A cursor paused mid-segment must re-resolve, never read
// through the old mapping, when its segment is evicted by interleaved At()
// calls under the floor budget of 3 or by a budget shrink.
TEST(SegmentStoreTest, PausedCursorRemapsAfterEviction) {
  MirroredStore m("stale_evict", 4, 3);
  m.Push(40);  // 10 segments; head, readahead frontier, and tail pinned
  SegmentStore::Cursor cur = m.store.NewCursor();
  m.ExpectCursor(&cur, 0, 18);  // paused in the middle of segment 4
  const uint64_t pressure = m.store.stats().recycle_pressure;
  for (size_t i = 24; i < 36; ++i) m.ExpectAt(i);  // segments 6..8
  EXPECT_GT(m.store.stats().recycle_pressure, pressure);
  m.ExpectCursor(&cur, 18, 10);  // back in segment 4, then on to 6

  MirroredStore wide("stale_shrink", 4, 0);
  wide.Push(40);
  SegmentStore::Cursor paused = wide.store.NewCursor();
  wide.ExpectCursor(&paused, 0, 22);  // mid segment 5
  for (size_t i = 0; i < 40; ++i) wide.ExpectAt(i);  // everything mapped
  wide.store.SetResidentBudget(3);
  EXPECT_LE(wide.store.stats().segments_resident, 3u);
  wide.ExpectCursor(&paused, 22, 18);
  UncertainElement out;
  EXPECT_FALSE(paused.Next(&out));
}

// A cursor paused mid-segment while PopFront drains and recycles that
// segment (its file then reused as a new tail) resumes at the oldest
// survivor; a full drain rewinds the lone segment in place, after which
// At() and fresh cursors must see the new slot layout, not the old one.
TEST(SegmentStoreTest, PausedCursorSurvivesRecycleAndDrainRewind) {
  MirroredStore m("stale_recycle", 4, 3);
  m.Push(16);
  SegmentStore::Cursor cur = m.store.NewCursor();
  m.ExpectCursor(&cur, 0, 2);  // paused mid head segment
  m.ExpectAt(1);
  m.Pop(5);   // recycles the head segment under the cursor
  m.Push(6);  // reuses the recycled file as the new tail
  m.ExpectCursor(&cur, 0, 11);  // survivors: original elements 5..15
  UncertainElement out;
  EXPECT_FALSE(cur.Next(&out));
  for (size_t i = 0; i < m.ref.size(); ++i) m.ExpectAt(i);

  MirroredStore one("stale_rewind", 8, 3);
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

// Sequential At(i) sweeps interleaved with PushBack calls that map a new
// tail: each sweep ends resolved on the tail, the push unmaps that old
// tail behind the new one, and the next reads must remap it.
TEST(SegmentStoreTest, AtSweepSurvivesTailRemaps) {
  MirroredStore m("stale_tail", 4, 3);
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
  EXPECT_GT(stored.store_stats().segments_recycled, 0u);
}

}  // namespace
}  // namespace psky
