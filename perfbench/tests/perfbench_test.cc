// The benchmark's own tests: its arithmetic (percentiles with sample
// counts, medians, histograms, failure tallies, result digests), the open
// loop's treatment of a stall, and the reference values' agreement with
// the naive operator at reduced scale.
//
//   python3 perfbench/run.py --self-test
//
// runs this binary and the Python tests beside it.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <thread>
#include <vector>

#include "core/naive_operator.h"
#include "core/ssky_operator.h"
#include "measure.h"
#include "open_loop.h"
#include "reference.h"

namespace {

using namespace perfbench;

int g_failures = 0;

#define EXPECT(cond)                                                   \
  do {                                                                 \
    if (!(cond)) {                                                     \
      std::fprintf(stderr, "%s:%d: EXPECT(%s) failed\n", __FILE__,     \
                   __LINE__, #cond);                                   \
      ++g_failures;                                                    \
    }                                                                  \
  } while (0)

std::vector<double> Range(int lo, int hi) {
  std::vector<double> v;
  for (int i = lo; i <= hi; ++i) v.push_back(i);
  return v;
}

void TestPercentilesWithSampleCounts() {
  const Summary hundred = Summarize(Range(1, 100));
  EXPECT(hundred.count == 100);
  EXPECT(hundred.p50 == 50.0);
  EXPECT(hundred.p99 == 99.0);

  std::vector<double> thousand = Range(1, 1000);
  std::reverse(thousand.begin(), thousand.end());  // order must not matter
  const Summary s = Summarize(thousand);
  EXPECT(s.count == 1000);
  EXPECT(s.p50 == 500.0);
  EXPECT(s.p99 == 990.0);

  const Summary one = Summarize({7.0});
  EXPECT(one.count == 1 && one.p50 == 7.0 && one.p99 == 7.0);
  EXPECT(Summarize({}).count == 0);

  // ingest_eps: nearest-rank p90 of per-period rates, in any order.
  std::vector<double> rates = Range(1, 20);
  std::reverse(rates.begin(), rates.end());
  EXPECT(Percentile(rates, 0.9) == 18.0);
  EXPECT(Percentile({5.0}, 0.9) == 5.0);
  EXPECT(Percentile({}, 0.9) == 0.0);

  EXPECT(Median({3.0, 1.0, 2.0}) == 2.0);
  EXPECT(Median({4.0, 1.0, 3.0, 2.0}) == 2.5);
  EXPECT(Median({}) == 0.0);
}

// Per-slice percentiles: the median slice is reported, so one disturbed
// slice does not set p99; the count stays the total.
void TestSliceSummary() {
  std::vector<double> samples;
  std::vector<int64_t> due;
  for (int slice = 0; slice < 3; ++slice) {
    for (int i = 1; i <= 100; ++i) {
      samples.push_back(slice == 1 ? 1000.0 * i : i);  // slice 1 disturbed
      due.push_back(slice * 10 + i % 10);
    }
  }
  const Summary s = SliceSummary(samples, due, 10);
  EXPECT(s.count == 300);
  EXPECT(s.p50 == 50.0);
  EXPECT(s.p99 == 99.0);
}

void TestLog2Histogram() {
  Log2Histogram h;
  for (int64_t ns : {0, 1, 3, 4, 1000, -5}) h.Add(ns);
  EXPECT(h.buckets[0] == 2);  // zero and the clamped negative
  EXPECT(h.buckets[1] == 1);
  EXPECT(h.buckets[2] == 1);
  EXPECT(h.buckets[3] == 1);
  EXPECT(h.buckets[10] == 1);
}

void TestFailedShareCounting() {
  Tally t;
  for (int i = 0; i < 197; ++i) EXPECT(t.Check(true, "element"));
  EXPECT(!t.Check(false, "WAL append"));
  t.Attempt(2);
  t.Fail("open loop: elements not applied", 2);
  // failed_share = failed / attempted = 3 / 200.
  EXPECT(t.attempted() == 200);
  EXPECT(t.failed() == 3);
  EXPECT(t.reasons().size() == 2);
}

void TestDigest() {
  EXPECT(SeqDigest({1, 2, 3}) == SeqDigest({3, 1, 2}));
  EXPECT(SeqDigest({1, 2, 3}) != SeqDigest({1, 2, 4}));
  EXPECT(SeqDigest({}) == 0);
  ResultCheck a{100, 5, 3, SeqDigest({1, 2, 3})};
  ResultCheck b = a;
  EXPECT(a == b);
  b.digest = SeqDigest({1, 2, 4});
  EXPECT(!(a == b));  // a digest mismatch is a failed check
}

// An injected 50 ms stall must raise the latency of every element due
// during it: latency runs from the due time, not from when the loop got
// round to the element (no coordinated omission).
void TestStallRaisesEveryElementDueDuringIt() {
  constexpr double kRate = 20000.0;
  constexpr uint64_t kOffered = 4000;
  constexpr uint64_t kStallAt = 1000;
  Schedule schedule(kRate);
  int64_t stall_begin = -1;
  int64_t stall_end = -1;
  const OpenLoopStats st = RunOpenLoop(
      &schedule, kOffered, 10.0, {},
      [&](uint64_t first, uint64_t count) {
        if (stall_begin < 0 && first + count > kStallAt) {
          stall_begin = schedule.NowNs();
          std::this_thread::sleep_for(std::chrono::milliseconds(50));
          stall_end = schedule.NowNs();
        }
        return true;
      },
      [] { return uint64_t{64}; });
  EXPECT(st.applied == kOffered);
  EXPECT(st.visible_us.size() == kOffered);
  uint64_t due_during = 0;
  for (uint64_t i = 0; i < st.visible_us.size(); ++i) {
    const int64_t due = schedule.DueNs(i);
    if (due >= stall_begin && due < stall_end) {
      ++due_during;
      EXPECT(st.visible_us[i] * 1e3 >=
             static_cast<double>(stall_end - due) - 1.0);
    }
  }
  EXPECT(due_during >= 900);  // ~50 ms at 20K elements/s
  EXPECT(st.backlog_max >= 900);
  EXPECT(Summarize(st.visible_us).p99 >= 25000.0);
}

// Deferred visibility (a shard engine between merges): an element counts
// as visible only once a later batch publishes.
void TestDeferredVisibility() {
  Schedule schedule(10000.0);
  uint64_t applied = 0;
  const OpenLoopStats st = RunOpenLoop(
      &schedule, 1000, 10.0, {},
      [&](uint64_t, uint64_t count) {
        applied += count;
        return applied % 100 == 0;
      },
      [&] { return 100 - applied % 100; });
  EXPECT(st.visible_us.size() == 1000);
  // The first element of each 100-element publish waits ~10 ms for it.
  EXPECT(st.visible_us[0] >= 9000.0);
  EXPECT(st.visible_us[99] < st.visible_us[0]);
}

// The open loop fills the caller's already resident buffer in place, so
// its latency samples do not show in peak_rss_mb.
void TestOpenLoopFillsCallerBuffer() {
  std::vector<double> buffer = TouchedBuffer<double>(500);
  EXPECT(buffer.empty() && buffer.capacity() >= 500);
  const double* data = buffer.data();
  Schedule schedule(100000.0);
  const OpenLoopStats st = RunOpenLoop(
      &schedule, 500, 10.0, std::move(buffer),
      [](uint64_t, uint64_t) { return true; }, [] { return uint64_t{64}; });
  EXPECT(st.visible_us.size() == 500);
  EXPECT(st.visible_us.data() == data);
}

// The reference values come from SSKY; at reduced scale they must equal
// the naive operator's on every stream.
void TestReferenceMatchesNaiveOperator() {
  constexpr size_t kWindow = 1500;
  const std::vector<uint64_t> positions = CheckPositions(kWindow, 512, 4);
  EXPECT(positions.size() == 5 && positions.front() == kWindow);
  for (psky::SpatialDistribution spatial :
       {psky::SpatialDistribution::kAntiCorrelated,
        psky::SpatialDistribution::kIndependent,
        psky::SpatialDistribution::kCorrelated}) {
    const auto pool = MakePool(spatial, 1, 4 * kWindow);
    psky::SskyOperator ssky(kDims, kQ);
    psky::NaiveSkylineOperator naive(kDims, kQ);
    const std::vector<ResultCheck> a =
        ReferenceChecks(pool, kWindow, positions, &ssky);
    const std::vector<ResultCheck> b =
        ReferenceChecks(pool, kWindow, positions, &naive);
    EXPECT(a.size() == positions.size());
    EXPECT(a == b);
    EXPECT(a.back().skyline > 0);
  }
}

// The final-window check relies on operator state being a function of the
// window contents: a fresh replay of the last N elements equals the
// streamed state, here well past a wrap of the repeating pool.
void TestReplayMatchesStreamedState() {
  constexpr size_t kWindow = 1000;
  const auto pool =
      MakePool(psky::SpatialDistribution::kAntiCorrelated, 3, 4 * kWindow);
  psky::SskyOperator op(kDims, kQ);
  psky::StreamProcessor proc(&op, kWindow);
  const uint64_t end = 5 * kWindow + 123;
  for (uint64_t pos = 0; pos < end; ++pos) proc.Step(StreamAt(pool, pos));
  EXPECT(ObserveOperator(op, end) == ReplayCheck(proc.window().Snapshot(), end));
}

}  // namespace

int main() {
  TestPercentilesWithSampleCounts();
  TestSliceSummary();
  TestLog2Histogram();
  TestFailedShareCounting();
  TestDigest();
  TestStallRaisesEveryElementDueDuringIt();
  TestDeferredVisibility();
  TestOpenLoopFillsCallerBuffer();
  TestReferenceMatchesNaiveOperator();
  TestReplayMatchesStreamedState();
  std::fprintf(stderr, "perfbench_tests: %d failure(s)\n", g_failures);
  return g_failures == 0 ? 0 : 1;
}
