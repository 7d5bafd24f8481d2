// Overload machinery: the bounded ingest queue and its shed policies (with
// exact accounting), the hysteresis degradation ladder, the stall watchdog,
// and cooperative cancellation / deadlines on the ad-hoc query paths.

#include <atomic>
#include <chrono>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "base/cancel.h"
#include "core/overload.h"
#include "core/sky_tree.h"
#include "core/ssky_operator.h"
#include "test_util.h"

namespace psky {
namespace {

IngestItem Item(uint64_t seq, double prob = 0.5) {
  IngestItem item;
  item.element = MakeElement({1.0, 2.0}, prob, seq);
  item.next_seq_after = seq + 1;
  return item;
}

// Exact accounting invariant: everything enqueued is either delivered,
// shed under a named policy, or still queued.
void ExpectExactAccounting(const BoundedIngestQueue& queue) {
  const QueueStats s = queue.StatsSnapshot();
  EXPECT_EQ(s.enqueued,
            s.dequeued + s.shed_oldest + s.shed_low_prob + queue.depth());
}

TEST(BoundedIngestQueueTest, FifoOrderAndCounters) {
  BoundedIngestQueue queue(8, OverloadPolicy::kBlock);
  for (uint64_t i = 0; i < 5; ++i) ASSERT_TRUE(queue.Push(Item(i)));
  std::vector<IngestItem> out;
  EXPECT_EQ(queue.PopBatch(&out, 3, 0), 3u);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].element.seq, 0u);
  EXPECT_EQ(out[2].element.seq, 2u);
  EXPECT_EQ(queue.PopBatch(&out, 10, 0), 2u);
  const QueueStats s = queue.StatsSnapshot();
  EXPECT_EQ(s.enqueued, 5u);
  EXPECT_EQ(s.dequeued, 5u);
  EXPECT_EQ(s.peak_depth, 5u);
  ExpectExactAccounting(queue);
}

TEST(BoundedIngestQueueTest, BlockPolicyWaitsForSpaceAndCountsBlocks) {
  BoundedIngestQueue queue(2, OverloadPolicy::kBlock);
  ASSERT_TRUE(queue.Push(Item(0)));
  ASSERT_TRUE(queue.Push(Item(1)));
  std::atomic<bool> pushed{false};
  std::thread producer([&] {
    EXPECT_TRUE(queue.Push(Item(2)));  // must wait: queue is full
    pushed.store(true);
  });
  // Give the producer time to actually block before making space.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(pushed.load());
  std::vector<IngestItem> out;
  EXPECT_EQ(queue.PopBatch(&out, 1, 0), 1u);
  producer.join();
  EXPECT_TRUE(pushed.load());
  const QueueStats s = queue.StatsSnapshot();
  EXPECT_EQ(s.enqueued, 3u);
  EXPECT_GE(s.producer_blocks, 1u);
  EXPECT_EQ(s.shed_oldest + s.shed_low_prob + s.shed_incoming, 0u);
  ExpectExactAccounting(queue);
}

TEST(BoundedIngestQueueTest, RequestStopUnblocksPendingPush) {
  BoundedIngestQueue queue(1, OverloadPolicy::kBlock);
  ASSERT_TRUE(queue.Push(Item(0)));
  std::atomic<bool> returned{false};
  std::thread producer([&] {
    EXPECT_FALSE(queue.Push(Item(1)));  // refused after stop
    returned.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(returned.load());
  queue.RequestStop();
  producer.join();
  EXPECT_TRUE(returned.load());
  EXPECT_EQ(queue.StatsSnapshot().dropped_on_stop, 1u);
  // Queued items remain drainable after a stop.
  std::vector<IngestItem> out;
  EXPECT_EQ(queue.PopBatch(&out, 10, 0), 1u);
  EXPECT_TRUE(queue.drained());
}

TEST(BoundedIngestQueueTest, ShedOldestDropsFrontOfQueue) {
  BoundedIngestQueue queue(3, OverloadPolicy::kShedOldest);
  for (uint64_t i = 0; i < 5; ++i) ASSERT_TRUE(queue.Push(Item(i)));
  std::vector<IngestItem> out;
  EXPECT_EQ(queue.PopBatch(&out, 10, 0), 3u);
  // Elements 0 and 1 were shed to admit 3 and 4.
  EXPECT_EQ(out[0].element.seq, 2u);
  EXPECT_EQ(out[2].element.seq, 4u);
  const QueueStats s = queue.StatsSnapshot();
  EXPECT_EQ(s.shed_oldest, 2u);
  EXPECT_EQ(s.enqueued, 5u);
  ExpectExactAccounting(queue);
}

TEST(BoundedIngestQueueTest, ShedLowProbEvictsLowestProbabilityElement) {
  BoundedIngestQueue queue(3, OverloadPolicy::kShedLowProb);
  ASSERT_TRUE(queue.Push(Item(0, 0.9)));
  ASSERT_TRUE(queue.Push(Item(1, 0.1)));  // lowest in queue
  ASSERT_TRUE(queue.Push(Item(2, 0.5)));
  // Incoming 0.7 > min 0.1: evict seq 1, admit seq 3.
  ASSERT_TRUE(queue.Push(Item(3, 0.7)));
  std::vector<IngestItem> out;
  EXPECT_EQ(queue.PopBatch(&out, 10, 0), 3u);
  std::vector<uint64_t> seqs;
  for (const auto& item : out) seqs.push_back(item.element.seq);
  EXPECT_EQ(seqs, (std::vector<uint64_t>{0, 2, 3}));
  const QueueStats s = queue.StatsSnapshot();
  EXPECT_EQ(s.shed_low_prob, 1u);
  EXPECT_EQ(s.shed_incoming, 0u);
  ExpectExactAccounting(queue);
}

TEST(BoundedIngestQueueTest, ShedLowProbRejectsIncomingWhenItIsTheLowest) {
  BoundedIngestQueue queue(2, OverloadPolicy::kShedLowProb);
  ASSERT_TRUE(queue.Push(Item(0, 0.8)));
  ASSERT_TRUE(queue.Push(Item(1, 0.6)));
  // Incoming 0.05 <= everything queued: it is itself the cheapest shed.
  ASSERT_TRUE(queue.Push(Item(2, 0.05)));
  const QueueStats s = queue.StatsSnapshot();
  EXPECT_EQ(s.shed_incoming, 1u);
  EXPECT_EQ(s.shed_low_prob, 0u);
  EXPECT_EQ(s.enqueued, 2u);
  std::vector<IngestItem> out;
  EXPECT_EQ(queue.PopBatch(&out, 10, 0), 2u);
  EXPECT_EQ(out[0].element.seq, 0u);
  EXPECT_EQ(out[1].element.seq, 1u);
}

TEST(BoundedIngestQueueTest, CloseProducerDrainsThenReportsDone) {
  BoundedIngestQueue queue(4, OverloadPolicy::kBlock);
  ASSERT_TRUE(queue.Push(Item(0)));
  queue.CloseProducer();
  EXPECT_FALSE(queue.drained());  // one item still queued
  std::vector<IngestItem> out;
  EXPECT_EQ(queue.PopBatch(&out, 10, 0), 1u);
  EXPECT_TRUE(queue.drained());
  EXPECT_EQ(queue.PopBatch(&out, 10, 0), 0u);
  // Pushing after close is refused and accounted.
  EXPECT_FALSE(queue.Push(Item(1)));
  EXPECT_EQ(queue.StatsSnapshot().dropped_on_stop, 1u);
}

TEST(BoundedIngestQueueTest, PopBatchTimesOutOnEmptyQueue) {
  BoundedIngestQueue queue(4, OverloadPolicy::kBlock);
  std::vector<IngestItem> out;
  const auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(queue.PopBatch(&out, 10, 30), 0u);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_GE(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            25);
  EXPECT_FALSE(queue.drained());  // producer still open: just a timeout
}

TEST(BoundedIngestQueueTest, ConcurrentProducerConsumerLosesNothing) {
  BoundedIngestQueue queue(16, OverloadPolicy::kBlock);
  constexpr uint64_t kCount = 20000;
  std::thread producer([&] {
    for (uint64_t i = 0; i < kCount; ++i) ASSERT_TRUE(queue.Push(Item(i)));
    queue.CloseProducer();
  });
  std::vector<IngestItem> out;
  uint64_t next_expected = 0;
  for (;;) {
    const size_t n = queue.PopBatch(&out, 64, 50);
    if (n == 0) {
      if (queue.drained()) break;
      continue;
    }
    for (const auto& item : out) {
      ASSERT_EQ(item.element.seq, next_expected);  // FIFO, no loss
      ++next_expected;
    }
  }
  producer.join();
  EXPECT_EQ(next_expected, kCount);
  const QueueStats s = queue.StatsSnapshot();
  EXPECT_EQ(s.enqueued, kCount);
  EXPECT_EQ(s.dequeued, kCount);
  ExpectExactAccounting(queue);
}

// --- degradation ladder --------------------------------------------------

DegradationLadder::Options FastLadder() {
  DegradationLadder::Options o;
  o.engage_hold = 2;
  o.release_hold = 3;
  return o;
}

TEST(DegradationLadderTest, StaysAtZeroUnderLightPressure) {
  DegradationLadder ladder(FastLadder());
  for (int i = 0; i < 100; ++i) EXPECT_EQ(ladder.Observe(0.2), 0);
  const auto e = ladder.effects();
  EXPECT_EQ(e.batch_multiplier, 1u);
  EXPECT_FALSE(e.suspend_oracle);
  EXPECT_EQ(e.audit_stretch, 1u);
  EXPECT_EQ(e.checkpoint_stretch, 1u);
}

TEST(DegradationLadderTest, EscalatesOneRungPerHoldPeriod) {
  DegradationLadder ladder(FastLadder());
  EXPECT_EQ(ladder.Observe(0.95), 0);  // streak 1 of 2
  EXPECT_EQ(ladder.Observe(0.95), 1);  // engage_hold reached
  EXPECT_EQ(ladder.Observe(0.95), 1);  // streak resets after a move
  EXPECT_EQ(ladder.Observe(0.95), 2);
  EXPECT_EQ(ladder.Observe(0.95), 2);
  EXPECT_EQ(ladder.Observe(0.95), 3);
  EXPECT_EQ(ladder.Observe(0.95), 3);
  EXPECT_EQ(ladder.Observe(0.95), 4);
  // Capped at max_rung.
  for (int i = 0; i < 10; ++i) EXPECT_EQ(ladder.Observe(0.95), 4);
  EXPECT_EQ(ladder.stats().escalations, 4u);
  EXPECT_EQ(ladder.stats().peak_rung, 4);
}

TEST(DegradationLadderTest, DeadBandHoldsTheRung) {
  DegradationLadder ladder(FastLadder());
  ladder.Observe(0.95);
  ASSERT_EQ(ladder.Observe(0.95), 1);
  // Pressure between release (0.30) and engage (0.85): no movement, and
  // the dead band also resets both streaks.
  for (int i = 0; i < 50; ++i) EXPECT_EQ(ladder.Observe(0.5), 1);
  EXPECT_EQ(ladder.stats().escalations, 1u);
  EXPECT_EQ(ladder.stats().recoveries, 0u);
}

TEST(DegradationLadderTest, RecoversAfterReleaseHold) {
  DegradationLadder ladder(FastLadder());
  ladder.Observe(0.95);
  ladder.Observe(0.95);
  ladder.Observe(0.95);
  ASSERT_EQ(ladder.Observe(0.95), 2);
  EXPECT_EQ(ladder.Observe(0.1), 2);
  EXPECT_EQ(ladder.Observe(0.1), 2);
  EXPECT_EQ(ladder.Observe(0.1), 1);  // release_hold=3 reached
  EXPECT_EQ(ladder.Observe(0.1), 1);
  EXPECT_EQ(ladder.Observe(0.1), 1);
  EXPECT_EQ(ladder.Observe(0.1), 0);
  EXPECT_EQ(ladder.stats().recoveries, 2u);
  EXPECT_EQ(ladder.stats().rung, 0);
  EXPECT_EQ(ladder.stats().peak_rung, 2);
}

TEST(DegradationLadderTest, EffectsAreCumulativePerRung) {
  DegradationLadder::Options o = FastLadder();
  o.engage_hold = 1;
  DegradationLadder ladder(o);
  ladder.Observe(0.95);  // rung 1
  auto e = ladder.effects();
  EXPECT_EQ(e.batch_multiplier, o.batch_multiplier);
  EXPECT_FALSE(e.suspend_oracle);
  ladder.Observe(0.95);  // rung 2
  e = ladder.effects();
  EXPECT_EQ(e.batch_multiplier, o.batch_multiplier);
  EXPECT_TRUE(e.suspend_oracle);
  EXPECT_EQ(e.audit_stretch, 1u);
  ladder.Observe(0.95);  // rung 3
  e = ladder.effects();
  EXPECT_TRUE(e.suspend_oracle);
  EXPECT_EQ(e.audit_stretch, o.audit_stretch);
  EXPECT_EQ(e.checkpoint_stretch, 1u);
  ladder.Observe(0.95);  // rung 4
  e = ladder.effects();
  EXPECT_EQ(e.audit_stretch, o.audit_stretch);
  EXPECT_EQ(e.checkpoint_stretch, o.checkpoint_stretch);
}

TEST(DegradationLadderTest, ListenerSeesEveryTransition) {
  DegradationLadder::Options o = FastLadder();
  o.engage_hold = 1;
  o.release_hold = 1;
  std::vector<std::pair<int, int>> transitions;
  DegradationLadder ladder(o, [&](int from, int to, double /*pressure*/) {
    transitions.emplace_back(from, to);
  });
  ladder.Observe(0.95);
  ladder.Observe(0.95);
  ladder.Observe(0.1);
  ASSERT_EQ(transitions.size(), 3u);
  EXPECT_EQ(transitions[0], std::make_pair(0, 1));
  EXPECT_EQ(transitions[1], std::make_pair(1, 2));
  EXPECT_EQ(transitions[2], std::make_pair(2, 1));
}

// --- watchdog ------------------------------------------------------------

struct AlarmLog {
  std::mutex mu;
  std::vector<std::string> alarms;
  void Add(const std::string& what) {
    std::lock_guard<std::mutex> lock(mu);
    alarms.push_back(what);
  }
  size_t count() {
    std::lock_guard<std::mutex> lock(mu);
    return alarms.size();
  }
};

Watchdog::Options FastWatchdog() {
  Watchdog::Options o;
  o.poll_ms = 10;
  o.stall_ms = 60;
  return o;
}

TEST(WatchdogTest, AlarmsOnceOnStepStallWhileBusy) {
  AlarmLog log;
  Watchdog dog(FastWatchdog(), [&](const std::string& w) { log.Add(w); });
  dog.Start();
  dog.SetBusy(true);
  dog.OnStep(1);
  // Stall: busy with no further steps. Edge-triggered → exactly one alarm
  // even though many polls elapse.
  std::this_thread::sleep_for(std::chrono::milliseconds(250));
  dog.Stop();
  EXPECT_EQ(log.count(), 1u);
  const Watchdog::Stats s = dog.StatsSnapshot();
  EXPECT_EQ(s.step_stalls, 1u);
  EXPECT_GE(s.max_step_gap_ms, 60u);
}

TEST(WatchdogTest, NoAlarmWhileIdleOrProgressing) {
  AlarmLog log;
  Watchdog dog(FastWatchdog(), [&](const std::string& w) { log.Add(w); });
  dog.Start();
  // Idle (busy=false): a starved consumer is not a stalled one.
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  // Busy but making steady progress.
  dog.SetBusy(true);
  for (uint64_t step = 1; step <= 10; ++step) {
    dog.OnStep(step);
    std::this_thread::sleep_for(std::chrono::milliseconds(15));
  }
  dog.Stop();
  EXPECT_EQ(log.count(), 0u);
  EXPECT_EQ(dog.StatsSnapshot().step_stalls, 0u);
}

TEST(WatchdogTest, ReArmsAfterStallClears) {
  AlarmLog log;
  Watchdog dog(FastWatchdog(), [&](const std::string& w) { log.Add(w); });
  dog.Start();
  dog.SetBusy(true);
  dog.OnStep(1);
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  EXPECT_EQ(log.count(), 1u);
  dog.OnStep(2);  // progress clears the excursion
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  std::this_thread::sleep_for(std::chrono::milliseconds(150));  // stall again
  dog.Stop();
  EXPECT_EQ(log.count(), 2u);
  EXPECT_EQ(dog.StatsSnapshot().step_stalls, 2u);
}

// Regression: two threads calling Stop() concurrently used to race to
// join the same std::thread (UB); the loser could also return while the
// poller was still running. Every Stop() caller must return only once
// the poll thread is fully joined, and the watchdog must be restartable
// afterwards.
TEST(WatchdogTest, ConcurrentStopJoinsExactlyOnceAndStaysRestartable) {
  AlarmLog log;
  Watchdog dog(FastWatchdog(), [&](const std::string& w) { log.Add(w); });
  for (int round = 0; round < 10; ++round) {
    dog.Start();
    dog.Start();  // second Start while running is a no-op
    std::vector<std::thread> stoppers;
    for (int t = 0; t < 4; ++t) {
      stoppers.emplace_back([&dog] { dog.Stop(); });
    }
    for (auto& t : stoppers) t.join();
    // After every Stop() returned the poller is gone; a fresh Start()
    // in the next round must spawn a new one (restartability).
  }
  dog.Stop();  // stop-when-idle is a no-op
  EXPECT_EQ(log.count(), 0u);
}

// --- cooperative cancellation on query paths -----------------------------

class CancellableQueryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // A few hundred incomparable candidates so traversals have real work.
    for (uint64_t i = 0; i < 400; ++i) {
      const double x = 1.0 + 0.001 * static_cast<double>(i);
      const double y = 1.0 + 0.001 * static_cast<double>(400 - i);
      op_.Insert(MakeElement({x, y}, 0.9, i));
    }
  }
  SskyOperator op_{2, 0.3};
};

TEST_F(CancellableQueryTest, UnboundedControlMatchesPlainQueries) {
  const QueryControl ctl = QueryControl::Unbounded();
  std::vector<SkylineMember> members;
  EXPECT_TRUE(op_.tree().CollectAtLeast(0.3, ctl, &members));
  EXPECT_EQ(SeqsOf(members), SeqsOf(op_.tree().CollectAtLeast(0.3)));
  size_t count = 0;
  EXPECT_TRUE(op_.tree().CountAtLeast(0.3, ctl, &count));
  EXPECT_EQ(count, op_.tree().CountAtLeast(0.3));
  std::vector<SkylineMember> top;
  EXPECT_TRUE(op_.tree().TopK(10, ctl, &top));
  EXPECT_EQ(SeqsOf(top), SeqsOf(op_.tree().TopK(10)));
}

TEST_F(CancellableQueryTest, PreCancelledTokenStopsImmediately) {
  CancelToken token;
  token.Cancel();
  QueryControl ctl;
  ctl.cancel = &token;
  std::vector<SkylineMember> members;
  EXPECT_FALSE(op_.tree().CollectAtLeast(0.3, ctl, &members));
  size_t count = 0;
  EXPECT_FALSE(op_.tree().CountAtLeast(0.3, ctl, &count));
  std::vector<SkylineMember> top;
  EXPECT_FALSE(op_.tree().TopK(10, ctl, &top));
}

TEST_F(CancellableQueryTest, ExpiredDeadlineCutsTraversalShort) {
  QueryControl ctl = QueryControl::WithDeadline(std::chrono::milliseconds(0));
  ctl.check_stride = 1;  // read the clock every tick: deterministic cutoff
  std::vector<SkylineMember> members;
  EXPECT_FALSE(op_.tree().CollectAtLeast(0.3, ctl, &members));
  // Partial results are well-formed: every member genuinely qualifies.
  for (const auto& m : members) EXPECT_GE(m.psky, 0.3);
}

TEST_F(CancellableQueryTest, PartialTopKIsExactPrefix) {
  QueryControl ctl = QueryControl::WithDeadline(std::chrono::milliseconds(0));
  ctl.check_stride = 1;
  std::vector<SkylineMember> partial;
  EXPECT_FALSE(op_.tree().TopK(50, ctl, &partial));
  const std::vector<SkylineMember> full = op_.tree().TopK(50);
  ASSERT_LE(partial.size(), full.size());
  for (size_t i = 0; i < partial.size(); ++i) {
    EXPECT_EQ(partial[i].element.seq, full[i].element.seq);
  }
}

}  // namespace
}  // namespace psky
