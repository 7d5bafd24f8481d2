// Tests for the annotated synchronization primitives (base/sync.h): the
// Mutex/MutexLock/CondVar wrappers and the runtime lock-rank checker.
//
// The rank checker's violation path is exercised directly: a test-scoped
// violation handler replaces the PSKY_CHECK failure so a deliberate rank
// inversion records its diagnostic instead of aborting the binary.

#include "base/sync.h"

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"

namespace psky {
namespace {

// The violation handler is a plain function pointer, so captured state
// lives in globals; each test clears them in the fixture.
std::string* g_last_violation = nullptr;
std::atomic<int> g_violation_count{0};

void RecordViolation(const char* message) {
  if (g_last_violation != nullptr) *g_last_violation = message;
  g_violation_count.fetch_add(1, std::memory_order_relaxed);
}

// Arms the checker and installs the recording handler for one test,
// restoring both on the way out so release-build neighbours are
// unaffected.
class LockRankTest : public ::testing::Test {
 protected:
  void SetUp() override {
    g_last_violation = &last_message_;
    g_violation_count.store(0, std::memory_order_relaxed);
    was_armed_ = lockrank::SetArmed(true);
    prev_handler_ = lockrank::SetViolationHandlerForTest(&RecordViolation);
  }

  void TearDown() override {
    lockrank::SetViolationHandlerForTest(prev_handler_);
    lockrank::SetArmed(was_armed_);
    g_last_violation = nullptr;
  }

  int ViolationCount() const {
    return g_violation_count.load(std::memory_order_relaxed);
  }

  std::string last_message_;
  bool was_armed_ = false;
  lockrank::ViolationHandler prev_handler_ = nullptr;
};

TEST_F(LockRankTest, IncreasingRankOrderIsClean) {
  Mutex low{"low", lockrank::kIngestQueue};
  Mutex mid{"mid", lockrank::kWalAsync};
  Mutex high{"high", lockrank::kLeaf};
  {
    MutexLock l1(low);
    MutexLock l2(mid);
    MutexLock l3(high);
    int ranks[8];
    const int n = lockrank::HeldRanks(ranks, 8);
    ASSERT_EQ(n, 3);
    EXPECT_EQ(ranks[0], lockrank::kIngestQueue);
    EXPECT_EQ(ranks[1], lockrank::kWalAsync);
    EXPECT_EQ(ranks[2], lockrank::kLeaf);
  }
  EXPECT_EQ(ViolationCount(), 0);
  int ranks[8];
  EXPECT_EQ(lockrank::HeldRanks(ranks, 8), 0);
}

TEST_F(LockRankTest, RankInversionFiresWithBothNames) {
  Mutex outer{"outer-leaf", lockrank::kLeaf};
  Mutex inner{"inner-watchdog", lockrank::kWatchdog};
  {
    MutexLock l1(outer);
    MutexLock l2(inner);  // kWatchdog < kLeaf: out of order
  }
  EXPECT_EQ(ViolationCount(), 1);
  EXPECT_NE(last_message_.find("inner-watchdog"), std::string::npos)
      << last_message_;
  EXPECT_NE(last_message_.find("outer-leaf"), std::string::npos)
      << last_message_;
}

TEST_F(LockRankTest, EqualRankAlsoViolates) {
  // Two same-rank locks can deadlock against each other, so equal rank
  // counts as an inversion too.
  Mutex a{"leaf-a", lockrank::kLeaf};
  Mutex b{"leaf-b", lockrank::kLeaf};
  {
    MutexLock l1(a);
    MutexLock l2(b);
  }
  EXPECT_EQ(ViolationCount(), 1);
}

TEST_F(LockRankTest, TryLockNeverRankChecks) {
  // try_lock cannot block, so lockdep's rule exempts it from ordering.
  Mutex outer{"outer", lockrank::kLeaf};
  Mutex inner{"inner", lockrank::kWatchdog};
  MutexLock l1(outer);
  ASSERT_TRUE(inner.TryLock());
  int ranks[8];
  EXPECT_EQ(lockrank::HeldRanks(ranks, 8), 2);
  inner.Unlock();
  EXPECT_EQ(ViolationCount(), 0);
}

TEST_F(LockRankTest, DisarmedCheckerIsSilent) {
  lockrank::SetArmed(false);
  Mutex outer{"outer", lockrank::kLeaf};
  Mutex inner{"inner", lockrank::kWatchdog};
  {
    MutexLock l1(outer);
    MutexLock l2(inner);
  }
  EXPECT_EQ(ViolationCount(), 0);
}

TEST_F(LockRankTest, HeldStackIsPerThread) {
  Mutex mine{"mine", lockrank::kLeaf};
  MutexLock lock(mine);
  std::thread other([&] {
    // The spawned thread holds nothing, so a low-rank acquisition there
    // is clean even while this thread holds a leaf lock.
    Mutex theirs{"theirs", lockrank::kIngestQueue};
    MutexLock l(theirs);
    int ranks[8];
    EXPECT_EQ(lockrank::HeldRanks(ranks, 8), 1);
  });
  other.join();
  EXPECT_EQ(ViolationCount(), 0);
}

TEST(MutexTest, ProvidesMutualExclusion) {
  Mutex mu{"counter", lockrank::kLeaf};
  int counter = 0;
  std::vector<std::thread> threads;
  constexpr int kThreads = 4;
  constexpr int kIncrements = 2000;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIncrements; ++i) {
        MutexLock lock(mu);
        ++counter;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter, kThreads * kIncrements);
}

TEST(MutexTest, TryLockFailsWhileHeldElsewhere) {
  Mutex mu{"contended", lockrank::kLeaf};
  mu.Lock();
  std::atomic<bool> failed{false};
  std::thread other([&] { failed.store(!mu.TryLock()); });
  other.join();
  EXPECT_TRUE(failed.load());
  mu.Unlock();
  ASSERT_TRUE(mu.TryLock());
  mu.Unlock();
}

TEST(MutexLockTest, ReleaseUnlocksEarlyAndDtorIsInert) {
  Mutex mu{"early", lockrank::kLeaf};
  {
    MutexLock lock(mu);
    lock.Release();
    // Provably unlocked: another thread can take it before the dtor runs.
    std::atomic<bool> acquired{false};
    std::thread other([&] {
      MutexLock inner(mu);
      acquired.store(true);
    });
    other.join();
    EXPECT_TRUE(acquired.load());
  }
  ASSERT_TRUE(mu.TryLock());
  mu.Unlock();
}

TEST(CondVarTest, PredicateWaitSeesNotifiedState) {
  Mutex mu{"cv", lockrank::kLeaf};
  CondVar cv;
  bool ready = false;
  std::thread producer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    MutexLock lock(mu);
    ready = true;
    lock.Release();
    cv.NotifyOne();
  });
  {
    MutexLock lock(mu);
    cv.Wait(mu, [&] {
      mu.AssertHeld();
      return ready;
    });
    EXPECT_TRUE(ready);
  }
  producer.join();
}

TEST(CondVarTest, WaitForTimesOutWithFalsePredicate) {
  Mutex mu{"cv-timeout", lockrank::kLeaf};
  CondVar cv;
  MutexLock lock(mu);
  const bool satisfied =
      cv.WaitFor(mu, std::chrono::milliseconds(10), [&] {
        mu.AssertHeld();
        return false;
      });
  EXPECT_FALSE(satisfied);
}

TEST(CondVarTest, NotifyAllWakesEveryWaiter) {
  Mutex mu{"cv-broadcast", lockrank::kLeaf};
  CondVar cv;
  bool go = false;
  int awake = 0;
  std::vector<std::thread> waiters;
  constexpr int kWaiters = 3;
  waiters.reserve(kWaiters);
  for (int i = 0; i < kWaiters; ++i) {
    waiters.emplace_back([&] {
      MutexLock lock(mu);
      cv.Wait(mu, [&] {
        mu.AssertHeld();
        return go;
      });
      ++awake;
    });
  }
  {
    MutexLock lock(mu);
    go = true;
    lock.Release();
    cv.NotifyAll();
  }
  for (auto& t : waiters) t.join();
  MutexLock lock(mu);
  EXPECT_EQ(awake, kWaiters);
}

}  // namespace
}  // namespace psky
