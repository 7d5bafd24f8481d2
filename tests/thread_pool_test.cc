// Tests for the worker pool (base/thread_pool.h) and its two consumers:
// the MSKY operator's parallel threshold fan-out (results must be
// identical to the sequential loop) and the auditor's asynchronous
// shadow-oracle replay (must catch the same corruptions the synchronous
// oracle catches, and stay silent on honest streams).

#include "base/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "core/audit.h"
#include "core/msky_operator.h"
#include "core/operator.h"
#include "core/ssky_operator.h"
#include "stream/generator.h"
#include "stream/window.h"

namespace psky {
namespace {

TEST(ThreadPool, RunsSubmittedWork) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&count] { count.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, AsyncReturnsValues) {
  ThreadPool pool(2);
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 32; ++i) {
    futures.push_back(pool.Async([i] { return i * i; }));
  }
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(futures[static_cast<size_t>(i)].get(), i * i);
  }
}

TEST(ThreadPool, ShutdownIsIdempotentAndDrains) {
  ThreadPool pool(3);
  std::atomic<int> count{0};
  for (int i = 0; i < 50; ++i) pool.Submit([&count] { count.fetch_add(1); });
  pool.Shutdown();
  pool.Shutdown();
  EXPECT_EQ(count.load(), 50);
}

// Regression: concurrent Shutdown() calls used to let later callers
// return while the first was still joining workers (and both touched
// workers_ unsynchronized). Every caller must return only after all
// workers are joined and all queued work ran.
TEST(ThreadPool, ConcurrentShutdownDrainsAndJoinsOnce) {
  for (int round = 0; round < 20; ++round) {
    ThreadPool pool(3);
    std::atomic<int> count{0};
    for (int i = 0; i < 64; ++i) {
      pool.Submit([&count] { count.fetch_add(1); });
    }
    std::vector<std::thread> closers;
    for (int t = 0; t < 4; ++t) {
      closers.emplace_back([&pool] { pool.Shutdown(); });
    }
    for (auto& t : closers) t.join();
    // Any caller returning early would race this read against live
    // workers (TSan) or observe a short count.
    EXPECT_EQ(count.load(), 64);
    EXPECT_EQ(pool.GetStatus().active, 0);
  }
}

TEST(ThreadPool, ClampsToAtLeastOneThread) {
  ThreadPool pool(0);
  EXPECT_GE(pool.num_threads(), 1);
  auto f = pool.Async([] { return 7; });
  EXPECT_EQ(f.get(), 7);
  EXPECT_GE(ThreadPool::DefaultThreads(), 1);
}

// --- MSKY parallel fan-out ------------------------------------------------

void LoadMsky(MskyOperator* op) {
  StreamConfig cfg;
  cfg.dims = 3;
  cfg.spatial = SpatialDistribution::kAntiCorrelated;
  cfg.seed = 21;
  StreamGenerator gen(cfg);
  CountWindow win(3000);
  for (int i = 0; i < 8000; ++i) {
    const UncertainElement e = gen.Next();
    if (auto expired = win.Push(e)) op->Expire(*expired);
    op->Insert(e);
  }
}

void ExpectSameMembers(const std::vector<SkylineMember>& a,
                       const std::vector<SkylineMember>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].element.seq, b[i].element.seq);
    EXPECT_EQ(a[i].psky, b[i].psky);
  }
}

TEST(MskyParallel, SkylineAllMatchesSequential) {
  MskyOperator op(3, {0.8, 0.55, 0.3});
  LoadMsky(&op);
  ThreadPool pool(4);
  const auto parallel = op.SkylineAll(&pool);
  const auto sequential = op.SkylineAll(nullptr);
  ASSERT_EQ(parallel.size(), sequential.size());
  ASSERT_EQ(parallel.size(), static_cast<size_t>(op.num_thresholds()));
  for (size_t i = 0; i < parallel.size(); ++i) {
    ExpectSameMembers(parallel[i], sequential[i]);
    ExpectSameMembers(parallel[i], op.Skyline(static_cast<int>(i) + 1));
  }
}

TEST(MskyParallel, AdHocManyMatchesSequential) {
  MskyOperator op(3, {0.8, 0.55, 0.3});
  LoadMsky(&op);
  ThreadPool pool(4);
  const std::vector<double> qs = {0.95, 0.8, 0.61, 0.45, 0.3};
  const auto par_results = op.AdHocQueryMany(qs, &pool);
  const auto seq_results = op.AdHocQueryMany(qs, nullptr);
  ASSERT_EQ(par_results.size(), qs.size());
  for (size_t i = 0; i < qs.size(); ++i) {
    ExpectSameMembers(par_results[i], seq_results[i]);
    ExpectSameMembers(par_results[i], op.AdHocQuery(qs[i]));
  }
  const auto par_counts = op.AdHocCountMany(qs, &pool);
  ASSERT_EQ(par_counts.size(), qs.size());
  for (size_t i = 0; i < qs.size(); ++i) {
    EXPECT_EQ(par_counts[i], op.AdHocCount(qs[i]));
    EXPECT_EQ(par_counts[i], par_results[i].size());
  }
}

// --- asynchronous shadow oracle -------------------------------------------

struct AuditRig {
  SskyOperator op{3, 0.3};
  CountWindow window{400};

  void Feed(StreamGenerator* gen, AuditManager* audit, int n,
            bool* all_ok = nullptr) {
    for (int i = 0; i < n; ++i) {
      const UncertainElement e = gen->Next();
      if (auto expired = window.Push(e)) op.Expire(*expired);
      op.Insert(e);
      const bool ok = audit->Step();
      if (all_ok != nullptr) *all_ok &= ok;
    }
  }
};

TEST(AsyncOracle, CleanStreamReplaysWithoutViolations) {
  StreamConfig cfg;
  cfg.dims = 3;
  cfg.spatial = SpatialDistribution::kIndependent;
  cfg.seed = 31;
  StreamGenerator gen(cfg);
  ThreadPool pool(2);
  AuditRig rig;
  AuditOptions options;
  options.mode = AuditMode::kCheck;
  options.audit_every = 0;
  options.oracle_every = 100;
  options.pool = &pool;
  AuditManager audit(&rig.op, options,
                     AuditManager::WindowStream::Of(&rig.window));
  bool all_ok = true;
  rig.Feed(&gen, &audit, 1200, &all_ok);
  EXPECT_TRUE(audit.Drain());
  EXPECT_TRUE(all_ok);
  EXPECT_GE(audit.report().oracle_replays, 10u);
  EXPECT_EQ(audit.report().oracle_mismatches, 0u);
  EXPECT_EQ(audit.report().violations_unrepaired, 0u);
}

TEST(AsyncOracle, DetectsInjectedCorruption) {
  StreamConfig cfg;
  cfg.dims = 3;
  cfg.spatial = SpatialDistribution::kIndependent;
  cfg.seed = 32;
  StreamGenerator gen(cfg);
  ThreadPool pool(2);
  AuditRig rig;
  AuditOptions options;
  options.mode = AuditMode::kCheck;
  options.audit_every = 0;  // isolate the oracle path
  options.oracle_every = 50;
  options.pool = &pool;
  AuditManager audit(&rig.op, options,
                     AuditManager::WindowStream::Of(&rig.window));
  rig.Feed(&gen, &audit, 600);

  // Corrupt a current skyline member's P_old so it silently drops out of
  // the reported q-skyline — exactly what accumulated drift would do.
  const auto window = rig.window.Snapshot();
  bool corrupted = false;
  for (auto it = window.rbegin(); it != window.rend() && !corrupted; ++it) {
    const auto view = rig.op.tree().LookupForAudit(it->pos, it->seq);
    if (view.found && view.band == 1) {
      rig.op.mutable_tree()->RepairElement(it->pos, it->seq, view.pnew_log,
                                           view.pold_log - 5.0);
      corrupted = true;
    }
  }
  ASSERT_TRUE(corrupted);

  // Two oracle periods plus a drain guarantee the corruption is both
  // replayed against and harvested.
  rig.Feed(&gen, &audit, 120);
  audit.Drain();
  EXPECT_GE(audit.report().oracle_mismatches, 1u);
  EXPECT_GE(audit.report().violations_unrepaired, 1u);
}

}  // namespace
}  // namespace psky
