// Sharded parallel ingestion engine: per-shard sky-trees behind SPSC
// queues, with an exact cross-shard merge at query time.
//
// Architecture
// ------------
//
//   router thread                      shard workers (one thread each)
//   ─────────────                      ──────────────────────────────
//   Route(e):                          loop:
//     window policy (count ring /        PopBatch(commands)
//     time watermark, replicated         kExpireOldest -> pop own FIFO,
//     exactly from stream/window.h)        op.Expire()
//     pop expired ring entries ->        kInsert -> FIFO push,
//       kExpireOldest to owner shard       op.Insert(), audit.Step()
//     kInsert(e) to owner shard          kMergeProbe -> dominator sums
//                                          of merge_u_ against own tree
//   GlobalSkyline():                     publish applied counter
//     kMergeProbe to shards 1..n-1,
//     probes shard 0 itself
//
// The router owns every windowing decision: it keeps a global ring of
// (owner shard, time) entries mirroring CountWindow / TimeWindow
// semantics bit-for-bit, and turns each global expiry into a
// kExpireOldest command for the owning shard. A shard therefore sees
// exactly the global command sequence restricted to its partition, in
// global order (SPSC FIFO) — shard state is a pure function of the
// element stream, independent of thread scheduling, which is what makes
// sharded runs deterministic and checkpoint/replay-compatible. A resume
// re-feeds the checkpointed window through Route like any arrival: those
// elements were admitted once, arrive in order and all fit the window,
// so routing them expires and rejects nothing.
//
// Routing is a pure function of the element (grid: splitmix-hashed cell
// id of the position; band: occurrence-probability band), so a stream
// routes identically across runs, shard counts permitting.
//
// Exactness of the merge (GlobalSkyline)
// --------------------------------------
//
// Each shard runs the unmodified sequential SSKY operator on its
// substream, so a shard evicts a candidate only when its *local* P_new
// (newer same-shard dominators only) falls below q. Local P_new is an
// upper bound on full-window P_new (fewer factors), hence every locally
// evicted element is also evicted by the sequential operator: the union
// U of shard candidate sets is a superset of the sequential candidate
// set S_{N,q}.
//
// P_new of a live element only shrinks over its lifetime (newer arrivals
// add factors; expirations remove *older* elements and touch P_old
// only), so "was never evicted" equals "current full-window P_new >= q".
// The merge exploits this in two phases:
//
//   1. For every a in U, compute pnew_U(a) = sum of log(1-P(b)) over
//      newer dominators b in U (per-shard SkyTree::ExactDominators,
//      summed in shard-index order). Define S* = { a : pnew_U(a) >= q }.
//      Then S* = S_{N,q} exactly: for a in S_{N,q} every newer window
//      dominator is itself in S_{N,q} (subset of U), so pnew_U = the
//      true full-window P_new >= q; for a not in S_{N,q}, induction over
//      descending arrival order shows pnew_U(a) < q (any missing
//      dominator b not in U has pnew_U(b) < q by hypothesis, and a's
//      U-dominators include all of b's, so pnew_U(a) <= pnew_U(b)).
//   2. Restrict the phase-1 sums to S* by subtracting the factors of
//      dominators in U \ S*, giving the same restricted P_new/P_old
//      decomposition the sequential operator reports (see core/audit.h
//      for why restricted P_sky = prob * P_new * P_old decides
//      membership exactly — the paper's Theorems 2-4).
//
// The merged skyline therefore contains exactly the sequential skyline
// members with exactly the same probability factor multisets; reported
// doubles can differ from the sequential operator's lazily accumulated
// values only by summation-order rounding (ulps — the equivalence tests
// bound it at 1e-9).
//
// Where the merge runs
// --------------------
//
// GlobalSkyline first barriers (every routed command applied), then:
//
//   router: gathers U into merge_u_ (shard-index order, each shard's
//     candidates by arrival sequence) and pushes one kMergeProbe
//     command through the SPSC queue of every shard but shard 0.
//   worker j >= 1: for every a in U, runs ExactDominators against its
//     *own* tree, writing the sums into its own Shard::merge_sums[k].
//   router, meanwhile: does the same for shard 0, whose worker stays
//     parked (it has no command), instead of idling.
//   router: waits until every shard has applied its probe command (an
//     internal round, not counted in Stats::barriers), then folds
//     merge_sums shard by shard in shard-index order and runs phase 2
//     alone, testing each S* member against dim-major blocks of the
//     U \ S* coordinates with DominanceBlockCompare.
//
// During the probe round every shard's tree and merge_sums have exactly
// one user (shard 0's: the router; the others': their workers), and
// merge_u_ is read-only. The queue push (release) / pop (acquire)
// publishes merge_u_ to the workers, and the applied counter's release /
// acquire publishes merge_sums back — no lock or atomic beyond the
// existing ones. (Shard 0's sums need neither: the router wrote them.)
// The fold adds the same terms in the same order as a serial loop over
// (candidate, shard). The blocks hold U \ S* in U order and
// phase 2 walks them in order, mask bits ascending, so every subtraction
// keeps the serial restriction loop's order. The merged output is
// therefore bit-identical to the single-threaded merge for any shard
// count.
//
// Thread-safety: Route/Barrier/GlobalSkyline/WindowSnapshot/GetStats
// must all be called from one thread (the router): GetStats reads
// router-side counters. Barrier() returns only after every routed
// command is applied, with acquire/release ordering on the per-shard
// applied counters, so reading shard state after a barrier is
// race-free. After Shutdown(), Route/Barrier/GlobalSkyline/
// WindowSnapshot fail a PSKY_CHECK instead of waiting on a closed
// queue.

#ifndef PSKY_CORE_SHARD_ENGINE_H_
#define PSKY_CORE_SHARD_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "base/spsc_queue.h"
#include "core/audit.h"
#include "core/operator.h"
#include "core/ssky_operator.h"
#include "geom/cell_grid.h"
#include "stream/element.h"
#include "stream/window.h"

namespace psky {

/// How elements map to shards.
enum class ShardStrategy {
  kGrid,  ///< splitmix-hashed grid-cell id of the position (default)
  kBand,  ///< occurrence-probability band: floor(prob * shards)
};

/// Parses "grid" / "band". Returns false on anything else.
bool ParseShardStrategy(const std::string& text, ShardStrategy* out);

class ShardEngine {
 public:
  struct Options {
    int dims = 2;
    double q = 0.3;
    int shards = 2;
    ShardStrategy strategy = ShardStrategy::kGrid;
    /// Windowing: count-based when window_capacity > 0, else time-based
    /// over time_span seconds with `ooo_policy` (mirrors psky_stream).
    size_t window_capacity = 0;
    double time_span = 0.0;
    TimestampPolicy ooo_policy = TimestampPolicy::kReject;
    /// Per-shard SPSC queue capacity (elements in flight per shard).
    size_t queue_capacity = 4096;
    SkyTree::Options tree_options;
    /// Per-shard integrity auditing (core/audit.h), run inside the shard
    /// worker against the shard's own substream. `pool` must be null —
    /// oracle replays run synchronously on the worker.
    AuditOptions audit;
  };

  explicit ShardEngine(const Options& options);
  ~ShardEngine();
  ShardEngine(const ShardEngine&) = delete;
  ShardEngine& operator=(const ShardEngine&) = delete;

  /// Routes one arrival: applies the window policy, emits the expiry
  /// command(s) the sequential window would, and enqueues the insert to
  /// the owning shard. Returns false iff the element was rejected as
  /// out-of-order (time windows under TimestampPolicy::kReject) — the
  /// exact condition TimeWindow::TryPush rejects on. When `admitted` is
  /// non-null and the element was accepted, it receives the element as
  /// actually windowed (timestamp clamp applied) — what a WAL should
  /// stamp.
  bool Route(const UncertainElement& e, UncertainElement* admitted = nullptr);

  /// Blocks until every routed command has been applied by its shard.
  void Barrier();

  /// Barrier + exact cross-shard merge (see file comment), its dominator
  /// probes spread over the router and the shard workers. Sorted by
  /// arrival sequence; only q-skyline members are returned (every entry
  /// has in_skyline = true). When `candidate_count` is non-null it
  /// receives |S*| — exactly the sequential operator's candidate count.
  std::vector<SkylineMember> GlobalSkyline(size_t* candidate_count = nullptr);

  /// Barrier + merged window contents in global arrival order — the
  /// byte-identical input to CheckpointState::window that a sequential
  /// run would snapshot.
  std::vector<UncertainElement> WindowSnapshot();

  /// Drains and joins all shard workers. Idempotent; called by the
  /// destructor. The engine cannot be reused afterwards: Route, Barrier,
  /// GlobalSkyline and WindowSnapshot then fail a PSKY_CHECK.
  void Shutdown();

  int shards() const { return static_cast<int>(shards_.size()); }
  int dims() const { return options_.dims; }
  double threshold() const { return options_.q; }
  const CellGrid& grid() const { return grid_; }

  /// Owning shard of an element (pure function; exposed for tests).
  int ShardOf(const UncertainElement& e) const;

  /// Elements currently windowed across all shards (router-side count,
  /// exact: the router owns all windowing decisions).
  size_t window_size() const { return ring_.size(); }

  /// Time-window policy counters (router-side, mirror TimeWindow's).
  uint64_t rejected() const { return rejected_; }
  uint64_t clamped() const { return clamped_; }
  double watermark() const { return watermark_; }

  struct ShardStats {
    uint64_t routed = 0;       ///< commands sent (inserts, expiries, probes)
    uint64_t applied = 0;      ///< commands the worker has applied
    uint64_t inserted = 0;     ///< insert commands sent
    size_t queue_depth = 0;    ///< commands waiting in the SPSC queue
    size_t window_elements = 0;
    size_t candidates = 0;
    uint64_t audit_violations = 0;
  };

  struct Stats {
    std::vector<ShardStats> shards;
    /// max over shards of window_elements / (total / shard count); 1.0
    /// is perfectly balanced. 0 when the window is empty.
    double imbalance = 0.0;
    uint64_t merges = 0;            ///< GlobalSkyline calls
    uint64_t merge_candidates = 0;  ///< |U| summed over merges
    uint64_t merge_probes = 0;      ///< ExactDominators calls
    /// Always 0: the merge probes every shard for every candidate (the
    /// cell-grid precheck that skipped probes did not pay for its
    /// tables). Kept because the benchmark still reads it.
    uint64_t merge_cell_skips = 0;
    /// Wall time inside GlobalSkyline after its leading barrier, summed
    /// over merges.
    uint64_t merge_ns = 0;
    uint64_t barriers = 0;  ///< Barrier calls, merge rounds excluded
  };

  /// Heartbeat snapshot for the router thread only (the routing and
  /// merge counters are router-side plain fields), callable at any time
  /// without a barrier: worker-side fields come from atomics published
  /// per command batch (slightly stale, never torn).
  Stats GetStats() const;

  /// Aggregated per-shard audit reports. Requires a preceding Barrier()
  /// (shard state is read directly).
  AuditReport AuditReportMerged();

  /// Per-shard operator access for tests and post-barrier inspection.
  const SskyOperator& shard_operator(int shard) const {
    return shards_[static_cast<size_t>(shard)]->op;
  }

 private:
  struct Command {
    enum Kind : uint8_t { kInsert, kExpireOldest, kMergeProbe };
    Kind kind = kInsert;
    UncertainElement element;
  };

  /// Router-side record of one windowed element.
  struct RingEntry {
    double time = 0.0;
    uint8_t shard = 0;
  };

  struct Shard {
    explicit Shard(const Options& opts);

    SpscQueue<Command> queue;
    SskyOperator op;
    std::deque<UncertainElement> fifo;  ///< shard window, oldest first
    std::unique_ptr<AuditManager> audit;
    /// Commands applied; the worker's release store after each batch is
    /// the publication point for everything above (fifo, op...) — the
    /// router's acquire load in Barrier() pairs with it, which is the
    /// whole happens-before edge the merge relies on.
    std::atomic<uint64_t> applied{0};
    // Heartbeat gauges: monotonically refreshed, read relaxed by
    // GetStats() with no ordering relative to anything — stale values
    // are fine, torn ones impossible. Every access spells its
    // memory_order (psky-lint `atomic-order`).
    std::atomic<uint64_t> window_elements{0};
    std::atomic<uint64_t> candidates{0};
    std::atomic<uint64_t> audit_violations{0};
    /// Merge-round output, indexed like merge_u_: this shard's dominator
    /// sums per candidate. Written during the probe round (by the worker
    /// for a kMergeProbe command, by the router for shard 0); the router
    /// reads them after the round.
    std::vector<SkyTree::DominatorSums> merge_sums;
    uint64_t routed = 0;    ///< router-side; commands enqueued
    uint64_t inserted = 0;  ///< router-side; insert commands enqueued
    std::thread worker;
  };

  void WorkerLoop(Shard* shard);
  void ApplyCommand(Shard* shard, const Command& cmd);
  /// One shard's part of a merge round: dominator sums of every
  /// merge_u_ member against this shard's tree. Runs on the shard's
  /// worker, or on the router for shard 0.
  void ProbeMergeCandidates(Shard* shard) const;
  void Send(Shard* shard, Command cmd);
  void SendExpireOldest(uint8_t shard);
  void SendInsert(const UncertainElement& e, uint8_t shard);
  /// Waits until every shard has applied every command routed to it.
  void WaitApplied();

  Options options_;
  CellGrid grid_;
  /// Merge candidate union U, rebuilt by the router per GlobalSkyline;
  /// read-only for the workers during the probe round.
  std::vector<UncertainElement> merge_u_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::deque<RingEntry> ring_;  ///< global window mirror, oldest first
  double watermark_;
  uint64_t rejected_ = 0;
  uint64_t clamped_ = 0;
  uint64_t merges_ = 0;
  uint64_t merge_candidates_ = 0;
  uint64_t merge_probes_ = 0;
  uint64_t merge_ns_ = 0;
  uint64_t barriers_ = 0;
  bool shutdown_ = false;
};

}  // namespace psky

#endif  // PSKY_CORE_SHARD_ENGINE_H_
