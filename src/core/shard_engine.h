// Sharded parallel ingestion engine: per-shard sky-trees behind SPSC
// queues, with an exact cross-shard merge at query time.
//
// Architecture
// ------------
//
//   router thread                      shard workers (one thread each)
//   ─────────────                      ──────────────────────────────
//   Insert(e) / Expire(e):             loop:
//     one command to ShardOf(e)          PopBatch(commands)
//   Route(e):                            kExpire(e) -> op.Expire(e)
//     the engine's own CountWindow /     kInsert(e) -> op.Insert(e),
//     TimeWindow admits e, then            audit.Step()
//     Expire(old) per expired element,   kMergeProbe -> dominator sums
//     then Insert(e)                       of merge_u_ against own tree
//   GlobalSkyline():                     publish applied counter
//     kMergeProbe to shards 1..n-1,
//     probes shard 0 itself
//
// The engine keeps no window of its own unless asked to. Operator state
// is a pure function of the admitted window sequence (the paper's
// Theorems 2-4; a window expires before it inserts), so the caller's
// window drives the engine: for each admitted element the caller sends
// the expiry of every element its window dropped, then the insert, and
// each command carries its element to the owning shard. A shard therefore
// sees exactly the global command sequence restricted to its partition,
// in global order (SPSC FIFO) — shard state is a pure function of the
// window sequence, independent of thread scheduling, which is what
// makes sharded runs deterministic and checkpoint/replay-compatible:
// a checkpoint records the caller's window, whichever engine ran.
//
// An engine is fed one way. Built with Options::window_capacity or
// time_span, it owns a stream/window.h window and is fed by Route (the
// benchmark and the equivalence tests do this); built with neither, it
// is fed by Insert/Expire from a window the caller owns (psky_stream
// does this for its count, time and disk windows). Each form
// PSKY_CHECKs that the other was not chosen.
//
// A shard copies window elements only for its auditor: with
// Options::audit.mode != kOff it keeps its substream, oldest first, as
// the audit window, and checks that every expiry pops the element the
// command names.
//
// Routing is a pure function of the element (grid: splitmix-hashed cell
// id of the position; band: occurrence-probability band), so an expiry
// reaches the shard its insert did, and a stream routes identically
// across runs, shard counts permitting.
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
// Thread-safety: Route/Insert/Expire/Barrier/GlobalSkyline/
// WindowSnapshot/GetStats must all be called from one thread (the
// router): the window and GetStats' counters are router-side. Barrier()
// returns only after every routed command is applied, with
// acquire/release ordering on the per-shard applied counters, so
// reading shard state after a barrier is race-free. After Shutdown(),
// Route/Insert/Expire/Barrier/GlobalSkyline/WindowSnapshot fail a
// PSKY_CHECK instead of waiting on a closed queue.

#ifndef PSKY_CORE_SHARD_ENGINE_H_
#define PSKY_CORE_SHARD_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <limits>
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
    /// The engine's own window, which Route feeds: count-based when
    /// window_capacity > 0, else time-based over time_span seconds with
    /// `ooo_policy` when time_span > 0. Leave both 0 to feed the engine
    /// from the caller's window through Insert/Expire.
    size_t window_capacity = 0;
    double time_span = 0.0;
    TimestampPolicy ooo_policy = TimestampPolicy::kReject;
    /// Per-shard SPSC queue capacity (elements in flight per shard).
    size_t queue_capacity = 4096;
    SkyTree::Options tree_options;
    /// Per-shard integrity auditing (core/audit.h), run inside the shard
    /// worker against the shard's own substream, which the shard keeps
    /// as its audit window; oracle replays run on the worker too.
    AuditOptions audit;
  };

  explicit ShardEngine(const Options& options);
  ~ShardEngine();
  ShardEngine(const ShardEngine&) = delete;
  ShardEngine& operator=(const ShardEngine&) = delete;

  /// Sends the insert of `e`, which the caller's window just admitted,
  /// to its shard. Requires an engine built without a window.
  void Insert(const UncertainElement& e);

  /// Sends the expiry of `e`, which the caller's window just dropped, to
  /// its shard. Windows drop oldest first, so every shard sees its own
  /// elements expire in arrival order. Requires an engine built without
  /// a window.
  void Expire(const UncertainElement& e);

  /// Routes one arrival through the engine's own window (requires one):
  /// admits it, then expires what the window dropped and inserts it, as
  /// Insert/Expire would. Returns false iff the element was rejected as
  /// out-of-order (time windows under TimestampPolicy::kReject). When
  /// `admitted` is non-null and the element was accepted, it receives
  /// the element as actually windowed (timestamp clamp applied).
  bool Route(const UncertainElement& e, UncertainElement* admitted = nullptr);

  /// Applies the degradation ladder's audit effects (see
  /// AuditManager::SetDegradation) to every shard auditor: each one gets
  /// them as a command through its shard's queue, so they take effect in
  /// order with the inserts and expiries sent before and after. A call
  /// that repeats the current setting sends nothing, so callers may pass
  /// the ladder's effects once per batch. No-op when the shards do not
  /// audit.
  void SetAuditDegradation(bool suspend_oracle, uint64_t audit_stretch);

  /// Blocks until every routed command has been applied by its shard.
  void Barrier();

  /// Barrier + exact cross-shard merge (see file comment), its dominator
  /// probes spread over the router and the shard workers. Sorted by
  /// arrival sequence; only q-skyline members are returned (every entry
  /// has in_skyline = true). When `candidate_count` is non-null it
  /// receives |S*| — exactly the sequential operator's candidate count.
  std::vector<SkylineMember> GlobalSkyline(size_t* candidate_count = nullptr);

  /// Contents of the engine's own window (requires one), oldest first —
  /// the byte-identical input to CheckpointState::window that a
  /// sequential run would snapshot. Reads the router-side window, so it
  /// never waits on the workers.
  std::vector<UncertainElement> WindowSnapshot() const;

  /// Drains and joins all shard workers. Idempotent; called by the
  /// destructor. The engine cannot be reused afterwards: Route, Insert,
  /// Expire, Barrier, GlobalSkyline and WindowSnapshot then fail a
  /// PSKY_CHECK.
  void Shutdown();

  int shards() const { return static_cast<int>(shards_.size()); }
  int dims() const { return options_.dims; }
  double threshold() const { return options_.q; }
  const CellGrid& grid() const { return grid_; }

  /// Owning shard of an element (pure function; exposed for tests).
  int ShardOf(const UncertainElement& e) const;

  /// Time-window policy counters of the engine's own time window (0, and
  /// a watermark of -infinity, for any other engine).
  uint64_t rejected() const {
    return time_window_ != nullptr ? time_window_->rejected() : 0;
  }
  uint64_t clamped() const {
    return time_window_ != nullptr ? time_window_->clamped() : 0;
  }
  double watermark() const {
    return time_window_ != nullptr
               ? time_window_->watermark()
               : -std::numeric_limits<double>::infinity();
  }

  struct ShardStats {
    uint64_t routed = 0;       ///< commands sent, of every kind
    uint64_t applied = 0;      ///< commands the worker has applied
    uint64_t inserted = 0;     ///< insert commands sent
    size_t queue_depth = 0;    ///< commands waiting in the SPSC queue
    /// Inserts minus expiries sent: the shard's window share once its
    /// queue drains (router-side, exact).
    size_t window_elements = 0;
    size_t candidates = 0;
    /// The shard auditor's steps since its last slice audit (0 when the
    /// shard does not audit).
    uint64_t audit_lag = 0;
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
  // The kDegrade fields fit in the padding before `element`, so they add
  // nothing to a command or to a shard queue's footprint.
  struct Command {
    enum Kind : uint8_t { kInsert, kExpire, kMergeProbe, kDegrade };
    Kind kind = kInsert;
    bool suspend_oracle = false;  ///< kDegrade
    uint32_t audit_stretch = 1;   ///< kDegrade, capped at UINT32_MAX
    UncertainElement element;     ///< kInsert, kExpire
  };

  struct Shard {
    explicit Shard(const Options& opts);

    SpscQueue<Command> queue;
    SskyOperator op;
    /// The auditor and the window it audits: this shard's substream,
    /// oldest first, the only copy of window elements a shard keeps.
    /// Both null unless the shard audits.
    std::unique_ptr<std::deque<UncertainElement>> audit_window;
    std::unique_ptr<AuditManager> audit;
    /// Commands applied; the worker's release store after each batch is
    /// the publication point for everything above (op, audit...) — the
    /// router's acquire load in Barrier() pairs with it, which is the
    /// whole happens-before edge the merge relies on.
    std::atomic<uint64_t> applied{0};
    // Heartbeat gauges: monotonically refreshed, read relaxed by
    // GetStats() with no ordering relative to anything — stale values
    // are fine, torn ones impossible. Every access spells its
    // memory_order (psky-lint `atomic-order`).
    std::atomic<uint64_t> candidates{0};
    std::atomic<uint64_t> audit_lag{0};
    std::atomic<uint64_t> audit_violations{0};
    /// Merge-round output, indexed like merge_u_: this shard's dominator
    /// sums per candidate. Written during the probe round (by the worker
    /// for a kMergeProbe command, by the router for shard 0); the router
    /// reads them after the round.
    std::vector<SkyTree::DominatorSums> merge_sums;
    uint64_t routed = 0;    ///< router-side; commands enqueued
    uint64_t inserted = 0;  ///< router-side; insert commands enqueued
    uint64_t expired = 0;   ///< router-side; expire commands enqueued
    std::thread worker;
  };

  void WorkerLoop(Shard* shard);
  void ApplyCommand(Shard* shard, const Command& cmd);
  /// One shard's part of a merge round: dominator sums of every
  /// merge_u_ member against this shard's tree. Runs on the shard's
  /// worker, or on the router for shard 0.
  void ProbeMergeCandidates(Shard* shard) const;
  void Send(Shard* shard, Command cmd);
  /// Sends an insert or expire command for `e` to its owning shard.
  void SendElement(Command::Kind kind, const UncertainElement& e);
  /// Waits until every shard has applied every command routed to it.
  void WaitApplied();

  Options options_;
  CellGrid grid_;
  /// The engine's own window (Route), at most one of the two.
  std::unique_ptr<CountWindow> count_window_;
  std::unique_ptr<TimeWindow> time_window_;
  std::vector<UncertainElement> expired_;  ///< Route's scratch
  /// Merge candidate union U, rebuilt by the router per GlobalSkyline;
  /// read-only for the workers during the probe round.
  std::vector<UncertainElement> merge_u_;
  std::vector<std::unique_ptr<Shard>> shards_;
  uint64_t merges_ = 0;
  uint64_t merge_candidates_ = 0;
  uint64_t merge_probes_ = 0;
  uint64_t merge_ns_ = 0;
  uint64_t barriers_ = 0;
  /// The audit degradation last sent (SetAuditDegradation).
  bool suspend_oracle_ = false;
  uint64_t audit_stretch_ = 1;
  bool shutdown_ = false;
};

}  // namespace psky

#endif  // PSKY_CORE_SHARD_ENGINE_H_
