// Overload management for the streaming pipeline: a bounded ingest queue
// with pluggable pressure policies, a hysteresis-driven degradation
// ladder, and a watchdog for stalled steps.
//
// The paper's sliding-window semantics give load shedding a principled
// currency that random dropping lacks: an element with a low occurrence
// probability enters the window with a proportionally low P_sky ceiling,
// so under pressure it is the cheapest element to sacrifice (shed-low-prob
// policy); and the oldest *queued* element is the one closest to expiring
// out of the window anyway (shed-oldest policy). Every shed decision is
// counted exactly, per policy, so "produced = processed + shed" is an
// auditable invariant, not a hope.
//
// Nothing here prints or allocates on the disarmed path; transitions are
// reported through caller-supplied listeners (library code stays silent
// per the no-iostream convention).

#ifndef PSKY_CORE_OVERLOAD_H_
#define PSKY_CORE_OVERLOAD_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "base/sync.h"
#include "stream/element.h"

namespace psky {

/// What a full ingest queue does with the next element.
enum class OverloadPolicy {
  kBlock,        ///< producer waits for space (lossless; backpressure)
  kShedOldest,   ///< drop the oldest queued element (closest to expiry)
  kShedLowProb,  ///< drop the queued element with the lowest occurrence
                 ///< probability (lowest P_sky ceiling, paper Sec. III)
};

bool ParseOverloadPolicy(std::string_view name, OverloadPolicy* out);
const char* OverloadPolicyName(OverloadPolicy policy);

/// One queued stream element plus the source position *after* producing
/// it. Carrying positions with the element (instead of reading the live
/// source from the consumer) keeps checkpoints race-free when ingestion
/// runs on its own thread, and exact under shedding: a checkpoint resumes
/// from the position after the last *processed* element, so shed or
/// still-queued elements are re-read on restart rather than lost.
struct IngestItem {
  UncertainElement element;
  uint64_t next_seq_after = 0;   ///< next sequence the source will assign
  uint64_t lines_after = 0;      ///< CSV lines consumed (0 for generators)
  uint64_t skipped_after = 0;    ///< cumulative bad lines skipped
  uint64_t clamped_after = 0;    ///< cumulative probabilities clamped
};

/// Exact per-policy drop accounting. Monotone counters; the invariant
/// enqueued == dequeued + shed_oldest + shed_low_prob + dropped_on_stop +
/// depth() holds at every quiescent point, and produced elements that
/// were never admitted are in shed_incoming.
struct QueueStats {
  uint64_t enqueued = 0;
  uint64_t dequeued = 0;
  uint64_t shed_oldest = 0;     ///< queued elements dropped by kShedOldest
  uint64_t shed_low_prob = 0;   ///< queued elements dropped by kShedLowProb
  uint64_t shed_incoming = 0;   ///< arrivals rejected by kShedLowProb
  uint64_t dropped_on_stop = 0; ///< pushes refused after RequestStop
  uint64_t producer_blocks = 0; ///< times a push actually waited (kBlock)
  size_t peak_depth = 0;
};

/// Bounded MPSC-safe ingest queue between a stream source and the
/// operator. All methods are thread-safe.
class BoundedIngestQueue {
 public:
  BoundedIngestQueue(size_t capacity, OverloadPolicy policy);

  /// Producer side: admits `item` per the pressure policy. Under kBlock a
  /// full queue makes this wait; under the shed policies it never waits.
  /// Returns false only after RequestStop (the item is counted dropped).
  bool Push(IngestItem item) PSKY_EXCLUDES(mu_);

  /// Marks the producer done: consumers drain the remainder, then PopBatch
  /// returns 0 forever.
  void CloseProducer() PSKY_EXCLUDES(mu_);

  /// Emergency unblock (signal path): pending and future pushes fail fast;
  /// queued items remain drainable.
  void RequestStop() PSKY_EXCLUDES(mu_);

  /// Consumer side: appends up to `max_items` items to `*out` (which is
  /// cleared first), blocking up to `wait_ms` for the first one. Returns
  /// the number delivered; 0 means timeout, or closed-and-drained (check
  /// drained()).
  size_t PopBatch(std::vector<IngestItem>* out, size_t max_items,
                  uint64_t wait_ms) PSKY_EXCLUDES(mu_);

  /// True once the producer closed (or stop was requested) and every
  /// queued item has been popped.
  bool drained() const PSKY_EXCLUDES(mu_);

  size_t capacity() const { return capacity_; }
  OverloadPolicy policy() const { return policy_; }
  size_t depth() const PSKY_EXCLUDES(mu_);
  /// Instantaneous fullness in [0, 1]; the degradation ladder's input.
  double pressure() const PSKY_EXCLUDES(mu_);
  QueueStats StatsSnapshot() const PSKY_EXCLUDES(mu_);

 private:
  const size_t capacity_;
  const OverloadPolicy policy_;
  mutable Mutex mu_{"ingest-queue", lockrank::kIngestQueue};
  CondVar can_push_;
  CondVar can_pop_;
  std::deque<IngestItem> items_ PSKY_GUARDED_BY(mu_);
  bool producer_closed_ PSKY_GUARDED_BY(mu_) = false;
  bool stop_requested_ PSKY_GUARDED_BY(mu_) = false;
  QueueStats stats_ PSKY_GUARDED_BY(mu_);
};

/// Hysteresis-driven overload response. Pressure observations (queue
/// fullness in [0,1]) move the ladder up one rung at a time after
/// `engage_hold` consecutive observations above `engage_pressure`, and
/// back down after `release_hold` consecutive observations below
/// `release_pressure` — the gap between the two thresholds plus the hold
/// counts is what prevents rung flapping at a noisy boundary.
///
/// Rungs trade auxiliary work for ingest headroom, mildest first:
///   1  widen the consumer batch (amortize per-batch overheads)
///   2  suspend the audit's shadow-oracle replays
///   3  stretch the slice-audit cadence (sampled audit)
///   4  stretch the checkpoint interval
/// Effects are cumulative: rung 3 implies rungs 1 and 2.
class DegradationLadder {
 public:
  struct Options {
    double engage_pressure = 0.85;
    double release_pressure = 0.30;
    int engage_hold = 4;
    int release_hold = 16;
    int max_rung = 4;
    size_t batch_multiplier = 4;       ///< rung >= 1
    uint64_t audit_stretch = 8;        ///< rung >= 3
    uint64_t checkpoint_stretch = 4;   ///< rung >= 4
  };

  /// What the pipeline should currently be doing.
  struct Effects {
    size_t batch_multiplier = 1;
    bool suspend_oracle = false;
    uint64_t audit_stretch = 1;
    uint64_t checkpoint_stretch = 1;
  };

  struct Stats {
    uint64_t escalations = 0;
    uint64_t recoveries = 0;
    int rung = 0;
    int peak_rung = 0;
  };

  /// Called on every rung change, from the observing thread.
  using Listener =
      std::function<void(int old_rung, int new_rung, double pressure)>;

  DegradationLadder() : DegradationLadder(Options()) {}
  explicit DegradationLadder(Options options, Listener listener = nullptr);

  /// Feeds one pressure observation; returns the rung after applying
  /// hysteresis. Not thread-safe; call from the consumer loop.
  int Observe(double pressure);

  int rung() const { return stats_.rung; }
  Effects effects() const;
  const Stats& stats() const { return stats_; }

 private:
  Options options_;
  Listener listener_;
  Stats stats_;
  int above_streak_ = 0;
  int below_streak_ = 0;
};

/// Detects a wedged pipeline: a consumer that claims to be busy but has
/// not completed a step within `stall_ms`. Alarms are edge-triggered —
/// one per excursion, re-armed when the condition clears — so a hard
/// wedge produces one alarm, not one per poll.
class Watchdog {
 public:
  struct Options {
    uint64_t poll_ms = 100;
    uint64_t stall_ms = 2000;
  };

  struct Stats {
    uint64_t step_stalls = 0;
    uint64_t max_step_gap_ms = 0;
  };

  /// Invoked from the watchdog thread; must be thread-safe.
  using AlarmFn = std::function<void(const std::string& what)>;

  Watchdog(Options options, AlarmFn alarm);
  ~Watchdog();

  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  /// Starts the poll thread. No-op while it is running or while a
  /// concurrent Stop() is still joining it.
  void Start() PSKY_EXCLUDES(mu_);

  /// Stops and joins the poll thread. Idempotent and safe to call
  /// concurrently: one caller joins, the rest block until the join
  /// completes (previously two concurrent Stops could both call
  /// thread_.join() — undefined behavior).
  void Stop() PSKY_EXCLUDES(mu_);

  /// Heartbeat from the consumer loop: one completed pipeline step.
  void OnStep(uint64_t step) {
    last_step_.store(step, std::memory_order_relaxed);
  }

  /// The consumer is busy processing (true) vs. idle waiting for input
  /// (false). Stall detection only runs while busy — a starved consumer
  /// is not a stalled one.
  void SetBusy(bool busy) { busy_.store(busy, std::memory_order_relaxed); }

  Stats StatsSnapshot() const PSKY_EXCLUDES(mu_);

 private:
  /// Thread lifecycle: kIdle -> (Start) -> kRunning -> (first Stop)
  /// -> kStopping -> (join done) -> kIdle. Exactly the kRunning->
  /// kStopping winner moves thread_ out and joins it.
  enum class State { kIdle, kRunning, kStopping };

  void Loop() PSKY_EXCLUDES(mu_);

  Options options_;
  AlarmFn alarm_;
  std::atomic<uint64_t> last_step_{0};
  std::atomic<bool> busy_{false};
  mutable Mutex mu_{"watchdog", lockrank::kWatchdog};
  /// Doubles as the poll-loop alarm clock and the join-completion
  /// broadcast for waiting Stop() callers.
  CondVar stop_cv_;
  State state_ PSKY_GUARDED_BY(mu_) = State::kIdle;
  Stats stats_ PSKY_GUARDED_BY(mu_);
  std::thread thread_ PSKY_GUARDED_BY(mu_);
};

}  // namespace psky

#endif  // PSKY_CORE_OVERLOAD_H_
