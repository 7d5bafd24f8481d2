// Online state-integrity auditing for the SSKY operator.
//
// SSKY's probability state is maintained by lazy log-domain addends
// (sky_tree.h): every arrival and eviction adds or restores factors, so
// floating-point rounding drifts without bound over an unbounded stream.
// The paper's minimal-candidate-set guarantees (Theorems 2-5) are exact in
// real arithmetic but say nothing about accumulated rounding — an element
// whose P_sky sits near a threshold can silently flip bands. This module
// keeps a long-running operator provably honest:
//
//  1. An *incremental slice auditor*: every `audit_every` steps it
//     re-derives exact P_new/P_old for a rotating slice of window
//     elements — from raw element probabilities only, never from lazy
//     state — and compares against the operator's materialized values
//     within a drift tolerance. Each slice scans the window from its
//     oldest target to the newest element, so the cost is
//     O(N / audit_every) per stream step for an N-element window: about
//     40 ns per scanned element for a disk window at d = 3 with the
//     default 4-element slices (perfbench durable_corr, 4-vCPU Xeon VM),
//     mostly the element read and one log1p per element that dominates
//     a target.
//  2. *Self-healing repair*: in kRepair mode, drift beyond tolerance (or a
//     band misclassification) renormalizes the affected leaf path in
//     place (SkyTree::RepairElement) and recounts. Counters record the
//     max observed drift, repairs applied, and band flips prevented.
//  3. A *sampled shadow oracle*: every `oracle_every` steps the current
//     window is replayed through the naive reference operator and the
//     reported q-skylines are diffed. A mismatch escalates to a full
//     audit-and-repair sweep (kRepair) or an unrepaired violation.
//  4. *Crash quarantine*: on PSKY_CHECK failure or fatal signal, callers
//     dump window state + audit counters to a post-mortem file that
//     reuses the checkpoint serializer (WriteQuarantineFile), stamped
//     with the producing binary's build info.
//
// The auditor reads the window one way, through a WindowStream: one
// oldest→newest pass over the positions newer than the slice's oldest
// target derives the exact P_new of the whole slice, testing each target
// against blocks of 256 positions with the SIMD dominance kernel, and
// WindowStream::scan feeds the shadow oracle. A memory window and a disk
// window (SegmentStore, read one resolved segment at a time) therefore
// audit identically, and no path snapshots the window except the
// asynchronous oracle's launch, which copies it on the pipeline thread.
//
// Exactness of the re-derivation: for a live element e, the window W and
// candidate set S determine the true values —
//
//   pnew_log(e) = Σ log(1-P(b))  over b ∈ W, b newer than e, b ≺ e
//   pold_log(e) = Σ log(1-P(a))  over a ∈ S, a ≺ e   minus the newer
//                 evicted dominators' factors, i.e. exactly
//                 (Σ over S dominators) − pnew_log(e)
//
// since every newer dominator of a live element is still in the window
// (windows expire oldest-first) and eviction compensation is booked
// against P_old (sky_tree.cc Phase C, paper Lemma 2). For an element
// *evicted* from S the auditor checks eviction soundness instead: its
// exact P_new must sit below the retention threshold, and stays there
// because newer dominators only shrink it.

#ifndef PSKY_CORE_AUDIT_H_
#define PSKY_CORE_AUDIT_H_

#include <cstdint>
#include <functional>
#include <future>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "base/thread_pool.h"
#include "core/checkpoint.h"
#include "core/ssky_operator.h"
#include "stream/element.h"

namespace psky {

/// What the auditor does with what it finds.
enum class AuditMode {
  kOff,     ///< auditing disabled; Step() is a no-op
  kCheck,   ///< detect and count violations, never mutate operator state
  kRepair,  ///< renormalize drifted elements in place
};

struct AuditOptions {
  AuditMode mode = AuditMode::kCheck;
  /// Steps between slice audits (0 disables the per-element auditor).
  uint64_t audit_every = 64;
  /// Window elements re-derived per audit (the rotating slice width).
  int elements_per_audit = 4;
  /// Absolute log-domain drift beyond which a value counts as corrupted.
  /// Rounding accrues ~1 ulp per lazy addend; 1e-7 is orders of magnitude
  /// above honest drift for any realistic stream yet far below any gap
  /// that could matter at a threshold.
  double tolerance = 1e-7;
  /// Steps between shadow-oracle replays (0 disables the oracle). Each
  /// replay costs O(window^2); sample accordingly.
  uint64_t oracle_every = 0;
  /// When set, shadow-oracle replays run asynchronously on this pool: the
  /// window (copied through WindowStream::scan) and the operator's
  /// reported skyline are snapshotted on the main thread, the
  /// O(window^2) naive replay happens on a worker, and the verdict is
  /// harvested at the next oracle step (or Drain()). A stale disagreement
  /// is re-confirmed synchronously against the live operator before it
  /// counts as a violation. The pool must outlive the AuditManager. Leave
  /// it null for out-of-core windows, whose copy would be O(N) RAM. Slice
  /// audits always stay on the main thread: they read and repair live
  /// tree state.
  ThreadPool* pool = nullptr;
};

/// Per-run integrity counters. All monotone; suitable for logging and for
/// embedding in quarantine dumps.
struct AuditReport {
  uint64_t steps_seen = 0;
  uint64_t elements_audited = 0;
  /// Largest |materialized - exact| observed in the log domain, over both
  /// P_new and P_old, including drift below tolerance.
  double max_drift = 0.0;
  uint64_t drift_beyond_tolerance = 0;
  uint64_t repairs_applied = 0;
  /// Repairs whose element was banded wrong before renormalization — each
  /// one a q-band misreport that will no longer happen.
  uint64_t band_flips_prevented = 0;
  /// Evicted elements whose exact P_new is at or above the retention
  /// threshold: an unrepairable past misclassification.
  uint64_t false_evictions = 0;
  uint64_t oracle_replays = 0;
  /// Oracle disagreements that survived escalation (see class comment).
  uint64_t oracle_mismatches = 0;
  /// Total violations left unrepaired (kCheck-mode drift, false
  /// evictions, and unresolved oracle mismatches). The --strict CLI mode
  /// aborts when this grows.
  uint64_t violations_unrepaired = 0;
};

/// Drives the audit schedule against one SskyOperator.
///
/// The window is visited in place through a WindowStream, only on steps
/// where an audit or oracle check actually fires.
class AuditManager {
 public:
  /// Oldest-first access to the window the operator ran over. Slice
  /// audits batch their targets so one pass serves the whole slice.
  struct WindowStream {
    /// Current window size.
    std::function<uint64_t()> size;
    /// Element `i` from the oldest; slice audits read their pass with
    /// ascending `i` (disk windows read a resolved segment per run of
    /// calls inside it).
    std::function<UncertainElement(uint64_t)> at;
    /// Visits every element oldest-first (the shadow oracle's replay).
    std::function<void(const std::function<void(const UncertainElement&)>&)>
        scan;

    /// Streams any window with size() and At(i) — CountWindow,
    /// TimeWindow, StoredCountWindow. `w` must outlive the stream.
    template <typename W>
    static WindowStream Of(const W* w) {
      WindowStream ws;
      ws.size = [w] { return static_cast<uint64_t>(w->size()); };
      ws.at = [w](uint64_t i) {
        return UncertainElement(w->At(static_cast<size_t>(i)));
      };
      ws.scan = [w](const std::function<void(const UncertainElement&)>& fn) {
        for (size_t i = 0, n = w->size(); i < n; ++i) fn(w->At(i));
      };
      return ws;
    }
  };

  AuditManager(SskyOperator* op, AuditOptions options, WindowStream window);

  /// Blocks on any in-flight asynchronous oracle replay (without counting
  /// its verdict — a destroyed auditor reports what it has harvested).
  ~AuditManager();

  /// Advances the audit schedule by one stream step (call after the
  /// operator processed the element). Returns false when this step
  /// detected a violation it could not repair.
  bool Step();

  /// Harvests the in-flight asynchronous oracle replay, if any, blocking
  /// until its verdict is in. Call at end of stream so no replay's result
  /// is dropped. Returns false on an unrepaired violation.
  bool Drain();

  /// Audits every window element immediately (repairing per mode),
  /// regardless of cadence. Returns the number of violations left
  /// unrepaired by this sweep. Used for escalation and final sweeps.
  uint64_t AuditAll();

  /// Overload response (core/overload.h): stretches the slice-audit
  /// cadence by `audit_stretch` (1 restores the configured cadence) and,
  /// while `suspend_oracle` is set, skips shadow-oracle launches and
  /// harvests entirely — an in-flight replay is picked up by the next
  /// oracle step after release, or by Drain(). Reversible at any step.
  void SetDegradation(bool suspend_oracle, uint64_t audit_stretch) {
    suspend_oracle_ = suspend_oracle;
    audit_stretch_ = audit_stretch == 0 ? 1 : audit_stretch;
  }

  /// Steps since the last slice audit actually ran — the audit lag a
  /// heartbeat line reports; grows while the ladder has auditing
  /// stretched or the cadence simply has not come due.
  uint64_t steps_since_last_audit() const {
    return report_.steps_seen - last_slice_audit_step_;
  }

  /// Replays the window through the naive reference operator and diffs
  /// the q-skyline, escalating per mode. Returns true when the skylines
  /// agree (possibly after repair).
  bool RunOracleCheck();

  const AuditReport& report() const { return report_; }
  const AuditOptions& options() const { return options_; }

 private:
  // An asynchronous oracle replay in flight: the skyline the operator
  // reported at snapshot time, plus the future delivering what the naive
  // oracle says it should have been.
  //
  // Concurrency contract (why this class carries no Mutex of its own):
  // the worker job owns value *copies* captured at launch — it never
  // touches the live operator, window, or this object — and its only
  // communication back is the future, whose set/get pair is the
  // synchronization edge. Everything else in AuditManager runs on the
  // single pipeline thread.
  struct PendingOracle {
    std::vector<uint64_t> reported;
    std::future<std::vector<uint64_t>> want;
  };

  // Exact-state check given `e`'s window-exact P_new; all the tree
  // lookups, drift accounting, and repairs live here.
  void AuditElement(const UncertainElement& e, double exact_pnew);
  // Audits `targets` ({window index, element} pairs): one oldest→newest
  // pass over the positions newer than the oldest target accumulates
  // every target's exact P_new.
  void AuditBatch(
      const std::vector<std::pair<uint64_t, UncertainElement>>& targets);
  void RunSliceAudit();
  // Snapshots window + reported skyline and queues the replay on pool.
  void LaunchOracleAsync();
  // Joins pending_oracle_ (if any) and applies its verdict. A stale
  // mismatch escalates to a synchronous RunOracleCheck against live
  // state. Returns false on an unrepaired violation.
  bool HarvestOracle();

  SskyOperator* op_;
  AuditOptions options_;
  WindowStream window_;
  AuditReport report_;
  uint64_t cursor_ = 0;  // rotating position into the window
  double q_log_;
  std::optional<PendingOracle> pending_oracle_;
  // Degradation state (SetDegradation); defaults are "no degradation".
  bool suspend_oracle_ = false;
  uint64_t audit_stretch_ = 1;
  uint64_t last_slice_audit_step_ = 0;
};

// --- crash quarantine ----------------------------------------------------

/// Post-mortem dump: everything needed to reproduce and diagnose the state
/// a crashed or integrity-violating run died with.
struct QuarantineDump {
  /// Build info of the producing binary (filled by WriteQuarantineFile
  /// when left empty).
  std::string producer;
  /// Why the dump was taken ("PSKY_CHECK failed: ...", "signal 11",
  /// "unrepaired integrity violation", ...).
  std::string reason;
  AuditReport report;
  /// Full window state, reusing the checkpoint serializer — a quarantine
  /// file can be replayed exactly like a checkpoint.
  CheckpointState state;
};

/// Canonical quarantine file name for a dump taken after
/// `elements_consumed` steps: "quarantine-<20-digit count>.pskyq".
std::string QuarantineFileName(uint64_t elements_consumed);

/// As above but carrying a per-run monotonic dump sequence number (from
/// QuarantineGovernor), so repeated failures at the same stream position
/// cannot overwrite each other's evidence:
/// "quarantine-<20-digit count>-<3-digit seq>.pskyq".
std::string QuarantineFileName(uint64_t elements_consumed, uint64_t dump_seq);

/// Writes `dump` to `path` atomically (same temp-and-rename discipline as
/// checkpoints). Returns false and sets `*error` on I/O failure.
bool WriteQuarantineFile(const std::string& path, const QuarantineDump& dump,
                         std::string* error);

/// Errno-reporting variant (same errno contract as
/// WriteCheckpointFileStreamed); honors the qrtn-write fault-injection site.
bool WriteQuarantineFile(const std::string& path, const QuarantineDump& dump,
                         std::string* error, int* out_errno);

/// Retrying wrapper mirroring WriteCheckpointFileStreamedRetry: transient
/// I/O errnos are retried with jittered backoff under `policy`; only after
/// budget exhaustion (or a permanent error) does the dump fail.
bool WriteQuarantineFileRetry(const std::string& path,
                              const QuarantineDump& dump,
                              const RetryPolicy& policy, RetryStats* stats,
                              std::string* error);

/// Rate-limits quarantine dumps so a failure *burst* — a PSKY_CHECK storm
/// or an integrity violation detected on every subsequent step — produces
/// one post-mortem file, not thousands. The first failure of a burst is
/// admitted and assigned a monotonic sequence number; further failures
/// within `burst_window_steps` stream steps of the last admitted dump are
/// suppressed (and counted). A failure after the window has passed starts
/// a new burst.
///
/// Not thread-safe: the crash paths that consult it are terminal and
/// single-threaded (fatal-signal handler, strict-mode exit).
class QuarantineGovernor {
 public:
  struct Options {
    /// Failures within this many steps of the last admitted dump belong
    /// to the same burst.
    uint64_t burst_window_steps = 1024;
  };

  QuarantineGovernor() = default;
  explicit QuarantineGovernor(Options options) : options_(options) {}

  /// Asks to dump for a failure observed at stream step `step`. Returns
  /// true and writes the dump's sequence number (1-based, monotonic) to
  /// `*seq_out` when admitted; returns false (failure counted suppressed)
  /// when the failure belongs to the current burst.
  bool Admit(uint64_t step, uint64_t* seq_out);

  uint64_t dumps_admitted() const { return dumps_admitted_; }
  uint64_t dumps_suppressed() const { return dumps_suppressed_; }

 private:
  Options options_;
  uint64_t dumps_admitted_ = 0;
  uint64_t dumps_suppressed_ = 0;
  uint64_t last_dump_step_ = 0;
};

/// Reads and validates a quarantine file (magic, version, CRC, embedded
/// checkpoint). Returns false with `*error` on failure.
bool ReadQuarantineFile(const std::string& path, QuarantineDump* out,
                        std::string* error);

}  // namespace psky

#endif  // PSKY_CORE_AUDIT_H_
