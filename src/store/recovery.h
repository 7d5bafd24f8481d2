// Crash recovery and deterministic historical replay over the durable
// stores: checkpoints (core/checkpoint.h) plus the write-ahead element
// log (store/wal.h).
//
// Recovery contract: operator state is a pure function of the admitted
// element sequence (paper Theorems 2-4), and both stores capture that
// sequence exactly. So every rebuild — `--resume`, WAL-tail recovery
// after a crash, and `--replay-at` — is one operation: StreamRecovery
// picks the newest valid checkpoint (at or before an optional
// ReplayTarget) and streams its window, then the WAL records after it,
// oldest first, into the caller's sink. The caller feeds each element
// through the same window step its live loop uses, so the rebuilt state
// is bit-identical to the state an uninterrupted run had at the same
// stream position. The checkpoint window streams one decode batch at a
// time and WAL files are read whole, one at a time, so a rebuild never
// holds the window in memory. Records past the last group-commit sync
// may be missing after a crash; for replayable sources the caller
// re-reads them from the source using the last surviving record's
// position stamps, so the final output is still bit-identical.
//
// RecoverState is the collecting form of the same call, for callers that
// want the checkpoint window and WAL tail as vectors.

#ifndef PSKY_STORE_RECOVERY_H_
#define PSKY_STORE_RECOVERY_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/checkpoint.h"
#include "store/wal.h"

namespace psky {

/// Everything needed to resume (or rebuild) a pipeline: a base snapshot
/// plus the WAL records to replay on top of it, in stream order.
struct RecoveredState {
  /// Base snapshot. When has_checkpoint is false no valid checkpoint
  /// existed and `checkpoint` is a default state (recovery starts from
  /// an empty window at step 0; the caller supplies the configuration).
  /// StreamRecovery leaves `checkpoint.window` empty: the window goes to
  /// the sink instead.
  CheckpointState checkpoint;
  bool has_checkpoint = false;

  /// WAL records with step_after > checkpoint.elements_consumed,
  /// contiguous and in stream order. RecoverState fills it;
  /// StreamRecovery hands the records to the sink and leaves it empty.
  std::vector<WalRecord> tail;

  /// Dims stamped in the first WAL file the rebuild reads (0 when it
  /// reads none).
  uint32_t wal_dims = 0;

  /// Newest WAL file (the append target for the resumed run); empty when
  /// none exists or the newest one is unreadable.
  std::string active_wal;
  uint64_t active_wal_start = 0;
  /// From the decode of active_wal the rebuild already did, so that
  /// WalWriter::OpenForAppend reopens it without reading it again.
  WalTail active_wal_tail;

  /// True when any WAL file in the chain had a torn tail (the torn bytes
  /// are ignored here; WalWriter::OpenForAppend repairs them on disk).
  bool tail_truncated = false;

  /// Human-readable notes: skipped corrupt files, truncation reasons,
  /// coverage gaps. Never fatal by itself.
  std::string notes;
};

/// A historical replay target: a stream position (elements consumed) or
/// a stream timestamp.
struct ReplayTarget {
  enum class Kind { kStep, kTime };
  Kind kind = Kind::kStep;
  uint64_t step = 0;  ///< kStep: replay through this many elements
  double time = 0.0;  ///< kTime: replay elements with time <= this
};

/// Receives a rebuild in stream order.
struct RecoverySink {
  /// Runs once, before any element reaches `element` or `record`, with
  /// the chosen base: the checkpoint's configuration and counters (window
  /// empty) and `wal_dims`. Returning false stops the rebuild before
  /// anything is applied. Optional.
  std::function<bool(const RecoveredState& base)> begin;
  /// The base checkpoint's window, oldest first. Required.
  std::function<void(const UncertainElement&)> element;
  /// WAL records after the base, in stream order. When empty the WAL is
  /// not read and the rebuild is the checkpoint alone.
  std::function<void(const WalRecord&)> record;
};

/// Streams the rebuild of the state in `dir` into `sink`: the newest
/// checkpoint that validates (whole-file CRC and element decode, checked
/// before any element is delivered) — with a target, the newest whose
/// state is a prefix of the target — then the contiguous WAL records
/// after it. Without a target, everything recoverable is delivered.
/// `*out` receives the base and the WAL bookkeeping (never the window or
/// the records). Returns false with `*error` when `dir` holds nothing to
/// rebuild from, when `sink.begin` refuses the base (`*error` is then
/// left empty), on an I/O failure mid-stream, or when a target lies
/// outside retained history: before the oldest retained checkpoint with
/// no WAL from step 1, or beyond the end of the log.
bool StreamRecovery(const std::string& dir,
                    const std::optional<ReplayTarget>& target,
                    const RecoverySink& sink, RecoveredState* out,
                    std::string* error);

/// Collects StreamRecovery's full rebuild of `dir` into `*out`: the
/// checkpoint window into `out->checkpoint.window` and the WAL records
/// into `out->tail`. Returns false only when `dir` holds neither a valid
/// checkpoint nor a readable WAL (nothing to recover from); `*error` then
/// explains why. A missing checkpoint with usable WAL records (crash
/// before the first checkpoint) succeeds with has_checkpoint = false.
bool RecoverState(const std::string& dir, RecoveredState* out,
                  std::string* error);

/// Parses a --replay-at spec: a bare integer is a position, "ts:<secs>"
/// a finite timestamp. Returns false with a diagnostic on malformed
/// input.
bool ParseReplayTarget(const std::string& spec, ReplayTarget* out,
                       std::string* error);

/// Recovers the step count a CheckpointFileName-style path encodes.
/// Returns false for unrelated names.
bool ParseCheckpointStep(const std::string& path, uint64_t* step);

}  // namespace psky

#endif  // PSKY_STORE_RECOVERY_H_
