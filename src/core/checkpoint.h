// Durable operator state: versioned, CRC-checksummed binary snapshots of a
// sliding-window skyline pipeline.
//
// A checkpoint captures everything needed to resume a continuous q-skyline
// query after a process restart: the operator/window configuration, the
// stream position, and the full ordered window contents. Restoring is
// deterministic replay — the window elements are re-inserted oldest-first
// into a fresh operator, which rebuilds exactly the candidate set and
// probability state of the original run (the operator state is a function
// of the window contents; see the paper's Theorems 2-4). Choosing which
// checkpoint to restore, and streaming it with the WAL records after it,
// is store/recovery.h's StreamRecovery.
//
// File layout (all integers little-endian, doubles IEEE-754 bit patterns):
//
//   [0,  8)   magic "PSKYCKPT"
//   [8, 12)   format version (u32, currently 2)
//   [12,16)   CRC-32 of the payload
//   [16,24)   payload size in bytes (u64)
//   [24, ..)  payload (see EncodeCheckpoint)
//
// Version 2 prepends a build-info stamp (git hash + build type of the
// producing binary, see base/build_info.h) to the payload so post-mortems
// can identify which binary wrote a snapshot.
//
// One writer and one reader touch checkpoint files, and both stream the
// window one element at a time, so a 100M-element disk window is never
// materialized to checkpoint or resume it. WriteCheckpointFileStreamed
// is the only code that opens, writes, fsyncs and renames a checkpoint:
// the bytes go to "<path>.tmp" which is then renamed over <path>, so a
// crash mid-write never clobbers an existing good checkpoint.
// ReadCheckpointFileStreamed is the only file reader; it shares the
// header, fixed-field and element decoding with the in-memory
// DecodeCheckpoint (quarantine dumps embed EncodeCheckpoint bytes).
// Readers reject bad magic, unknown versions, truncated files and CRC
// mismatches with a diagnostic — never a crash.

#ifndef PSKY_CORE_CHECKPOINT_H_
#define PSKY_CORE_CHECKPOINT_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "base/retry.h"
#include "core/operator.h"
#include "stream/element.h"

namespace psky {

/// Which sliding-window model the checkpointed pipeline ran.
enum class WindowKind : uint8_t {
  kCount = 0,  ///< most recent `window_capacity` elements
  kTime = 1,   ///< most recent `time_span` seconds
};

/// Complete resumable state of a streaming skyline pipeline.
struct CheckpointState {
  /// Build-info stamp of the binary that wrote the snapshot. Filled by
  /// EncodeCheckpoint (writers need not set it) and recovered by
  /// DecodeCheckpoint.
  std::string producer;

  // --- operator / window configuration ---------------------------------
  int dims = 2;
  double q = 0.3;
  WindowKind window_kind = WindowKind::kCount;
  uint64_t window_capacity = 0;  ///< count windows; 0 for time windows
  double time_span = 0.0;        ///< time windows; 0 for count windows

  // --- stream position --------------------------------------------------
  /// Elements fed into the operator so far (pipeline steps).
  uint64_t elements_consumed = 0;
  /// Raw input lines read so far (CSV sources; 0 for generators).
  uint64_t lines_consumed = 0;
  /// Next sequence number the source will assign.
  uint64_t next_seq = 0;

  // --- ingestion counters (carried across restarts for reporting) ------
  uint64_t bad_lines_skipped = 0;
  uint64_t probs_clamped = 0;
  uint64_t ooo_dropped = 0;

  /// Window contents, oldest first.
  std::vector<UncertainElement> window;
};

/// Serializes `state` into the versioned, checksummed binary format.
std::string EncodeCheckpoint(const CheckpointState& state);

/// Parses bytes produced by EncodeCheckpoint. On failure returns false and
/// sets `*error` (bad magic, unsupported version, truncation, CRC mismatch,
/// or malformed payload); `*out` is left unspecified.
bool DecodeCheckpoint(std::string_view bytes, CheckpointState* out,
                      std::string* error);

/// Writes `state` to `path` atomically (write "<path>.tmp", fsync, rename)
/// by streaming `state.window` through WriteCheckpointFileStreamed.
/// Returns false and sets `*error` on any I/O failure; `*out_errno`, when
/// given, receives the failing errno as documented there.
bool WriteCheckpointFile(const std::string& path, const CheckpointState& state,
                         std::string* error, int* out_errno = nullptr);

// --- streaming codec -----------------------------------------------------
//
// The writer pulls elements one at a time (e.g. from a window's At(i))
// and the reader pushes them one at a time (e.g. straight into a
// StoredCountWindow + operator), so encode/decode hold at most one I/O
// chunk of elements in memory. The bytes written equal
// EncodeCheckpoint for the same logical state — the CRC header is
// back-patched after the payload has streamed through an incremental
// CRC-32.

/// Pull-source of window elements, oldest first. Must yield exactly the
/// element count promised to the writer; returning false early fails the
/// write.
using CheckpointElementSource = std::function<bool(UncertainElement*)>;

/// Receives decoded window elements oldest-first during streaming reads.
using CheckpointElementSink = std::function<void(const UncertainElement&)>;

/// Writes a checkpoint whose window contents come from `source`
/// (`window_count` elements); `state.window` is ignored. Reports the
/// failing errno through `*out_errno` (0 for non-errno failures such as
/// an injected crash hook) so callers can tell transient I/O conditions
/// (EIO, ENOSPC, EINTR, ...) from permanent ones. Honors the
/// fault-injection sites ckpt-open/-write/-fsync/-rename
/// (base/fault_injection.h) and the crash hooks below.
bool WriteCheckpointFileStreamed(const std::string& path,
                                 const CheckpointState& state,
                                 uint64_t window_count,
                                 const CheckpointElementSource& source,
                                 std::string* error, int* out_errno);

/// Retrying wrapper: re-attempts the write under `policy` with jittered
/// exponential backoff while the failure is a transient I/O errno
/// (IsTransientIoError). Permanent failures return immediately; a
/// transient failure that outlives the budget reports exhaustion in
/// `*stats`. `*error` carries the last attempt's diagnostic on failure.
/// Each attempt consumes a fresh source from `source_factory`, so every
/// retry restarts the window at its oldest element.
bool WriteCheckpointFileStreamedRetry(
    const std::string& path, const CheckpointState& state,
    uint64_t window_count,
    const std::function<CheckpointElementSource()>& source_factory,
    const RetryPolicy& policy, RetryStats* stats, std::string* error);

/// Reads and validates a checkpoint file without materializing its
/// window: configuration and counters land in `*out` (with `out->window`
/// left empty) and each window element is delivered to `sink` oldest
/// first. Validation is two-pass — the payload CRC is verified before
/// any element reaches the sink, so a corrupt file delivers nothing.
bool ReadCheckpointFileStreamed(const std::string& path, CheckpointState* out,
                                const CheckpointElementSink& sink,
                                std::string* error);

/// Reads and validates a checkpoint file through ReadCheckpointFileStreamed,
/// collecting the window into `out->window`. Returns false with `*error`
/// on I/O failure or any corruption.
bool ReadCheckpointFile(const std::string& path, CheckpointState* out,
                        std::string* error);

/// Canonical file name for a checkpoint taken after `elements_consumed`
/// steps: "ckpt-<20-digit count>.psky" (zero-padded so lexicographic order
/// is stream order).
std::string CheckpointFileName(uint64_t elements_consumed);

/// Checkpoint files in `dir` (by CheckpointFileName convention), newest
/// first. Ignores temp files and unrelated names. Missing or unreadable
/// directories yield an empty list.
std::vector<std::string> ListCheckpointFiles(const std::string& dir);

/// Deletes all but the `keep` newest checkpoint files in `dir`, plus any
/// stale ".tmp" leftovers from interrupted writes.
void PruneCheckpoints(const std::string& dir, size_t keep);

/// Removes ".tmp" leftovers from crashed mid-write attempts without
/// touching any completed checkpoint. Called on startup and before each
/// write so interrupted runs cannot accumulate temp wreckage. Returns the
/// number of files removed; a missing directory is a no-op.
size_t RemoveStaleCheckpointTemps(const std::string& dir);

/// Creates `dir` (and missing parents) if it does not exist, so a fresh
/// `--checkpoint-dir` works without manual setup. Returns false with a
/// diagnostic in `*error` when the path cannot be created or names a
/// non-directory.
bool EnsureCheckpointDir(const std::string& dir, std::string* error);

/// Rebuilds operator state by replaying the checkpointed window contents
/// oldest-first into `op` (which must be freshly constructed with the
/// checkpoint's dims and q).
void ReplayWindow(const CheckpointState& state, WindowSkylineOperator* op);

// --- fault injection (tests only) ---------------------------------------

/// Stages of a checkpoint write where a simulated crash can be injected.
enum class CheckpointCrashPoint {
  kMidPayload,    ///< temp file holds a placeholder header + payload prefix
  kBeforeRename,  ///< temp file complete, rename not yet performed
};

/// Test hook: return false from the hook to make a checkpoint write stop
/// at that point as if the process died there — the temp file is left in
/// whatever state it reached and the target file is untouched. Pass
/// nullptr to clear.
using CheckpointCrashHook = bool (*)(CheckpointCrashPoint);
void SetCheckpointCrashHook(CheckpointCrashHook hook);

}  // namespace psky

#endif  // PSKY_CORE_CHECKPOINT_H_
