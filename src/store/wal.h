// Append-only, CRC-framed write-ahead element log.
//
// The WAL stamps every element the pipeline admits *before* it reaches
// the operator, so a crash loses at most the current group-commit window
// of acknowledged-but-unsynced records — and for replayable sources
// (generators, files) even those are re-read from the source on recovery,
// making restart output bit-identical to an uninterrupted run (the
// operator state is a pure function of the admitted element sequence;
// paper Theorems 2-4). Recovery = latest valid checkpoint + WAL tail
// replay (see store/recovery.h).
//
// File layout (integers little-endian, doubles IEEE-754 bit patterns):
//
//   [0,  8)  magic "PSKYWAL1"
//   [8, 12)  format version (u32, currently 1)
//   [12,16)  dims (u32)
//   [16,24)  start step (u64): pipeline steps consumed when this log
//            began; record N in the file has step_after = start + N
//   [24,..)  records, each framed as
//              u32 body length | u32 CRC-32 of body | body
//            (body layout: see EncodeWalRecord; position/counter stamps
//            are LEB128 varints to keep records small — sync cost
//            scales with bytes flushed)
//
// Logs rotate at every checkpoint: a new file named by the checkpoint's
// step count starts, so "wal-<S>.pskywal" holds exactly the records a
// resume from checkpoint S needs. Readers accept a torn tail — a partial
// or corrupt final frame from a crash mid-append — by truncating to the
// last whole record; everything before it is CRC-protected.
//
// Group commit: Append() buffers in user space, Sync() flushes and
// fsyncs. The caller drives cadence (psky_stream syncs every
// --wal-sync-every records, widened under disk pressure by the
// DiskPressureGovernor below — the disk-pressure rung of the
// degradation ladder).

#ifndef PSKY_STORE_WAL_H_
#define PSKY_STORE_WAL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "base/sync.h"
#include "stream/element.h"

namespace psky {

/// One durable ingest record: the admitted element plus the absolute
/// stream position and cumulative ingestion counters *after* it was
/// applied, so recovery can fast-forward the source and restore the
/// reporting counters exactly (counters are totals, not run-relative,
/// because the restarted source restarts its own counts from zero).
struct WalRecord {
  UncertainElement element;
  uint64_t step_after = 0;      ///< pipeline steps after this element
  uint64_t next_seq_after = 0;  ///< next sequence the source will assign
  uint64_t lines_after = 0;     ///< raw input lines consumed (CSV; else 0)
  uint64_t skipped_total = 0;   ///< cumulative bad input lines skipped
  uint64_t clamped_total = 0;   ///< cumulative probabilities clamped
  uint64_t ooo_total = 0;       ///< cumulative out-of-order drops
};

/// Serializes one record body (without the length/CRC frame).
std::string EncodeWalRecord(const WalRecord& r);

/// Parses bytes produced by EncodeWalRecord. Returns false with a
/// diagnostic on truncation or malformed fields; `*out` unspecified.
bool DecodeWalRecordBody(std::string_view body, WalRecord* out,
                         std::string* error);

/// Decoded contents of one WAL file plus tail diagnostics.
struct WalContents {
  uint32_t dims = 0;
  uint64_t start_step = 0;
  std::vector<WalRecord> records;  ///< the valid record prefix, in order
  /// Byte length of the valid prefix (header + whole records). A repair
  /// truncates the file to this length before appending resumes.
  uint64_t valid_bytes = 0;
  /// True when bytes past valid_bytes existed but did not form a whole,
  /// CRC-clean record (torn tail from a crash mid-append).
  bool tail_truncated = false;
  std::string tail_diagnostic;  ///< why the tail was cut (when truncated)
};

/// Decodes a whole WAL byte image. Returns false only for a fatal header
/// problem (bad magic/version/dims, or file shorter than a header); a
/// torn or corrupt record tail still returns true with the valid prefix
/// and tail_truncated set.
bool DecodeWalBytes(std::string_view bytes, WalContents* out,
                    std::string* error);

/// Reads and decodes a WAL file (see DecodeWalBytes for semantics).
bool ReadWalFile(const std::string& path, WalContents* out,
                 std::string* error);

/// What reopening a log for appending needs from one decode of it.
struct WalTail {
  uint32_t dims = 0;
  uint64_t valid_bytes = 0;  ///< WalContents::valid_bytes
  bool torn = false;         ///< WalContents::tail_truncated
  /// step_after of the next record to append.
  uint64_t next_step = 0;
};

/// The WalTail of a decoded log.
WalTail WalTailOf(const WalContents& contents);

/// Truncates `path` to the valid prefix reported by ReadWalFile so a
/// writer can append after the last whole record. No-op when the tail is
/// already clean.
bool RepairWalFile(const std::string& path, std::string* error);

/// Canonical file name for the log that starts after `start_step`
/// pipeline steps: "wal-<20-digit step>.pskywal" (zero-padded so
/// lexicographic order is stream order).
std::string WalFileName(uint64_t start_step);

/// Recovers the start step encoded in a WalFileName-style base name or
/// path. Returns false for unrelated names.
bool ParseWalStartStep(const std::string& path, uint64_t* start_step);

/// WAL files in `dir` (by WalFileName convention), oldest first. Ignores
/// temp files and unrelated names; missing directories yield an empty
/// list.
std::vector<std::string> ListWalFiles(const std::string& dir);

/// Deletes WAL files no resume can need: every file whose *successor*
/// starts at or below `keep_from_step` (i.e. the file's records all
/// precede the oldest retained checkpoint). Returns the number removed.
size_t PruneWalFiles(const std::string& dir, uint64_t keep_from_step);

/// Appender with group-commit fsync. Not thread-safe; psky_stream owns
/// one on the pipeline thread.
class WalWriter {
 public:
  struct Stats {
    uint64_t records_appended = 0;
    uint64_t syncs = 0;
    uint64_t async_syncs = 0;  ///< Sync() calls that overlapped fdatasync
    uint64_t rotations = 0;
  };

  WalWriter() = default;
  ~WalWriter();
  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  /// Creates a fresh log at `path` (atomically: header to "<path>.tmp",
  /// fsync, rename) and opens it for appending. Fails if `path` exists.
  bool Create(const std::string& path, uint32_t dims, uint64_t start_step,
              std::string* error, int* out_errno);

  /// Opens an existing log for appending without reading it: `tail`
  /// comes from the decode its caller already did (WalTailOf, or
  /// RecoveredState::active_wal_tail). A torn tail is cut to
  /// `tail.valid_bytes` first, as RepairWalFile does; the next record
  /// appended should carry `tail.next_step`.
  bool OpenForAppend(const std::string& path, const WalTail& tail,
                     std::string* error, int* out_errno);

  /// Buffers one record. Honors the wal-append fault site. Large buffers
  /// are flushed to the file (without fsync) to bound memory.
  bool Append(const WalRecord& r, std::string* error, int* out_errno);

  /// Flushes buffered records and fsyncs. Honors the wal-fsync fault
  /// site. Safe to call with nothing pending (no-op, not counted).
  ///
  /// With SetAsyncSync(true), the file write still happens here but the
  /// fdatasync is handed to a background thread and Sync() returns
  /// immediately — group-commit stalls overlap the next batch instead of
  /// landing on the step path. A background fdatasync failure is sticky:
  /// the next Sync()/SyncBarrier() reports it (once) so the caller's
  /// retry/quarantine machinery engages exactly as in synchronous mode.
  /// The wal-fsync fault site is still evaluated here, on the caller
  /// thread, keeping chaos schedules deterministic.
  bool Sync(std::string* error, int* out_errno);

  /// Opts in/out of overlapped group commit (see Sync). Turning it off
  /// drains the background thread first. Call between, not during,
  /// Sync/Append sequences.
  void SetAsyncSync(bool enabled);
  bool async_sync() const { return async_.enabled; }

  /// Blocks until every overlapped fdatasync completed; reports (and
  /// clears) a sticky background failure. The durability barrier the
  /// checkpoint path needs: after a successful SyncBarrier every record
  /// passed to a successful Sync() is on disk. No-op in sync mode.
  bool SyncBarrier(std::string* error, int* out_errno);

  /// Milliseconds the most recently completed overlapped fdatasync took;
  /// resets to 0 once read. Feeds the DiskPressureGovernor, which would
  /// otherwise only see the (cheap) enqueue latency.
  uint64_t TakeAsyncSyncLatencyMs();

  /// Syncs and closes the current log, then Creates
  /// `dir`/WalFileName(start_step) and switches appending to it.
  bool RotateTo(const std::string& dir, uint64_t start_step,
                std::string* error, int* out_errno);

  /// Syncs (best effort) and closes. Idempotent.
  void Close();

  bool is_open() const { return fd_ >= 0; }
  const std::string& path() const { return path_; }
  uint32_t dims() const { return dims_; }
  /// Records appended since the last successful Sync.
  uint64_t pending() const { return pending_; }
  const Stats& stats() const { return stats_; }

 private:
  bool FlushBuffer(std::string* error, int* out_errno);
  /// The synchronous fdatasync + fadvise tail of Sync().
  bool DataSyncNow(std::string* error, int* out_errno);
  /// Reports and clears the sticky background-sync error, if any, and
  /// queues a fresh fdatasync for the still-unsynced bytes so a retrying
  /// caller's next Sync/SyncBarrier waits on a real attempt.
  bool ConsumeStickyError(std::string* error, int* out_errno);
  void AsyncSyncLoop();
  /// Publishes the current fd *and path* to the worker under async_.mu
  /// (fd < 0 = nothing to sync). The worker must never read the
  /// appender-owned fd_/path_ directly: they mutate on the caller thread
  /// across Create/Rotate/Close with no lock held.
  void UpdateAsyncTarget(int fd);

  // Appender state: owned by the single appender thread (the class is
  // not thread-safe by contract); the async worker sees snapshots of fd
  // and path via UpdateAsyncTarget only.
  int fd_ = -1;
  std::string path_;
  uint32_t dims_ = 0;
  std::string buffer_;
  uint64_t pending_ = 0;
  Stats stats_;

  /// Overlapped group-commit state. `mu` guards the fields below it;
  /// the worker snapshots `fd` and the request ticket under the lock,
  /// runs fdatasync unlocked, then publishes completion — so
  /// SyncBarrier() returning means no fdatasync is in flight and the fd
  /// may be closed.
  struct AsyncSync {
    bool enabled = false;
    std::thread thread;
    Mutex mu{"wal-async", lockrank::kWalAsync};
    CondVar cv;
    uint64_t requested PSKY_GUARDED_BY(mu) = 0;
    uint64_t completed PSKY_GUARDED_BY(mu) = 0;
    int sticky_errno PSKY_GUARDED_BY(mu) = 0;
    std::string sticky_error PSKY_GUARDED_BY(mu);
    uint64_t last_latency_ms PSKY_GUARDED_BY(mu) = 0;
    int fd PSKY_GUARDED_BY(mu) = -1;
    /// Snapshot of path_ taken when `fd` was published; the worker's
    /// error messages name this, not the live path_ (which the appender
    /// may be rewriting during a rotation).
    std::string path PSKY_GUARDED_BY(mu);
    bool stop PSKY_GUARDED_BY(mu) = false;
  };
  AsyncSync async_;
};

/// The disk-pressure rung of the degradation ladder: widens the WAL
/// group-commit window when syncs fail transiently or run slow, and
/// narrows it back after a sustained clean streak (hysteresis, mirroring
/// core/overload.h's DegradationLadder). The WAL is never dropped —
/// callers that exhaust their retry budget quarantine and exit instead.
class DiskPressureGovernor {
 public:
  struct Options {
    uint64_t slow_sync_ms = 50;    ///< sync latency that signals pressure
    uint64_t escalate_factor = 4;  ///< multiplier step per escalation
    uint64_t max_multiplier = 16;  ///< widest group-commit stretch
    uint64_t recover_after = 32;   ///< clean syncs before stepping down
  };

  DiskPressureGovernor() : DiskPressureGovernor(Options{}) {}
  explicit DiskPressureGovernor(const Options& opts) : opts_(opts) {}

  /// Feeds one sync outcome. Returns true when the multiplier changed
  /// (so callers can log the transition).
  bool ObserveSync(bool transient_failure, uint64_t latency_ms);

  /// Current group-commit widening factor (1 = nominal cadence).
  uint64_t multiplier() const { return multiplier_; }
  uint64_t escalations() const { return escalations_; }
  uint64_t recoveries() const { return recoveries_; }

 private:
  Options opts_;
  uint64_t multiplier_ = 1;
  uint64_t clean_streak_ = 0;
  uint64_t escalations_ = 0;
  uint64_t recoveries_ = 0;
};

}  // namespace psky

#endif  // PSKY_STORE_WAL_H_
