// psky_stream: command-line continuous probabilistic skyline over CSV
// streams (or built-in generators).
//
// Usage:
//   psky_stream --dims 3 --q 0.3 --window 100000 [--input FILE]
//               [--emit counts|deltas|final] [--every K] [--topk K]
//   psky_stream --generate anti|inde|corr|stock --count 100000 ...
//
// Input lines: v1,...,vd,prob[,timestamp]  ('#' comments allowed).
// With --time-span T the window is time-based (timestamps required).
//
// Fault tolerance (see docs/operations.md):
//   --checkpoint-dir DIR     durable snapshots of the window state
//   --checkpoint-every K     snapshot every K elements (plus one at exit)
//   --resume                 rebuild the newest valid snapshot (with --wal
//                            also the WAL records after it) through the
//                            live window step, fast-forward the source,
//                            and continue the stream
//   --io-retries N           retry transient checkpoint/quarantine I/O
//                            failures up to N times with jittered backoff
//   --on-bad-input fail|skip|clamp   malformed-line policy (default fail)
//   --ooo-policy reject|clamp        late-timestamp policy (default reject)
//
// Durability & replay (see docs/operations.md "Durability & replay"):
//   --wal                    write-ahead log of every admitted element in
//                            the checkpoint dir; --resume then replays the
//                            WAL tail past the newest checkpoint, making
//                            recovery from SIGKILL bit-identical to an
//                            uninterrupted run (for replayable sources)
//   --wal-sync-every K       group-commit fsync cadence (default 4096);
//                            widened automatically under disk pressure.
//                            For replayable sources the cadence does not
//                            bound data loss (recovery re-reads the
//                            source tail); it only matters for inputs
//                            that cannot be re-read, e.g. piped CSV
//   --wal-sync-mode M        async (default) overlaps the fdatasync with
//                            the next batch on a background thread —
//                            same durability barrier at checkpoints,
//                            failures surface on the next sync; sync
//                            blocks the step path on every fdatasync
//   --keep-checkpoints N     checkpoint retention (default 2); WAL files
//                            are pruned against the oldest kept checkpoint
//   --window-store mem|disk  where the window buffer lives; disk keeps it
//                            in segment files behind three segment
//                            buffers, so its RAM does not grow with N
//   --store-dir DIR          segment directory (default <ckpt-dir>/segments)
//   --segment-elems K        elements per segment file (default 4096)
//   --replay-at P|ts:T       historical query: rebuild the window state at
//                            stream position P (or time T) from checkpoint
//                            + WAL exactly as --resume does, print the
//                            skyline, and exit. Read-only: it creates and
//                            removes nothing in the checkpoint dir
// SIGINT/SIGTERM drain gracefully: queued elements are processed, a final
// checkpoint is flushed (when a checkpoint dir is configured) and counters
// are reported before exit.
//
// Sharded parallel ingestion (see docs/algorithm.md "Sharded ingestion"):
//   --shards N               partition the stream across N per-shard
//                            candidate stores, each on its own worker
//                            thread behind a lock-free SPSC queue;
//                            queries run an exact cross-shard merge (the
//                            sequential skyline, bit for bit).
//                            1 (default) keeps the sequential operator.
//                            At --dims 3 and up an element goes to the
//                            sector of its angle around the diagonal
//                            (x0, x1, x2 only); at --dims 1 and 2, to
//                            its hashed grid cell
//   The shards are fed from the same window a sequential run keeps
//   (count, time or disk): each window step sends the expiries and the
//   insert to the owning shards. Sharded runs support --emit
//   counts|final (and --topk); deltas, --query-deadline-ms and
//   --inject-drift-at require the sequential operator. With auditing on,
//   each shard audits its own substream on its own worker.
//
// Overload management (see docs/operations.md):
//   --max-queue N            bounded ingest queue in front of the operator;
//                            ingestion moves to its own thread, and the
//                            operator pops 64 elements at a time (0 =
//                            direct: one element at a time, one thread)
//   --overload-policy P      what a full queue does with the next element:
//                            block | shed-oldest | shed-low-prob
//   --query-deadline-ms MS   deadline for the final skyline/top-k query
//   --stats-interval K       heartbeat line on stderr every K steps
//   --watchdog-stall-ms MS   alarm when no step completes for MS while busy
//   --chaos-schedule SPEC    seeded fault injection (base/fault_injection.h)
//
// Integrity auditing (see docs/operations.md):
//   --audit-mode off|check|repair  what to do with detected drift
//   --audit-every K          re-derive a slice of exact values every K steps
//   --audit-oracle-every K   replay the window through the naive oracle
//                            every K steps, inline on the step path
//   --strict                 exit 4 on any violation the auditor could not
//                            repair (a quarantine dump is written first)
// On PSKY_CHECK failure or a fatal signal the window is dumped as a plain
// checkpoint, quarantine-<step>-<seq>.psky (--resume can start from it),
// with the reason and audit counters in quarantine-<step>-<seq>.txt, in
// the checkpoint dir (or the working directory). Dumps are rate-limited
// to one per failure burst and carry monotonic sequence numbers.
//
// Output (stdout), one line per report:
//   counts:  step=<n> candidates=<c> skyline=<s>
//   deltas:  +<seq> / -<seq> skyline membership changes as they happen
//   final:   the full skyline once, at end of stream
// Exit codes: 0 ok (including graceful signal stop), 1 bad usage or
// configuration, 2 malformed input, 3 checkpoint I/O failure, 4 unrepaired
// integrity violation under --strict.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <climits>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <thread>

#include "base/build_info.h"
#include "base/cancel.h"
#include "base/check.h"
#include "base/fault_injection.h"
#include "base/retry.h"
#include "core/audit.h"
#include "core/checkpoint.h"
#include "core/overload.h"
#include "core/naive_operator.h"
#include "core/shard_engine.h"
#include "core/ssky_operator.h"
#include "core/topk_operator.h"
#include "store/recovery.h"
#include "store/segment_store.h"
#include "store/wal.h"
#include "stream/csv.h"
#include "stream/generator.h"
#include "stream/stock.h"
#include "stream/window.h"

namespace {

volatile std::sig_atomic_t g_stop_requested = 0;

/// Items the queue consumer pops at once (--max-queue), before the
/// degradation ladder's batch multiplier. Under the block policy outputs
/// do not depend on it; a larger pop frees queue space in bigger steps.
constexpr size_t kConsumerBatch = 64;

void HandleStopSignal(int /*signum*/) { g_stop_requested = 1; }

struct Args {
  int dims = 2;
  double q = 0.3;
  size_t window = 100000;
  double time_span = 0.0;  // > 0: time-based window
  std::string input;       // empty: stdin
  std::string generate;    // empty: read csv
  size_t count = 100000;   // generated elements
  uint64_t seed = 42;
  std::string emit = "counts";
  size_t every = 10000;
  size_t topk = 0;
  /// Stream partitions, each with its own store and worker thread;
  /// 1 keeps the sequential operator (the default, bit-identical to
  /// previous releases).
  int shards = 1;
  std::string checkpoint_dir;       // empty: checkpointing disabled
  uint64_t checkpoint_every = 0;    // 0: only final/signal checkpoints
  bool resume = false;
  // --- durability & replay ---------------------------------------------
  /// Write-ahead log of every admitted element (requires checkpoint dir).
  bool wal = false;
  /// Group-commit cadence: fsync after this many appended records.
  uint64_t wal_sync_every = 4096;
  /// "async" (default) overlaps fdatasync with the next batch; "sync"
  /// blocks the step path on every group commit.
  std::string wal_sync_mode = "async";
  /// Checkpoint files kept by pruning (WAL retention follows).
  uint64_t keep_checkpoints = 2;
  /// Window buffer placement: "mem" (deque) or "disk" (segment store).
  std::string window_store = "mem";
  /// Segment directory; empty derives <checkpoint-dir>/segments.
  std::string store_dir;
  /// Elements per segment file, and per each of the disk window's three
  /// segment buffers: peak RSS is ~ 3 * segment bytes + S_{N,q}.
  uint64_t segment_elems = 4096;
  /// Historical replay target ("<pos>" or "ts:<seconds>"); empty: off.
  std::string replay_at;
  psky::BadInputPolicy on_bad_input = psky::BadInputPolicy::kFail;
  psky::TimestampPolicy ooo_policy = psky::TimestampPolicy::kReject;
  psky::AuditMode audit_mode = psky::AuditMode::kOff;
  uint64_t audit_every = 64;
  uint64_t audit_oracle_every = 0;
  bool strict = false;
  // Test hook: at this step, corrupt one live element's probability state
  // in place, exactly the kind of damage the auditor exists to catch.
  uint64_t inject_drift_at = 0;
  // --- overload management ---------------------------------------------
  /// Ingest queue capacity; 0 keeps the classic single-threaded loop.
  size_t max_queue = 0;
  psky::OverloadPolicy overload_policy = psky::OverloadPolicy::kBlock;
  /// Deadline for the final skyline/top-k query; 0 = unbounded.
  uint64_t query_deadline_ms = 0;
  /// Heartbeat cadence in steps; 0 disables the heartbeat.
  uint64_t stats_interval = 0;
  /// Watchdog stall threshold; 0 disables the watchdog.
  uint64_t watchdog_stall_ms = 0;
  /// Extra attempts for transient checkpoint/quarantine I/O failures.
  int io_retries = 0;
  /// Base backoff between I/O retries (doubled per retry, jittered).
  uint64_t io_backoff_ms = 10;
  /// Fault-injection schedule (see base/fault_injection.h for grammar).
  std::string chaos_schedule;
};

[[noreturn]] void Usage(const char* msg) {
  if (msg != nullptr) std::fprintf(stderr, "error: %s\n", msg);
  std::fprintf(stderr,
               "usage: psky_stream --dims D --q Q (--window N | "
               "--time-span T)\n"
               "                   [--input FILE | --generate "
               "anti|inde|corr|stock --count N]\n"
               "                   [--emit counts|deltas|final] [--every K] "
               "[--topk K] [--seed S]\n"
               "                   [--shards N]\n"
               "                   [--checkpoint-dir DIR [--checkpoint-every "
               "K] [--resume]]\n"
               "                   [--wal] [--wal-sync-every K] "
               "[--wal-sync-mode sync|async]\n"
               "                   [--keep-checkpoints N]\n"
               "                   [--window-store mem|disk] [--store-dir "
               "DIR] [--segment-elems K]\n"
               "                   [--replay-at POS|ts:SECS]\n"
               "                   [--io-retries N] [--io-backoff-ms MS]\n"
               "                   [--max-queue N] [--overload-policy "
               "block|shed-oldest|shed-low-prob]\n"
               "                   [--query-deadline-ms MS] "
               "[--stats-interval K]\n"
               "                   [--watchdog-stall-ms MS] "
               "[--chaos-schedule SPEC]\n"
               "                   [--on-bad-input fail|skip|clamp] "
               "[--ooo-policy reject|clamp]\n"
               "                   [--audit-mode off|check|repair] "
               "[--audit-every K]\n"
               "                   [--audit-oracle-every K] [--strict] "
               "[--version]\n");
  std::exit(1);
}

// --- checked flag-value parsing -----------------------------------------
// atoi/atof silently turn garbage into 0; these reject any value that is
// not entirely a number of the right shape (for doubles: finite, since
// NaN slips past every range check).

[[noreturn]] void BadValue(const std::string& flag, const char* value) {
  Usage(("bad value for " + flag + ": '" + value + "'").c_str());
}

double ParseDoubleValue(const std::string& flag, const char* value) {
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(value, &end);
  if (end == value || *end != '\0' || errno == ERANGE || !std::isfinite(v)) {
    BadValue(flag, value);
  }
  return v;
}

uint64_t ParseUint64Value(const std::string& flag, const char* value) {
  const char* p = value;
  while (*p == ' ') ++p;
  if (*p == '-' || *p == '\0') BadValue(flag, value);
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(value, &end, 10);
  if (end == value || *end != '\0' || errno == ERANGE) BadValue(flag, value);
  return v;
}

int ParseIntValue(const std::string& flag, const char* value) {
  const uint64_t v = ParseUint64Value(flag, value);
  if (v > static_cast<uint64_t>(INT_MAX)) BadValue(flag, value);
  return static_cast<int>(v);
}

Args Parse(int argc, char** argv) {
  Args args;
  auto need = [&](int i) {
    if (i + 1 >= argc) Usage("missing argument value");
    return argv[i + 1];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--dims") {
      args.dims = ParseIntValue(flag, need(i++));
    } else if (flag == "--q") {
      args.q = ParseDoubleValue(flag, need(i++));
    } else if (flag == "--window") {
      args.window = static_cast<size_t>(ParseUint64Value(flag, need(i++)));
    } else if (flag == "--time-span") {
      args.time_span = ParseDoubleValue(flag, need(i++));
    } else if (flag == "--input") {
      args.input = need(i++);
    } else if (flag == "--generate") {
      args.generate = need(i++);
    } else if (flag == "--count") {
      args.count = static_cast<size_t>(ParseUint64Value(flag, need(i++)));
    } else if (flag == "--seed") {
      args.seed = ParseUint64Value(flag, need(i++));
    } else if (flag == "--emit") {
      args.emit = need(i++);
    } else if (flag == "--every") {
      args.every = static_cast<size_t>(ParseUint64Value(flag, need(i++)));
    } else if (flag == "--topk") {
      args.topk = static_cast<size_t>(ParseUint64Value(flag, need(i++)));
    } else if (flag == "--shards") {
      args.shards = ParseIntValue(flag, need(i++));
    } else if (flag == "--checkpoint-dir") {
      args.checkpoint_dir = need(i++);
    } else if (flag == "--checkpoint-every") {
      args.checkpoint_every = ParseUint64Value(flag, need(i++));
    } else if (flag == "--resume") {
      args.resume = true;
    } else if (flag == "--wal") {
      args.wal = true;
    } else if (flag == "--wal-sync-every") {
      args.wal_sync_every = ParseUint64Value(flag, need(i++));
    } else if (flag == "--wal-sync-mode") {
      args.wal_sync_mode = need(i++);
    } else if (flag == "--keep-checkpoints") {
      args.keep_checkpoints = ParseUint64Value(flag, need(i++));
    } else if (flag == "--window-store") {
      args.window_store = need(i++);
    } else if (flag == "--store-dir") {
      args.store_dir = need(i++);
    } else if (flag == "--segment-elems") {
      args.segment_elems = ParseUint64Value(flag, need(i++));
    } else if (flag == "--replay-at") {
      args.replay_at = need(i++);
    } else if (flag == "--max-queue") {
      args.max_queue = static_cast<size_t>(ParseUint64Value(flag, need(i++)));
    } else if (flag == "--overload-policy") {
      const char* v = need(i++);
      if (!psky::ParseOverloadPolicy(v, &args.overload_policy)) {
        Usage("--overload-policy must be block, shed-oldest or shed-low-prob");
      }
    } else if (flag == "--query-deadline-ms") {
      args.query_deadline_ms = ParseUint64Value(flag, need(i++));
    } else if (flag == "--stats-interval") {
      args.stats_interval = ParseUint64Value(flag, need(i++));
    } else if (flag == "--watchdog-stall-ms") {
      args.watchdog_stall_ms = ParseUint64Value(flag, need(i++));
    } else if (flag == "--io-retries") {
      args.io_retries = ParseIntValue(flag, need(i++));
    } else if (flag == "--io-backoff-ms") {
      args.io_backoff_ms = ParseUint64Value(flag, need(i++));
    } else if (flag == "--chaos-schedule") {
      args.chaos_schedule = need(i++);
    } else if (flag == "--on-bad-input") {
      const std::string v = need(i++);
      if (v == "fail") {
        args.on_bad_input = psky::BadInputPolicy::kFail;
      } else if (v == "skip") {
        args.on_bad_input = psky::BadInputPolicy::kSkip;
      } else if (v == "clamp") {
        args.on_bad_input = psky::BadInputPolicy::kClamp;
      } else {
        Usage("--on-bad-input must be fail, skip or clamp");
      }
    } else if (flag == "--ooo-policy") {
      const std::string v = need(i++);
      if (v == "reject") {
        args.ooo_policy = psky::TimestampPolicy::kReject;
      } else if (v == "clamp") {
        args.ooo_policy = psky::TimestampPolicy::kClampToWatermark;
      } else {
        Usage("--ooo-policy must be reject or clamp");
      }
    } else if (flag == "--audit-mode") {
      const std::string v = need(i++);
      if (v == "off") {
        args.audit_mode = psky::AuditMode::kOff;
      } else if (v == "check") {
        args.audit_mode = psky::AuditMode::kCheck;
      } else if (v == "repair") {
        args.audit_mode = psky::AuditMode::kRepair;
      } else {
        Usage("--audit-mode must be off, check or repair");
      }
    } else if (flag == "--audit-every") {
      args.audit_every = ParseUint64Value(flag, need(i++));
    } else if (flag == "--audit-oracle-every") {
      args.audit_oracle_every = ParseUint64Value(flag, need(i++));
    } else if (flag == "--strict") {
      args.strict = true;
    } else if (flag == "--inject-drift-at") {
      args.inject_drift_at = ParseUint64Value(flag, need(i++));
    } else if (flag == "--version") {
      std::printf("%s\n", psky::BuildInfoString().c_str());
      std::exit(0);
    } else if (flag == "--help" || flag == "-h") {
      Usage(nullptr);
    } else {
      Usage(("unknown flag: " + flag).c_str());
    }
  }
  if (args.dims < 1 || args.dims > psky::kMaxDims) Usage("bad --dims");
  if (args.q <= 1e-9 || args.q > 1.0) Usage("--q must be in (0, 1]");
  if (args.emit != "counts" && args.emit != "deltas" && args.emit != "final") {
    Usage("--emit must be counts, deltas or final");
  }
  if (args.window == 0 && args.time_span <= 0.0) {
    Usage("--window must be positive");
  }
  if (args.shards < 1 || args.shards > 64) {
    Usage("--shards must be in [1, 64]");
  }
  if (args.shards > 1) {
    if (args.emit == "deltas") {
      Usage("--emit deltas requires the sequential operator (--shards 1)");
    }
    if (args.inject_drift_at != 0) {
      Usage("--inject-drift-at requires --shards 1");
    }
    if (args.query_deadline_ms != 0) {
      Usage("--query-deadline-ms requires --shards 1");
    }
  }
  if (args.wal_sync_mode != "sync" && args.wal_sync_mode != "async") {
    Usage("--wal-sync-mode must be sync or async");
  }
  if ((args.resume || args.checkpoint_every > 0) &&
      args.checkpoint_dir.empty()) {
    Usage("--resume / --checkpoint-every require --checkpoint-dir");
  }
  if ((args.wal || !args.replay_at.empty()) && args.checkpoint_dir.empty()) {
    Usage("--wal / --replay-at require --checkpoint-dir");
  }
  if (!args.replay_at.empty() && args.resume) {
    Usage("--replay-at is a read-only historical query; drop --resume");
  }
  if (args.wal_sync_every == 0) Usage("--wal-sync-every must be positive");
  if (args.keep_checkpoints == 0) {
    Usage("--keep-checkpoints must be positive");
  }
  if (args.window_store != "mem" && args.window_store != "disk") {
    Usage("--window-store must be mem or disk");
  }
  if (args.window_store == "disk" && args.time_span > 0.0) {
    Usage("--window-store disk supports count windows only (no --time-span)");
  }
  if (args.segment_elems == 0) Usage("--segment-elems must be positive");
  if (args.strict && args.audit_mode == psky::AuditMode::kOff) {
    Usage("--strict requires --audit-mode check or repair");
  }
  return args;
}

// Pulls elements from either a CSV reader or a built-in generator, and
// stamps every produced element with the source position *after* it
// (psky::IngestItem). The stamped positions are what checkpoints record:
// they travel with the element through the ingest queue, so the consumer
// never reads the live source state from another thread.
class Source {
 public:
  Source(const Args& args, const psky::CheckpointState* resume_from)
      : args_(args) {
    if (!args.generate.empty()) {
      if (args.generate == "stock") {
        psky::StockConfig cfg;
        cfg.seed = args.seed;
        stock_ = std::make_unique<psky::StockStreamGenerator>(cfg);
        if (args_.dims != 2) Usage("--generate stock implies --dims 2");
      } else {
        psky::StreamConfig cfg;
        cfg.dims = args.dims;
        cfg.seed = args.seed;
        if (args.generate == "anti") {
          cfg.spatial = psky::SpatialDistribution::kAntiCorrelated;
        } else if (args.generate == "inde") {
          cfg.spatial = psky::SpatialDistribution::kIndependent;
        } else if (args.generate == "corr") {
          cfg.spatial = psky::SpatialDistribution::kCorrelated;
        } else {
          Usage("--generate must be anti, inde, corr or stock");
        }
        synthetic_ = std::make_unique<psky::StreamGenerator>(cfg);
      }
      // Generators are deterministic in the seed: fast-forward by
      // regenerating and discarding everything already *produced*. The
      // checkpointed next_seq is the produced count (generators assign
      // seq 0, 1, 2, ... in production order), which under load shedding
      // can exceed elements_consumed — shed elements are not replayed.
      if (resume_from != nullptr) {
        for (uint64_t i = 0; i < resume_from->next_seq; ++i) {
          if (produced_ >= args_.count) break;
          ++produced_;
          if (stock_ != nullptr) {
            stock_->Next();
          } else {
            synthetic_->Next();
          }
        }
      }
      return;
    }
    psky::CsvReaderOptions options;
    options.policy = args.on_bad_input;
    if (resume_from != nullptr) {
      // Files re-read from the top and skip to the recorded position; a
      // pipe on stdin simply continues with whatever arrives next.
      options.start_line = args.input.empty() ? 0 : resume_from->lines_consumed;
      options.start_seq = resume_from->next_seq;
      // lines_read() restarts at the skipped prefix for files but from 0
      // for a resumed stdin pipe; carry the checkpointed base in that case.
      base_lines_ = args.input.empty() ? resume_from->lines_consumed : 0;
    }
    if (!args.input.empty()) {
      file_.open(args.input);
      if (!file_) {
        std::fprintf(stderr, "error: cannot open %s\n", args.input.c_str());
        std::exit(1);
      }
      csv_ = std::make_unique<psky::CsvElementReader>(&file_, args.dims,
                                                      options);
    } else {
      csv_ = std::make_unique<psky::CsvElementReader>(&std::cin, args.dims,
                                                      options);
    }
  }

  std::optional<psky::IngestItem> NextItem() {
    std::optional<psky::UncertainElement> e;
    if (csv_ != nullptr) {
      e = csv_->Next();
    } else if (produced_ < args_.count) {
      ++produced_;
      e = stock_ != nullptr ? stock_->Next() : synthetic_->Next();
    }
    if (!e.has_value()) return std::nullopt;
    psky::IngestItem item;
    item.element = *e;
    if (csv_ != nullptr) {
      item.lines_after = base_lines_ + csv_->lines_read();
      item.next_seq_after = csv_->next_seq();
      item.skipped_after = csv_->skipped_lines();
      item.clamped_after = csv_->probs_clamped();
    } else {
      item.next_seq_after = e->seq + 1;
    }
    return item;
  }

  const psky::CsvElementReader* csv() const { return csv_.get(); }

 private:
  const Args& args_;
  std::ifstream file_;
  std::unique_ptr<psky::CsvElementReader> csv_;
  std::unique_ptr<psky::StreamGenerator> synthetic_;
  std::unique_ptr<psky::StockStreamGenerator> stock_;
  size_t produced_ = 0;        // generator elements produced
  uint64_t base_lines_ = 0;
};

// Counters carried across restarts via the checkpoint.
struct CarriedCounters {
  uint64_t bad_lines_skipped = 0;
  uint64_t probs_clamped = 0;
  uint64_t ooo_dropped = 0;
};

// --- crash quarantine ----------------------------------------------------
// On PSKY_CHECK failure, a fatal signal, or an unrepaired integrity
// violation, dump the state for post-mortem replay: a plain checkpoint,
// streamed from the window by the same writer and source as every other
// checkpoint (so the dump holds one write chunk in memory, not the
// window), and a note beside it with the reason and the audit counters.
// Best-effort by design: the process is already dying, so the dump
// allocates and does file I/O; the recursion guard plus re-raising with
// SIG_DFL bound the damage if the dump itself faults. Dumps are governed:
// one per failure burst, each with a monotonic sequence number, so a CHECK
// storm cannot bury the evidence under thousands of files.
//
// The window belongs to the pipeline thread, so only a dump requested
// there holds it. A failure on any other thread (a shard worker, the
// ingest producer, the WAL sync thread) dumps the checkpoint header with
// an empty window: it must neither wait for the pipeline thread nor read
// a window that thread is changing. Its counters are the pipeline
// thread's latest, read without synchronization from a process that is
// about to abort. A shard worker's dump names the command the worker was
// applying (ShardEngine::CurrentWorkerCommand): the reason gains
// "shard=K insert|expire seq=S", and the file is named and stamped with
// S, since the router may run a queue's capacity ahead of the workers and
// the pipeline's step says little about the failure.

struct PostMortemContext {
  /// The checkpoint header of the pipeline's current step.
  std::function<psky::CheckpointState()> header;
  /// The window's size and a fresh oldest-first pass over it, as
  /// checkpoints read it; used only on the pipeline thread.
  std::function<uint64_t()> window_size;
  std::function<psky::CheckpointElementSource()> window_source;
  std::thread::id pipeline_thread;
  const psky::AuditManager* audit = nullptr;
  std::string dir = ".";
  psky::QuarantineGovernor governor;
  psky::RetryPolicy io_policy;            // transient write errors retried
  psky::RetryStats* io_stats = nullptr;   // shared with checkpoint writes
  std::atomic<bool> dumping{false};       // recursion and cross-thread guard
};
PostMortemContext g_postmortem;

void DumpQuarantine(const std::string& reason) {
  if (!g_postmortem.header ||
      g_postmortem.dumping.exchange(true, std::memory_order_acquire)) {
    return;
  }
  const bool with_window =
      std::this_thread::get_id() == g_postmortem.pipeline_thread;
  psky::CheckpointState state = g_postmortem.header();
  std::string full_reason = reason;
  char where[96] = "";
  psky::ShardEngine::WorkerCommand cmd;
  if (!with_window && psky::ShardEngine::CurrentWorkerCommand(&cmd)) {
    if (cmd.has_element) {
      std::snprintf(where, sizeof where, "; shard=%d %s seq=%llu", cmd.shard,
                    cmd.kind, static_cast<unsigned long long>(cmd.seq));
      state.elements_consumed = cmd.seq;
    } else {
      std::snprintf(where, sizeof where, "; shard=%d %s", cmd.shard,
                    cmd.kind);
    }
    full_reason += where;
  }
  uint64_t dump_seq = 0;
  if (!g_postmortem.governor.Admit(state.elements_consumed, &dump_seq)) {
    std::fprintf(stderr,
                 "quarantine dump suppressed (same failure burst; %llu "
                 "suppressed so far)\n",
                 static_cast<unsigned long long>(
                     g_postmortem.governor.dumps_suppressed()));
    g_postmortem.dumping.store(false, std::memory_order_release);
    return;
  }
  const std::string path =
      g_postmortem.dir + "/" +
      psky::QuarantineFileName(state.elements_consumed, dump_seq);
  const std::string note =
      std::filesystem::path(path).replace_extension(".txt").string();
  const psky::AuditReport report = g_postmortem.audit != nullptr
                                       ? g_postmortem.audit->report()
                                       : psky::AuditReport{};
  const uint64_t window_count = with_window ? g_postmortem.window_size() : 0;
  std::string error;
  if (psky::WriteCheckpointFileStreamedRetry(
          path, state, window_count, g_postmortem.window_source,
          g_postmortem.io_policy, g_postmortem.io_stats, &error) &&
      psky::WriteQuarantineNote(note, full_reason, report, &error)) {
    char what[160];
    if (with_window) {
      std::snprintf(what, sizeof what, "%llu window elements",
                    static_cast<unsigned long long>(window_count));
    } else {
      std::snprintf(what, sizeof what,
                    "off the pipeline thread: no window%s", where);
    }
    std::fprintf(stderr, "quarantine dump written to %s and %s (%s)\n",
                 path.c_str(), note.c_str(), what);
  } else {
    std::fprintf(stderr, "error: quarantine dump failed: %s\n", error.c_str());
  }
  g_postmortem.dumping.store(false, std::memory_order_release);
}

void QuarantineOnCheckFailure(const char* condition, const char* file,
                              int line) {
  char reason[512];
  std::snprintf(reason, sizeof reason, "PSKY_CHECK failed: %s at %s:%d",
                condition, file, line);
  DumpQuarantine(reason);
  // CheckFailed aborts next; the dump above already covers it.
  std::signal(SIGABRT, SIG_DFL);
}

void QuarantineOnFatalSignal(int signum) {
  std::signal(signum, SIG_DFL);  // a second fault dies immediately
  char reason[64];
  std::snprintf(reason, sizeof reason, "fatal signal %d", signum);
  DumpQuarantine(reason);
  std::raise(signum);
}

void InstallQuarantineHandlers() {
  psky::SetCheckFailureHandler(&QuarantineOnCheckFailure);
  for (int sig : {SIGSEGV, SIGFPE, SIGBUS, SIGILL, SIGABRT}) {
    std::signal(sig, &QuarantineOnFatalSignal);
  }
}

// Prints skyline members in the canonical "seq= psky= pos= prob=" format
// shared by --emit final and --replay-at (so outputs diff cleanly).
void PrintSkylineMembers(const std::vector<psky::SkylineMember>& members,
                         int dims) {
  for (const auto& m : members) {
    std::printf("seq=%llu psky=%.6f pos=",
                static_cast<unsigned long long>(m.element.seq), m.psky);
    for (int i = 0; i < dims; ++i) {
      std::printf(i == 0 ? "%g" : ",%g", m.element.pos[i]);
    }
    std::printf(" prob=%g\n", m.element.prob);
  }
}

// What the window step did with one element (see window_step in main).
enum class StepOutcome {
  kApplied,    // admitted and applied to the operator
  kLate,       // refused: timestamp behind the watermark (time windows)
  kLogFailed,  // admitted, but the WAL stamp failed; nothing applied
};

// True when the flags describe the same operator and window as the
// checkpoint was taken with.
bool MatchesCheckpoint(const psky::CheckpointState& c, const Args& args) {
  if (c.dims != args.dims || c.q != args.q) return false;
  if (args.time_span > 0.0) {
    return c.window_kind == psky::WindowKind::kTime &&
           c.time_span == args.time_span;
  }
  return c.window_kind == psky::WindowKind::kCount &&
         c.window_capacity == args.window;
}

// --- historical replay (--replay-at) -------------------------------------
// Reports a rebuilt past state: prints the skyline at that point in the
// canonical --emit final format. With --audit-mode on, the naive oracle
// first re-derives the skyline from the rebuilt window as an independent
// correctness check (exit 4 on disagreement).
int ReportReplay(const Args& args, psky::SskyOperator& op,
                 const psky::AuditManager::WindowStream& window,
                 uint64_t step, uint64_t base_step, size_t records) {
  if (args.audit_mode != psky::AuditMode::kOff) {
    psky::NaiveSkylineOperator oracle(args.dims, args.q);
    window.scan([&](const psky::UncertainElement& e) { oracle.Insert(e); });
    auto by_seq = [](const psky::SkylineMember& a,
                     const psky::SkylineMember& b) {
      return a.element.seq < b.element.seq;
    };
    std::vector<psky::SkylineMember> want = oracle.Skyline();
    std::vector<psky::SkylineMember> got = op.Skyline();
    std::sort(want.begin(), want.end(), by_seq);
    std::sort(got.begin(), got.end(), by_seq);
    bool agree = want.size() == got.size();
    for (size_t i = 0; agree && i < want.size(); ++i) {
      agree = want[i].element.seq == got[i].element.seq &&
              std::fabs(want[i].psky - got[i].psky) <= 1e-6;
    }
    if (!agree) {
      std::fprintf(stderr,
                   "error: replay audit: oracle disagrees (oracle %zu vs "
                   "replay %zu skyline members)\n",
                   want.size(), got.size());
      return 4;
    }
    std::fprintf(stderr, "replay audit: oracle agrees (%zu skyline members)\n",
                 got.size());
  }

  PrintSkylineMembers(op.Skyline(), args.dims);
  std::fprintf(
      stderr,
      "replayed to step %llu (checkpoint base %llu + %zu WAL records; "
      "window holds %llu elements)\n",
      static_cast<unsigned long long>(step),
      static_cast<unsigned long long>(base_step), records,
      static_cast<unsigned long long>(window.size()));
  return 0;
}

// Joins the ingest producer thread on every exit path; leaving a joinable
// std::thread behind is std::terminate.
struct ProducerJoiner {
  psky::BoundedIngestQueue* queue = nullptr;
  std::thread thread;
  ~ProducerJoiner() {
    if (thread.joinable()) {
      if (queue != nullptr) queue->RequestStop();
      thread.join();
    }
  }
};

// Prints the io-retry exit line on every return from main once the I/O
// retry policy is set up, the runs that exit 3 because their retries ran
// out included.
struct IoRetryReport {
  bool enabled = false;
  psky::RetryStats stats;
  ~IoRetryReport() {
    if (!enabled && stats.retries == 0) return;
    std::fprintf(stderr,
                 "io-retry: attempts=%llu retries=%llu backoff-ms=%llu "
                 "exhausted=%llu permanent=%llu\n",
                 static_cast<unsigned long long>(stats.attempts),
                 static_cast<unsigned long long>(stats.retries),
                 static_cast<unsigned long long>(stats.backoff_ms_total),
                 static_cast<unsigned long long>(stats.exhausted),
                 static_cast<unsigned long long>(stats.permanent_failures));
  }
};

}  // namespace

int main(int argc, char** argv) {
  const Args args = Parse(argc, argv);

  if (!args.chaos_schedule.empty()) {
    std::string chaos_error;
    if (!psky::fault::LoadSchedule(args.chaos_schedule, &chaos_error)) {
      std::fprintf(stderr, "error: --chaos-schedule: %s\n",
                   chaos_error.c_str());
      return 1;
    }
    std::fprintf(stderr, "chaos schedule armed: %s\n",
                 args.chaos_schedule.c_str());
  }

  // --replay-at is a read-only historical query: it neither creates the
  // checkpoint dir nor sweeps temp files a live run may be writing.
  const bool replay = !args.replay_at.empty();
  std::optional<psky::ReplayTarget> replay_target;
  if (replay) {
    psky::ReplayTarget target;
    std::string error;
    if (!psky::ParseReplayTarget(args.replay_at, &target, &error)) {
      Usage(error.c_str());
    }
    replay_target = target;
  } else if (!args.checkpoint_dir.empty()) {
    std::string dir_error;
    if (!psky::EnsureCheckpointDir(args.checkpoint_dir, &dir_error)) {
      std::fprintf(stderr, "error: checkpoint dir: %s\n", dir_error.c_str());
      return 3;
    }
    // A crash mid-write leaves "*.tmp" wreckage behind; sweep it before
    // this run starts producing its own files.
    // ".tmp" also covers interrupted WAL rotations (wal-*.pskywal.tmp).
    const size_t removed =
        psky::RemoveStaleCheckpointTemps(args.checkpoint_dir);
    if (removed > 0) {
      std::fprintf(stderr, "removed %zu stale checkpoint temp file(s)\n",
                   removed);
    }
  }

  psky::SkyTree::Options options;
  options.record_events = args.emit == "deltas" && !replay;
  psky::SskyOperator op(args.dims, args.q, options);

  // --shards > 1: the sharded engine replaces the sequential operator;
  // it runs one candidate store per shard and is fed by the window
  // below, like the operator. Queries merge exactly (the sequential
  // skyline, bit for bit). --replay-at always rebuilds into the
  // sequential operator over a memory window.
  std::unique_ptr<psky::ShardEngine> engine;
  if (args.shards > 1 && !replay) {
    psky::ShardEngine::Options eng;
    eng.dims = args.dims;
    eng.q = args.q;
    eng.shards = args.shards;
    // Per-shard auditing runs inside each shard worker, over the shard's
    // own substream.
    eng.audit.mode = args.audit_mode;
    eng.audit.audit_every = args.audit_every;
    eng.audit.oracle_every = args.audit_oracle_every;
    engine = std::make_unique<psky::ShardEngine>(eng);
  }
  std::unique_ptr<psky::CountWindow> count_window;
  std::unique_ptr<psky::TimeWindow> time_window;
  std::unique_ptr<psky::StoredCountWindow> disk_window;
  if (args.time_span > 0.0) {
    time_window =
        std::make_unique<psky::TimeWindow>(args.time_span, args.ooo_policy);
  } else if (args.window_store == "disk" && !replay) {
    psky::SegmentStore::Options store_opts;
    store_opts.dir = !args.store_dir.empty() ? args.store_dir
                     : !args.checkpoint_dir.empty()
                         ? args.checkpoint_dir + "/segments"
                         : "psky-segments";
    store_opts.dims = args.dims;
    store_opts.elements_per_segment = args.segment_elems;
    disk_window =
        std::make_unique<psky::StoredCountWindow>(args.window, store_opts);
    std::string error;
    if (!disk_window->Init(&error)) {
      std::fprintf(stderr, "error: %s\n", error.c_str());
      return 3;
    }
    // Segments are per-run scratch: reap leftovers from a crashed run.
    const size_t stale = psky::SweepSegmentFiles(store_opts.dir);
    if (stale > 0) {
      std::fprintf(stderr, "removed %zu stale segment file(s) from %s\n",
                   stale, store_opts.dir.c_str());
    }
  } else {
    count_window = std::make_unique<psky::CountWindow>(args.window);
  }
  // The window, read one way (oldest first, in place) by the auditor,
  // checkpoints, quarantine dumps and drift injection, whichever engine
  // runs.
  using WindowStream = psky::AuditManager::WindowStream;
  const WindowStream window_stream =
      time_window != nullptr   ? WindowStream::Of(time_window.get())
      : disk_window != nullptr ? WindowStream::Of(disk_window.get())
                               : WindowStream::Of(count_window.get());
  // Out-of-order rejections under --ooo-policy reject.
  auto ooo_rejected = [&]() -> uint64_t {
    return time_window != nullptr ? time_window->rejected() : 0;
  };

  // The window step every element takes, live or rebuilt, on either
  // engine: admission to the window (count rotation, or time watermark
  // and expiry), then `stamp` on the admitted element, then
  // expire-before-insert on the sequential operator or the shard engine.
  // The live loop's stamp appends the element to the WAL, so the log
  // leads the operator, the shard commands and every output; rebuilt
  // elements were logged once already and stamp nothing.
  std::vector<psky::UncertainElement> expired;
  auto expire = [&](const psky::UncertainElement& x) {
    if (engine != nullptr) return engine->Expire(x);
    op.Expire(x);
  };
  auto insert = [&](const psky::UncertainElement& x) {
    if (engine != nullptr) return engine->Insert(x);
    op.Insert(x);
  };
  auto window_step = [&](psky::UncertainElement* e,
                         auto&& stamp) -> StepOutcome {
    if (time_window != nullptr) {
      expired.clear();
      if (!time_window->TryPush(e, &expired)) return StepOutcome::kLate;
      if (!stamp(*e)) return StepOutcome::kLogFailed;
      for (const auto& old : expired) expire(old);
    } else {
      if (!stamp(*e)) return StepOutcome::kLogFailed;
      if (disk_window != nullptr) {
        if (disk_window->full()) {
          expire(disk_window->PushRotate(*e));
        } else {
          disk_window->Push(*e);
        }
      } else if (count_window->full()) {
        expire(count_window->PushRotate(*e));
      } else {
        count_window->Push(*e);
      }
    }
    insert(*e);
    return StepOutcome::kApplied;
  };

  // --- rebuild (--resume, --replay-at) -----------------------------------
  // One path for every window and engine: StreamRecovery picks the newest
  // valid checkpoint (at or before the replay target) and streams its
  // window, then the WAL records after it, through window_step. Rebuilt
  // elements were admitted once, arrive in order and fit the window, so
  // the step refuses and expires none of them. The configuration checks
  // run in `begin`, before any element is applied. Every engine
  // checkpoints the same window, so any checkpoint rebuilds into either
  // engine at any shard count.
  psky::CheckpointState resume_state;  // base header, then source position
  psky::RecoveredState recovered;
  CarriedCounters carried;
  uint64_t step = 0;
  bool resumed = false;
  if (args.resume || replay) {
    bool refused = false;
    size_t base_elements = 0;
    size_t records = 0;
    psky::WalRecord tip;
    auto rebuild = [&](const psky::UncertainElement& e) {
      psky::UncertainElement admitted = e;
      PSKY_CHECK_MSG(
          window_step(&admitted, [](const psky::UncertainElement&) {
            return true;
          }) == StepOutcome::kApplied,
          "rebuild: admitted element rejected");
    };
    psky::RecoverySink sink;
    sink.begin = [&](const psky::RecoveredState& base) {
      if (base.has_checkpoint && !MatchesCheckpoint(base.checkpoint, args)) {
        std::fprintf(stderr,
                     "error: checkpoint was taken with a different "
                     "dims/q/window configuration\n");
        refused = true;
      } else if (base.wal_dims != 0 &&
                 base.wal_dims != static_cast<uint32_t>(args.dims)) {
        std::fprintf(stderr, "error: WAL records carry %u dims, --dims is %d\n",
                     base.wal_dims, args.dims);
        refused = true;
      }
      resume_state = base.checkpoint;
      return !refused;
    };
    sink.element = [&](const psky::UncertainElement& e) {
      rebuild(e);
      ++base_elements;
    };
    if (args.wal || replay) {
      sink.record = [&](const psky::WalRecord& r) {
        rebuild(r.element);
        ++records;
        tip = r;
      };
    }
    std::string error;
    if (!psky::StreamRecovery(args.checkpoint_dir, replay_target, sink,
                              &recovered, &error)) {
      if (refused) return 1;
      if (replay) {
        std::fprintf(stderr, "error: --replay-at: %s\n", error.c_str());
      } else {
        std::fprintf(stderr, "error: cannot resume from %s: %s\n",
                     args.checkpoint_dir.c_str(), error.c_str());
      }
      return 3;
    }
    if (!recovered.notes.empty()) {
      std::fprintf(stderr, "warning: %s: %s\n",
                   replay     ? "replay"
                   : args.wal ? "recovery"
                              : "skipped corrupt checkpoint(s)",
                   recovered.notes.c_str());
    }
    const uint64_t base_step = resume_state.elements_consumed;
    step = base_step + records;
    if (replay) {
      return ReportReplay(args, op, window_stream, step, base_step, records);
    }
    if (options.record_events) op.TakeSkylineDelta();  // replay is not news
    carried.bad_lines_skipped = resume_state.bad_lines_skipped;
    carried.probs_clamped = resume_state.probs_clamped;
    carried.ooo_dropped = resume_state.ooo_dropped;
    resumed = recovered.has_checkpoint || records > 0;
    if (resumed) {
      std::fprintf(stderr,
                   "resumed at step %llu (window holds %zu elements)\n",
                   static_cast<unsigned long long>(base_step), base_elements);
    }
    if (records > 0) {
      // The tip record carries the absolute source position and
      // cumulative counters: fast-forward the source from it (not the
      // checkpoint) and restart the run-relative counters at zero.
      resume_state.next_seq = tip.next_seq_after;
      resume_state.lines_consumed = tip.lines_after;
      carried.bad_lines_skipped = tip.skipped_total;
      carried.probs_clamped = tip.clamped_total;
      carried.ooo_dropped = tip.ooo_total;
      std::fprintf(stderr, "replayed %zu WAL record(s); now at step %llu\n",
                   records, static_cast<unsigned long long>(step));
    }
  }

  Source source(args, resumed ? &resume_state : nullptr);

  // Source position after the last *processed* element. Checkpoints are
  // built from these carried values, never from the live source — with a
  // producer thread, the source may already be far ahead (or being read
  // concurrently). Elements produced but shed or still queued at
  // checkpoint time are simply re-read on resume.
  struct SourcePos {
    uint64_t next_seq = 0;
    uint64_t lines = 0;
    uint64_t skipped = 0;
    uint64_t clamped = 0;
  } last;
  if (resumed) {
    last.next_seq = resume_state.next_seq;
    last.lines = resume_state.lines_consumed;
  }

  // Everything a checkpoint records except the window contents, which
  // stream into the file (window_source below).
  auto build_header = [&]() -> psky::CheckpointState {
    psky::CheckpointState state;
    state.dims = args.dims;
    state.q = args.q;
    if (args.time_span > 0.0) {
      state.window_kind = psky::WindowKind::kTime;
      state.time_span = args.time_span;
    } else {
      state.window_kind = psky::WindowKind::kCount;
      state.window_capacity = args.window;
    }
    state.elements_consumed = step;
    state.lines_consumed = last.lines;
    state.next_seq = last.next_seq;
    state.bad_lines_skipped = carried.bad_lines_skipped + last.skipped;
    state.probs_clamped = carried.probs_clamped + last.clamped;
    state.ooo_dropped = carried.ooo_dropped + ooo_rejected();
    return state;
  };

  psky::RetryPolicy io_policy;
  io_policy.max_attempts = args.io_retries + 1;
  io_policy.base_backoff_ms = args.io_backoff_ms;
  io_policy.seed = args.seed ^ 0x9E3779B97F4A7C15ull;
  IoRetryReport io_retry_report;
  io_retry_report.enabled = args.io_retries > 0;
  psky::RetryStats& io_stats = io_retry_report.stats;

  // --- write-ahead log ---------------------------------------------------
  psky::WalWriter wal;
  psky::DiskPressureGovernor wal_governor;
  if (args.wal) {
    std::string error;
    int saved_errno = 0;
    bool opened = false;
    if (resumed && !recovered.active_wal.empty()) {
      const uint64_t next_step = recovered.active_wal_tail.next_step;
      if (wal.OpenForAppend(recovered.active_wal, recovered.active_wal_tail,
                            &error, &saved_errno)) {
        if (next_step == step + 1) {
          opened = true;
        } else {
          std::fprintf(stderr,
                       "warning: %s continues at step %llu but the run "
                       "resumes at %llu; starting a fresh log\n",
                       recovered.active_wal.c_str(),
                       static_cast<unsigned long long>(next_step),
                       static_cast<unsigned long long>(step + 1));
          wal.Close();
        }
      } else {
        std::fprintf(stderr,
                     "warning: cannot append to %s: %s; starting a fresh "
                     "log\n",
                     recovered.active_wal.c_str(), error.c_str());
      }
    }
    if (!opened) {
      std::error_code ec;
      if (!resumed) {
        // A fresh (non-resume) run starts a new element sequence; logs
        // from an abandoned stream would only confuse later recovery.
        size_t removed = 0;
        for (const std::string& old :
             psky::ListWalFiles(args.checkpoint_dir)) {
          if (std::filesystem::remove(old, ec)) ++removed;
        }
        if (removed > 0) {
          std::fprintf(stderr, "removed %zu abandoned WAL file(s) from %s\n",
                       removed, args.checkpoint_dir.c_str());
        }
      }
      const std::string path =
          args.checkpoint_dir + "/" + psky::WalFileName(step);
      std::filesystem::remove(path, ec);  // stale same-step log, if any
      if (!wal.Create(path, static_cast<uint32_t>(args.dims), step, &error,
                      &saved_errno)) {
        std::fprintf(stderr, "error: cannot create WAL: %s\n", error.c_str());
        return 3;
      }
    }
    // Overlapped group commit: the fdatasync runs on a background thread
    // while the step path continues; checkpoints barrier below, so the
    // durability contract is unchanged.
    if (args.wal_sync_mode == "async") wal.SetAsyncSync(true);
  }

  // Stamps one admitted element into the WAL (before it reaches the
  // operator) and drives the group-commit cadence, widened under disk
  // pressure by the governor. Exhausting the retry budget is fatal: the
  // WAL is never silently dropped (quarantine + exit 3 instead).
  auto wal_log = [&](const psky::UncertainElement& admitted,
                     const psky::IngestItem& item,
                     uint64_t step_after) -> bool {
    psky::WalRecord r;
    r.element = admitted;
    r.step_after = step_after;
    r.next_seq_after = item.next_seq_after;
    r.lines_after = item.lines_after;
    r.skipped_total = carried.bad_lines_skipped + item.skipped_after;
    r.clamped_total = carried.probs_clamped + item.clamped_after;
    r.ooo_total = carried.ooo_dropped + ooo_rejected();
    std::string error;
    const bool appended = psky::RetryWithBackoff(
        io_policy,
        [&](int* err) { return wal.Append(r, &error, err); }, &io_stats);
    if (!appended) {
      std::fprintf(stderr, "error: WAL append failed: %s\n", error.c_str());
      DumpQuarantine("WAL append failed: " + error);
      return false;
    }
    if (wal.pending() < args.wal_sync_every * wal_governor.multiplier()) {
      return true;
    }
    const auto sync_start = std::chrono::steady_clock::now();
    const uint64_t retries_before = io_stats.retries;
    const bool synced = psky::RetryWithBackoff(
        io_policy, [&](int* err) { return wal.Sync(&error, err); },
        &io_stats);
    if (!synced) {
      std::fprintf(stderr, "error: WAL sync failed: %s\n", error.c_str());
      DumpQuarantine("WAL sync failed: " + error);
      return false;
    }
    auto sync_ms = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - sync_start)
            .count());
    // Overlapped mode: the enqueue above is cheap by design; feed the
    // governor the latency of the last *completed* background fdatasync
    // so disk pressure is still observed.
    sync_ms = std::max(sync_ms, wal.TakeAsyncSyncLatencyMs());
    const bool strained = io_stats.retries > retries_before;
    if (wal_governor.ObserveSync(strained, sync_ms)) {
      std::fprintf(
          stderr, "disk-pressure: group-commit window now %llux%llu\n",
          static_cast<unsigned long long>(wal_governor.multiplier()),
          static_cast<unsigned long long>(args.wal_sync_every));
    }
    return true;
  };

  // The window flows into a checkpoint or quarantine dump one element at
  // a time, so a giant disk window is written in O(1) elements of
  // memory, and a sharded run never waits on its workers. Each call
  // starts a fresh pass at the oldest element, so a retried write
  // restarts the read.
  auto window_source = [&]() -> psky::CheckpointElementSource {
    return [&, i = uint64_t{0}](psky::UncertainElement* e) mutable {
      *e = window_stream.at(i++);
      return true;
    };
  };

  uint64_t checkpoints_written = 0;
  auto write_checkpoint = [&]() -> bool {
    // WAL-before-checkpoint: everything the snapshot covers must already
    // be durable, or a crash between the two could lose acknowledged
    // records that the next resume then skips past.
    if (args.wal) {
      std::string error;
      // Sync + SyncBarrier as one retried unit: in overlapped mode a
      // failed background fdatasync surfaces at the barrier, and the
      // retry waits on the fresh attempt ConsumeStickyError queued.
      if (!psky::RetryWithBackoff(
              io_policy,
              [&](int* err) {
                return wal.Sync(&error, err) && wal.SyncBarrier(&error, err);
              },
              &io_stats)) {
        std::fprintf(stderr, "error: WAL sync failed: %s\n", error.c_str());
        DumpQuarantine("WAL sync failed: " + error);
        return false;
      }
    }
    const std::string path =
        args.checkpoint_dir + "/" + psky::CheckpointFileName(step);
    std::string error;
    if (!psky::WriteCheckpointFileStreamedRetry(
            path, build_header(), window_stream.size(), window_source,
            io_policy, &io_stats, &error)) {
      std::fprintf(stderr, "error: checkpoint failed: %s\n", error.c_str());
      // The retry budget is exhausted (or the error was permanent): this
      // run is about to exit 3, so preserve the evidence.
      DumpQuarantine("checkpoint write failed: " + error);
      return false;
    }
    psky::PruneCheckpoints(args.checkpoint_dir, args.keep_checkpoints);
    ++checkpoints_written;
    if (args.wal &&
        wal.path() !=
            args.checkpoint_dir + "/" + psky::WalFileName(step)) {
      // Rotate so wal-<step>.pskywal holds exactly the records a resume
      // from this checkpoint needs, then drop logs no retained checkpoint
      // can reach. (Skipped when a final checkpoint repeats the last
      // periodic step: the rotation already happened.)
      std::string rot_error;
      if (!psky::RetryWithBackoff(
              io_policy,
              [&](int* err) {
                return wal.RotateTo(args.checkpoint_dir, step, &rot_error,
                                    err);
              },
              &io_stats)) {
        std::fprintf(stderr, "error: WAL rotation failed: %s\n",
                     rot_error.c_str());
        DumpQuarantine("WAL rotation failed: " + rot_error);
        return false;
      }
      uint64_t oldest_kept = step;
      for (const std::string& p :
           psky::ListCheckpointFiles(args.checkpoint_dir)) {
        uint64_t s = 0;
        if (psky::ParseCheckpointStep(p, &s)) oldest_kept = std::min(oldest_kept, s);
      }
      psky::PruneWalFiles(args.checkpoint_dir, oldest_kept);
    }
    return true;
  };

  psky::AuditOptions audit_options;
  // Sharded runs audit per shard inside the engine; the sequential
  // manager below stays off so it doesn't audit the unused operator.
  audit_options.mode =
      engine != nullptr ? psky::AuditMode::kOff : args.audit_mode;
  audit_options.audit_every = args.audit_every;
  audit_options.oracle_every = args.audit_oracle_every;
  psky::AuditManager audit(&op, audit_options, window_stream);

  g_postmortem.header = build_header;
  g_postmortem.window_size = window_stream.size;
  g_postmortem.window_source = window_source;
  g_postmortem.pipeline_thread = std::this_thread::get_id();
  g_postmortem.audit = &audit;
  g_postmortem.dir = args.checkpoint_dir.empty() ? "." : args.checkpoint_dir;
  g_postmortem.io_policy = io_policy;
  g_postmortem.io_stats = &io_stats;
  InstallQuarantineHandlers();

  std::signal(SIGINT, HandleStopSignal);
  std::signal(SIGTERM, HandleStopSignal);

  // --- overload machinery ------------------------------------------------
  const bool queue_mode = args.max_queue > 0;
  std::unique_ptr<psky::BoundedIngestQueue> queue;
  psky::DegradationLadder ladder(
      psky::DegradationLadder::Options(),
      [](int old_rung, int new_rung, double pressure) {
        std::fprintf(stderr, "degradation: rung %d -> %d (pressure %.2f)\n",
                     old_rung, new_rung, pressure);
      });
  psky::DegradationLadder::Effects effects;  // defaults: no degradation
  if (queue_mode) {
    queue = std::make_unique<psky::BoundedIngestQueue>(args.max_queue,
                                                       args.overload_policy);
  }

  std::unique_ptr<psky::Watchdog> watchdog;
  if (args.watchdog_stall_ms > 0) {
    psky::Watchdog::Options wd;
    wd.stall_ms = args.watchdog_stall_ms;
    wd.poll_ms = std::max<uint64_t>(10, std::min<uint64_t>(
                                            100, args.watchdog_stall_ms / 4));
    watchdog = std::make_unique<psky::Watchdog>(wd, [](const std::string& w) {
      std::fprintf(stderr, "watchdog: %s\n", w.c_str());
    });
    watchdog->Start();
  }

  uint64_t processed_items = 0;
  auto heartbeat_last = std::chrono::steady_clock::now();
  uint64_t heartbeat_last_step = step;

  bool stopped_by_signal = false;

  // Processes one admitted element through the window step plus all
  // per-step bookkeeping. Returns -1 to continue, or an exit code.
  auto process_item = [&](const psky::IngestItem& item) -> int {
    if (psky::fault::Enabled()) {
      psky::fault::MaybeDelay(psky::fault::Site::kStep);
    }
    // Stamp the admitted (clamp-adjusted) element into the WAL before it
    // reaches the operator.
    psky::UncertainElement element = item.element;
    const StepOutcome outcome =
        window_step(&element, [&](const psky::UncertainElement& admitted) {
          return !args.wal || wal_log(admitted, item, step + 1);
        });
    if (outcome == StepOutcome::kLogFailed) return 3;
    if (outcome == StepOutcome::kLate &&
        args.on_bad_input == psky::BadInputPolicy::kFail) {
      // Late timestamp under --ooo-policy reject: treat like a malformed
      // line.
      std::fprintf(
          stderr,
          "error: line %llu: out-of-order timestamp %g is behind "
          "watermark %g (see --ooo-policy)\n",
          static_cast<unsigned long long>(
              source.csv() != nullptr ? item.lines_after : step + 1),
          element.time, time_window->watermark());
      return 2;
    }
    // A dropped late element was still consumed: advance the carried
    // source position so a checkpoint does not replay it.
    last.next_seq = item.next_seq_after;
    last.lines = item.lines_after;
    last.skipped = item.skipped_after;
    last.clamped = item.clamped_after;
    if (outcome == StepOutcome::kLate) return -1;
    ++step;

    if (args.inject_drift_at != 0 && step == args.inject_drift_at) {
      // Corrupt the newest live candidate's P_old in place — the class of
      // damage drift accumulation produces, writ large. P_new is left
      // alone: it also drives candidate retention, so damaging it can
      // cause an eviction (unrepairable by design) before the auditor's
      // next pass.
      for (uint64_t i = window_stream.size(); i-- > 0;) {
        const psky::UncertainElement e = window_stream.at(i);
        const auto view = op.tree().LookupForAudit(e.pos, e.seq);
        if (!view.found) continue;
        op.mutable_tree()->RepairElement(e.pos, e.seq, view.pnew,
                                         view.pold - psky::QuantizeLog(2.0));
        std::fprintf(stderr, "injected drift into seq %llu at step %llu\n",
                     static_cast<unsigned long long>(e.seq),
                     static_cast<unsigned long long>(step));
        break;
      }
    }

    if (!audit.Step() && args.strict) {
      char reason[96];
      std::snprintf(reason, sizeof reason,
                    "unrepaired integrity violation at step %llu",
                    static_cast<unsigned long long>(step));
      std::fprintf(stderr, "error: %s\n", reason);
      DumpQuarantine(reason);
      return 4;
    }

    if (args.emit == "deltas") {
      const auto delta = op.TakeSkylineDelta();
      for (uint64_t seq : delta.left) {
        std::printf("-%llu\n", static_cast<unsigned long long>(seq));
      }
      for (uint64_t seq : delta.entered) {
        std::printf("+%llu\n", static_cast<unsigned long long>(seq));
      }
    } else if (args.emit == "counts" && args.every > 0 &&
               step % args.every == 0) {
      if (engine != nullptr) {
        // Each report is a barrier + exact merge; |S*| equals the
        // sequential candidate count, so the line diffs cleanly against
        // a --shards 1 run.
        size_t candidates = 0;
        const auto members = engine->GlobalSkyline(&candidates);
        std::printf("step=%llu candidates=%zu skyline=%zu\n",
                    static_cast<unsigned long long>(step), candidates,
                    members.size());
      } else {
        std::printf("step=%llu candidates=%zu skyline=%zu\n",
                    static_cast<unsigned long long>(step),
                    op.candidate_count(), op.skyline_count());
      }
    }

    if (args.stats_interval > 0 && step % args.stats_interval == 0) {
      const auto now = std::chrono::steady_clock::now();
      const double secs =
          std::chrono::duration<double>(now - heartbeat_last).count();
      const double eps =
          secs > 0.0
              ? static_cast<double>(step - heartbeat_last_step) / secs
              : 0.0;
      heartbeat_last = now;
      heartbeat_last_step = step;
      const psky::QueueStats qs =
          queue != nullptr ? queue->StatsSnapshot() : psky::QueueStats{};
      // Audited sharded runs audit inside the shard workers: report the
      // auditor furthest behind. An auditor that never runs lags by 0.
      uint64_t audit_lag = audit.steps_since_last_audit();
      const psky::ShardEngine::Stats es =
          engine != nullptr ? engine->GetStats() : psky::ShardEngine::Stats{};
      for (const auto& s : es.shards) {
        audit_lag = std::max(audit_lag, s.audit_lag);
      }
      std::fprintf(
          stderr,
          "heartbeat step=%llu eps=%.0f queue=%zu/%zu "
          "drops=oldest:%llu,lowprob:%llu,incoming:%llu rung=%d "
          "audit-lag=%llu\n",
          static_cast<unsigned long long>(step), eps,
          queue != nullptr ? queue->depth() : 0,
          queue != nullptr ? queue->capacity() : 0,
          static_cast<unsigned long long>(qs.shed_oldest),
          static_cast<unsigned long long>(qs.shed_low_prob),
          static_cast<unsigned long long>(qs.shed_incoming), ladder.rung(),
          static_cast<unsigned long long>(audit_lag));
      if (disk_window != nullptr) {
        // Out-of-core window health: live segments track the window
        // length; resident segment buffers stay at most 3.
        const psky::SegmentStore::Stats ss = disk_window->store_stats();
        std::fprintf(stderr,
                     "segment-heartbeat live=%llu resident=%llu "
                     "created=%llu\n",
                     static_cast<unsigned long long>(ss.segments_live),
                     static_cast<unsigned long long>(ss.segments_resident),
                     static_cast<unsigned long long>(ss.segments_created));
      }
      if (engine != nullptr) {
        // Per-shard health: SPSC backlog, window imbalance (1.0 = even),
        // merge-side counters. Readable without a barrier.
        size_t depth_max = 0;
        uint64_t lag = 0;
        uint64_t violations = 0;
        for (const auto& s : es.shards) {
          depth_max = std::max(depth_max, s.queue_depth);
          lag += s.routed - s.applied;
          violations += s.audit_violations;
        }
        std::fprintf(
            stderr,
            "shard-heartbeat shards=%zu depth-max=%zu lag=%llu "
            "imbalance=%.2f merges=%llu merge-cands=%llu probes=%llu "
            "merge-ms=%.3f audit-violations=%llu\n",
            es.shards.size(), depth_max,
            static_cast<unsigned long long>(lag), es.imbalance,
            static_cast<unsigned long long>(es.merges),
            static_cast<unsigned long long>(es.merge_candidates),
            static_cast<unsigned long long>(es.merge_probes),
            static_cast<double>(es.merge_ns) / 1e6,
            static_cast<unsigned long long>(violations));
      }
    }

    const uint64_t ckpt_every =
        args.checkpoint_every * effects.checkpoint_stretch;
    if (args.checkpoint_every > 0 && step % ckpt_every == 0) {
      if (!write_checkpoint()) return 3;
    }
    return -1;
  };

  int exit_code = -1;
  if (!queue_mode) {
    // Classic synchronous loop: produce and consume on one thread, one
    // element at a time.
    while (exit_code < 0) {
      if (g_stop_requested != 0) {
        stopped_by_signal = true;
        break;
      }
      auto item = source.NextItem();
      if (!item.has_value()) break;
      if (watchdog != nullptr) watchdog->SetBusy(true);
      ++processed_items;
      exit_code = process_item(*item);
      if (watchdog != nullptr) {
        watchdog->OnStep(step);
        watchdog->SetBusy(false);
      }
    }
  } else {
    // Threaded ingest: the producer owns the source and pushes stamped
    // items through the bounded queue; this thread consumes, observes
    // queue pressure, and walks the degradation ladder.
    std::atomic<uint64_t> produced_total{0};
    ProducerJoiner producer;
    producer.queue = queue.get();
    producer.thread = std::thread([&source, &produced_total, q = queue.get()]() {
      for (;;) {
        auto item = source.NextItem();
        if (!item.has_value()) break;
        produced_total.fetch_add(1, std::memory_order_relaxed);
        if (!q->Push(std::move(*item))) break;  // stop requested
      }
      q->CloseProducer();
    });

    std::vector<psky::IngestItem> items;
    bool stop_handled = false;
    while (exit_code < 0) {
      if (g_stop_requested != 0 && !stop_handled) {
        stop_handled = true;
        stopped_by_signal = true;
        // Graceful drain: stop the producer (a blocked push fails fast),
        // then keep consuming until the queue is empty so no admitted
        // element is lost.
        queue->RequestStop();
        producer.thread.join();
      }
      const size_t pop_max = kConsumerBatch * effects.batch_multiplier;
      const size_t n = queue->PopBatch(&items, pop_max, 50);
      if (n == 0) {
        if (queue->drained()) break;
        if (watchdog != nullptr) watchdog->SetBusy(false);
        continue;
      }
      if (watchdog != nullptr) watchdog->SetBusy(true);
      for (const auto& item : items) {
        ++processed_items;
        exit_code = process_item(item);
        if (exit_code >= 0) break;
      }
      if (watchdog != nullptr) {
        watchdog->OnStep(step);
        watchdog->SetBusy(false);
      }
      ladder.Observe(queue->pressure());
      effects = ladder.effects();
      audit.SetDegradation(effects.suspend_oracle, effects.audit_stretch);
      if (engine != nullptr) {
        engine->SetAuditDegradation(effects.suspend_oracle,
                                    effects.audit_stretch);
      }
    }
    if (producer.thread.joinable()) {
      queue->RequestStop();
      producer.thread.join();
    }

    if (exit_code < 0) {
      // Exact shed accounting: every produced element must be processed,
      // shed under a named policy, or refused after the stop request.
      const psky::QueueStats qs = queue->StatsSnapshot();
      // Acquire pairs with the producer's final relaxed increments: the
      // producer thread is joined above, so this observes its last count.
      const uint64_t produced = produced_total.load(std::memory_order_acquire);
      const uint64_t consumed_side = qs.dequeued + qs.shed_oldest +
                                     qs.shed_low_prob + queue->depth();
      const uint64_t produced_side =
          qs.enqueued + qs.shed_incoming + qs.dropped_on_stop;
      const bool exact = qs.enqueued == consumed_side &&
                         produced == produced_side &&
                         qs.dequeued == processed_items;
      const psky::DegradationLadder::Stats& ls = ladder.stats();
      std::fprintf(
          stderr,
          "overload: policy=%s enqueued=%llu dequeued=%llu "
          "shed-oldest=%llu shed-low-prob=%llu shed-incoming=%llu "
          "dropped-on-stop=%llu producer-blocks=%llu peak-depth=%zu "
          "rung=%d peak-rung=%d escalations=%llu recoveries=%llu "
          "shed-accounting=%s\n",
          psky::OverloadPolicyName(args.overload_policy),
          static_cast<unsigned long long>(qs.enqueued),
          static_cast<unsigned long long>(qs.dequeued),
          static_cast<unsigned long long>(qs.shed_oldest),
          static_cast<unsigned long long>(qs.shed_low_prob),
          static_cast<unsigned long long>(qs.shed_incoming),
          static_cast<unsigned long long>(qs.dropped_on_stop),
          static_cast<unsigned long long>(qs.producer_blocks),
          qs.peak_depth, ls.rung, ls.peak_rung,
          static_cast<unsigned long long>(ls.escalations),
          static_cast<unsigned long long>(ls.recoveries),
          exact ? "exact" : "BROKEN");
    }
  }
  if (exit_code >= 0) return exit_code;

  // A reader that stopped on malformed input (fail-fast, or the skip
  // budget ran out) is a hard input error: exit 2 with the line number.
  // Safe to touch the source here: the producer (if any) has been joined.
  const psky::CsvElementReader* csv = source.csv();
  if (!stopped_by_signal && csv != nullptr && !csv->ok()) {
    std::fprintf(stderr, "error: %s\n", csv->error().c_str());
    return 2;
  }

  if (!args.checkpoint_dir.empty()) {
    if (!write_checkpoint()) return 3;
  }

  // One final merge per sharded run: feeds --emit final / --topk and the
  // closing summary line (|S| = merged candidate count = the sequential
  // operator's).
  std::vector<psky::SkylineMember> merged_skyline;
  size_t merged_candidates = 0;
  if (engine != nullptr) {
    merged_skyline = engine->GlobalSkyline(&merged_candidates);
  }

  if (args.emit == "final" || args.topk > 0) {
    std::vector<psky::SkylineMember> members;
    bool complete = true;
    if (engine != nullptr) {
      members = merged_skyline;
      if (args.topk > 0) {
        // The merged skyline holds every member with psky >= q; the
        // sequential top-k is cut below q anyway, so sorting by psky
        // (ties by arrival) and truncating matches its output.
        std::sort(members.begin(), members.end(),
                  [](const psky::SkylineMember& a,
                     const psky::SkylineMember& b) {
                    if (a.psky > b.psky) return true;
                    if (a.psky < b.psky) return false;
                    return a.element.seq < b.element.seq;
                  });
        if (members.size() > args.topk) members.resize(args.topk);
      }
    } else if (args.query_deadline_ms > 0) {
      const psky::QueryControl ctl = psky::QueryControl::WithDeadline(
          std::chrono::milliseconds(args.query_deadline_ms));
      complete = args.topk > 0
                     ? op.tree().TopK(args.topk, ctl, &members)
                     : op.tree().CollectAtLeast(args.q, ctl, &members);
    } else {
      members = args.topk > 0 ? op.tree().TopK(args.topk) : op.Skyline();
    }
    if (args.topk > 0) {
      // Top-k ranks candidates, best first; one below q is no skyline
      // member, and neither is any after it.
      const auto below_q = [&args](const psky::SkylineMember& m) {
        return m.psky < args.q;
      };
      members.erase(std::find_if(members.begin(), members.end(), below_q),
                    members.end());
    }
    PrintSkylineMembers(members, args.dims);
    if (!complete) {
      std::fprintf(stderr,
                   "final query deadline of %llu ms exceeded; emitted %zu "
                   "partial result(s)\n",
                   static_cast<unsigned long long>(args.query_deadline_ms),
                   members.size());
    }
  }

  const uint64_t skipped = carried.bad_lines_skipped + last.skipped;
  const uint64_t clamped = carried.probs_clamped + last.clamped;
  const uint64_t ooo = carried.ooo_dropped + ooo_rejected();
  std::fprintf(stderr, "processed %llu elements; |S|=%zu |SKY|=%zu\n",
               static_cast<unsigned long long>(step),
               engine != nullptr ? merged_candidates : op.candidate_count(),
               engine != nullptr ? merged_skyline.size()
                                 : op.skyline_count());
  if (engine != nullptr) {
    const psky::ShardEngine::Stats es = engine->GetStats();
    std::fprintf(
        stderr,
        "shards: count=%zu imbalance=%.2f merges=%llu merge-cands=%llu "
        "probes=%llu merge-ms=%.3f barriers=%llu\n",
        es.shards.size(), es.imbalance,
        static_cast<unsigned long long>(es.merges),
        static_cast<unsigned long long>(es.merge_candidates),
        static_cast<unsigned long long>(es.merge_probes),
        static_cast<double>(es.merge_ns) / 1e6,
        static_cast<unsigned long long>(es.barriers));
  }
  if (skipped > 0 || clamped > 0 || ooo > 0) {
    std::fprintf(stderr,
                 "skipped %llu malformed lines, clamped %llu probabilities, "
                 "dropped %llu out-of-order elements\n",
                 static_cast<unsigned long long>(skipped),
                 static_cast<unsigned long long>(clamped),
                 static_cast<unsigned long long>(ooo));
  }
  if (checkpoints_written > 0) {
    std::fprintf(stderr, "wrote %llu checkpoint(s) to %s\n",
                 static_cast<unsigned long long>(checkpoints_written),
                 args.checkpoint_dir.c_str());
  }
  if (args.wal) {
    wal.Close();  // syncs (and barriers) any post-checkpoint tail records
    const psky::WalWriter::Stats& ws = wal.stats();
    std::fprintf(stderr,
                 "wal: records=%llu syncs=%llu async-syncs=%llu "
                 "rotations=%llu group-commit=%llux%llu "
                 "pressure-escalations=%llu\n",
                 static_cast<unsigned long long>(ws.records_appended),
                 static_cast<unsigned long long>(ws.syncs),
                 static_cast<unsigned long long>(ws.async_syncs),
                 static_cast<unsigned long long>(ws.rotations),
                 static_cast<unsigned long long>(wal_governor.multiplier()),
                 static_cast<unsigned long long>(args.wal_sync_every),
                 static_cast<unsigned long long>(wal_governor.escalations()));
  }
  if (disk_window != nullptr) {
    const psky::SegmentStore::Stats ss = disk_window->store_stats();
    std::fprintf(stderr,
                 "segment-store: created=%llu live=%llu resident=%llu\n",
                 static_cast<unsigned long long>(ss.segments_created),
                 static_cast<unsigned long long>(ss.segments_live),
                 static_cast<unsigned long long>(ss.segments_resident));
  }
  if (psky::fault::Enabled()) {
    const psky::fault::Stats fs = psky::fault::StatsSnapshot();
    std::fprintf(stderr,
                 "chaos: failures=%llu delays=%llu delay-ms=%llu\n",
                 static_cast<unsigned long long>(fs.failures_injected),
                 static_cast<unsigned long long>(fs.delays_injected),
                 static_cast<unsigned long long>(fs.delay_ms_total));
  }
  if (watchdog != nullptr) {
    watchdog->Stop();
    const psky::Watchdog::Stats ws = watchdog->StatsSnapshot();
    std::fprintf(stderr,
                 "watchdog: step-stalls=%llu max-gap-ms=%llu\n",
                 static_cast<unsigned long long>(ws.step_stalls),
                 static_cast<unsigned long long>(ws.max_step_gap_ms));
  }
  if (args.audit_mode != psky::AuditMode::kOff) {
    psky::AuditReport merged_report;
    if (engine != nullptr) {
      engine->Barrier();  // shard audit state is read directly
      merged_report = engine->AuditReportMerged();
    }
    const psky::AuditReport& r =
        engine != nullptr ? merged_report : audit.report();
    std::fprintf(
        stderr,
        "audit: %llu audited, max drift %.3g, %llu beyond tolerance, "
        "%llu repairs (%llu band flips prevented), %llu false evictions, "
        "%llu oracle replays (%llu mismatches), %llu unrepaired\n",
        static_cast<unsigned long long>(r.elements_audited), r.max_drift,
        static_cast<unsigned long long>(r.drift_beyond_tolerance),
        static_cast<unsigned long long>(r.repairs_applied),
        static_cast<unsigned long long>(r.band_flips_prevented),
        static_cast<unsigned long long>(r.false_evictions),
        static_cast<unsigned long long>(r.oracle_replays),
        static_cast<unsigned long long>(r.oracle_mismatches),
        static_cast<unsigned long long>(r.violations_unrepaired));
    if (args.strict && r.violations_unrepaired > 0) {
      DumpQuarantine("unrepaired integrity violation at end of stream");
      return 4;
    }
  }
  if (stopped_by_signal) {
    std::fprintf(stderr, "stopped by signal after %llu elements\n",
                 static_cast<unsigned long long>(step));
  }
  return 0;
}
