// Seeded, schedule-driven fault injection for chaos testing.
//
// Production code is littered with failure points that almost never fire:
// fsync returning EIO, a rename hitting ENOSPC, a worker task stalling, a
// pipeline step wedging. This module lets tests (and the psky_stream
// `--chaos-schedule` flag) drive those points deterministically: a
// schedule names injection *sites* and, per site, which occurrences fail
// (with which errno), or how long they are delayed.
//
// The hooks are compiled in always but cost one relaxed atomic load when
// no schedule is armed — call sites guard with fault::Enabled(), so the
// disarmed path never takes a lock or touches the schedule state.
//
// Schedule grammar — semicolon-separated clauses:
//
//   seed=<u64>                       seeds probabilistic clauses
//   fail=<site>@<occ>[:<err>]        fail those occurrences of <site>
//   pfail=<site>:<prob>[:<err>]      fail each occurrence with prob <prob>
//   delay=<site>@<occ>:<ms>          delay those occurrences by <ms>
//
//   <occ>  := N | N..M | N+          1-based occurrence index / range /
//                                    open range
//   <err>  := eio | enospc | eintr   injected errno (default eio)
//   <site> := ckpt-open | ckpt-write | ckpt-fsync | ckpt-rename |
//             step | wal-append | wal-fsync | segment-io
//
// Example: "seed=7;fail=ckpt-fsync@2..3;delay=step@100..200:5" fails the
// 2nd and 3rd checkpoint fsyncs with EIO and slows pipeline steps 100-200
// by 5 ms each (saturating a bounded ingest queue).
//
// All functions are thread-safe; occurrence counting is per-site and
// global to the process.

#ifndef PSKY_BASE_FAULT_INJECTION_H_
#define PSKY_BASE_FAULT_INJECTION_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>

namespace psky::fault {

/// Injection sites. Each names one class of failure point; occurrences
/// are counted per site from 1. The ckpt-* sites cover every file the
/// checkpoint writer produces, quarantine dumps included.
enum class Site : int {
  kCheckpointOpen = 0,  ///< opening the checkpoint temp file
  kCheckpointWrite,     ///< writing checkpoint payload bytes
  kCheckpointFsync,     ///< fsync of the checkpoint temp file
  kCheckpointRename,    ///< rename of temp over final checkpoint
  kStep,                ///< one pipeline step (delay only)
  kWalAppend,           ///< appending one record to the write-ahead log
  kWalFsync,            ///< group-commit fsync of the write-ahead log
  kSegmentIo,           ///< opening, reading or writing a segment file
};
inline constexpr int kSiteCount = 8;

/// Canonical schedule-syntax name of a site ("ckpt-fsync", ...).
const char* SiteName(Site site);

/// Parses a schedule-syntax site name. Returns false on unknown names.
bool ParseSiteName(std::string_view name, Site* out);

namespace internal {
extern std::atomic<bool> g_armed;
int FailErrnoSlow(Site site);
uint64_t DelayMsSlow(Site site);
}  // namespace internal

/// True when a schedule is armed. The only cost paid by call sites when
/// fault injection is idle.
inline bool Enabled() {
  return internal::g_armed.load(std::memory_order_relaxed);
}

/// Counts one occurrence of `site`; returns the errno it should fail with
/// (nonzero) or 0 to proceed normally. Zero-cost when disarmed.
inline int FailErrno(Site site) {
  return Enabled() ? internal::FailErrnoSlow(site) : 0;
}

/// Counts one occurrence of `site`; returns the injected delay in
/// milliseconds (0 = none). Does not sleep.
inline uint64_t DelayMs(Site site) {
  return Enabled() ? internal::DelayMsSlow(site) : 0;
}

/// Sleeps for DelayMs(site) when nonzero. Zero-cost when disarmed.
void MaybeDelay(Site site);

/// Cumulative effect counters since the schedule was armed.
struct Stats {
  uint64_t failures_injected = 0;
  uint64_t delays_injected = 0;
  uint64_t delay_ms_total = 0;
};

/// Parses `spec` and arms it, replacing any previous schedule and
/// resetting occurrence counters and stats. Empty spec disarms. Returns
/// false with a diagnostic in `*error` on malformed input (the previous
/// schedule stays armed).
bool LoadSchedule(std::string_view spec, std::string* error);

/// Disarms fault injection and clears the schedule and counters.
void Clear();

Stats StatsSnapshot();

/// Occurrences of `site` counted so far (for tests).
uint64_t Occurrences(Site site);

}  // namespace psky::fault

#endif  // PSKY_BASE_FAULT_INJECTION_H_
