// Annotated synchronization primitives: the project's lock vocabulary.
//
// Every mutex and condition variable in library code goes through these
// wrappers (enforced by the psky-lint `sync-wrappers` rule) so that two
// independent checkers see the whole lock protocol:
//
//  1. Clang's capability-based thread-safety analysis. The PSKY_* macros
//     below expand to the Clang attributes when compiling under Clang
//     (CI's thread-safety job adds -Wthread-safety -Wthread-safety-beta
//     -Werror) and to nothing under GCC, so annotations are free on every
//     other build.
//
//  2. A runtime lock-rank checker (lockdep-lite). Each Mutex declares a
//     rank from the table in lockrank below; acquiring a mutex while
//     holding one of equal or higher rank is an ordering violation and
//     PSKY_CHECK-fails with both lock names and the full held stack.
//     Armed by default in debug and sanitizer builds, where every chaos
//     and TSan test exercises it for free; in release builds the disarmed
//     cost is one relaxed atomic load per acquisition (the same
//     convention as fault::Enabled()).
//
// Conventions (see docs/operations.md, "Analysis matrix"):
//   - members protected by a Mutex carry PSKY_GUARDED_BY(mu_);
//   - functions called with a lock held carry PSKY_REQUIRES(mu_);
//   - condition-variable predicates run with the lock held but inside a
//     lambda the analysis cannot see through — they call mu.AssertHeld()
//     first instead of being suppressed;
//   - PSKY_NO_THREAD_SAFETY_ANALYSIS is a last resort and every use needs
//     a comment justifying why the analysis cannot express the protocol.

#ifndef PSKY_BASE_SYNC_H_
#define PSKY_BASE_SYNC_H_

#include <atomic>
#include <chrono>
#include <condition_variable>  // psky-lint: allow(sync-wrappers)
#include <mutex>               // psky-lint: allow(sync-wrappers)
#include <utility>

// ---------------------------------------------------------------------------
// Clang thread-safety annotation macros (no-ops elsewhere).
// ---------------------------------------------------------------------------

#if defined(__clang__) && defined(__has_attribute)
#define PSKY_THREAD_ANNOTATION_(x) __attribute__((x))
#else
#define PSKY_THREAD_ANNOTATION_(x)
#endif

#define PSKY_CAPABILITY(x) PSKY_THREAD_ANNOTATION_(capability(x))
#define PSKY_SCOPED_CAPABILITY PSKY_THREAD_ANNOTATION_(scoped_lockable)
#define PSKY_GUARDED_BY(x) PSKY_THREAD_ANNOTATION_(guarded_by(x))
#define PSKY_PT_GUARDED_BY(x) PSKY_THREAD_ANNOTATION_(pt_guarded_by(x))
#define PSKY_ACQUIRE(...) \
  PSKY_THREAD_ANNOTATION_(acquire_capability(__VA_ARGS__))
#define PSKY_RELEASE(...) \
  PSKY_THREAD_ANNOTATION_(release_capability(__VA_ARGS__))
#define PSKY_TRY_ACQUIRE(...) \
  PSKY_THREAD_ANNOTATION_(try_acquire_capability(__VA_ARGS__))
#define PSKY_REQUIRES(...) \
  PSKY_THREAD_ANNOTATION_(requires_capability(__VA_ARGS__))
#define PSKY_EXCLUDES(...) PSKY_THREAD_ANNOTATION_(locks_excluded(__VA_ARGS__))
#define PSKY_ASSERT_CAPABILITY(x) \
  PSKY_THREAD_ANNOTATION_(assert_capability(x))
#define PSKY_RETURN_CAPABILITY(x) PSKY_THREAD_ANNOTATION_(lock_returned(x))
#define PSKY_NO_THREAD_SAFETY_ANALYSIS \
  PSKY_THREAD_ANNOTATION_(no_thread_safety_analysis)

// ThreadSanitizer detection, for primitives that need a TSan-visible
// formulation (TSan does not model standalone fences).
#if defined(__SANITIZE_THREAD__)
#define PSKY_SYNC_TSAN_ 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define PSKY_SYNC_TSAN_ 1
#endif
#endif
#ifndef PSKY_SYNC_TSAN_
#define PSKY_SYNC_TSAN_ 0
#endif

namespace psky {

/// std::atomic_thread_fence(seq_cst), phrased so ThreadSanitizer can see
/// it. TSan does not intercept standalone fences (GCC's -Wtsan makes
/// that an error under -Werror, and a fence-based protocol is invisible
/// to the race detector), so sanitized builds substitute a seq_cst RMW
/// on `hint`: RMWs on one location are totally ordered and each acquires
/// everything published before the previous one, which yields the same
/// store-load ordering the fence provides. Every thread in the protocol
/// must pass the *same* hint object.
inline void SeqCstFence(std::atomic<unsigned>& hint) {
#if PSKY_SYNC_TSAN_
  hint.fetch_add(1, std::memory_order_seq_cst);
#else
  (void)hint;
  std::atomic_thread_fence(std::memory_order_seq_cst);
#endif
}

// ---------------------------------------------------------------------------
// Lock ranks.
// ---------------------------------------------------------------------------

namespace lockrank {

/// Rank table: a thread may only acquire a mutex whose rank is strictly
/// greater than every rank it already holds, so any deadlock cycle would
/// need a rank decrease somewhere — which the checker catches on the
/// first occurrence, not the unlucky interleaving. Leaf mutexes (never
/// held across another acquisition) sit at the top. Gaps are deliberate:
/// new subsystems slot in without renumbering. Keep this table in sync
/// with docs/operations.md.
inline constexpr int kIngestQueue = 10;    ///< BoundedIngestQueue::mu_
inline constexpr int kWatchdog = 20;       ///< Watchdog::mu_
inline constexpr int kShardDoorbell = 30;  ///< SpscQueue<T>::door_mu_
inline constexpr int kWalAsync = 50;       ///< WalWriter::AsyncSync::mu
inline constexpr int kFaultSchedule = 60;  ///< fault_injection's g_mu
inline constexpr int kLeaf = 90;           ///< generic leaf (tests, tools)

namespace internal {
// Armed flag, mirrored after fault::internal::g_armed: library call
// sites pay one relaxed load when the checker is off.
extern std::atomic<bool> g_armed;
void OnAcquire(const void* mu, const char* name, int rank);
void OnAcquired(const void* mu, const char* name, int rank);
void OnRelease(const void* mu);
}  // namespace internal

/// True when acquisitions are being rank-checked. Defaults to on in
/// debug (!NDEBUG) and sanitizer builds, off in release.
inline bool Armed() {
  return internal::g_armed.load(std::memory_order_relaxed);
}

/// Arms or disarms the checker process-wide; returns the previous state.
/// Tests use this to exercise the checker in release builds (and to
/// silence it around deliberately-misordered fixtures).
bool SetArmed(bool armed);

/// Called instead of aborting when a violation is found, if installed
/// (tests assert the checker fires without dying). The message names the
/// acquired mutex and the held stack. Returns the previous handler.
using ViolationHandler = void (*)(const char* message);
ViolationHandler SetViolationHandlerForTest(ViolationHandler handler);

/// Ranks held by the calling thread right now, innermost last (for
/// tests and post-mortem dumps). Returns the number written to `out`,
/// at most `max`.
int HeldRanks(int* out, int max);

}  // namespace lockrank

// ---------------------------------------------------------------------------
// Mutex
// ---------------------------------------------------------------------------

/// A std::mutex with a name, a lock rank, and Clang capability
/// annotations. Constant-initializable, so file-scope instances (e.g.
/// fault injection's schedule lock) dodge static-init order.
class PSKY_CAPABILITY("mutex") Mutex {
 public:
  constexpr Mutex(const char* name, int rank) noexcept
      : name_(name), rank_(rank) {}

  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() PSKY_ACQUIRE() {
    // Record intent *before* blocking: if this acquisition deadlocks,
    // the held stack already names the lock being waited on.
    if (lockrank::Armed()) {
      lockrank::internal::OnAcquire(this, name_, rank_);
    }
    mu_.lock();
  }

  void Unlock() PSKY_RELEASE() {
    mu_.unlock();
    if (lockrank::Armed()) lockrank::internal::OnRelease(this);
  }

  /// Never blocks, so misordered try-acquisitions cannot deadlock; the
  /// checker records success without a rank check (lockdep's rule).
  bool TryLock() PSKY_TRY_ACQUIRE(true) {
    if (!mu_.try_lock()) return false;
    if (lockrank::Armed()) {
      lockrank::internal::OnAcquired(this, name_, rank_);
    }
    return true;
  }

  /// Tells the static analysis this thread holds the mutex in contexts
  /// it cannot see through (condition-variable predicate lambdas). No
  /// runtime effect.
  void AssertHeld() const PSKY_ASSERT_CAPABILITY(this) {}

  const char* name() const { return name_; }
  int rank() const { return rank_; }

 private:
  friend class CondVar;
  std::mutex& native() { return mu_; }  // psky-lint: allow(sync-wrappers)

  std::mutex mu_;  // psky-lint: allow(sync-wrappers)
  const char* name_;
  int rank_;
};

// ---------------------------------------------------------------------------
// MutexLock
// ---------------------------------------------------------------------------

/// RAII lock (std::lock_guard with a Release() escape for the
/// unlock-before-notify pattern).
class PSKY_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) PSKY_ACQUIRE(mu) : mu_(&mu) { mu_->Lock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  ~MutexLock() PSKY_RELEASE() {
    if (held_) mu_->Unlock();
  }

  /// Unlocks early (e.g. before a condvar notify). The destructor then
  /// does nothing.
  void Release() PSKY_RELEASE() {
    held_ = false;
    mu_->Unlock();
  }

 private:
  Mutex* mu_;
  bool held_ = true;
};

// ---------------------------------------------------------------------------
// CondVar
// ---------------------------------------------------------------------------

/// Condition variable bound to the annotated Mutex. Waits take the Mutex
/// explicitly so REQUIRES() expresses the protocol; internally each wait
/// adopts the already-held native mutex and releases it back un-owned,
/// keeping the annotated Mutex conceptually held across the wait (the
/// lock-rank stack likewise keeps it: the thread is blocked, not running
/// past it).
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void Wait(Mutex& mu) PSKY_REQUIRES(mu) {
    std::unique_lock<std::mutex> native(  // psky-lint: allow(sync-wrappers)
        mu.native(), std::adopt_lock);
    cv_.wait(native);
    native.release();
  }

  /// Waits until `pred()` holds. `pred` runs with `mu` held; it should
  /// open with `mu.AssertHeld()` so the static analysis knows.
  template <typename Pred>
  void Wait(Mutex& mu, Pred pred) PSKY_REQUIRES(mu) {
    std::unique_lock<std::mutex> native(  // psky-lint: allow(sync-wrappers)
        mu.native(), std::adopt_lock);
    cv_.wait(native, std::move(pred));
    native.release();
  }

  /// Returns pred() after waiting at most `timeout` (false = timed out
  /// with the predicate still false). `pred` runs with `mu` held.
  template <typename Rep, typename Period, typename Pred>
  bool WaitFor(Mutex& mu, std::chrono::duration<Rep, Period> timeout,
               Pred pred) PSKY_REQUIRES(mu) {
    std::unique_lock<std::mutex> native(  // psky-lint: allow(sync-wrappers)
        mu.native(), std::adopt_lock);
    const bool satisfied = cv_.wait_for(native, timeout, std::move(pred));
    native.release();
    return satisfied;
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;  // psky-lint: allow(sync-wrappers)
};

}  // namespace psky

#endif  // PSKY_BASE_SYNC_H_
