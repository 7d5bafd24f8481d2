// Open-loop load for the benchmark's fixed-rate phase.
//
// Elements follow a precomputed due-time schedule (element i of the phase
// is due at start + i / rate) and are driven from the measuring thread
// itself, as a generator that does not slow down when the system does.
// Whenever the loop regains control it applies every element already due
// (up to the batch bound), so a stall delays every element due during it,
// and each element's latency counts from its due time, not from when the
// loop got round to it. That keeps coordinated omission out of the
// figures.

#ifndef PERFBENCH_OPEN_LOOP_H_
#define PERFBENCH_OPEN_LOOP_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <utility>
#include <vector>

namespace perfbench {

/// Fixed-rate due-time schedule, anchored when the phase starts.
class Schedule {
 public:
  explicit Schedule(double rate_eps)
      : period_ns_(1e9 / rate_eps), start_(Clock::now()) {}

  void Restart() { start_ = Clock::now(); }

  /// Due time of phase element `i`, in ns after the start.
  int64_t DueNs(uint64_t i) const {
    return static_cast<int64_t>(static_cast<double>(i) * period_ns_);
  }

  /// Number of phase elements due at `now_ns`.
  uint64_t DueBy(int64_t now_ns) const {
    if (now_ns < 0) return 0;
    return static_cast<uint64_t>(static_cast<double>(now_ns) / period_ns_) +
           1;
  }

  int64_t NowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                start_)
        .count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  double period_ns_;
  Clock::time_point start_;
};

/// What one open-loop phase observed.
struct OpenLoopStats {
  std::vector<double> visible_us;  ///< per element: due time -> readable
  uint64_t offered = 0;
  uint64_t applied = 0;
  uint64_t backlog_max = 0;  ///< most elements due but not yet applied
  double idle_s = 0.0;       ///< time spent waiting for an element to fall due
  double wall_s = 0.0;
};

/// Offers `offered` elements on `schedule` (restarted here).
/// `apply(first, count)` applies phase elements [first, first + count) and
/// returns true when everything applied so far can be read; false defers
/// their visibility to a later batch, as a shard engine does until its
/// next merge. `max_take()` bounds the next batch. Elements not applied
/// `cap_s` seconds after the start are abandoned: `applied` stays below
/// `offered` and the caller counts the rest as failed. `buffer` becomes
/// `visible_us`; a caller that measures the phase's memory passes one
/// with room for `offered` samples already resident, so the phase
/// allocates nothing.
template <typename Apply, typename MaxTake>
OpenLoopStats RunOpenLoop(Schedule* schedule, uint64_t offered, double cap_s,
                          std::vector<double> buffer, Apply&& apply,
                          MaxTake&& max_take) {
  OpenLoopStats st;
  st.offered = offered;
  st.visible_us = std::move(buffer);
  st.visible_us.clear();
  st.visible_us.reserve(offered);
  const auto cap_ns = static_cast<int64_t>(cap_s * 1e9);
  schedule->Restart();
  uint64_t next = 0;    // next element to apply
  uint64_t unseen = 0;  // first applied element not yet readable
  int64_t idle_ns = 0;
  while (next < offered) {
    int64_t now = schedule->NowNs();
    if (now > cap_ns) break;
    const int64_t due = schedule->DueNs(next);
    if (due > now) {
      const int64_t wait_from = now;
      while ((now = schedule->NowNs()) < due) {
      }
      idle_ns += now - wait_from;
    }
    const uint64_t due_count = std::min(offered, schedule->DueBy(now));
    const uint64_t backlog = due_count > next ? due_count - next : 1;
    st.backlog_max = std::max(st.backlog_max, backlog);
    const uint64_t take = std::min<uint64_t>(backlog, max_take());
    const bool readable = apply(next, take);
    next += take;
    if (readable) {
      const int64_t end = schedule->NowNs();
      for (; unseen < next; ++unseen) {
        st.visible_us.push_back(
            static_cast<double>(end - schedule->DueNs(unseen)) / 1e3);
      }
    }
  }
  st.applied = next;
  st.idle_s = static_cast<double>(idle_ns) / 1e9;
  st.wall_s = static_cast<double>(schedule->NowNs()) / 1e9;
  return st;
}

}  // namespace perfbench

#endif  // PERFBENCH_OPEN_LOOP_H_
