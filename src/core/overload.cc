#include "core/overload.h"

#include <algorithm>

#include "base/check.h"

namespace psky {

bool ParseOverloadPolicy(std::string_view name, OverloadPolicy* out) {
  if (name == "block") {
    *out = OverloadPolicy::kBlock;
  } else if (name == "shed-oldest") {
    *out = OverloadPolicy::kShedOldest;
  } else if (name == "shed-low-prob") {
    *out = OverloadPolicy::kShedLowProb;
  } else {
    return false;
  }
  return true;
}

const char* OverloadPolicyName(OverloadPolicy policy) {
  switch (policy) {
    case OverloadPolicy::kBlock:
      return "block";
    case OverloadPolicy::kShedOldest:
      return "shed-oldest";
    case OverloadPolicy::kShedLowProb:
      return "shed-low-prob";
  }
  return "unknown";
}

// ---------------------------------------------------------------------------
// BoundedIngestQueue
// ---------------------------------------------------------------------------

BoundedIngestQueue::BoundedIngestQueue(size_t capacity, OverloadPolicy policy)
    : capacity_(capacity), policy_(policy) {
  PSKY_CHECK_MSG(capacity > 0, "ingest queue capacity must be positive");
}

bool BoundedIngestQueue::Push(IngestItem item) {
  MutexLock lock(mu_);
  if (stop_requested_ || producer_closed_) {
    ++stats_.dropped_on_stop;
    return false;
  }
  if (items_.size() >= capacity_) {
    switch (policy_) {
      case OverloadPolicy::kBlock: {
        ++stats_.producer_blocks;
        can_push_.Wait(mu_, [this]() {
          mu_.AssertHeld();
          return items_.size() < capacity_ || stop_requested_;
        });
        if (stop_requested_) {
          ++stats_.dropped_on_stop;
          return false;
        }
        break;
      }
      case OverloadPolicy::kShedOldest: {
        items_.pop_front();
        ++stats_.shed_oldest;
        break;
      }
      case OverloadPolicy::kShedLowProb: {
        // The element with the lowest occurrence probability has the
        // lowest attainable P_sky; if the arrival itself is the weakest,
        // it is the one shed.
        size_t min_idx = 0;
        double min_prob = items_[0].element.prob;
        for (size_t i = 1; i < items_.size(); ++i) {
          if (items_[i].element.prob < min_prob) {
            min_prob = items_[i].element.prob;
            min_idx = i;
          }
        }
        if (item.element.prob <= min_prob) {
          ++stats_.shed_incoming;
          return true;  // admitted-and-shed: the push itself succeeded
        }
        items_.erase(items_.begin() + static_cast<ptrdiff_t>(min_idx));
        ++stats_.shed_low_prob;
        break;
      }
    }
  }
  items_.push_back(std::move(item));
  ++stats_.enqueued;
  stats_.peak_depth = std::max(stats_.peak_depth, items_.size());
  lock.Release();
  can_pop_.NotifyOne();
  return true;
}

void BoundedIngestQueue::CloseProducer() {
  {
    MutexLock lock(mu_);
    producer_closed_ = true;
  }
  can_pop_.NotifyAll();
  can_push_.NotifyAll();
}

void BoundedIngestQueue::RequestStop() {
  {
    MutexLock lock(mu_);
    stop_requested_ = true;
  }
  can_pop_.NotifyAll();
  can_push_.NotifyAll();
}

size_t BoundedIngestQueue::PopBatch(std::vector<IngestItem>* out,
                                    size_t max_items, uint64_t wait_ms) {
  out->clear();
  if (max_items == 0) return 0;
  MutexLock lock(mu_);
  if (items_.empty()) {
    can_pop_.WaitFor(mu_, std::chrono::milliseconds(wait_ms), [this]() {
      mu_.AssertHeld();
      return !items_.empty() || producer_closed_ || stop_requested_;
    });
  }
  const size_t n = std::min(max_items, items_.size());
  for (size_t i = 0; i < n; ++i) {
    out->push_back(std::move(items_.front()));
    items_.pop_front();
  }
  stats_.dequeued += n;
  lock.Release();
  if (n > 0) can_push_.NotifyAll();
  return n;
}

bool BoundedIngestQueue::drained() const {
  MutexLock lock(mu_);
  return (producer_closed_ || stop_requested_) && items_.empty();
}

size_t BoundedIngestQueue::depth() const {
  MutexLock lock(mu_);
  return items_.size();
}

double BoundedIngestQueue::pressure() const {
  MutexLock lock(mu_);
  return static_cast<double>(items_.size()) / static_cast<double>(capacity_);
}

QueueStats BoundedIngestQueue::StatsSnapshot() const {
  MutexLock lock(mu_);
  return stats_;
}

// ---------------------------------------------------------------------------
// DegradationLadder
// ---------------------------------------------------------------------------

DegradationLadder::DegradationLadder(Options options, Listener listener)
    : options_(options), listener_(std::move(listener)) {
  PSKY_CHECK_MSG(options_.release_pressure < options_.engage_pressure,
                 "ladder hysteresis requires release < engage pressure");
}

int DegradationLadder::Observe(double pressure) {
  if (pressure >= options_.engage_pressure) {
    ++above_streak_;
    below_streak_ = 0;
  } else if (pressure <= options_.release_pressure) {
    ++below_streak_;
    above_streak_ = 0;
  } else {
    // Between the thresholds: both streaks reset, the rung holds. This
    // dead band is the hysteresis.
    above_streak_ = 0;
    below_streak_ = 0;
  }

  const int old_rung = stats_.rung;
  if (above_streak_ >= options_.engage_hold &&
      stats_.rung < options_.max_rung) {
    ++stats_.rung;
    ++stats_.escalations;
    above_streak_ = 0;
  } else if (below_streak_ >= options_.release_hold && stats_.rung > 0) {
    --stats_.rung;
    ++stats_.recoveries;
    below_streak_ = 0;
  }
  stats_.peak_rung = std::max(stats_.peak_rung, stats_.rung);
  if (stats_.rung != old_rung && listener_) {
    listener_(old_rung, stats_.rung, pressure);
  }
  return stats_.rung;
}

DegradationLadder::Effects DegradationLadder::effects() const {
  Effects e;
  if (stats_.rung >= 1) e.batch_multiplier = options_.batch_multiplier;
  if (stats_.rung >= 2) e.suspend_oracle = true;
  if (stats_.rung >= 3) e.audit_stretch = options_.audit_stretch;
  if (stats_.rung >= 4) e.checkpoint_stretch = options_.checkpoint_stretch;
  return e;
}

// ---------------------------------------------------------------------------
// Watchdog
// ---------------------------------------------------------------------------

Watchdog::Watchdog(Options options, AlarmFn alarm)
    : options_(options), alarm_(std::move(alarm)) {
  PSKY_CHECK_MSG(options_.poll_ms > 0, "watchdog poll interval must be > 0");
}

Watchdog::~Watchdog() { Stop(); }

void Watchdog::Start() {
  MutexLock lock(mu_);
  // kStopping: a Stop() owns the join but has not finished; starting a
  // fresh thread would race the join on thread_.
  if (state_ != State::kIdle) return;
  state_ = State::kRunning;
  thread_ = std::thread([this]() { Loop(); });
}

void Watchdog::Stop() {
  std::thread to_join;
  {
    MutexLock lock(mu_);
    switch (state_) {
      case State::kIdle:
        return;
      case State::kRunning:
        // This caller wins the join. Claim the handle under the lock so
        // no other Stop (or Start) can touch it.
        state_ = State::kStopping;
        to_join = std::move(thread_);
        break;
      case State::kStopping:
        // Another Stop is joining; wait until it reports completion so
        // every Stop() return means "the poll thread is gone".
        stop_cv_.Wait(mu_, [this]() {
          mu_.AssertHeld();
          return state_ == State::kIdle;
        });
        return;
    }
  }
  stop_cv_.NotifyAll();  // wake the poll loop out of its interval wait
  to_join.join();
  {
    MutexLock lock(mu_);
    state_ = State::kIdle;
  }
  stop_cv_.NotifyAll();  // release Stops that lost the claim
}

Watchdog::Stats Watchdog::StatsSnapshot() const {
  MutexLock lock(mu_);
  return stats_;
}

void Watchdog::Loop() {
  uint64_t prev_step = last_step_.load(std::memory_order_relaxed);
  uint64_t gap_ms = 0;
  bool step_alarmed = false;
  for (;;) {
    {
      MutexLock lock(mu_);
      if (stop_cv_.WaitFor(mu_, std::chrono::milliseconds(options_.poll_ms),
                           [this]() {
                             mu_.AssertHeld();
                             return state_ == State::kStopping;
                           })) {
        return;
      }
    }

    const uint64_t step = last_step_.load(std::memory_order_relaxed);
    if (step != prev_step || !busy_.load(std::memory_order_relaxed)) {
      prev_step = step;
      gap_ms = 0;
      step_alarmed = false;
    } else {
      gap_ms += options_.poll_ms;
      bool fire = false;
      {
        MutexLock lock(mu_);
        stats_.max_step_gap_ms = std::max(stats_.max_step_gap_ms, gap_ms);
        if (gap_ms >= options_.stall_ms && !step_alarmed) {
          ++stats_.step_stalls;
          fire = true;
        }
      }
      if (fire) {
        step_alarmed = true;
        if (alarm_) {
          alarm_("pipeline stalled: no step completed for " +
                 std::to_string(gap_ms) + " ms (last step " +
                 std::to_string(step) + ")");
        }
      }
    }
  }
}

}  // namespace psky
