// Sliding-window buffers.
//
// CountWindow implements the paper's primary model: the most recent N
// elements. TimeWindow implements the Section VI extension: elements
// within the most recent time span T. Both hand expired elements back to
// the caller so the skyline operator can run its Expiring() path.

#ifndef PSKY_STREAM_WINDOW_H_
#define PSKY_STREAM_WINDOW_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "stream/element.h"

namespace psky {

/// Count-based sliding window over the most recent `capacity` elements.
class CountWindow {
 public:
  explicit CountWindow(size_t capacity);

  /// Appends `e`. If the window overflows, removes and returns the oldest
  /// element (exactly one, since arrivals come one at a time).
  std::optional<UncertainElement> Push(const UncertainElement& e);

  /// Steady-state rotation: appends `e`, removes and returns the oldest
  /// element without the optional wrapper. Requires full().
  UncertainElement PushRotate(const UncertainElement& e);

  size_t size() const { return buffer_.size(); }
  size_t capacity() const { return capacity_; }
  bool full() const { return buffer_.size() == capacity_; }

  const UncertainElement& oldest() const { return buffer_.front(); }
  const UncertainElement& newest() const { return buffer_.back(); }
  /// The i-th element from the oldest (0 = oldest). Requires i < size().
  const UncertainElement& At(size_t i) const { return buffer_[i]; }

  /// Window contents, oldest first (for oracles / debugging).
  std::vector<UncertainElement> Snapshot() const;

 private:
  size_t capacity_;
  std::deque<UncertainElement> buffer_;
};

/// What a TimeWindow does with an element whose timestamp is older than
/// the watermark (the maximum timestamp seen so far). Real feeds deliver
/// slightly out-of-order data; a window must either refuse it cleanly or
/// repair it — never corrupt its ordering invariant.
enum class TimestampPolicy {
  kReject,            ///< TryPush returns false; the element is dropped
  kClampToWatermark,  ///< the timestamp is raised to the watermark
};

/// Time-based sliding window over the most recent `span` seconds.
class TimeWindow {
 public:
  explicit TimeWindow(double span_seconds,
                      TimestampPolicy policy = TimestampPolicy::kReject);

  /// Appends `*e` and moves every element with time <= e->time - span into
  /// `*expired`, oldest first. Returns false iff `e->time` is behind the
  /// watermark under kReject (the window is unchanged); under
  /// kClampToWatermark a late `e->time` is rewritten to the watermark
  /// before insertion, so the caller feeds the operator the same timestamp
  /// the window holds. Equal timestamps (duplicates) are always accepted.
  bool TryPush(UncertainElement* e, std::vector<UncertainElement>* expired);

  /// Legacy in-order interface: appends `e`, aborting the process if the
  /// stream violates timestamp ordering under kReject.
  void Push(const UncertainElement& e,
            std::vector<UncertainElement>* expired);

  size_t size() const { return buffer_.size(); }
  double span() const { return span_; }
  TimestampPolicy policy() const { return policy_; }
  /// Largest timestamp accepted so far (-infinity before the first push).
  double watermark() const { return watermark_; }
  /// Elements dropped by TimestampPolicy::kReject.
  uint64_t rejected() const { return rejected_; }
  /// Timestamps rewritten by TimestampPolicy::kClampToWatermark.
  uint64_t clamped() const { return clamped_; }
  /// The i-th element from the oldest (0 = oldest). Requires i < size().
  const UncertainElement& At(size_t i) const { return buffer_[i]; }

  /// Window contents, oldest first.
  std::vector<UncertainElement> Snapshot() const;

 private:
  double span_;
  TimestampPolicy policy_;
  double watermark_;
  uint64_t rejected_ = 0;
  uint64_t clamped_ = 0;
  std::deque<UncertainElement> buffer_;
};

}  // namespace psky

#endif  // PSKY_STREAM_WINDOW_H_
