// Per-call layer timers and per-batch spans for the traced benchmark run.
//
// The driver wraps each call it makes into a layer's public functions in
// a Tracer::Scope. With tracing off a scope costs one predictable branch.
// With tracing on it reads the steady clock twice and books the call as
// busy time of its site, as self time (its duration minus the nested
// scopes it covers: a checkpoint write minus the segment reads it pulls)
// and into a log2 histogram. Calls made inside a driver batch also fold
// into one span per (batch, site) whose parent is the enclosing site or
// the batch's root span. Spans stay in memory until the run writes them
// out.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <vector>

#include "measure.h"

namespace perfbench {

/// One kind of call the driver makes into a layer.
enum class Site : uint8_t {
  kSourceNext,
  kWindowRotate,
  kSskyInsert,
  kSskyExpire,
  kSskyQuery,
  kMskyInsert,
  kMskyExpire,
  kMskyQueryEnum,
  kMskyQueryCount,
  kMskyQueryTopk,
  kWalAppend,
  kWalSync,
  kWalRotate,
  kSegmentRotate,
  kSegmentRead,
  kCheckpointWrite,
  kAuditStep,
  kShardRoute,
  kShardBarrier,
  kShardMerge,
  kCount
};

inline constexpr int kSiteCount = static_cast<int>(Site::kCount);

struct SiteInfo {
  const char* layer;
  const char* call;
};

inline constexpr SiteInfo kSiteInfo[kSiteCount] = {
    {"stream.source", "next"},
    {"stream.window", "push_rotate"},
    {"core.ssky", "insert"},
    {"core.ssky", "expire"},
    {"core.ssky", "skyline"},
    {"core.msky", "insert"},
    {"core.msky", "expire"},
    {"core.msky", "query_enum"},
    {"core.msky", "query_count"},
    {"core.msky", "query_topk"},
    {"store.wal", "append"},
    {"store.wal", "sync"},
    {"store.wal", "rotate"},
    {"store.segment", "push_rotate"},
    {"store.segment", "cursor_next"},
    {"core.checkpoint", "write"},
    {"core.audit", "step"},
    {"core.shard_engine", "route"},
    {"core.shard_engine", "barrier"},
    {"core.shard_engine", "merge"},
};

/// Layers whose calls the steady-state phases time, in report order.
inline constexpr const char* kLayers[] = {
    "stream.source", "stream.window",   "core.ssky",  "core.msky",
    "store.wal",     "store.segment",   "core.checkpoint",
    "core.audit",    "core.shard_engine"};

class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  struct SiteStats {
    uint64_t calls = 0;
    int64_t busy_ns = 0;
    int64_t self_ns = 0;
    Log2Histogram hist;
  };

  /// Cumulative per-site figures plus the driver's batch (root) spans.
  struct Totals {
    std::array<SiteStats, kSiteCount> sites{};
    int64_t batch_ns = 0;
    uint64_t batches = 0;
  };

  /// One site's calls within one driver batch.
  struct Span {
    uint64_t batch = 0;
    Site site = Site::kCount;
    int parent = -1;        ///< enclosing site, or -1 for the batch root
    int64_t start_ns = 0;   ///< first call's start (ns after construction)
    int64_t end_ns = 0;     ///< last call's end
    int64_t busy_ns = 0;
    uint32_t calls = 0;
  };

  Tracer() : origin_(Clock::now()) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }
  /// Switch only between batches, never inside a scope.
  void set_enabled(bool on) { enabled_ = on; }

  /// Times one call at `site` for as long as it lives.
  class Scope {
   public:
    Scope(Tracer* tracer, Site site)
        : tracer_(tracer->enabled_ ? tracer : nullptr) {
      if (tracer_ != nullptr) tracer_->Enter(site);
    }
    ~Scope() {
      if (tracer_ != nullptr) tracer_->Exit();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
  };

  /// Brackets one driver batch; its duration is the root span the
  /// batch's layer spans hang under.
  void BeginBatch() {
    if (!enabled_) return;
    in_batch_ = true;
    ++batch_id_;
    batch_start_ = NowNs();
  }

  void EndBatch() {
    if (!in_batch_) return;
    in_batch_ = false;
    totals_.batch_ns += NowNs() - batch_start_;
    ++totals_.batches;
    for (int s : touched_) {
      BatchAgg& a = agg_[static_cast<size_t>(s)];
      if (spans_.size() < kMaxSpans) {
        spans_.push_back(Span{batch_id_, static_cast<Site>(s), a.parent,
                              a.start, a.end, a.busy, a.calls});
      }
      a = BatchAgg{};
    }
    touched_.clear();
  }

  const Totals& totals() const { return totals_; }
  const std::vector<Span>& spans() const { return spans_; }

  int64_t NowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                origin_)
        .count();
  }

 private:
  struct Frame {
    Site site = Site::kCount;
    int64_t start = 0;
    int64_t child_ns = 0;
  };
  struct BatchAgg {
    int64_t start = 0;
    int64_t end = 0;
    int64_t busy = 0;
    uint32_t calls = 0;
    int parent = -1;
  };
  static constexpr int kMaxDepth = 8;
  static constexpr size_t kMaxSpans = 200000;

  void Enter(Site site) {
    if (depth_ < kMaxDepth) stack_[depth_] = Frame{site, NowNs(), 0};
    ++depth_;
  }

  void Exit() {
    --depth_;
    if (depth_ >= kMaxDepth) return;
    const Frame f = stack_[depth_];
    const int64_t end = NowNs();
    const int64_t dur = end - f.start;
    const auto s = static_cast<size_t>(f.site);
    SiteStats& st = totals_.sites[s];
    ++st.calls;
    st.busy_ns += dur;
    st.self_ns += dur - f.child_ns;
    st.hist.Add(dur);
    int parent = -1;
    if (depth_ > 0) {
      stack_[depth_ - 1].child_ns += dur;
      parent = static_cast<int>(stack_[depth_ - 1].site);
    }
    if (in_batch_) {
      BatchAgg& a = agg_[s];
      if (a.calls == 0) {
        a.start = f.start;
        a.parent = parent;
        touched_.push_back(static_cast<int>(s));
      }
      a.end = end;
      a.busy += dur;
      ++a.calls;
    }
  }

  bool enabled_ = false;
  Clock::time_point origin_;
  Totals totals_;
  std::array<Frame, kMaxDepth> stack_{};
  int depth_ = 0;
  bool in_batch_ = false;
  uint64_t batch_id_ = 0;
  int64_t batch_start_ = 0;
  std::array<BatchAgg, kSiteCount> agg_{};
  std::vector<int> touched_;
  std::vector<Span> spans_;
};

/// Mean duration of one call at `site`, in ns; 0 when it was never called.
inline double MeanNs(const Tracer::Totals& t, Site site) {
  const Tracer::SiteStats& s = t.sites[static_cast<size_t>(site)];
  return s.calls == 0 ? 0.0
                      : static_cast<double>(s.busy_ns) /
                            static_cast<double>(s.calls);
}

inline uint64_t Calls(const Tracer::Totals& t, Site site) {
  return t.sites[static_cast<size_t>(site)].calls;
}

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
