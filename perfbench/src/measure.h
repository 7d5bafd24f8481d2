// Measurement arithmetic of the repository benchmark: nearest-rank
// percentiles with sample counts, medians, log2 histograms, the
// order-independent result digest, the failure tally behind failed_share,
// and the RSS reads. Header-only so the driver and the benchmark's own
// tests share one definition.

#ifndef PERFBENCH_MEASURE_H_
#define PERFBENCH_MEASURE_H_

#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

/// A sample of timings reduced to the figures the benchmark reports.
struct Summary {
  size_t count = 0;
  double p50 = 0.0;
  double p99 = 0.0;
};

/// 1-based nearest rank of percentile `p` in a sample of `n` > 0 values:
/// the smallest rank with at least a share `p` of the sample at or below.
inline size_t PercentileRank(size_t n, double p) {
  const auto rank =
      static_cast<size_t>(std::ceil(p * static_cast<double>(n) - 1e-9));
  return std::clamp<size_t>(rank, 1, n);
}

/// Nearest-rank percentile of an ascending, non-empty sample.
inline double PercentileSorted(const std::vector<double>& sorted, double p) {
  return sorted[PercentileRank(sorted.size(), p) - 1];
}

inline Summary Summarize(std::vector<double> samples) {
  Summary s;
  s.count = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  s.p50 = PercentileSorted(samples, 0.50);
  s.p99 = PercentileSorted(samples, 0.99);
  return s;
}

/// Median (mean of the two middle values for an even count); 0 if empty.
inline double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile `p` of a sample in any order; 0 if empty.
inline double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return PercentileSorted(v, p);
}

/// An empty vector with room for `n` values whose pages are already
/// resident, so filling it later leaves the resident set unchanged.
template <typename T>
std::vector<T> TouchedBuffer(size_t n) {
  std::vector<T> v(n);
  v.clear();
  return v;
}

/// Latency percentiles that shrug off a few disturbed seconds on a shared
/// host: samples are grouped into consecutive slices by due time (`due_ns`
/// parallel to `samples`), p50 and p99 are taken per slice, and the median
/// across slices is reported. `count` stays the total sample count.
inline Summary SliceSummary(const std::vector<double>& samples,
                            const std::vector<int64_t>& due_ns,
                            int64_t slice_ns) {
  Summary out;
  out.count = samples.size();
  std::vector<double> p50s;
  std::vector<double> p99s;
  std::vector<double> slice;
  for (size_t i = 0; i < samples.size(); ++i) {
    slice.push_back(samples[i]);
    const bool last = i + 1 == samples.size() ||
                      due_ns[i + 1] / slice_ns != due_ns[i] / slice_ns;
    if (!last) continue;
    const Summary s = Summarize(std::move(slice));
    slice.clear();
    p50s.push_back(s.p50);
    p99s.push_back(s.p99);
  }
  out.p50 = Median(p50s);
  out.p99 = Median(p99s);
  return out;
}

/// Log2-bucketed histogram of nanosecond durations: bucket b > 0 counts
/// values in [2^(b-1), 2^b), bucket 0 counts zeros.
struct Log2Histogram {
  static constexpr int kBuckets = 64;
  uint64_t buckets[kBuckets] = {};

  void Add(int64_t ns) {
    const uint64_t v = ns > 0 ? static_cast<uint64_t>(ns) : 0;
    ++buckets[std::min(static_cast<int>(std::bit_width(v)), kBuckets - 1)];
  }
};

/// splitmix64 finalizer.
inline uint64_t Mix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// Order-independent digest of a set of sequence numbers: the wrapping
/// sum of their mixes, so equal sets digest equally in any visiting order.
inline uint64_t SeqDigest(const std::vector<uint64_t>& seqs) {
  uint64_t digest = 0;
  for (uint64_t s : seqs) digest += Mix64(s);
  return digest;
}

inline std::string Hex64(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// The observable result at one stream position: |S_{N,q}|, |SKY_{N,q}|
/// and the digest of the q-skyline's sequence numbers.
struct ResultCheck {
  uint64_t pos = 0;
  uint64_t candidates = 0;
  uint64_t skyline = 0;
  uint64_t digest = 0;
  friend bool operator==(const ResultCheck&, const ResultCheck&) = default;
};

/// Operations attempted and failed, for failed_share. Failures are
/// elements not applied, queries unanswered, WAL/checkpoint calls that
/// returned false and output-check mismatches; the first few reasons are
/// kept for the report.
class Tally {
 public:
  void Attempt(uint64_t n = 1) { attempted_ += n; }

  void Fail(const std::string& why, uint64_t n = 1) {
    failed_ += n;
    if (reasons_.size() < kMaxReasons) reasons_.push_back(why);
  }

  /// Counts one attempt and, unless `ok`, one failure. Returns `ok`.
  bool Check(bool ok, const char* what) {
    ++attempted_;
    if (!ok) Fail(what);
    return ok;
  }

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  const std::vector<std::string>& reasons() const { return reasons_; }

 private:
  static constexpr size_t kMaxReasons = 8;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<std::string> reasons_;
};

/// Current resident set size of this process, in bytes (0 if unknown).
/// getrusage's ru_maxrss is no use here: Linux carries it across execve,
/// so a driver started from Python would inherit the interpreter's peak.
inline double CurrentRssBytes() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0.0;
  unsigned long long size = 0;
  unsigned long long resident = 0;
  const int n = std::fscanf(f, "%llu %llu", &size, &resident);
  std::fclose(f);
  return n == 2 ? static_cast<double>(resident) *
                      static_cast<double>(sysconf(_SC_PAGESIZE))
                : 0.0;
}

/// Largest resident set seen at the sample points, relative to a base.
class RssPeak {
 public:
  RssPeak() : base_(CurrentRssBytes()), peak_(base_) {}
  void Sample() { peak_ = std::max(peak_, CurrentRssBytes()); }
  double GrowthMb() const { return (peak_ - base_) / (1024.0 * 1024.0); }

 private:
  double base_;
  double peak_;
};

}  // namespace perfbench

#endif  // PERFBENCH_MEASURE_H_
