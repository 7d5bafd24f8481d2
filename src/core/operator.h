// Common interface of sliding-window probabilistic skyline operators.
//
// Both the naive reference operator (the paper's "trivial algorithm") and
// the efficient SSKY operator implement this interface, so drivers, tests
// and benchmarks can run them interchangeably. The driver contract follows
// the paper's Algorithm 1: when the window is full, Expire(oldest) is
// called before Insert(new).

#ifndef PSKY_CORE_OPERATOR_H_
#define PSKY_CORE_OPERATOR_H_

#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "stream/element.h"
#include "stream/window.h"

namespace psky {

/// A candidate-set member with its probability decomposition.
///
/// `pnew` / `pold` are restricted to the maintained candidate set S_{N,q};
/// by the paper's Theorems 2–4 this loses nothing: skyline membership
/// decided on the restricted values is exact.
struct SkylineMember {
  UncertainElement element;
  double pnew = 1.0;
  double pold = 1.0;
  double psky = 1.0;  ///< element.prob * pnew * pold
  bool in_skyline = false;
};

/// Operation counters for efficiency studies.
struct OperatorStats {
  uint64_t arrivals = 0;
  uint64_t expirations = 0;
  /// Elements dropped from S_{N,q} because P_new fell below q.
  uint64_t evictions = 0;
  /// Tree nodes (or naive entries) visited across all operations.
  uint64_t nodes_visited = 0;
  /// Individual elements whose state was read or written.
  uint64_t elements_touched = 0;
};

/// Abstract continuous q-skyline operator over a sliding window.
class WindowSkylineOperator {
 public:
  virtual ~WindowSkylineOperator() = default;

  /// Processes the arrival of a new element (the paper's Inserting()).
  virtual void Insert(const UncertainElement& e) = 0;

  /// Processes the expiry of the window's oldest element (Expiring()).
  /// `e` must be the element leaving the window; it may or may not still
  /// be in the candidate set.
  virtual void Expire(const UncertainElement& e) = 0;

  /// |S_{N,q}|: current candidate-set size.
  virtual size_t candidate_count() const = 0;

  /// |SKY_{N,q}|: current number of q-skyline elements.
  virtual size_t skyline_count() const = 0;

  /// Current q-skyline, sorted by arrival sequence.
  virtual std::vector<SkylineMember> Skyline() const = 0;

  /// Entire candidate set S_{N,q}, sorted by arrival sequence.
  virtual std::vector<SkylineMember> Candidates() const = 0;

  virtual const OperatorStats& stats() const = 0;

  virtual double threshold() const = 0;
  virtual int dims() const = 0;
};

/// Convenience driver implementing the paper's Algorithm 1 over a
/// count-based window: feeds arrivals, triggers expiries.
class StreamProcessor {
 public:
  StreamProcessor(WindowSkylineOperator* op, size_t window_size)
      : op_(op), window_(window_size) {}

  /// Advances the stream by one element.
  void Step(const UncertainElement& e) {
    if (auto expired = window_.Push(e)) {
      op_->Expire(*expired);
    }
    op_->Insert(e);
  }

  /// Advances the stream by batch.size() elements. Exactly equivalent to
  /// calling Step() on each element in order — the window ordering, the
  /// expire-before-insert interleaving and every floating-point result
  /// are bit-identical — but amortizes per-element overhead: once the
  /// window is full every push expires exactly one element, so the
  /// steady-state loop rotates the window without the optional's
  /// disengaged branch.
  void StepBatch(std::span<const UncertainElement> batch) {
    size_t i = 0;
    while (i < batch.size() && !window_.full()) Step(batch[i++]);
    for (; i < batch.size(); ++i) {
      const UncertainElement expired = window_.PushRotate(batch[i]);
      op_->Expire(expired);
      op_->Insert(batch[i]);
    }
  }

  const CountWindow& window() const { return window_; }
  WindowSkylineOperator* op() const { return op_; }

 private:
  WindowSkylineOperator* op_;
  CountWindow window_;
};

/// Occurrence probabilities are clamped into [kMinElementProb,
/// kMaxElementProb] on ingestion so that (1 - P) factors are never exactly
/// zero: every log(1 - P) is finite and a departing dominator's factor can
/// always be taken back out. The induced error on any reported
/// probability is below 1e-9 and therefore invisible at any meaningful
/// threshold q.
inline constexpr double kMinElementProb = 1e-12;
inline constexpr double kMaxElementProb = 1.0 - 1e-12;

/// Clamps an occurrence probability to the supported open interval.
inline double ClampProb(double p) {
  if (p < kMinElementProb) return kMinElementProb;
  if (p > kMaxElementProb) return kMaxElementProb;
  return p;
}

/// P_new / P_old bookkeeping is in log space: an element can accumulate
/// thousands of (1 - P) factors, whose product underflows double
/// precision. log1p(-p) of a clamped probability is finite (>= ~-27.6).
inline double LogOneMinusProb(double p) { return std::log1p(-p); }

/// Exact log-domain sums. Each log value is quantized once, to the
/// nearest multiple of 2^-kLogSumBits, into an integer term (an int64:
/// |log| <= 27.7 for a clamped probability), and every P_new, P_old and
/// P_sky is an integer sum of such terms. Integer addition is exact and
/// does not depend on order, so a sum restored by subtracting the term it
/// once added is exactly what it was, and any two computations over the
/// same terms (sequential, sharded, resumed, audited) agree bit for bit.
/// Each term is off by at most 2^-(kLogSumBits + 1) from the real log.
using LogSum = __int128;
inline constexpr int kLogSumBits = 47;

/// The term of a log value `x`: llround(x * 2^47).
inline int64_t QuantizeLog(double x) {
  return std::llround(std::ldexp(x, kLogSumBits));
}

/// log(1 - P) of a clamped probability, quantized: the factor an element
/// contributes to the P_new or P_old of every element it dominates.
inline int64_t LogTermOf(double prob) {
  return QuantizeLog(LogOneMinusProb(prob));
}

/// log P of a clamped probability, quantized.
inline int64_t LogProbOf(double prob) { return QuantizeLog(std::log(prob)); }

/// A sum back in the log domain, as a double.
inline double LogSumToDouble(LogSum sum) {
  return std::ldexp(static_cast<double>(sum), -kLogSumBits);
}

/// The one reporter: a candidate's SkylineMember from its exact sums.
/// `log_prob` is LogProbOf(e.prob). Every operator and the shard merge
/// report through it, so equal sums report equal bits.
inline SkylineMember MakeSkylineMember(const UncertainElement& e,
                                       int64_t log_prob, LogSum pnew,
                                       LogSum pold, bool in_skyline) {
  SkylineMember m;
  m.element = e;
  m.pnew = std::exp(LogSumToDouble(pnew));
  m.pold = std::exp(LogSumToDouble(pold));
  m.psky = std::exp(LogSumToDouble(log_prob + pnew + pold));
  m.in_skyline = in_skyline;
  return m;
}

}  // namespace psky

#endif  // PSKY_CORE_OPERATOR_H_
