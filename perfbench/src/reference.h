// The benchmark's streams and result checks, shared by the driver and the
// benchmark's tests: how a seed defines a workload's element stream,
// where results are checked, and what they are checked against.

#ifndef PERFBENCH_REFERENCE_H_
#define PERFBENCH_REFERENCE_H_

#include <cstdint>
#include <vector>

#include "core/operator.h"
#include "core/ssky_operator.h"
#include "measure.h"
#include "stream/generator.h"

namespace perfbench {

/// The paper's Table II defaults, shared by every workload.
inline constexpr int kDims = 3;
inline constexpr double kQ = 0.3;

/// The first `n` elements of the seeded synthetic stream (uniform
/// occurrence probabilities).
inline std::vector<psky::UncertainElement> MakePool(
    psky::SpatialDistribution spatial, uint64_t seed, size_t n) {
  psky::StreamConfig cfg;
  cfg.dims = kDims;
  cfg.spatial = spatial;
  cfg.seed = seed;
  psky::StreamGenerator gen(cfg);
  return gen.Take(n);
}

/// Element at stream position `pos`: the pool repeats with fresh sequence
/// numbers. Pools hold at least two windows, so no window ever holds two
/// copies of one pool element.
inline psky::UncertainElement StreamAt(
    const std::vector<psky::UncertainElement>& pool, uint64_t pos) {
  psky::UncertainElement e = pool[pos % pool.size()];
  e.seq = pos;
  return e;
}

/// Stream positions where results are checked: the end of the window
/// fill, then `checks` more `every` elements apart.
inline std::vector<uint64_t> CheckPositions(size_t window, uint64_t every,
                                            int checks) {
  std::vector<uint64_t> out;
  for (int j = 0; j <= checks; ++j) {
    out.push_back(window + static_cast<uint64_t>(j) * every);
  }
  return out;
}

/// |S_{N,q}|, |SKY_{N,q}| and the digest of the q-skyline `skyline`.
inline ResultCheck MakeCheck(uint64_t pos, size_t candidates,
                             const std::vector<psky::SkylineMember>& skyline) {
  std::vector<uint64_t> seqs;
  seqs.reserve(skyline.size());
  for (const psky::SkylineMember& m : skyline) seqs.push_back(m.element.seq);
  return ResultCheck{pos, candidates, seqs.size(), SeqDigest(seqs)};
}

inline ResultCheck ObserveOperator(const psky::WindowSkylineOperator& op,
                                   uint64_t pos) {
  return MakeCheck(pos, op.candidate_count(), op.Skyline());
}

/// Replays the stream through `op` over a count window of `window`
/// elements and observes it at each of the ascending `positions`.
inline std::vector<ResultCheck> ReferenceChecks(
    const std::vector<psky::UncertainElement>& pool, size_t window,
    const std::vector<uint64_t>& positions,
    psky::WindowSkylineOperator* op) {
  psky::StreamProcessor proc(op, window);
  std::vector<ResultCheck> out;
  uint64_t pos = 0;
  for (uint64_t target : positions) {
    while (pos < target) proc.Step(StreamAt(pool, pos++));
    out.push_back(ObserveOperator(*op, pos));
  }
  return out;
}

/// What every pipeline's final result must equal: a fresh sequential SSKY
/// replay of its final window (oldest first). Operator state is a function
/// of the window contents (the paper's Theorems 2-4), so this holds for the
/// disk window, the shard merge and MSKY's q band alike.
inline ResultCheck ReplayCheck(const std::vector<psky::UncertainElement>& window,
                               uint64_t pos) {
  psky::SskyOperator op(kDims, kQ);
  for (const psky::UncertainElement& e : window) op.Insert(e);
  return ObserveOperator(op, pos);
}

}  // namespace perfbench

#endif  // PERFBENCH_REFERENCE_H_
