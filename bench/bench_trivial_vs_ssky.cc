// Section V-B inline claim: "We first compare SSKY with the trivial
// algorithm ... We find it is about 20 times slower than SSKY against
// anti (3d)."
//
// This harness reproduces that comparison: the naive flat-list operator
// (amortized O(|S_{N,q}|) per element) vs SSKY on its block-scanned
// candidate store, on anti-correlated 3-d data. The naive operator is
// quadratic-ish, so the driven stream is capped; both operators see
// identical input.

#include <algorithm>

#include "bench/bench_common.h"
#include "core/naive_operator.h"
#include "core/ssky_operator.h"

namespace psky::bench {
namespace {

void Run() {
  const Scale scale = GetScale();
  PrintHeader("Section V-B: trivial algorithm vs SSKY (anti 3d)", scale);

  const int d = 3;
  const double q = 0.3;
  // Cap the stream so the trivial algorithm finishes promptly.
  const size_t window = std::min<size_t>(scale.w, 400'000);
  const size_t n = std::min(scale.n, 2 * window);

  auto run = [&](WindowSkylineOperator* op) {
    auto source = MakeSource(Dataset::kAntiUniform, d);
    return DriveOperator(op, source.get(), n, window);
  };

  NaiveSkylineOperator naive(d, q);
  const RunResult naive_r = run(&naive);
  SskyOperator ssky(d, q);
  const RunResult ssky_r = run(&ssky);

  std::printf("%-10s %14s %14s %16s\n", "operator", "delay (us/elem)",
              "elements/sec", "elems touched");
  std::printf("%-10s %14.3f %14.0f %16llu\n", "trivial", naive_r.delay_us,
              naive_r.elements_per_second,
              static_cast<unsigned long long>(naive.stats().elements_touched));
  std::printf("%-10s %14.3f %14.0f %16llu\n", "SSKY", ssky_r.delay_us,
              ssky_r.elements_per_second,
              static_cast<unsigned long long>(ssky.stats().elements_touched));
  std::printf("\nSSKY speedup: %.1fx (paper reports ~20x at full scale)\n",
              naive_r.delay_us / ssky_r.delay_us);
}

}  // namespace
}  // namespace psky::bench

int main() {
  psky::bench::Run();
  return 0;
}
