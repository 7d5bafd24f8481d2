// Micro-benchmarks (google-benchmark) of the individual building blocks:
// R-tree maintenance, certain-data skyline algorithms, steady-state
// SSKY arrivals, and the ad-hoc / top-k query paths.

#include <benchmark/benchmark.h>

#include "base/random.h"
#include "core/msky_operator.h"
#include "geom/dominance_kernel.h"
#include "core/ssky_operator.h"
#include "core/topk_operator.h"
#include "rtree/rtree.h"
#include "skyline/bbs.h"
#include "skyline/bnl.h"
#include "skyline/sfs.h"
#include "stream/generator.h"

namespace psky {
namespace {

std::vector<Point> RandomPoints(size_t n, int dims, uint64_t seed) {
  StreamConfig cfg;
  cfg.dims = dims;
  cfg.spatial = SpatialDistribution::kAntiCorrelated;
  cfg.seed = seed;
  StreamGenerator gen(cfg);
  std::vector<Point> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) out.push_back(gen.Next().pos);
  return out;
}

void BM_RTreeInsert(benchmark::State& state) {
  const auto pts = RandomPoints(10000, 3, 1);
  for (auto _ : state) {
    RTree tree(3);
    for (size_t i = 0; i < pts.size(); ++i) {
      tree.Insert(pts[i], i);
    }
    benchmark::DoNotOptimize(tree.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(pts.size()));
}
BENCHMARK(BM_RTreeInsert);

void BM_RTreeEraseReinsert(benchmark::State& state) {
  const auto pts = RandomPoints(10000, 3, 2);
  RTree tree(3);
  for (size_t i = 0; i < pts.size(); ++i) tree.Insert(pts[i], i);
  size_t idx = 0;
  for (auto _ : state) {
    tree.Erase(pts[idx], idx);
    tree.Insert(pts[idx], idx);
    idx = (idx + 1) % pts.size();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RTreeEraseReinsert);

void BM_RTreeRangeQuery(benchmark::State& state) {
  const auto pts = RandomPoints(20000, 3, 3);
  RTree tree(3);
  for (size_t i = 0; i < pts.size(); ++i) tree.Insert(pts[i], i);
  Rng rng(4);
  for (auto _ : state) {
    Point lo(3), hi(3);
    for (int j = 0; j < 3; ++j) {
      const double c = rng.NextDouble(0.0, 0.9);
      lo[j] = c;
      hi[j] = c + 0.1;
    }
    size_t hits = 0;
    tree.RangeQuery(Mbr(lo, hi),
                    [&hits](const RTree::Item&) { ++hits; });
    benchmark::DoNotOptimize(hits);
  }
}
BENCHMARK(BM_RTreeRangeQuery);

// One probe against a full 256-slot dim-major block, the candidate
// store's innermost loop, called the way the store calls it: the block
// sits at the store's stride, and the dimension is a benchmark argument
// (2-5), which the compiler cannot fold into a kernel specialized for one
// d. `dispatch` selects the portable sweep or the runtime dispatcher
// (AVX2 where the CPU has it).
void BM_DominanceKernel(benchmark::State& state, bool dispatch) {
  const int dims = static_cast<int>(state.range(0));
  constexpr int kCount = kDominanceKernelMaxBlock;
  const auto pts = RandomPoints(kCount + 1, dims, 11);
  std::vector<double> block(static_cast<size_t>(kCount) * dims);
  for (int k = 0; k < dims; ++k) {
    for (int i = 0; i < kCount; ++i) block[k * kCount + i] = pts[i][k];
  }
  const Point& probe = pts[kCount];
  uint64_t cand[kDominanceKernelMaskWords];
  uint64_t dominated[kDominanceKernelMaskWords];
  for (auto _ : state) {
    if (dispatch) {
      DominanceBlockCompare(probe.data(), dims, block.data(), kCount, kCount,
                            cand, dominated);
    } else {
      dominance_internal::BlockComparePortable(probe.data(), dims,
                                               block.data(), kCount, kCount,
                                               cand, dominated);
    }
    benchmark::DoNotOptimize(cand);
    benchmark::DoNotOptimize(dominated);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * kCount);
  state.SetLabel(dispatch ? DominanceKernelVariant() : "portable");
}
void BM_DominanceKernelPortable(benchmark::State& s) {
  BM_DominanceKernel(s, false);
}
void BM_DominanceKernelDispatch(benchmark::State& s) {
  BM_DominanceKernel(s, true);
}
BENCHMARK(BM_DominanceKernelPortable)->DenseRange(2, 5);
BENCHMARK(BM_DominanceKernelDispatch)->DenseRange(2, 5);

void BM_CertainSkyline(benchmark::State& state, int which) {
  const auto pts =
      RandomPoints(static_cast<size_t>(state.range(0)), 3, 5);
  RTree tree(3);
  if (which == 2) {
    for (size_t i = 0; i < pts.size(); ++i) tree.Insert(pts[i], i);
  }
  for (auto _ : state) {
    switch (which) {
      case 0:
        benchmark::DoNotOptimize(BnlSkyline(pts));
        break;
      case 1:
        benchmark::DoNotOptimize(SfsSkyline(pts));
        break;
      case 2:
        benchmark::DoNotOptimize(BbsSkyline(tree));
        break;
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(pts.size()));
}
void BM_Bnl(benchmark::State& s) { BM_CertainSkyline(s, 0); }
void BM_Sfs(benchmark::State& s) { BM_CertainSkyline(s, 1); }
void BM_Bbs(benchmark::State& s) { BM_CertainSkyline(s, 2); }
BENCHMARK(BM_Bnl)->Arg(2000)->Arg(10000);
BENCHMARK(BM_Sfs)->Arg(2000)->Arg(10000);
BENCHMARK(BM_Bbs)->Arg(2000)->Arg(10000);

// Times the same steps on every run: the stream is warmed up to twice the
// window (steady state: every step expires one element), and a fixed
// iteration count stops it at the same element, so `candidates` (|S| after
// the timed steps) reads the same every run.
void BM_SskyArriveSteadyState(benchmark::State& state) {
  const int d = static_cast<int>(state.range(0));
  StreamConfig cfg;
  cfg.dims = d;
  cfg.spatial = SpatialDistribution::kAntiCorrelated;
  cfg.seed = 6;
  StreamGenerator gen(cfg);
  SskyOperator op(d, 0.3);
  const size_t window = 20000;
  StreamProcessor proc(&op, window);
  for (size_t i = 0; i < 2 * window; ++i) proc.Step(gen.Next());
  for (auto _ : state) {
    proc.Step(gen.Next());
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["candidates"] =
      static_cast<double>(op.candidate_count());
}
BENCHMARK(BM_SskyArriveSteadyState)
    ->Arg(2)
    ->Arg(3)
    ->Arg(5)
    ->Iterations(20000);

void BM_AdHocQuery(benchmark::State& state) {
  StreamConfig cfg;
  cfg.dims = 3;
  cfg.spatial = SpatialDistribution::kAntiCorrelated;
  cfg.seed = 7;
  StreamGenerator gen(cfg);
  MskyOperator op(3, {0.8, 0.55, 0.3});
  CountWindow win(20000);
  for (int i = 0; i < 40000; ++i) {
    const UncertainElement e = gen.Next();
    if (auto expired = win.Push(e)) op.Expire(*expired);
    op.Insert(e);
  }
  Rng rng(8);
  for (auto _ : state) {
    const double qp = 0.3 + 0.7 * rng.NextDouble();
    benchmark::DoNotOptimize(op.AdHocQuery(qp));
  }
}
BENCHMARK(BM_AdHocQuery);

void BM_AdHocCount(benchmark::State& state) {
  StreamConfig cfg;
  cfg.dims = 3;
  cfg.spatial = SpatialDistribution::kAntiCorrelated;
  cfg.seed = 7;
  StreamGenerator gen(cfg);
  MskyOperator op(3, {0.8, 0.55, 0.3});
  CountWindow win(20000);
  for (int i = 0; i < 40000; ++i) {
    const UncertainElement e = gen.Next();
    if (auto expired = win.Push(e)) op.Expire(*expired);
    op.Insert(e);
  }
  Rng rng(9);
  for (auto _ : state) {
    const double qp = 0.3 + 0.7 * rng.NextDouble();
    benchmark::DoNotOptimize(op.AdHocCount(qp));
  }
}
BENCHMARK(BM_AdHocCount);

void BM_TopKQuery(benchmark::State& state) {
  StreamConfig cfg;
  cfg.dims = 3;
  cfg.spatial = SpatialDistribution::kAntiCorrelated;
  cfg.seed = 10;
  StreamGenerator gen(cfg);
  TopKSkylineOperator op(3, 0.1, static_cast<size_t>(state.range(0)));
  CountWindow win(20000);
  for (int i = 0; i < 40000; ++i) {
    const UncertainElement e = gen.Next();
    if (auto expired = win.Push(e)) op.Expire(*expired);
    op.Insert(e);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(op.TopK());
  }
}
BENCHMARK(BM_TopKQuery)->Arg(1)->Arg(10)->Arg(100);

}  // namespace
}  // namespace psky

BENCHMARK_MAIN();
