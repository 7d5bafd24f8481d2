// Tests for the block dominance kernel (geom/dominance_kernel.h): the
// mask outputs must match the scalar DominanceCompare reference bit for
// bit — including ties, equal points, every dimensionality the operators
// use and every block size a call accepts — and the portable and SIMD
// paths must agree exactly.

#include "geom/dominance_kernel.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "base/random.h"
#include "geom/dominance.h"
#include "geom/point.h"

namespace psky {
namespace {

// Dim-major SoA block allocated at exactly dims x n doubles with stride n,
// plus the same points as Point objects for the scalar reference. A read
// past the last candidate of the last row leaves the allocation, so ASan
// reports it.
struct Block {
  int n = 0;
  std::unique_ptr<double[]> soa;
  std::vector<Point> points;
};

Block MakeBlock(const std::vector<Point>& pts, int dims) {
  Block b;
  b.n = static_cast<int>(pts.size());
  b.points = pts;
  b.soa = std::make_unique<double[]>(static_cast<size_t>(dims) * pts.size());
  for (int k = 0; k < dims; ++k) {
    for (size_t i = 0; i < pts.size(); ++i) {
      b.soa[static_cast<size_t>(k) * pts.size() + i] = pts[i][k];
    }
  }
  return b;
}

// Random coordinates from a small discrete grid, so equal coordinates
// (and fully equal points) occur constantly.
std::vector<Point> GridPoints(int n, int dims, Rng* rng) {
  std::vector<Point> pts;
  pts.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    Point p(dims);
    for (int k = 0; k < dims; ++k) {
      p[k] = 0.25 * static_cast<double>(rng->NextBounded(5));
    }
    pts.push_back(p);
  }
  return pts;
}

Point GridProbe(int dims, Rng* rng) {
  Point probe(dims);
  for (int k = 0; k < dims; ++k) {
    probe[k] = 0.25 * static_cast<double>(rng->NextBounded(5));
  }
  return probe;
}

// Runs the dispatched kernel (portable = false) or the portable one on the
// whole block.
void Compare(const Point& probe, const Block& block, int dims, bool portable,
             uint64_t* cand, uint64_t* dominated) {
  const double* soa = block.soa.get();
  if (portable) {
    for (int w = 0; w < kDominanceKernelMaskWords; ++w) {
      cand[w] = 0;
      dominated[w] = 0;
    }
    dominance_internal::BlockComparePortable(probe.data(), dims, soa, block.n,
                                             block.n, cand, dominated);
  } else {
    DominanceBlockCompare(probe.data(), dims, soa, block.n, block.n, cand,
                          dominated);
  }
}

// Compares the first (n + 63) / 64 mask words with the scalar
// DominanceCompare reference, bit for bit.
void ExpectMatchesReference(const Point& probe, const Block& block,
                            const uint64_t* cand, const uint64_t* dominated) {
  uint64_t want_cand[kDominanceKernelMaskWords] = {};
  uint64_t want_dominated[kDominanceKernelMaskWords] = {};
  for (size_t i = 0; i < block.points.size(); ++i) {
    const int rel = DominanceCompare(block.points[i], probe);
    // bit 0: candidate ≺ probe; bit 1: probe ≺ candidate
    want_cand[i >> 6] |= static_cast<uint64_t>(rel & 1) << (i & 63);
    want_dominated[i >> 6] |= static_cast<uint64_t>((rel >> 1) & 1) << (i & 63);
  }
  for (int w = 0; w < (block.n + 63) / 64; ++w) {
    EXPECT_EQ(cand[w], want_cand[w]) << "word " << w;
    EXPECT_EQ(dominated[w], want_dominated[w]) << "word " << w;
  }
}

TEST(DominanceKernel, MatchesScalarReferenceAcrossDimsAndSizes) {
  // Every block size the kernel accepts, so every full-group count and
  // every partial last group (n % 4 = 1, 2, 3) meets every word boundary,
  // on both paths.
  Rng rng(7);
  for (int dims = 1; dims <= kMaxDims; ++dims) {
    for (int n = 0; n <= kDominanceKernelMaxBlock; ++n) {
      SCOPED_TRACE(testing::Message() << "dims=" << dims << " n=" << n);
      const Block block = MakeBlock(GridPoints(n, dims, &rng), dims);
      for (int trial = 0; trial < 3; ++trial) {
        const Point probe = GridProbe(dims, &rng);
        for (bool portable : {false, true}) {
          SCOPED_TRACE(portable ? "portable" : "dispatched");
          uint64_t cand[kDominanceKernelMaskWords];
          uint64_t dominated[kDominanceKernelMaskWords];
          Compare(probe, block, dims, portable, cand, dominated);
          ExpectMatchesReference(probe, block, cand, dominated);
        }
      }
    }
  }
}

TEST(DominanceKernel, EqualPointsDominateNeitherWay) {
  const int dims = 3;
  Point p(dims);
  p[0] = 0.5;
  p[1] = 0.25;
  p[2] = 0.75;
  const Block block = MakeBlock(std::vector<Point>(10, p), dims);
  for (bool portable : {false, true}) {
    uint64_t cand[kDominanceKernelMaskWords];
    uint64_t dominated[kDominanceKernelMaskWords];
    Compare(p, block, dims, portable, cand, dominated);
    EXPECT_EQ(cand[0], 0u);
    EXPECT_EQ(dominated[0], 0u);
  }
}

TEST(DominanceKernel, TiesOnSomeDimsResolveLikeScalar) {
  // Candidates share coordinates with the probe on one or two dims; the
  // strict-on-some-dim rule must match DominanceCompare exactly.
  const int dims = 3;
  Point probe(dims);
  probe[0] = 0.5;
  probe[1] = 0.5;
  probe[2] = 0.5;
  std::vector<Point> pts;
  for (double a : {0.25, 0.5, 0.75}) {
    for (double b : {0.25, 0.5, 0.75}) {
      for (double c : {0.25, 0.5, 0.75}) {
        Point p(dims);
        p[0] = a;
        p[1] = b;
        p[2] = c;
        pts.push_back(p);
      }
    }
  }
  const Block block = MakeBlock(pts, dims);
  for (bool portable : {false, true}) {
    uint64_t cand[kDominanceKernelMaskWords];
    uint64_t dominated[kDominanceKernelMaskWords];
    Compare(probe, block, dims, portable, cand, dominated);
    ExpectMatchesReference(probe, block, cand, dominated);
  }
}

TEST(DominanceKernel, NeverReportsBothDirections) {
  Rng rng(11);
  const int dims = 4;
  const int n = 256;
  const Block block = MakeBlock(GridPoints(n, dims, &rng), dims);
  for (int trial = 0; trial < 32; ++trial) {
    const Point probe = GridProbe(dims, &rng);
    uint64_t cand[kDominanceKernelMaskWords];
    uint64_t dominated[kDominanceKernelMaskWords];
    Compare(probe, block, dims, /*portable=*/false, cand, dominated);
    for (int w = 0; w < kDominanceKernelMaskWords; ++w) {
      EXPECT_EQ(cand[w] & dominated[w], 0u);
    }
  }
}

#if PSKY_DOMKERNEL_X86_DISPATCH
TEST(DominanceKernel, PortableAndDispatchedPathsAgree) {
  // On AVX2 hardware DominanceBlockCompare takes the SIMD path; diff its
  // masks against a forced portable run on identical inputs. (On
  // pre-AVX2 hardware both calls run the portable path and the test is a
  // tautology — still worth keeping as a determinism check.)
  Rng rng(13);
  for (int dims = 1; dims <= kMaxDims; ++dims) {
    for (int n : {1, 2, 3, 4, 7, 64, 65, 130, 255, 256}) {
      const Block block = MakeBlock(GridPoints(n, dims, &rng), dims);
      const Point probe = GridProbe(dims, &rng);
      uint64_t cand[kDominanceKernelMaskWords];
      uint64_t dominated[kDominanceKernelMaskWords];
      Compare(probe, block, dims, /*portable=*/false, cand, dominated);
      uint64_t pcand[kDominanceKernelMaskWords];
      uint64_t pdominated[kDominanceKernelMaskWords];
      Compare(probe, block, dims, /*portable=*/true, pcand, pdominated);
      for (int w = 0; w < (n + 63) / 64; ++w) {
        EXPECT_EQ(cand[w], pcand[w]) << "dims=" << dims << " n=" << n;
        EXPECT_EQ(dominated[w], pdominated[w])
            << "dims=" << dims << " n=" << n;
      }
    }
  }
}
#endif  // PSKY_DOMKERNEL_X86_DISPATCH

}  // namespace
}  // namespace psky
