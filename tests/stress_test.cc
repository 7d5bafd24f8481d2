// Adversarial stress: patterns engineered to hit the candidate store's
// hard paths — monotone fronts (mass evictions), duplicate clusters (tie
// handling in dominance), alternating extreme probabilities (huge
// log-space terms), tiny windows with high churn (compactions), and
// randomized mixed regimes. Every configuration is cross-checked against the naive
// operator and the deep structural invariants.

#include <vector>

#include <gtest/gtest.h>

#include "base/random.h"
#include "core/naive_operator.h"
#include "core/ssky_operator.h"
#include "test_util.h"

namespace psky {
namespace {

void RunBoth(const std::vector<UncertainElement>& stream, int dims, double q,
             size_t window, int check_every = 25) {
  NaiveSkylineOperator naive(dims, q);
  SskyOperator ssky(dims, q);
  StreamProcessor np(&naive, window), sp(&ssky, window);
  int step = 0;
  for (const UncertainElement& e : stream) {
    np.Step(e);
    sp.Step(e);
    if (step % check_every == 0) {
      ASSERT_NO_FATAL_FAILURE(ExpectOperatorsAgree(naive, ssky))
          << "step " << step;
      ssky.tree().CheckInvariants(true);
    }
    ++step;
  }
  ASSERT_NO_FATAL_FAILURE(ExpectOperatorsAgree(naive, ssky));
  ssky.tree().CheckInvariants(true);
}

TEST(Stress, StrictlyImprovingFront) {
  // Every arrival dominates everything before it: maximal eviction load.
  std::vector<UncertainElement> stream;
  for (int i = 0; i < 300; ++i) {
    stream.push_back(
        MakeElement({300.0 - i, 300.0 - i}, 0.9, static_cast<uint64_t>(i)));
  }
  RunBoth(stream, 2, 0.3, 40, 10);
}

TEST(Stress, StrictlyWorseningFront) {
  // Every arrival is dominated by everything before it: the candidate set
  // is pruned only by the threshold, and expiries re-promote elements.
  std::vector<UncertainElement> stream;
  for (int i = 0; i < 300; ++i) {
    stream.push_back(MakeElement({static_cast<double>(i), i + 0.5}, 0.4,
                                 static_cast<uint64_t>(i)));
  }
  RunBoth(stream, 2, 0.2, 30, 10);
}

TEST(Stress, SingleRepeatedPoint) {
  // All elements identical: nobody dominates anybody (strict dominance),
  // every element is a candidate, splits must cope with zero-area MBBs.
  std::vector<UncertainElement> stream;
  for (int i = 0; i < 250; ++i) {
    stream.push_back(
        MakeElement({0.5, 0.5, 0.5}, 0.6, static_cast<uint64_t>(i)));
  }
  RunBoth(stream, 3, 0.3, 60, 10);
}

TEST(Stress, FewClusteredDuplicatePositions) {
  // A handful of distinct positions, many copies each, mixed probs.
  Rng rng(4242);
  std::vector<Point> sites;
  for (int s = 0; s < 6; ++s) {
    Point p(2);
    p[0] = rng.NextDouble();
    p[1] = rng.NextDouble();
    sites.push_back(p);
  }
  std::vector<UncertainElement> stream;
  for (int i = 0; i < 500; ++i) {
    UncertainElement e;
    e.pos = sites[rng.NextBounded(sites.size())];
    e.prob = 0.05 + 0.95 * rng.NextDouble();
    e.seq = static_cast<uint64_t>(i);
    stream.push_back(e);
  }
  RunBoth(stream, 2, 0.25, 50, 20);
}

TEST(Stress, ExtremeProbabilityAlternation) {
  // Alternate near-certain and near-impossible elements along a rough
  // staircase: log-space addends swing between ~0 and ~-27.6.
  Rng rng(777);
  std::vector<UncertainElement> stream;
  for (int i = 0; i < 400; ++i) {
    UncertainElement e;
    e.pos = Point(2);
    e.pos[0] = rng.NextDouble();
    e.pos[1] = rng.NextDouble();
    e.prob = (i % 2 == 0) ? 1.0 : 1e-14;  // both get clamped
    e.seq = static_cast<uint64_t>(i);
    stream.push_back(e);
  }
  RunBoth(stream, 2, 0.5, 45, 15);
}

TEST(Stress, AxisAlignedLines) {
  // Degenerate geometry: all points share one coordinate, so every MBB is
  // a segment and partial-dominance cases concentrate on boundaries.
  Rng rng(31337);
  std::vector<UncertainElement> stream;
  for (int i = 0; i < 300; ++i) {
    UncertainElement e;
    e.pos = Point(3);
    e.pos[0] = 0.5;
    e.pos[1] = rng.NextDouble();
    e.pos[2] = rng.NextDouble();
    e.prob = 0.2 + 0.8 * rng.NextDouble();
    e.seq = static_cast<uint64_t>(i);
    stream.push_back(e);
  }
  RunBoth(stream, 3, 0.3, 35, 15);
}

TEST(Stress, RegimeSwitchingStream) {
  // The stream alternates between improving bursts, worsening bursts and
  // uniform noise; windows repeatedly fill with one regime then flush.
  Rng rng(90210);
  std::vector<UncertainElement> stream;
  double level = 100.0;
  for (int i = 0; i < 900; ++i) {
    UncertainElement e;
    e.pos = Point(2);
    const int regime = (i / 90) % 3;
    if (regime == 0) {
      level -= 0.1;
      e.pos[0] = level + rng.NextDouble();
      e.pos[1] = level + rng.NextDouble();
    } else if (regime == 1) {
      level += 0.15;
      e.pos[0] = level + rng.NextDouble();
      e.pos[1] = level - rng.NextDouble();
    } else {
      e.pos[0] = level + 10.0 * rng.NextDouble();
      e.pos[1] = level + 10.0 * rng.NextDouble();
    }
    e.prob = 0.05 + 0.95 * rng.NextDouble();
    e.seq = static_cast<uint64_t>(i);
    stream.push_back(e);
  }
  RunBoth(stream, 2, 0.3, 64, 30);
}

TEST(Stress, ManySeedsShortRuns) {
  // Breadth over depth: many independent short random streams.
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed * 7919);
    std::vector<UncertainElement> stream;
    const int dims = 2 + static_cast<int>(seed % 3);
    for (int i = 0; i < 120; ++i) {
      UncertainElement e;
      e.pos = Point(dims);
      for (int j = 0; j < dims; ++j) {
        // Quantized coordinates: frequent ties across all dimensions.
        e.pos[j] = static_cast<double>(rng.NextBounded(12)) / 11.0;
      }
      e.prob = 0.05 + 0.95 * rng.NextDouble();
      e.seq = static_cast<uint64_t>(i);
      stream.push_back(e);
    }
    const double q = 0.1 + 0.2 * static_cast<double>(seed % 4);
    ASSERT_NO_FATAL_FAILURE(
        RunBoth(stream, dims, q, 10 + seed, /*check_every=*/10))
        << "seed " << seed;
  }
}

}  // namespace
}  // namespace psky
