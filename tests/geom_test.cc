#include <gtest/gtest.h>

#include "base/random.h"
#include "geom/dominance.h"
#include "geom/mbr.h"
#include "geom/point.h"

namespace psky {
namespace {

TEST(Point, ConstructionAndAccess) {
  Point p({1.0, 2.0, 3.0});
  EXPECT_EQ(p.dims(), 3);
  EXPECT_DOUBLE_EQ(p[0], 1.0);
  EXPECT_DOUBLE_EQ(p[2], 3.0);
  p[1] = 9.0;
  EXPECT_DOUBLE_EQ(p[1], 9.0);
}

TEST(Point, FilledConstructor) {
  Point p(4, 0.5);
  EXPECT_EQ(p.dims(), 4);
  for (int i = 0; i < 4; ++i) EXPECT_DOUBLE_EQ(p[i], 0.5);
}

TEST(Point, Equality) {
  EXPECT_EQ(Point({1.0, 2.0}), Point({1.0, 2.0}));
  EXPECT_NE(Point({1.0, 2.0}), Point({1.0, 3.0}));
  EXPECT_NE(Point({1.0, 2.0}), Point({1.0, 2.0, 3.0}));
}

TEST(Dominance, StrictAndEqual) {
  EXPECT_TRUE(Dominates(Point({1.0, 2.0}), Point({2.0, 3.0})));
  EXPECT_TRUE(Dominates(Point({1.0, 2.0}), Point({1.0, 3.0})));
  EXPECT_FALSE(Dominates(Point({1.0, 2.0}), Point({1.0, 2.0})));  // equal
  EXPECT_FALSE(Dominates(Point({1.0, 4.0}), Point({2.0, 3.0})));  // incomp.
  EXPECT_FALSE(Dominates(Point({2.0, 3.0}), Point({1.0, 2.0})));
}

TEST(Dominance, DominatesOrEqual) {
  EXPECT_TRUE(DominatesOrEqual(Point({1.0, 2.0}), Point({1.0, 2.0})));
  EXPECT_TRUE(DominatesOrEqual(Point({1.0, 2.0}), Point({1.0, 3.0})));
  EXPECT_FALSE(DominatesOrEqual(Point({1.0, 4.0}), Point({2.0, 3.0})));
}

TEST(Dominance, AntisymmetricAndTransitiveRandomized) {
  Rng rng(42);
  for (int trial = 0; trial < 2000; ++trial) {
    const int d = 2 + static_cast<int>(rng.NextBounded(4));
    Point a(d), b(d), c(d);
    for (int i = 0; i < d; ++i) {
      a[i] = rng.NextDouble();
      b[i] = rng.NextDouble();
      c[i] = rng.NextDouble();
    }
    // Antisymmetry.
    EXPECT_FALSE(Dominates(a, b) && Dominates(b, a));
    // Transitivity.
    if (Dominates(a, b) && Dominates(b, c)) {
      EXPECT_TRUE(Dominates(a, c));
    }
    // Irreflexivity.
    EXPECT_FALSE(Dominates(a, a));
  }
}

TEST(Mbr, ExpandAndContain) {
  Mbr m = Mbr::Empty(2);
  EXPECT_TRUE(m.empty());
  m.Expand(Point({1.0, 5.0}));
  EXPECT_FALSE(m.empty());
  m.Expand(Point({3.0, 2.0}));
  EXPECT_EQ(m.min(), Point({1.0, 2.0}));
  EXPECT_EQ(m.max(), Point({3.0, 5.0}));
  EXPECT_TRUE(m.Contains(Point({2.0, 3.0})));
  EXPECT_TRUE(m.Contains(Point({1.0, 2.0})));  // boundary inclusive
  EXPECT_FALSE(m.Contains(Point({0.5, 3.0})));
}

TEST(Mbr, AreaMarginOverlap) {
  Mbr a(Point({0.0, 0.0}), Point({2.0, 3.0}));
  EXPECT_DOUBLE_EQ(a.Area(), 6.0);
  EXPECT_DOUBLE_EQ(a.Margin(), 5.0);
  Mbr b(Point({1.0, 1.0}), Point({3.0, 2.0}));
  EXPECT_DOUBLE_EQ(a.OverlapArea(b), 1.0);
  EXPECT_TRUE(a.Intersects(b));
  Mbr c(Point({5.0, 5.0}), Point({6.0, 6.0}));
  EXPECT_DOUBLE_EQ(a.OverlapArea(c), 0.0);
  EXPECT_FALSE(a.Intersects(c));
}

TEST(Mbr, Enlargement) {
  Mbr a(Point({0.0, 0.0}), Point({2.0, 2.0}));
  Mbr b(Point({3.0, 0.0}), Point({4.0, 1.0}));
  // Union is [0,4]x[0,2] = 8; a is 4 -> enlargement 4.
  EXPECT_DOUBLE_EQ(a.Enlargement(b), 4.0);
  EXPECT_DOUBLE_EQ(a.Enlargement(a), 0.0);
}

TEST(Mbr, ContainsMbr) {
  Mbr outer(Point({0.0, 0.0}), Point({10.0, 10.0}));
  Mbr inner(Point({1.0, 1.0}), Point({2.0, 2.0}));
  EXPECT_TRUE(outer.Contains(inner));
  EXPECT_FALSE(inner.Contains(outer));
}

TEST(Dominance, DominanceCompareMatchesDominates) {
  Rng rng(7);
  for (int trial = 0; trial < 5000; ++trial) {
    const int d = 2 + static_cast<int>(rng.NextBounded(3));
    Point a(d), b(d);
    for (int i = 0; i < d; ++i) {
      // Coarse grid to exercise ties frequently.
      a[i] = static_cast<double>(rng.NextBounded(4));
      b[i] = static_cast<double>(rng.NextBounded(4));
    }
    const int rel = DominanceCompare(a, b);
    EXPECT_EQ((rel & 1) != 0, Dominates(a, b));
    EXPECT_EQ((rel & 2) != 0, Dominates(b, a));
  }
}

}  // namespace
}  // namespace psky
