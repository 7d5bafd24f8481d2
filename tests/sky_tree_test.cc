// The heart of the validation: the SSKY operator on the flat candidate
// store must behave exactly like the naive reference operator on every
// stream step, across dimensionalities, spatial distributions,
// probability models, thresholds and window sizes, and its stored sums
// must equal their recomputation from the live set exactly.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <ostream>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/msky_operator.h"
#include "core/naive_operator.h"
#include "core/ssky_operator.h"
#include "stream/generator.h"
#include "stream/stock.h"
#include "stream/window.h"
#include "test_util.h"

namespace psky {
namespace {

struct RunConfig {
  int dims = 2;
  SpatialDistribution dist = SpatialDistribution::kAntiCorrelated;
  ProbDistribution prob_dist = ProbDistribution::kUniform;
  double pmu = 0.5;
  double q = 0.3;
  size_t window = 50;
  size_t stream_len = 400;
  uint64_t seed = 1;
};

void RunAgreementTest(const RunConfig& rc) {
  StreamConfig cfg;
  cfg.dims = rc.dims;
  cfg.spatial = rc.dist;
  cfg.prob.distribution = rc.prob_dist;
  cfg.prob.mean = rc.pmu;
  cfg.seed = rc.seed;
  StreamGenerator gen(cfg);

  NaiveSkylineOperator naive(rc.dims, rc.q);
  SskyOperator ssky(rc.dims, rc.q);
  StreamProcessor naive_proc(&naive, rc.window);
  StreamProcessor ssky_proc(&ssky, rc.window);

  size_t step = 0;
  for (const UncertainElement& e : gen.Take(rc.stream_len)) {
    naive_proc.Step(e);
    ssky_proc.Step(e);
    ASSERT_NO_FATAL_FAILURE(ExpectOperatorsAgree(naive, ssky))
        << "diverged at step " << step;
    if (step % 37 == 0) {
      ssky.tree().CheckInvariants(/*deep=*/true);
    }
    ++step;
  }
  ssky.tree().CheckInvariants(/*deep=*/true);
}

TEST(SkyTreeBasics, EmptyTree) {
  SkyTree tree(2, {0.3});
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_EQ(tree.skyline_size(), 0u);
  tree.CheckInvariants(true);
  EXPECT_TRUE(tree.CollectAtLeast(0.5).empty());
  EXPECT_EQ(tree.CountAtLeast(0.5), 0u);
  EXPECT_TRUE(tree.TopK(3).empty());
}

TEST(SkyTreeBasics, SingleElement) {
  SkyTree tree(2, {0.3});
  UncertainElement e = MakeElement({0.5, 0.5}, 0.7, 1);
  tree.Arrive(e);
  EXPECT_EQ(tree.size(), 1u);
  EXPECT_EQ(tree.skyline_size(), 1u);
  const auto sky = tree.CollectAtLeast(0.3);
  ASSERT_EQ(sky.size(), 1u);
  EXPECT_NEAR(sky[0].psky, 0.7, 1e-9);
  tree.CheckInvariants(true);
  EXPECT_TRUE(tree.Expire(e));
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_EQ(tree.skyline_size(), 0u);
  EXPECT_FALSE(tree.Expire(e));
  tree.CheckInvariants(true);
}

TEST(SkyTreeBasics, PaperExample3Progression) {
  // Same scenario as the naive-operator test, via the tree.
  SskyOperator op(2, 0.5);
  StreamProcessor proc(&op, 4);
  std::vector<UncertainElement> stream = {
      MakeElement({3.0, 4.0}, 0.9, 1),   MakeElement({2.0, 2.0}, 0.4, 2),
      MakeElement({1.0, 3.0}, 0.3, 3),   MakeElement({4.0, 5.0}, 0.9, 4),
      MakeElement({3.5, 4.5}, 0.1, 5),   MakeElement({0.5, 10.0}, 0.5, 6),
  };
  for (int i = 0; i < 4; ++i) proc.Step(stream[static_cast<size_t>(i)]);
  EXPECT_EQ(op.candidate_count(), 3u);  // a1 evicted: P_new = 0.42
  EXPECT_EQ(op.skyline_count(), 0u);

  proc.Step(stream[4]);
  EXPECT_EQ(op.candidate_count(), 4u);

  proc.Step(stream[5]);
  bool a4_in_sky = false;
  for (const auto& m : op.Skyline()) {
    if (m.element.seq == 4) {
      a4_in_sky = true;
      EXPECT_NEAR(m.psky, 0.567, 1e-9);
    }
  }
  EXPECT_TRUE(a4_in_sky);
  op.tree().CheckInvariants(true);
}

class SkyTreeAgreement
    : public ::testing::TestWithParam<
          std::tuple<int, SpatialDistribution, double>> {};

TEST_P(SkyTreeAgreement, MatchesNaiveStepByStep) {
  const auto [dims, dist, q] = GetParam();
  RunConfig rc;
  rc.dims = dims;
  rc.dist = dist;
  rc.q = q;
  rc.seed = 1000 + static_cast<uint64_t>(dims * 10) +
            static_cast<uint64_t>(q * 100);
  RunAgreementTest(rc);
}

INSTANTIATE_TEST_SUITE_P(
    DimsDistsThresholds, SkyTreeAgreement,
    ::testing::Combine(::testing::Values(2, 3, 4, 5),
                       ::testing::Values(SpatialDistribution::kIndependent,
                                         SpatialDistribution::kCorrelated,
                                         SpatialDistribution::kAntiCorrelated),
                       ::testing::Values(0.1, 0.3, 0.7)));

class SkyTreeWindows : public ::testing::TestWithParam<size_t> {};

TEST_P(SkyTreeWindows, MatchesNaiveAcrossWindowSizes) {
  RunConfig rc;
  rc.window = GetParam();
  rc.stream_len = 4 * GetParam() + 100;
  rc.seed = 2000 + GetParam();
  RunAgreementTest(rc);
}

INSTANTIATE_TEST_SUITE_P(Windows, SkyTreeWindows,
                         ::testing::Values(1, 2, 5, 16, 64, 200));

class SkyTreeProbModels
    : public ::testing::TestWithParam<std::tuple<ProbDistribution, double>> {
};

TEST_P(SkyTreeProbModels, MatchesNaiveAcrossProbabilityModels) {
  const auto [prob_dist, pmu] = GetParam();
  RunConfig rc;
  rc.prob_dist = prob_dist;
  rc.pmu = pmu;
  rc.dims = 3;
  rc.seed = 3000 + static_cast<uint64_t>(pmu * 10);
  RunAgreementTest(rc);
}

INSTANTIATE_TEST_SUITE_P(
    ProbModels, SkyTreeProbModels,
    ::testing::Combine(::testing::Values(ProbDistribution::kUniform,
                                         ProbDistribution::kNormal),
                       ::testing::Values(0.1, 0.5, 0.9)));

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

// The store's optional modes, recording band-change events and keeping
// MSKY bands above q, change only what it reports: at every step S_{N,q},
// the bits of every sum and the work done equal those of a plain store
// that agrees with the naive operator, and the recorded events replay to
// every candidate's band. The suite keeps the name and the streams
// (seed 4000 + k) of the aggregate tree's ablation rows.
class SkyTreeOptions
    : public ::testing::TestWithParam<std::tuple<bool, bool, int>> {};

TEST_P(SkyTreeOptions, AblationModesAreFunctionallyIdentical) {
  const auto [record_events, msky_bands, k] = GetParam();
  StreamConfig cfg;
  cfg.dims = 3;
  cfg.spatial = SpatialDistribution::kAntiCorrelated;
  cfg.seed = 4000 + static_cast<uint64_t>(k);
  StreamGenerator gen(cfg);

  SkyTree::Options options;
  options.record_events = record_events;
  SkyTree tree(3,
               msky_bands ? std::vector<double>{0.9, 0.6, 0.3}
                          : std::vector<double>{0.3},
               options);
  const int top = tree.num_thresholds();
  SskyOperator plain(3, 0.3);
  NaiveSkylineOperator naive(3, 0.3);
  StreamProcessor plain_proc(&plain, 50), naive_proc(&naive, 50);
  CountWindow window(50);
  std::map<uint64_t, int> replayed;
  std::vector<SkyTree::BandChange> events;

  for (size_t step = 0; step < 400; ++step) {
    UncertainElement e = gen.Next();
    e.prob = ClampProb(e.prob);
    if (const auto expired = window.Push(e)) tree.Expire(*expired);
    tree.Arrive(e);
    plain_proc.Step(e);
    naive_proc.Step(e);
    ASSERT_NO_FATAL_FAILURE(ExpectOperatorsAgree(naive, plain))
        << "diverged at step " << step;

    std::vector<std::pair<SkylineMember, int>> want, got;
    plain.tree().ForEach([&want](const SkylineMember& m, int band) {
      want.emplace_back(m, band);
    });
    tree.ForEach([&got](const SkylineMember& m, int band) {
      got.emplace_back(m, band);
    });
    ASSERT_EQ(want.size(), got.size()) << "step " << step;
    for (size_t i = 0; i < want.size(); ++i) {
      const auto& [w, w_band] = want[i];
      const auto& [g, g_band] = got[i];
      ASSERT_EQ(w.element.seq, g.element.seq) << "step " << step;
      EXPECT_EQ(Bits(w.pnew), Bits(g.pnew)) << "seq " << w.element.seq;
      EXPECT_EQ(Bits(w.pold), Bits(g.pold)) << "seq " << w.element.seq;
      EXPECT_EQ(Bits(w.psky), Bits(g.psky)) << "seq " << w.element.seq;
      EXPECT_EQ(w_band == 1, g_band <= top) << "seq " << w.element.seq;
    }
    const SkyTree::Counters& pc = plain.tree().counters();
    const SkyTree::Counters& tc = tree.counters();
    EXPECT_EQ(pc.nodes_visited, tc.nodes_visited) << "step " << step;
    EXPECT_EQ(pc.elements_touched, tc.elements_touched) << "step " << step;
    EXPECT_EQ(pc.evictions, tc.evictions) << "step " << step;

    tree.DrainBandChanges(&events);
    if (record_events) {
      for (const SkyTree::BandChange& ev : events) {
        if (ev.new_band == 0) {
          replayed.erase(ev.seq);
        } else {
          replayed[ev.seq] = ev.new_band;
        }
      }
      std::map<uint64_t, int> bands;
      for (const auto& [m, band] : got) bands[m.element.seq] = band;
      ASSERT_EQ(bands, replayed) << "step " << step;
    } else {
      ASSERT_TRUE(events.empty()) << "step " << step;
    }
    if (step % 37 == 0) tree.CheckInvariants(/*deep=*/true);
  }
  tree.CheckInvariants(/*deep=*/true);
}

INSTANTIATE_TEST_SUITE_P(
    Ablations, SkyTreeOptions,
    ::testing::Combine(::testing::Bool(), ::testing::Bool(),
                       ::testing::Values(6, 12, 32)));

TEST(SkyTree, StockStreamAgreement) {
  StockConfig cfg;
  cfg.seed = 8;
  StockStreamGenerator gen(cfg);
  NaiveSkylineOperator naive(2, 0.3);
  SskyOperator ssky(2, 0.3);
  StreamProcessor naive_proc(&naive, 80);
  StreamProcessor ssky_proc(&ssky, 80);
  for (const UncertainElement& e : gen.Take(600)) {
    naive_proc.Step(e);
    ssky_proc.Step(e);
    ASSERT_NO_FATAL_FAILURE(ExpectOperatorsAgree(naive, ssky));
  }
  ssky.tree().CheckInvariants(true);
}

TEST(SkyTree, DuplicatePositionsAndProbabilityExtremes) {
  // Ties in every coordinate plus certain (p = 1) and near-zero elements.
  SskyOperator ssky(2, 0.4);
  NaiveSkylineOperator naive(2, 0.4);
  StreamProcessor sp(&ssky, 6), np(&naive, 6);
  std::vector<UncertainElement> stream = {
      MakeElement({0.5, 0.5}, 1.0, 0),
      MakeElement({0.5, 0.5}, 0.5, 1),   // duplicate position
      MakeElement({0.5, 0.5}, 1e-15, 2),  // clamped up to min prob
      MakeElement({0.2, 0.8}, 1.0, 3),
      MakeElement({0.1, 0.1}, 1.0, 4),   // dominates everything
      MakeElement({0.5, 0.5}, 0.9, 5),
      MakeElement({0.05, 0.05}, 0.5, 6),
      MakeElement({0.6, 0.6}, 0.7, 7),
      MakeElement({0.1, 0.1}, 0.3, 8),
      MakeElement({0.9, 0.9}, 0.99, 9),
      MakeElement({0.01, 0.99}, 0.6, 10),
      MakeElement({0.99, 0.01}, 0.6, 11),
  };
  for (const auto& e : stream) {
    sp.Step(e);
    np.Step(e);
    ASSERT_NO_FATAL_FAILURE(ExpectOperatorsAgree(naive, ssky));
    ssky.tree().CheckInvariants(true);
  }
}

TEST(SkyTree, LongChurnDeepInvariants) {
  // Longer run with a small window: many expiries, evictions and
  // compactions; deep invariants checked sparsely.
  StreamConfig cfg;
  cfg.dims = 3;
  cfg.spatial = SpatialDistribution::kAntiCorrelated;
  cfg.seed = 99;
  StreamGenerator gen(cfg);
  SskyOperator ssky(3, 0.3);
  NaiveSkylineOperator naive(3, 0.3);
  StreamProcessor sp(&ssky, 64), np(&naive, 64);
  size_t step = 0;
  for (const UncertainElement& e : gen.Take(2000)) {
    sp.Step(e);
    np.Step(e);
    if (step % 101 == 0) {
      ASSERT_NO_FATAL_FAILURE(ExpectOperatorsAgree(naive, ssky));
      ssky.tree().CheckInvariants(true);
    }
    ++step;
  }
  ASSERT_NO_FATAL_FAILURE(ExpectOperatorsAgree(naive, ssky));
}

TEST(SkyTree, EvictionsAreCountedAndPruningReducesWork) {
  StreamConfig cfg;
  cfg.dims = 3;
  cfg.spatial = SpatialDistribution::kAntiCorrelated;
  cfg.seed = 123;
  SskyOperator op(3, 0.3);
  NaiveSkylineOperator naive(3, 0.3);
  StreamProcessor proc(&op, 500);
  StreamProcessor naive_proc(&naive, 500);
  StreamGenerator gen(cfg);
  for (const auto& e : gen.Take(2000)) {
    proc.Step(e);
    naive_proc.Step(e);
  }
  // Same semantics, hence the reference's eviction count.
  EXPECT_GT(op.stats().evictions, 0u);
  EXPECT_EQ(op.stats().evictions, naive.stats().evictions);

  // A certain chain: every candidate dominates every arrival, and the
  // oldest dominates every candidate. The block aggregates settle each
  // full block in O(1), by its term sum on arrival and its P_old shift
  // on expiry, so the store compares far fewer slots per step than the
  // |S_{N,q}| a scan of every slot would.
  SskyOperator chain(3, 0.3);
  StreamProcessor chain_proc(&chain, 2000);
  uint64_t unpruned = 0;
  UncertainElement e;
  for (uint64_t i = 0; i < 6000; ++i) {
    const double x = static_cast<double>(i);
    e.pos = Point({x, x, x});
    e.prob = 1.0;
    e.seq = i;
    unpruned += chain.candidate_count();
    chain_proc.Step(e);
  }
  EXPECT_EQ(chain.candidate_count(), 2000u);
  EXPECT_EQ(chain.skyline_count(), 1u);
  EXPECT_EQ(chain.stats().evictions, 0u);
  EXPECT_GT(chain.stats().nodes_visited, 0u);
  EXPECT_LT(5 * chain.stats().elements_touched, unpruned);
  chain.tree().CheckInvariants(/*deep=*/true);
}

// --- golden rows ------------------------------------------------------
// Each row pins one stream's candidates, bands and work every 2,000
// steps. `membership` (the (seq, band) sets) and `evictions` were
// recorded on the aggregate sky-tree this store replaced and must never
// change: they are what the paper's Theorems 2-5 decide. `state` adds the
// bits of every reported P_new and P_old, and `work` and the counters the
// store's work; those were re-recorded once, on the flat store, whose
// quantized terms move the reported doubles in their last bits. A change
// that alters any sum, or visits one block more, fails here.

enum class Engine { kSsky, kMsky };

constexpr SpatialDistribution kInde = SpatialDistribution::kIndependent;
constexpr SpatialDistribution kCorr = SpatialDistribution::kCorrelated;
constexpr SpatialDistribution kAnti = SpatialDistribution::kAntiCorrelated;

struct GoldenCase {
  SpatialDistribution dist;
  int dims;
  Engine engine;
  uint64_t state;  // chained over the per-snapshot candidate hashes
  uint64_t work;   // chained over the per-snapshot counters
  uint64_t membership;  // chained over the per-snapshot (seq, band) sets
  uint64_t nodes_visited;
  uint64_t elements_touched;
  uint64_t evictions;
  uint64_t pushdowns;
  uint64_t band_flips;
};

constexpr size_t kGoldenWindow = 2000;
constexpr size_t kGoldenSteps = 20000;
constexpr size_t kGoldenEvery = 2000;

uint64_t Mix(uint64_t x) {
  // splitmix64 finalizer
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Order-independent: a sum of per-candidate hashes over (seq, band and the
// bit patterns of the materialized P_new and P_old).
uint64_t CandidateHash(const SkyTree& tree) {
  uint64_t sum = 0;
  tree.ForEach([&sum](const SkylineMember& m, int band) {
    uint64_t h = Mix(m.element.seq);
    h = Mix(h ^ static_cast<uint64_t>(band));
    h = Mix(h ^ std::bit_cast<uint64_t>(m.pnew));
    h = Mix(h ^ std::bit_cast<uint64_t>(m.pold));
    sum += h;
  });
  return Mix(sum ^ tree.size());
}

// Order-independent: a sum of per-candidate hashes over (seq, band) only,
// so it pins membership of S_{N,q} and of every band, not the values.
uint64_t MembershipHash(const SkyTree& tree) {
  uint64_t sum = 0;
  tree.ForEach([&sum](const SkylineMember& m, int band) {
    sum += Mix(Mix(m.element.seq) ^ static_cast<uint64_t>(band));
  });
  return Mix(sum ^ tree.size());
}

uint64_t CountersHash(const SkyTree::Counters& c) {
  uint64_t h = Mix(c.nodes_visited);
  h = Mix(h ^ c.elements_touched);
  h = Mix(h ^ c.evictions);
  h = Mix(h ^ c.pushdowns);
  return Mix(h ^ c.band_flips);
}

const char* DistName(SpatialDistribution d) {
  switch (d) {
    case SpatialDistribution::kIndependent:
      return "kInde";
    case SpatialDistribution::kCorrelated:
      return "kCorr";
    case SpatialDistribution::kAntiCorrelated:
      return "kAnti";
  }
  return "?";
}

// The rows keep the names they were first recorded under, on the
// sky-tree at its fanout of 128.
void PrintTo(const GoldenCase& c, std::ostream* os) {
  const char* engine = c.engine == Engine::kSsky ? "SSKY" : "MSKY";
  *os << DistName(c.dist) << " d=" << c.dims << " " << engine;
  *os << " fanout=128";
}

class SkyTreeGolden : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(SkyTreeGolden, MatchesRecordedState) {
  const GoldenCase& want = GetParam();
  StreamConfig cfg;
  cfg.dims = want.dims;
  cfg.spatial = want.dist;
  cfg.seed = 20000 + static_cast<uint64_t>(want.dims);
  StreamGenerator gen(cfg);

  SskyOperator ssky(want.dims, 0.3);
  MskyOperator msky(want.dims, {0.9, 0.6, 0.3});
  const SkyTree& tree =
      want.engine == Engine::kSsky ? ssky.tree() : msky.tree();
  CountWindow window(kGoldenWindow);

  uint64_t state = 0;
  uint64_t work = 0;
  uint64_t membership = 0;
  for (size_t step = 1; step <= kGoldenSteps; ++step) {
    const UncertainElement e = gen.Next();
    const std::optional<UncertainElement> expired = window.Push(e);
    if (want.engine == Engine::kSsky) {
      if (expired) ssky.Expire(*expired);
      ssky.Insert(e);
    } else {
      if (expired) msky.Expire(*expired);
      msky.Insert(e);
    }
    if (step % kGoldenEvery == 0) {
      state = Mix(state ^ CandidateHash(tree));
      work = Mix(work ^ CountersHash(tree.counters()));
      membership = Mix(membership ^ MembershipHash(tree));
    }
  }
  tree.CheckInvariants(/*deep=*/true);

  // On a mismatch, the hash columns as the table spells them.
  std::ostringstream got;
  got << std::hex << "0x" << state << "ULL, 0x" << work << "ULL, 0x"
      << membership << "ULL";
  EXPECT_EQ(state, want.state) << "state differs; got " << got.str();
  EXPECT_EQ(work, want.work) << "work differs; got " << got.str();
  EXPECT_EQ(membership, want.membership)
      << "membership differs; got " << got.str();
  const SkyTree::Counters& c = tree.counters();
  EXPECT_EQ(c.nodes_visited, want.nodes_visited);
  EXPECT_EQ(c.elements_touched, want.elements_touched);
  EXPECT_EQ(c.evictions, want.evictions);
  EXPECT_EQ(c.pushdowns, want.pushdowns);
  EXPECT_EQ(c.band_flips, want.band_flips);
}

// clang-format off
constexpr GoldenCase kGoldenCases[] = {
    {kAnti, 2, Engine::kSsky, 0x6483947c4518c1ccULL, 0xcbc3ffb54573c8bdULL, 0x3985e2c551d8ffb0ULL, 39895, 4063100, 19658, 0, 203},
    {kAnti, 2, Engine::kMsky, 0xbca1e3e75e47e203ULL, 0xa2c8315becfb0166ULL, 0x430414a4e1ae230ULL, 39895, 4063100, 19658, 0, 266},
    {kAnti, 3, Engine::kSsky, 0xa805ec8d38e7caa6ULL, 0x53b518d1edc49b87ULL, 0x586c1c122eef1a0dULL, 53700, 8967225, 18990, 0, 479},
    {kAnti, 3, Engine::kMsky, 0xdece989182a12400ULL, 0x4a6194b05ae7d1c9ULL, 0xc2acfee2599c15cbULL, 53700, 8967225, 18990, 0, 676},
    {kAnti, 4, Engine::kSsky, 0x4c6bbe1ce0a46802ULL, 0x9300744dc8e7f872ULL, 0x3795fdc7d6b506f9ULL, 69906, 14064100, 17614, 0, 1084},
    {kAnti, 4, Engine::kMsky, 0xd26bbcdf750ec8aaULL, 0x5ace93a4591adf69ULL, 0x99f99f67995fcc9fULL, 69906, 14064100, 17614, 0, 1573},
    {kInde, 2, Engine::kSsky, 0x93fac279c74e339aULL, 0x6617e87a8c4873cfULL, 0xfa80f47c51fd74c7ULL, 39943, 2675665, 19813, 0, 86},
    {kInde, 2, Engine::kMsky, 0x22a7fe0f5a976ee5ULL, 0x40f4cac8c0c435bcULL, 0xcb96ec0a633f19e7ULL, 39943, 2675665, 19813, 0, 129},
    {kInde, 3, Engine::kSsky, 0x290326ff5ba49c38ULL, 0x6b8808b92c4c751aULL, 0xd9bf8f438c683bd5ULL, 40198, 7014092, 19297, 0, 377},
    {kInde, 3, Engine::kMsky, 0x8080a500f3050633ULL, 0xdad1b2d3281f760dULL, 0x93dcd55d6050725eULL, 40198, 7014092, 19297, 0, 523},
    {kInde, 4, Engine::kSsky, 0xace2ac12b86b7f41ULL, 0x10016e14d1c2803dULL, 0xfb3d499e0aca56feULL, 64255, 10970827, 18042, 0, 800},
    {kInde, 4, Engine::kMsky, 0xeb3b27c4b83c6374ULL, 0x0da2cf13c411d14fULL, 0xc6690ce25d3042ceULL, 64255, 10970827, 18042, 0, 1119},
    {kCorr, 2, Engine::kSsky, 0x845f6efb483bae3bULL, 0x9a5fea426646cfe8ULL, 0x9d32a53782ce5aa4ULL, 39964, 1160091, 19879, 0, 54},
    {kCorr, 2, Engine::kMsky, 0xb25235411ebc20a5ULL, 0x6191fb0ce49f778cULL, 0x8c1b94f895683456ULL, 39964, 1160091, 19879, 0, 89},
    {kCorr, 3, Engine::kSsky, 0x484c47ac6ac060d7ULL, 0xdf22560936da5d08ULL, 0x281e344304998517ULL, 39952, 1691803, 19793, 0, 81},
    {kCorr, 3, Engine::kMsky, 0xc886396b4bbb69ceULL, 0x38c081174d5d4e63ULL, 0x7c5206c13e0e8c57ULL, 39952, 1691803, 19793, 0, 127},
    {kCorr, 4, Engine::kSsky, 0x84868eaf1a390045ULL, 0x49b12bef9495628aULL, 0xdc42c5aa362931beULL, 39950, 2053801, 19713, 0, 81},
    {kCorr, 4, Engine::kMsky, 0xaaf8974dec86929bULL, 0xe3b8469e3d23f5acULL, 0x9b7d9bba531712eULL, 39950, 2053801, 19713, 0, 119},
};
// clang-format on

std::string GoldenName(const ::testing::TestParamInfo<GoldenCase>& info) {
  const GoldenCase& c = info.param;
  std::string name = DistName(c.dist) + 1;  // drop the leading 'k'
  name += 'D';
  name += std::to_string(c.dims);
  name += c.engine == Engine::kSsky ? "Ssky" : "Msky";
  return name;
}

INSTANTIATE_TEST_SUITE_P(Streams, SkyTreeGolden,
                         ::testing::ValuesIn(kGoldenCases), GoldenName);

}  // namespace
}  // namespace psky
