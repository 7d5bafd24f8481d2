// The heart of the validation: the aggregate sky-tree operator (SSKY) must
// behave exactly like the naive reference operator on every stream step,
// across dimensionalities, spatial distributions, probability models,
// thresholds, window sizes and tree options — including the ablation
// configurations (no lazy multipliers / no min-max pruning), which must be
// functionally identical and only differ in work done.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <optional>
#include <ostream>
#include <sstream>
#include <string>
#include <tuple>
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
  SkyTree::Options tree_options;
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
  SskyOperator ssky(rc.dims, rc.q, rc.tree_options);
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

class SkyTreeOptions
    : public ::testing::TestWithParam<std::tuple<bool, bool, int>> {};

TEST_P(SkyTreeOptions, AblationModesAreFunctionallyIdentical) {
  const auto [use_lazy, use_pruning, max_entries] = GetParam();
  RunConfig rc;
  rc.tree_options.use_lazy = use_lazy;
  rc.tree_options.use_minmax_pruning = use_pruning;
  rc.tree_options.max_entries = max_entries;
  rc.tree_options.min_entries = max_entries / 3 > 2 ? max_entries / 3 : 2;
  rc.dims = 3;
  rc.seed = 4000 + static_cast<uint64_t>(max_entries);
  RunAgreementTest(rc);
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
  // Longer run with a small window: many expiries, evictions, splits and
  // condensations; deep invariants checked sparsely.
  StreamConfig cfg;
  cfg.dims = 3;
  cfg.spatial = SpatialDistribution::kAntiCorrelated;
  cfg.seed = 99;
  StreamGenerator gen(cfg);
  SkyTree::Options small_nodes;
  small_nodes.max_entries = 4;
  small_nodes.min_entries = 2;
  SskyOperator ssky(3, 0.3, small_nodes);
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
  auto run = [&cfg](bool lazy, bool pruning) {
    SkyTree::Options opt;
    // Small fanout so this 500-element window spans enough nodes for
    // wholesale keep/evict decisions to be measurable.
    opt.max_entries = 12;
    opt.min_entries = 4;
    opt.use_lazy = lazy;
    opt.use_minmax_pruning = pruning;
    SskyOperator op(3, 0.3, opt);
    StreamProcessor proc(&op, 500);
    StreamGenerator gen(cfg);
    for (const auto& e : gen.Take(2000)) proc.Step(e);
    return op.stats();
  };
  const OperatorStats fast = run(true, true);
  const OperatorStats eager = run(false, true);
  const OperatorStats unpruned = run(true, false);
  // Same semantics, hence identical eviction counts...
  EXPECT_EQ(fast.evictions, eager.evictions);
  EXPECT_EQ(fast.evictions, unpruned.evictions);
  // ...but min/max pruning must cut the work substantially (the paper's
  // wholesale keep/evict decisions), and laziness must never add work.
  EXPECT_LT(2 * fast.elements_touched, unpruned.elements_touched);
  EXPECT_LT(fast.nodes_visited, unpruned.nodes_visited);
  EXPECT_LE(fast.elements_touched, eager.elements_touched);
}

// --- golden bit-identity --------------------------------------------------
// A faster tree must reach exactly the same state as the one it replaces:
// the same candidates in the same bands with bitwise-equal materialized
// probabilities, after exactly the same work. Each row below was recorded
// on commit 97496c7, before the sky-tree's O(d) leaf appends; the fanout-8
// rows grow deeper trees than the default fanout does at this window. A
// change that reorders any floating-point sum, or visits one node more,
// fails it.

enum class Engine { kSsky, kMsky };

constexpr SpatialDistribution kInde = SpatialDistribution::kIndependent;
constexpr SpatialDistribution kCorr = SpatialDistribution::kCorrelated;
constexpr SpatialDistribution kAnti = SpatialDistribution::kAntiCorrelated;

struct GoldenCase {
  SpatialDistribution dist;
  int dims;
  Engine engine;
  int fanout;      // SkyTree::Options::max_entries
  uint64_t state;  // chained over the per-snapshot candidate hashes
  uint64_t work;   // chained over the per-snapshot counters
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

void PrintTo(const GoldenCase& c, std::ostream* os) {
  const char* engine = c.engine == Engine::kSsky ? "SSKY" : "MSKY";
  *os << DistName(c.dist) << " d=" << c.dims << " " << engine;
  *os << " fanout=" << c.fanout;
}

class SkyTreeGolden : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(SkyTreeGolden, MatchesRecordedState) {
  const GoldenCase& want = GetParam();
  StreamConfig cfg;
  cfg.dims = want.dims;
  cfg.spatial = want.dist;
  cfg.seed = 20000 + static_cast<uint64_t>(want.dims);
  StreamGenerator gen(cfg);

  SkyTree::Options options;
  options.max_entries = want.fanout;
  options.min_entries = std::min(options.min_entries, want.fanout / 2);
  SskyOperator ssky(want.dims, 0.3, options);
  MskyOperator msky(want.dims, {0.9, 0.6, 0.3}, options);
  const SkyTree& tree =
      want.engine == Engine::kSsky ? ssky.tree() : msky.tree();
  CountWindow window(kGoldenWindow);

  uint64_t state = 0;
  uint64_t work = 0;
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
    }
  }
  tree.CheckInvariants();

  // On a mismatch, the hash columns as the table spells them.
  std::ostringstream got;
  got << std::hex << "0x" << state << "ULL, 0x" << work << "ULL";
  EXPECT_EQ(state, want.state) << "state differs; got " << got.str();
  EXPECT_EQ(work, want.work) << "work differs; got " << got.str();
  const SkyTree::Counters& c = tree.counters();
  EXPECT_EQ(c.nodes_visited, want.nodes_visited);
  EXPECT_EQ(c.elements_touched, want.elements_touched);
  EXPECT_EQ(c.evictions, want.evictions);
  EXPECT_EQ(c.pushdowns, want.pushdowns);
  EXPECT_EQ(c.band_flips, want.band_flips);
}

// clang-format off
constexpr GoldenCase kGoldenCases[] = {
    {kAnti, 2, Engine::kSsky, 128, 0xd20814823850660fULL, 0x5c06737883927b61ULL, 204792, 3970849, 19658, 1, 203},
    {kAnti, 2, Engine::kMsky, 128, 0xec527c4ca06dc8d4ULL, 0xbd96b75f9b91091cULL, 204792, 3970849, 19658, 1, 266},
    {kAnti, 3, Engine::kSsky, 128, 0x12f7946b9bc49081ULL, 0x769311bacbc996d0ULL, 357123, 7153108, 18990, 0, 479},
    {kAnti, 3, Engine::kMsky, 128, 0x722d4f617e435b51ULL, 0x1f37f2fac9ad6299ULL, 357123, 7153108, 18990, 0, 676},
    {kAnti, 4, Engine::kSsky, 128, 0x0e450423c67493bfULL, 0x86443d36e8cfee37ULL, 550528, 9219325, 17614, 0, 1084},
    {kAnti, 4, Engine::kMsky, 128, 0x1d3ad474b7f3bc63ULL, 0x030bf3deb756a77bULL, 550528, 9219325, 17614, 0, 1573},
    {kInde, 2, Engine::kSsky, 128, 0x3d5ea7227b4818c0ULL, 0x330bbe16bc068d6cULL, 108637, 3238951, 19813, 1, 86},
    {kInde, 2, Engine::kMsky, 128, 0xa5bdf441fef31388ULL, 0xe61fbedf10b5ba1aULL, 108637, 3238951, 19813, 1, 129},
    {kInde, 3, Engine::kSsky, 128, 0x93a3854676a78600ULL, 0x953b6d7c4b8ea4f4ULL, 322413, 5154118, 19297, 1, 377},
    {kInde, 3, Engine::kMsky, 128, 0x156237e4bdce3cf1ULL, 0x7fe4bab2e301a018ULL, 322413, 5154122, 19297, 1, 523},
    {kInde, 4, Engine::kSsky, 128, 0x2a949a20484a352dULL, 0x242ba380755e3994ULL, 462480, 9211419, 18042, 0, 800},
    {kInde, 4, Engine::kMsky, 128, 0x44c747f4dd310b03ULL, 0x046de47164bc82e3ULL, 462480, 9211419, 18042, 0, 1119},
    {kCorr, 2, Engine::kSsky, 128, 0x70808366eacec4c2ULL, 0x53cb82791bfc4c78ULL, 110344, 1124376, 19879, 4, 54},
    {kCorr, 2, Engine::kMsky, 128, 0x3f2dc6db45d3f478ULL, 0x76910b8e0fe14a9fULL, 110344, 1124382, 19879, 4, 89},
    {kCorr, 3, Engine::kSsky, 128, 0x50ef6d3049d3bcacULL, 0x14a1e16f6637d76dULL, 110044, 1608227, 19793, 5, 81},
    {kCorr, 3, Engine::kMsky, 128, 0xb43506b81b32be97ULL, 0x8830acea04ef1498ULL, 110044, 1608230, 19793, 5, 127},
    {kCorr, 4, Engine::kSsky, 128, 0xfeb5a4fdf4a047f0ULL, 0xb48abae4a4d0d14fULL, 109733, 1912379, 19713, 1, 81},
    {kCorr, 4, Engine::kMsky, 128, 0xb7ed5fbb52b170e4ULL, 0xc2f4de9f3ebce437ULL, 109733, 1912388, 19713, 1, 119},
    {kAnti, 3, Engine::kSsky, 8, 0xc6e42eda51912907ULL, 0xc353c35d5b702c1dULL, 1519070, 1836866, 18990, 1407, 479},
    {kAnti, 3, Engine::kMsky, 8, 0x516f596fd21c38c6ULL, 0x593224a8d395467eULL, 1519070, 1836913, 18990, 1407, 676},
    {kInde, 3, Engine::kSsky, 8, 0xccee2baf66fd2d18ULL, 0x55247d9638d17911ULL, 1261643, 1809476, 19297, 1320, 377},
    {kInde, 3, Engine::kMsky, 8, 0x4f71dc96d58d8152ULL, 0x2155fa6661f66d3aULL, 1261643, 1809534, 19297, 1320, 523},
    {kCorr, 3, Engine::kSsky, 8, 0x0da71946ee166939ULL, 0xdae683c7e1aa7842ULL, 426011, 250685, 19793, 3362, 81},
    {kCorr, 3, Engine::kMsky, 8, 0xba5c1fd6a7bcf5b9ULL, 0x3da2fef0473230dcULL, 426011, 250704, 19793, 3362, 127},
};
// clang-format on

std::string GoldenName(const ::testing::TestParamInfo<GoldenCase>& info) {
  const GoldenCase& c = info.param;
  std::string name = DistName(c.dist) + 1;  // drop the leading 'k'
  name += 'D';
  name += std::to_string(c.dims);
  name += c.engine == Engine::kSsky ? "Ssky" : "Msky";
  if (c.fanout != 128) {
    name += 'F';
    name += std::to_string(c.fanout);
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(Streams, SkyTreeGolden,
                         ::testing::ValuesIn(kGoldenCases), GoldenName);

}  // namespace
}  // namespace psky
