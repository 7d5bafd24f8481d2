// Ablation study of the sky-tree's two key devices (DESIGN.md §3):
//   * lazy probability multipliers (the paper's P_new^global/P_old^global)
//   * min/max aggregate pruning (wholesale keep / evict / re-band)
// plus a node-fanout sweep. All configurations are functionally identical
// (asserted by the test suite); this harness measures their cost, five
// round-robin runs per configuration, reported as median and range.

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "core/ssky_operator.h"

namespace psky::bench {
namespace {

struct Config {
  std::string label;
  SkyTree::Options options;
};

struct Sample {
  double delay_us = 0.0;
  double elements_per_second = 0.0;
  uint64_t elements_touched = 0;
  uint64_t nodes_visited = 0;
};

Sample RunOne(const SkyTree::Options& opt, size_t n, size_t window) {
  auto source = MakeSource(Dataset::kAntiUniform, 3);
  SskyOperator op(3, 0.3, opt);
  const RunResult r = DriveOperator(&op, source.get(), n, window);
  const OperatorStats& s = op.stats();
  return Sample{r.delay_us, r.elements_per_second, s.elements_touched,
                s.nodes_visited};
}

// One row: the median of `samples` with its min-max range. The work
// counters are the same in every run of a configuration.
void PrintRow(const Config& config, std::vector<Sample> samples) {
  std::sort(samples.begin(), samples.end(),
            [](const Sample& a, const Sample& b) {
              return a.delay_us < b.delay_us;
            });
  const Sample& median = samples[samples.size() / 2];
  std::printf("%-24s %8.3f [%6.3f-%6.3f] %12.0f %14llu %12llu\n",
              config.label.c_str(), median.delay_us, samples.front().delay_us,
              samples.back().delay_us, median.elements_per_second,
              static_cast<unsigned long long>(median.elements_touched),
              static_cast<unsigned long long>(median.nodes_visited));
}

void Run() {
  const Scale scale = GetScale();
  PrintHeader("Ablation: lazy multipliers / min-max pruning / fanout",
              scale);
  const size_t window = scale.w / 2;
  const size_t n = std::min(scale.n, 3 * window);

  SkyTree::Options base;
  SkyTree::Options no_lazy = base;
  no_lazy.use_lazy = false;
  SkyTree::Options no_prune = base;
  no_prune.use_minmax_pruning = false;
  SkyTree::Options neither = no_prune;
  neither.use_lazy = false;
  std::vector<Config> configs = {{"full (lazy + pruning)", base},
                                 {"eager multipliers", no_lazy},
                                 {"no min/max pruning", no_prune},
                                 {"neither", neither}};
  const size_t first_fanout = configs.size();
  // Up to the default fanout (128), at the default min_entries, so the
  // last row is the default tree. A fanout change regroups the elements,
  // and with them every ordered P_noc/P_old sum: rows agree on the answer
  // to within rounding, not bit for bit.
  for (int max_entries : {16, 32, 64, 128}) {
    SkyTree::Options opt;
    opt.max_entries = max_entries;
    configs.push_back({"max_entries = " + std::to_string(max_entries), opt});
  }

  // Round-robin repetitions: a slow phase of a shared host lands on every
  // configuration alike instead of on whichever ran during it.
  constexpr int kRepetitions = 5;
  std::vector<std::vector<Sample>> samples(configs.size());
  for (int rep = 0; rep < kRepetitions; ++rep) {
    for (size_t c = 0; c < configs.size(); ++c) {
      samples[c].push_back(RunOne(configs[c].options, n, window));
    }
  }

  std::printf("%d runs each, round-robin; delay is the median [min-max]\n\n",
              kRepetitions);
  std::printf("%-24s %24s %12s %14s %12s\n", "configuration",
              "delay (us/elem)", "elements/sec", "elems touched",
              "nodes visited");
  for (size_t c = 0; c < configs.size(); ++c) {
    if (c == first_fanout) {
      std::printf("\nfanout sweep (lazy + pruning, min_entries = %d):\n",
                  base.min_entries);
    }
    PrintRow(configs[c], samples[c]);
  }
}

}  // namespace
}  // namespace psky::bench

int main() {
  psky::bench::Run();
  return 0;
}
