// Ablation study of the sky-tree's two key devices (DESIGN.md §3):
//   * lazy probability multipliers (the paper's P_new^global/P_old^global)
//   * min/max aggregate pruning (wholesale keep / evict / re-band)
// plus a node-fanout sweep. All configurations are functionally identical
// (asserted by the test suite); this harness measures their cost.

#include "bench/bench_common.h"
#include "core/ssky_operator.h"

namespace psky::bench {
namespace {

void RunOne(const char* label, SkyTree::Options opt, size_t n,
            size_t window) {
  auto source = MakeSource(Dataset::kAntiUniform, 3);
  SskyOperator op(3, 0.3, opt);
  const RunResult r = DriveOperator(&op, source.get(), n, window);
  const OperatorStats& s = op.stats();
  std::printf("%-28s %14.3f %14.0f %14llu %12llu\n", label, r.delay_us,
              r.elements_per_second,
              static_cast<unsigned long long>(s.elements_touched),
              static_cast<unsigned long long>(s.nodes_visited));
}

void Run() {
  const Scale scale = GetScale();
  PrintHeader("Ablation: lazy multipliers / min-max pruning / fanout",
              scale);
  const size_t window = scale.w / 2;
  const size_t n = std::min(scale.n, 3 * window);

  std::printf("%-28s %14s %14s %14s %12s\n", "configuration",
              "delay (us/elem)", "elements/sec", "elems touched",
              "nodes visited");

  SkyTree::Options base;
  RunOne("full (lazy + pruning)", base, n, window);

  SkyTree::Options no_lazy = base;
  no_lazy.use_lazy = false;
  RunOne("eager multipliers", no_lazy, n, window);

  SkyTree::Options no_prune = base;
  no_prune.use_minmax_pruning = false;
  RunOne("no min/max pruning", no_prune, n, window);

  SkyTree::Options neither = base;
  neither.use_lazy = false;
  neither.use_minmax_pruning = false;
  RunOne("neither", neither, n, window);

  // Up to the default fanout (128), at the default min_entries, so the
  // last row is the default tree. A fanout change regroups the elements,
  // and with them every ordered P_noc/P_old sum: rows agree on the answer
  // to within rounding, not bit for bit.
  std::printf("\nfanout sweep (lazy + pruning, min_entries = %d):\n",
              base.min_entries);
  for (int max_entries : {16, 32, 64, 128}) {
    SkyTree::Options opt;
    opt.max_entries = max_entries;
    char label[64];
    std::snprintf(label, sizeof(label), "max_entries = %d", max_entries);
    RunOne(label, opt, n, window);
  }
}

}  // namespace
}  // namespace psky::bench

int main() {
  psky::bench::Run();
  return 0;
}
