// Hot-path throughput harness with a machine-readable result file.
//
// Drives the SSKY operator over the paper's Fig. 9 configuration (d = 3,
// q = 0.3, count window) for each spatial distribution (anti / inde /
// corr) using the batched stream path, and writes BENCH_hotpath.json:
// sustained elements/second plus p50/p99 per-element step latency per
// workload, stamped with the dominance-kernel variant the CPU dispatched
// to. The inde_wal / inde_disk rows repeat the independent stream with
// the write-ahead log and the mmap'd segment-store window respectively,
// feeding the wal_overhead / disk_overhead keys. Shard rows
// (anti_s{1,2,4,8}, inde_s{1,2,4,8}) repeat the anti/inde streams
// through the sharded ingestion engine and feed the
// shard_scaling_efficiency key. tools/bench_report.py validates the file
// and diffs two of them with a regression gate; the repository tracks a
// full-scale baseline at the root.
//
//   bench_hotpath [output.json]     (default: BENCH_hotpath.json)
//
// Scale comes from PSKY_BENCH_SCALE (tiny|quick|full) as for every other
// bench binary. Latency percentiles are computed from per-element times
// of kBatch-element StepBatch calls measured from the moment the window
// is full (steady state).

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "base/timer.h"
#include "bench/bench_common.h"
#include "core/shard_engine.h"
#include "core/ssky_operator.h"
#include "geom/dominance_kernel.h"
#include "store/segment_store.h"
#include "store/wal.h"
#include "stream/generator.h"

namespace psky::bench {
namespace {

constexpr int kDims = 3;
constexpr double kQ = 0.3;
constexpr size_t kBatch = 64;

struct WorkloadResult {
  std::string name;
  double elements_per_second = 0.0;
  double total_seconds = 0.0;
  double p50_step_us = 0.0;
  double p99_step_us = 0.0;
  size_t max_candidates = 0;
  size_t max_skyline = 0;
};

double Percentile(std::vector<double>* samples, double p) {
  if (samples->empty()) return 0.0;
  const size_t idx = static_cast<size_t>(
      p * static_cast<double>(samples->size() - 1) + 0.5);
  std::nth_element(samples->begin(),
                   samples->begin() + static_cast<ptrdiff_t>(idx),
                   samples->end());
  return (*samples)[idx];
}

// Group-commit cadence matching psky_stream's --wal-sync-every default,
// so the wal-on row reflects the durability cost a production run pays.
constexpr uint64_t kWalSyncEvery = 4096;

WorkloadResult RunWorkload(const char* name, SpatialDistribution spatial,
                           const Scale& scale, bool wal_on) {
  StreamConfig cfg;
  cfg.dims = kDims;
  cfg.spatial = spatial;
  cfg.seed = 42;
  StreamGenerator gen(cfg);

  SskyOperator op(kDims, kQ);
  StreamProcessor proc(&op, scale.w);

  const std::string wal_dir = "bench-wal-tmp";
  WalWriter wal;
  if (wal_on) {
    std::filesystem::remove_all(wal_dir);
    std::filesystem::create_directories(wal_dir);
    std::string error;
    int saved_errno = 0;
    if (!wal.Create(wal_dir + "/" + WalFileName(0), kDims, 0, &error,
                    &saved_errno)) {
      std::fprintf(stderr, "error: bench WAL: %s\n", error.c_str());
      std::exit(1);
    }
    // Overlapped group commit, as psky_stream's default --wal-sync-mode:
    // the fdatasync runs on a background thread instead of landing its
    // full latency on whichever step crosses the cadence boundary (the
    // p99 outlier the sync-mode row used to show).
    wal.SetAsyncSync(true);
  }

  WorkloadResult result;
  result.name = name;
  std::vector<UncertainElement> batch;
  batch.reserve(kBatch);
  std::vector<double> step_us;
  step_us.reserve(scale.n / kBatch + 1);

  Timer total;
  size_t fed = 0;
  bool steady = false;
  while (fed < scale.n) {
    const size_t take = std::min(kBatch, scale.n - fed);
    batch.clear();
    for (size_t i = 0; i < take; ++i) batch.push_back(gen.Next());
    // Percentiles only sample steady state: the fill phase has no
    // expiries and would skew them optimistically.
    if (!steady && fed >= scale.w) steady = true;
    Timer t;
    if (wal_on) {
      std::string error;
      int saved_errno = 0;
      WalRecord r;
      for (size_t i = 0; i < take; ++i) {
        r.element = batch[i];
        r.step_after = static_cast<uint64_t>(fed + i) + 1;
        r.next_seq_after = r.element.seq + 1;
        if (!wal.Append(r, &error, &saved_errno) ||
            (wal.pending() >= kWalSyncEvery &&
             !wal.Sync(&error, &saved_errno))) {
          std::fprintf(stderr, "error: bench WAL: %s\n", error.c_str());
          std::exit(1);
        }
      }
    }
    proc.StepBatch(batch);
    if (steady) {
      step_us.push_back(t.ElapsedMicros() / static_cast<double>(take));
    }
    fed += take;
    if (op.candidate_count() > result.max_candidates) {
      result.max_candidates = op.candidate_count();
    }
    if (op.skyline_count() > result.max_skyline) {
      result.max_skyline = op.skyline_count();
    }
  }
  if (wal_on) wal.Close();  // final group commit counts; deletion doesn't
  result.total_seconds = total.ElapsedSeconds();
  if (wal_on) std::filesystem::remove_all(wal_dir);
  result.elements_per_second =
      static_cast<double>(scale.n) / result.total_seconds;
  result.p50_step_us = Percentile(&step_us, 0.50);
  result.p99_step_us = Percentile(&step_us, 0.99);
  return result;
}

// Same independent workload with the raw window living in the mmap'd
// segment store (psky_stream --window-store disk): steady-state rotation
// is a fused PushRotate against the head/tail segments with the default
// resident budget, so the row measures the out-of-core paging tax the
// production disk mode pays. The inde vs inde_disk throughput gap is
// reported as disk_overhead and gated by tools/bench_report.py.
WorkloadResult RunDiskWorkload(const char* name, SpatialDistribution spatial,
                               const Scale& scale) {
  StreamConfig cfg;
  cfg.dims = kDims;
  cfg.spatial = spatial;
  cfg.seed = 42;
  StreamGenerator gen(cfg);

  SskyOperator op(kDims, kQ);

  const std::string store_dir = "bench-segstore-tmp";
  std::filesystem::remove_all(store_dir);
  std::filesystem::create_directories(store_dir);
  WorkloadResult result;
  result.name = name;
  {
    SegmentStore::Options sopts;
    sopts.dir = store_dir;
    sopts.dims = kDims;
    StoredCountWindow window(scale.w, sopts);
    std::string error;
    if (!window.Init(&error)) {
      std::fprintf(stderr, "error: bench segment store: %s\n", error.c_str());
      std::exit(1);
    }

    std::vector<UncertainElement> batch;
    batch.reserve(kBatch);
    std::vector<double> step_us;
    step_us.reserve(scale.n / kBatch + 1);

    Timer total;
    size_t fed = 0;
    bool steady = false;
    while (fed < scale.n) {
      const size_t take = std::min(kBatch, scale.n - fed);
      batch.clear();
      for (size_t i = 0; i < take; ++i) batch.push_back(gen.Next());
      if (!steady && fed >= scale.w) steady = true;
      Timer t;
      for (const auto& e : batch) {
        if (window.full()) {
          op.Expire(window.PushRotate(e));
        } else {
          window.Push(e);
        }
        op.Insert(e);
      }
      if (steady) {
        step_us.push_back(t.ElapsedMicros() / static_cast<double>(take));
      }
      fed += take;
      if (op.candidate_count() > result.max_candidates) {
        result.max_candidates = op.candidate_count();
      }
      if (op.skyline_count() > result.max_skyline) {
        result.max_skyline = op.skyline_count();
      }
    }
    result.total_seconds = total.ElapsedSeconds();
    result.elements_per_second =
        static_cast<double>(scale.n) / result.total_seconds;
    result.p50_step_us = Percentile(&step_us, 0.50);
    result.p99_step_us = Percentile(&step_us, 0.99);
  }
  // The window's destructor (scope above) unlinked its segment files.
  std::filesystem::remove_all(store_dir);
  return result;
}

// Shard rows run on a capped stream (recorded as shard_n / shard_window
// in the JSON): per-shard candidate sets are supersets of the
// sequential one — local-only dominators keep P_new near the shards-th
// root of the global value, so shards retain roughly S_{N,q^shards} —
// and on anti-correlated data at the full 1M window the inflated
// per-shard trees make the rows take hours on small hosts (see
// docs/algorithm.md §7). The cap keeps every shard count on the same
// stream, so the s1-vs-s8 comparison behind shard_scaling_efficiency
// stays apples-to-apples.
constexpr size_t kShardRowMaxN = 400'000;
constexpr size_t kShardRowMaxW = 100'000;

// Same Fig. 9 configuration driven through the sharded ingestion engine
// (count window). Timed region covers routing every element
// plus the final drain barrier and cross-shard merge, so
// elements_per_second is end-to-end; step latency samples measure the
// router-side enqueue path (the shard workers run concurrently), again
// steady-state only. max_candidates / max_skyline come from the single
// final merge — sampling them per batch would serialize the pipeline on
// a barrier every kBatch elements.
WorkloadResult RunShardedWorkload(const char* name,
                                  SpatialDistribution spatial, int shards,
                                  size_t n, size_t w) {
  StreamConfig cfg;
  cfg.dims = kDims;
  cfg.spatial = spatial;
  cfg.seed = 42;
  StreamGenerator gen(cfg);

  ShardEngine::Options opts;
  opts.dims = kDims;
  opts.q = kQ;
  opts.shards = shards;
  opts.strategy = ShardStrategy::kGrid;
  opts.window_capacity = w;
  ShardEngine engine(opts);

  WorkloadResult result;
  result.name = name;
  std::vector<UncertainElement> batch;
  batch.reserve(kBatch);
  std::vector<double> step_us;
  step_us.reserve(n / kBatch + 1);

  Timer total;
  size_t fed = 0;
  bool steady = false;
  while (fed < n) {
    const size_t take = std::min(kBatch, n - fed);
    batch.clear();
    for (size_t i = 0; i < take; ++i) batch.push_back(gen.Next());
    if (!steady && fed >= w) steady = true;
    Timer t;
    for (const auto& e : batch) engine.Route(e);
    if (steady) {
      step_us.push_back(t.ElapsedMicros() / static_cast<double>(take));
    }
    fed += take;
  }
  size_t candidates = 0;
  const std::vector<SkylineMember> merged = engine.GlobalSkyline(&candidates);
  result.total_seconds = total.ElapsedSeconds();
  result.max_candidates = candidates;
  result.max_skyline = merged.size();
  result.elements_per_second =
      static_cast<double>(n) / result.total_seconds;
  result.p50_step_us = Percentile(&step_us, 0.50);
  result.p99_step_us = Percentile(&step_us, 0.99);
  return result;
}

void AppendWorkloadJson(std::string* out, const WorkloadResult& r,
                        bool last) {
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "    \"%s\": {\n"
                "      \"elements_per_second\": %.1f,\n"
                "      \"total_seconds\": %.3f,\n"
                "      \"p50_step_us\": %.3f,\n"
                "      \"p99_step_us\": %.3f,\n"
                "      \"max_candidates\": %zu,\n"
                "      \"max_skyline\": %zu\n"
                "    }%s\n",
                r.name.c_str(), r.elements_per_second, r.total_seconds,
                r.p50_step_us, r.p99_step_us, r.max_candidates,
                r.max_skyline, last ? "" : ",");
  *out += buf;
}

}  // namespace
}  // namespace psky::bench

int main(int argc, char** argv) {
  using namespace psky::bench;
  const std::string path = argc > 1 ? argv[1] : "BENCH_hotpath.json";
  const Scale scale = GetScale();
  PrintHeader("hot-path throughput (SSKY, d=3, q=0.3, batched)", scale);

  // "inde_wal" repeats the independent workload with the write-ahead log
  // stamping every element (group commit as in psky_stream --wal); the
  // inde vs inde_wal throughput gap is reported as wal_overhead and
  // gated by tools/bench_report.py at full scale.
  const struct {
    const char* name;
    psky::SpatialDistribution spatial;
    bool wal_on;
  } kWorkloads[] = {
      {"anti", psky::SpatialDistribution::kAntiCorrelated, false},
      {"inde", psky::SpatialDistribution::kIndependent, false},
      {"corr", psky::SpatialDistribution::kCorrelated, false},
      {"inde_wal", psky::SpatialDistribution::kIndependent, true},
  };

  // Shard-scaling rows: the same anti/inde streams through the sharded
  // ingestion engine at 1/2/4/8 shards. The sN rows measure end-to-end
  // sharded throughput (routing + workers + final merge); the s1 row is
  // the scaling baseline (it carries the engine's queue/merge overhead,
  // unlike the plain sequential rows above). Scaling efficiency above
  // ~1/shards requires that many spare cores — single-core hosts will
  // report fractions near 1/N by construction.
  const struct {
    const char* name;
    psky::SpatialDistribution spatial;
    int shards;
  } kShardRows[] = {
      {"anti_s1", psky::SpatialDistribution::kAntiCorrelated, 1},
      {"anti_s2", psky::SpatialDistribution::kAntiCorrelated, 2},
      {"anti_s4", psky::SpatialDistribution::kAntiCorrelated, 4},
      {"anti_s8", psky::SpatialDistribution::kAntiCorrelated, 8},
      {"inde_s1", psky::SpatialDistribution::kIndependent, 1},
      {"inde_s2", psky::SpatialDistribution::kIndependent, 2},
      {"inde_s4", psky::SpatialDistribution::kIndependent, 4},
      {"inde_s8", psky::SpatialDistribution::kIndependent, 8},
  };

  std::vector<WorkloadResult> results;
  for (const auto& w : kWorkloads) {
    WorkloadResult r = RunWorkload(w.name, w.spatial, scale, w.wal_on);
    std::printf(
        "%-8s %10.0f elem/s  total %7.3fs  p50 %7.3fus  p99 %7.3fus  "
        "|S|max=%zu |SKY|max=%zu\n",
        r.name.c_str(), r.elements_per_second, r.total_seconds,
        r.p50_step_us, r.p99_step_us, r.max_candidates, r.max_skyline);
    results.push_back(std::move(r));
  }
  {
    WorkloadResult r = RunDiskWorkload(
        "inde_disk", psky::SpatialDistribution::kIndependent, scale);
    std::printf(
        "%-8s %10.0f elem/s  total %7.3fs  p50 %7.3fus  p99 %7.3fus  "
        "|S|max=%zu |SKY|max=%zu\n",
        r.name.c_str(), r.elements_per_second, r.total_seconds,
        r.p50_step_us, r.p99_step_us, r.max_candidates, r.max_skyline);
    results.push_back(std::move(r));
  }
  const size_t shard_n = std::min(scale.n, kShardRowMaxN);
  const size_t shard_w = std::min(scale.w, kShardRowMaxW);
  if (shard_n != scale.n || shard_w != scale.w) {
    std::printf("shard rows capped at n=%zu window=%zu (see source)\n",
                shard_n, shard_w);
  }
  for (const auto& w : kShardRows) {
    WorkloadResult r =
        RunShardedWorkload(w.name, w.spatial, w.shards, shard_n, shard_w);
    std::printf(
        "%-8s %10.0f elem/s  total %7.3fs  p50 %7.3fus  p99 %7.3fus  "
        "|S|=%zu |SKY|=%zu\n",
        r.name.c_str(), r.elements_per_second, r.total_seconds,
        r.p50_step_us, r.p99_step_us, r.max_candidates, r.max_skyline);
    results.push_back(std::move(r));
  }

  const auto overhead_vs_inde = [&results](const char* name) {
    double overhead = 0.0;
    for (const auto& r : results) {
      if (r.name == name) {
        for (const auto& b : results) {
          if (b.name == "inde" && b.elements_per_second > 0.0) {
            overhead = 1.0 - r.elements_per_second / b.elements_per_second;
          }
        }
      }
    }
    return overhead;
  };
  const double wal_overhead = overhead_vs_inde("inde_wal");
  const double disk_overhead = overhead_vs_inde("inde_disk");
  std::printf("wal overhead vs inde: %+.1f%%\n", wal_overhead * 100.0);
  std::printf("disk overhead vs inde: %+.1f%%\n", disk_overhead * 100.0);

  // Parallel-scaling efficiency at the widest shard count:
  // eps(s8) / (8 * eps(s1)). 1.0 is perfect linear scaling; a 1-core
  // host caps it near 1/8 regardless of the engine.
  const auto eps_of = [&results](const char* name) {
    for (const auto& r : results) {
      if (r.name == name) return r.elements_per_second;
    }
    return 0.0;
  };
  const auto efficiency = [&eps_of](const char* s1, const char* s8) {
    const double base = eps_of(s1);
    return base > 0.0 ? eps_of(s8) / (8.0 * base) : 0.0;
  };
  const double eff_anti = efficiency("anti_s1", "anti_s8");
  const double eff_inde = efficiency("inde_s1", "inde_s8");
  std::printf("shard scaling efficiency (s8 vs 8*s1): anti %.3f  inde %.3f\n",
              eff_anti, eff_inde);

  std::string json;
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "{\n"
                "  \"schema\": \"psky-bench-hotpath-v1\",\n"
                "  \"scale\": \"%s\",\n"
                "  \"n\": %zu,\n"
                "  \"window\": %zu,\n"
                "  \"dims\": %d,\n"
                "  \"q\": %.2f,\n"
                "  \"batch_size\": %zu,\n"
                "  \"kernel_variant\": \"%s\",\n"
                "  \"wal_overhead\": %.4f,\n"
                "  \"disk_overhead\": %.4f,\n"
                "  \"shard_n\": %zu,\n"
                "  \"shard_window\": %zu,\n"
                "  \"shard_scaling_efficiency\": {\n"
                "    \"anti\": %.4f,\n"
                "    \"inde\": %.4f\n"
                "  },\n"
                "  \"workloads\": {\n",
                scale.name, scale.n, scale.w, kDims, kQ, kBatch,
                psky::DominanceKernelVariant(), wal_overhead, disk_overhead,
                shard_n, shard_w, eff_anti, eff_inde);
  json += buf;
  for (size_t i = 0; i < results.size(); ++i) {
    AppendWorkloadJson(&json, results[i], i + 1 == results.size());
  }
  json += "  }\n}\n";

  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    std::fprintf(stderr, "error: cannot open %s\n", path.c_str());
    return 1;
  }
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  std::printf("\nwrote %s (kernel=%s)\n", path.c_str(),
              psky::DominanceKernelVariant());
  return 0;
}
