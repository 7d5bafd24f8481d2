// Driver of the repository benchmark (see perfbench/README.md).
//
//   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
//                    --work-dir DIR --rate EPS [--shards K]
//                    [--trace-out FILE]
//   perfbench_driver --reference --stream anti|corr|inde --seed N
//
// Runs one workload in process and prints one JSON object as the last
// line of standard output: operations attempted and failed, the results
// observed at fixed stream positions, and every metric with its unit and
// sample count. perfbench/run.py turns that into the benchmark's result
// line. --reference prints the sequential SSKY results those positions
// must show.
//
// The pipelines compose the library the way psky_stream's synchronous
// loop does (source -> WAL stamp -> window rotate -> Expire -> Insert ->
// audit step -> checkpoint cadence, or shard Route + merge on the parallel
// path) and time the calls into each layer's public functions from
// outside (trace.h). A run has three phases: set-up (build the pipeline
// and fill the window; repeated, median reported), a closed loop at
// saturation (ingest_eps), and an open loop at a fixed offered rate
// (visible_* and query_* latencies; open_loop.h).

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "base/random.h"
#include "base/timer.h"
#include "core/audit.h"
#include "core/checkpoint.h"
#include "core/msky_operator.h"
#include "core/shard_engine.h"
#include "core/ssky_operator.h"
#include "measure.h"
#include "open_loop.h"
#include "reference.h"
#include "store/recovery.h"
#include "store/segment_store.h"
#include "store/wal.h"
#include "stream/csv.h"
#include "stream/window.h"
#include "trace.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using psky::UncertainElement;
using Counters = psky::SkyTree::Counters;

/// Largest batch one driver step applies (psky_stream --batch-size 64).
constexpr uint64_t kBatch = 64;
/// Count-window size N of every workload: small enough that the
/// parallel_anti set-ups and the whole acceptance sweep fit the run budget.
constexpr size_t kWindow = 50000;
/// Results are checked at N and at kChecks more positions kCheckEvery
/// apart (reference.json).
constexpr uint64_t kCheckEvery = 4096;
constexpr int kChecks = 4;
/// Every workload's consumer reads one result per kPublishEvery elements,
/// in every phase. This is psky_stream's default output, `--emit counts
/// --every 10000`, which on the sharded path is a barrier plus an exact
/// merge. The sequential pipelines read Skyline() at the same cadence, so
/// parallel_anti's ingest_eps compares like with like against
/// ingest_anti's. query_inde's read is its next seeded ad-hoc query.
constexpr uint64_t kPublishEvery = 10000;
/// durable_corr writes one streamed checkpoint per window of elements.
constexpr uint64_t kCheckpointEvery = kWindow;
/// Set-ups per run; setup_s is their median. The first kEarlySetups run
/// before the measured phases (the last of them builds the pipeline that
/// is measured) and the rest after them, so the median samples both ends
/// of the run, not one moment in which a shared host may be slow.
constexpr int kSetupRepeats = 7;
constexpr int kEarlySetups = 3;
/// Share of --seconds the closed loop gets; the open loop has the rest.
constexpr double kClosedShare = 0.75;
/// ingest_eps is this percentile of the closed loop's per-period rates.
/// Every period does the same work, but on a shared host other tenants
/// slow a CPU to ~0.6x for stretches of 10-20 s (two pipelines
/// alternating in one process slow down together, so it is the host, not
/// the memory layout). A high percentile reads the rate of the run's
/// undisturbed periods, which is what a change to the code can move.
constexpr double kIngestPercentile = 0.9;
// psky_stream's defaults, which the durable workload runs with.
constexpr uint64_t kWalSyncEvery = 4096;
constexpr size_t kSegmentElems = 4096;
constexpr size_t kSegmentBudget = 8;
constexpr size_t kKeepCheckpoints = 2;
/// Pools hold this many windows of distinct elements before repeating.
constexpr size_t kPoolWindows = 4;
/// Seeded ad-hoc queries query_inde cycles through.
constexpr size_t kQueryPool = 4096;
/// durable_corr's slice-audit cadence. A streamed slice audit scans the
/// whole disk window, so psky_stream's --audit-every 64 would leave the
/// workload spending ~90% of its time in the audit scan; one audit per
/// 1024 steps keeps the audit a large layer without hiding the others.
constexpr uint64_t kAuditEvery = 1024;

struct Config {
  bool reference = false;
  std::string workload;
  std::string stream;  ///< --reference only
  uint64_t seed = 1;
  double seconds = 0.0;
  bool trace = false;
  std::string work_dir = ".";
  std::string trace_out;
  double rate = 0.0;
  int shards = 1;
};

[[noreturn]] void Fatal(const std::string& msg) {
  std::fprintf(stderr, "perfbench_driver: %s\n", msg.c_str());
  std::exit(3);
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  uint64_t samples = 0;
};
using Metrics = std::vector<Metric>;

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

int64_t ElapsedNs(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - since)
      .count();
}

Counters Delta(const Counters& a, const Counters& b) {
  return Counters{a.nodes_visited - b.nodes_visited,
                  a.elements_touched - b.elements_touched,
                  a.evictions - b.evictions, a.pushdowns - b.pushdowns,
                  a.band_flips - b.band_flips};
}

void Accumulate(Counters* acc, const Counters& d) {
  acc->nodes_visited += d.nodes_visited;
  acc->elements_touched += d.elements_touched;
  acc->evictions += d.evictions;
  acc->pushdowns += d.pushdowns;
  acc->band_flips += d.band_flips;
}

/// core.ssky work per stream step, and the paper's set sizes.
void AddSskyWork(const Counters& work, uint64_t steps, double candidates_mean,
                 double skyline_mean, uint64_t size_samples, Metrics* m) {
  const auto n = static_cast<double>(std::max<uint64_t>(steps, 1));
  const auto per_step = [n](uint64_t v) { return static_cast<double>(v) / n; };
  m->push_back({"core.ssky.nodes_visited", per_step(work.nodes_visited),
                "count", steps});
  m->push_back({"core.ssky.elements_touched",
                per_step(work.elements_touched), "count", steps});
  m->push_back({"core.ssky.evictions", per_step(work.evictions), "count",
                steps});
  m->push_back({"core.ssky.pushdowns", per_step(work.pushdowns), "count",
                steps});
  m->push_back({"core.ssky.band_flips", per_step(work.band_flips), "count",
                steps});
  m->push_back({"core.ssky.candidates_mean", candidates_mean, "count",
                size_samples});
  m->push_back({"core.ssky.skyline_mean", skyline_mean, "count",
                size_samples});
  m->push_back({"core.ssky.touched_per_candidate",
                Ratio(per_step(work.elements_touched), candidates_mean),
                "ratio", steps});
}

void AddSiteNs(const Tracer::Totals& t, const char* name, Site site,
               double scale, const char* unit, Metrics* m) {
  m->push_back({name, MeanNs(t, site) / scale, unit, Calls(t, site)});
}

/// A workload's pipeline. Apply() is the only entry point the phases
/// time; everything else runs between them.
class Pipeline {
 public:
  Pipeline(Tracer* tracer, Tally* tally) : tracer_(tracer), tally_(tally) {}
  virtual ~Pipeline() = default;
  Pipeline(const Pipeline&) = delete;
  Pipeline& operator=(const Pipeline&) = delete;

  /// Applies the next `count` stream elements through every stage.
  virtual void Apply(size_t count) = 0;
  /// Elements between published results; 0 when every applied element
  /// is readable at once.
  virtual uint64_t PublishEvery() const { return 0; }
  /// The current result; called outside any timed region.
  virtual ResultCheck Observe() = 0;
  /// The live window, oldest first.
  virtual std::vector<UncertainElement> WindowSnapshot() = 0;
  /// Appends the per-layer metrics gathered since ResetLayerStats().
  virtual void LayerMetrics(const Tracer::Totals& t, Metrics* m) = 0;
  /// Work after the measured phases (the durable workload's recovery).
  virtual void Finish(Metrics* /*m*/) {}

  /// The next batch's bound: the driver batch size, cut at the next
  /// publish so results are published at fixed stream positions.
  uint64_t MaxTake() const {
    const uint64_t every = PublishEvery();
    return every == 0 ? kBatch
                      : std::min(kBatch, every - consumed_ % every);
  }
  bool Readable() const {
    const uint64_t every = PublishEvery();
    return every == 0 || consumed_ % every == 0;
  }

  void ResetLayerStats() {
    layer_base_ = consumed_;
    ResetLayer();
  }

  uint64_t consumed() const { return consumed_; }
  /// Time spent in the consumer's reads so far.
  int64_t read_ns() const { return read_ns_; }

  /// Times each consumer read from its due time on `schedule`, whose
  /// element 0 is stream position `base`. The samples go into `us` and
  /// `due_ns`, which the caller reserved so the phase allocates nothing.
  void StartQueries(const Schedule* schedule, uint64_t base,
                    std::vector<double> us, std::vector<int64_t> due_ns) {
    schedule_ = schedule;
    schedule_base_ = base;
    query_us_ = std::move(us);
    query_due_ns_ = std::move(due_ns);
  }
  void StopQueries() { schedule_ = nullptr; }
  const std::vector<double>& query_us() const { return query_us_; }
  const std::vector<int64_t>& query_due_ns() const { return query_due_ns_; }

 protected:
  virtual void ResetLayer() = 0;
  /// The consumer's read of the current result; false when its answer
  /// is out of range.
  virtual bool Read() = 0;
  uint64_t LayerSteps() const { return consumed_ - layer_base_; }

  /// Counts one applied element and issues the consumer's read every
  /// kPublishEvery elements. In the open loop the read is timed from the
  /// due time of the element that made it due.
  void Advance() {
    ++consumed_;
    if (consumed_ % kPublishEvery != 0) return;
    const auto start = std::chrono::steady_clock::now();
    const bool ok = Read();
    read_ns_ += ElapsedNs(start);
    tally_->Check(ok, "consumer read out of range");
    if (schedule_ == nullptr) return;
    const int64_t due = schedule_->DueNs(consumed_ - 1 - schedule_base_);
    query_us_.push_back(static_cast<double>(schedule_->NowNs() - due) / 1e3);
    query_due_ns_.push_back(due);
  }

  Tracer* tracer_;
  Tally* tally_;

 private:
  uint64_t consumed_ = 0;
  uint64_t layer_base_ = 0;
  int64_t read_ns_ = 0;
  const Schedule* schedule_ = nullptr;
  uint64_t schedule_base_ = 0;
  std::vector<double> query_us_;
  std::vector<int64_t> query_due_ns_;
};

/// The sequential SSKY operator as a stage: times its calls and keeps the
/// work counters of its own Insert/Expire calls (audits and queries tick
/// the same SkyTree counters, so deltas are taken around each call).
class SskyStage {
 public:
  explicit SskyStage(Tracer* tracer) : tracer_(tracer), op_(kDims, kQ) {}

  void Insert(const UncertainElement& e) {
    const Counters before = op_.tree().counters();
    {
      Tracer::Scope s(tracer_, Site::kSskyInsert);
      op_.Insert(e);
    }
    Accumulate(&work_, Delta(op_.tree().counters(), before));
  }

  void Expire(const UncertainElement& e) {
    const Counters before = op_.tree().counters();
    {
      Tracer::Scope s(tracer_, Site::kSskyExpire);
      op_.Expire(e);
    }
    Accumulate(&work_, Delta(op_.tree().counters(), before));
  }

  /// The consumer's read of the continuous q-skyline.
  void ReadSkyline() {
    Tracer::Scope s(tracer_, Site::kSskyQuery);
    skyline_read_ = op_.Skyline();
  }

  void SampleSizes() {
    if (!tracer_->enabled()) return;
    candidates_ += static_cast<double>(op_.candidate_count());
    skyline_ += static_cast<double>(op_.skyline_count());
    ++samples_;
  }

  void Reset() {
    work_ = {};
    candidates_ = skyline_ = 0.0;
    samples_ = 0;
  }

  void AddMetrics(const Tracer::Totals& t, uint64_t steps, Metrics* m) const {
    AddSiteNs(t, "core.ssky.insert_ns", Site::kSskyInsert, 1.0, "ns", m);
    AddSiteNs(t, "core.ssky.expire_ns", Site::kSskyExpire, 1.0, "ns", m);
    const auto n = static_cast<double>(samples_);
    AddSskyWork(work_, steps, Ratio(candidates_, n), Ratio(skyline_, n),
                samples_, m);
  }

  psky::SskyOperator& op() { return op_; }

 private:
  Tracer* tracer_;
  psky::SskyOperator op_;
  std::vector<psky::SkylineMember> skyline_read_;
  Counters work_{};
  double candidates_ = 0.0;
  double skyline_ = 0.0;
  uint64_t samples_ = 0;
};

/// ingest_anti: pool stream -> CountWindow -> SSKY, no durability. The
/// consumer reads the continuous q-skyline.
class SskyPipeline : public Pipeline {
 public:
  SskyPipeline(const std::vector<UncertainElement>& pool, Tracer* tracer,
               Tally* tally)
      : Pipeline(tracer, tally), pool_(pool), window_(kWindow),
        stage_(tracer) {}

  void Apply(size_t count) override {
    for (size_t i = 0; i < count; ++i) {
      const UncertainElement e = StreamAt(pool_, consumed());
      if (window_.full()) {
        UncertainElement old;
        {
          Tracer::Scope s(tracer_, Site::kWindowRotate);
          old = window_.PushRotate(e);
        }
        stage_.Expire(old);
      } else {
        Tracer::Scope s(tracer_, Site::kWindowRotate);
        window_.Push(e);
      }
      stage_.Insert(e);
      tally_->Attempt();
      Advance();
    }
    stage_.SampleSizes();
  }

  ResultCheck Observe() override {
    return ObserveOperator(stage_.op(), consumed());
  }
  std::vector<UncertainElement> WindowSnapshot() override {
    return window_.Snapshot();
  }
  void LayerMetrics(const Tracer::Totals& t, Metrics* m) override {
    AddSiteNs(t, "stream.window.ns_per_elem", Site::kWindowRotate, 1.0, "ns",
              m);
    stage_.AddMetrics(t, LayerSteps(), m);
  }

 protected:
  void ResetLayer() override { stage_.Reset(); }
  bool Read() override {
    stage_.ReadSkyline();
    return true;
  }

 private:
  const std::vector<UncertainElement>& pool_;
  psky::CountWindow window_;
  SskyStage stage_;
};

/// One seeded ad-hoc query of query_inde.
struct QuerySpec {
  enum Kind : uint8_t { kEnum, kCount, kTopK };
  Kind kind = kEnum;
  double q = kQ;  ///< QSKY threshold q' in [q, 1)
  size_t k = 1;   ///< top-k size in [1, 100]
};

std::vector<QuerySpec> MakeQueries(uint64_t seed, size_t n) {
  psky::Rng rng(seed ^ 0x51A7C0DE5EEDULL);
  std::vector<QuerySpec> out(n);
  for (QuerySpec& q : out) {
    q.kind = static_cast<QuerySpec::Kind>(rng.NextBounded(3));
    q.q = rng.NextDouble(kQ, 1.0);
    q.k = 1 + static_cast<size_t>(rng.NextBounded(100));
  }
  return out;
}

/// query_inde: pool stream -> CountWindow -> MSKY with thresholds
/// {0.9, 0.6, 0.3}. The consumer's read is the next seeded ad-hoc query
/// (QSKY enumeration, count-only QSKY or top-k) against the same tree the
/// writes go to.
class MskyPipeline : public Pipeline {
 public:
  MskyPipeline(const std::vector<UncertainElement>& pool,
               const std::vector<QuerySpec>& queries, Tracer* tracer,
               Tally* tally)
      : Pipeline(tracer, tally),
        pool_(pool),
        queries_(queries),
        window_(kWindow),
        op_(kDims, {0.9, 0.6, kQ}) {}

  void Apply(size_t count) override {
    for (size_t i = 0; i < count; ++i) {
      const UncertainElement e = StreamAt(pool_, consumed());
      if (window_.full()) {
        UncertainElement old;
        {
          Tracer::Scope s(tracer_, Site::kWindowRotate);
          old = window_.PushRotate(e);
        }
        Tracer::Scope s(tracer_, Site::kMskyExpire);
        op_.Expire(old);
      } else {
        Tracer::Scope s(tracer_, Site::kWindowRotate);
        window_.Push(e);
      }
      {
        Tracer::Scope s(tracer_, Site::kMskyInsert);
        op_.Insert(e);
      }
      tally_->Attempt();
      Advance();
    }
  }

  ResultCheck Observe() override {
    const std::vector<psky::SkylineMember> sky =
        op_.Skyline(op_.num_thresholds());
    tally_->Check(op_.AdHocCount(kQ) == sky.size(),
                  "QSKY count at q differs from the continuous q-skyline");
    return MakeCheck(consumed(), op_.candidate_count(), sky);
  }
  std::vector<UncertainElement> WindowSnapshot() override {
    return window_.Snapshot();
  }
  void LayerMetrics(const Tracer::Totals& t, Metrics* m) override {
    AddSiteNs(t, "stream.window.ns_per_elem", Site::kWindowRotate, 1.0, "ns",
              m);
    AddSiteNs(t, "core.msky.insert_ns", Site::kMskyInsert, 1.0, "ns", m);
    AddSiteNs(t, "core.msky.expire_ns", Site::kMskyExpire, 1.0, "ns", m);
    AddSiteNs(t, "core.msky.query_enum_us", Site::kMskyQueryEnum, 1e3, "us",
              m);
    AddSiteNs(t, "core.msky.query_count_us", Site::kMskyQueryCount, 1e3, "us",
              m);
    AddSiteNs(t, "core.msky.query_topk_us", Site::kMskyQueryTopk, 1e3, "us",
              m);
    m->push_back({"core.msky.query_result_size",
                  Ratio(static_cast<double>(query_results_),
                        static_cast<double>(queries_run_)),
                  "count", queries_run_});
  }

 protected:
  void ResetLayer() override { query_results_ = queries_run_ = 0; }

  bool Read() override {
    const QuerySpec& q = queries_[next_query_++ % queries_.size()];
    const size_t candidates = op_.candidate_count();
    size_t n = 0;
    bool ok = true;
    switch (q.kind) {
      case QuerySpec::kEnum: {
        Tracer::Scope s(tracer_, Site::kMskyQueryEnum);
        n = op_.AdHocQuery(q.q).size();
        ok = n <= candidates;
        break;
      }
      case QuerySpec::kCount: {
        Tracer::Scope s(tracer_, Site::kMskyQueryCount);
        n = op_.AdHocCount(q.q);
        ok = n <= candidates;
        break;
      }
      case QuerySpec::kTopK: {
        Tracer::Scope s(tracer_, Site::kMskyQueryTopk);
        n = op_.tree().TopK(q.k).size();
        ok = n == std::min(q.k, candidates);
        break;
      }
    }
    query_results_ += n;
    ++queries_run_;
    return ok;
  }

 private:
  const std::vector<UncertainElement>& pool_;
  const std::vector<QuerySpec>& queries_;
  psky::CountWindow window_;
  psky::MskyOperator op_;
  size_t next_query_ = 0;
  uint64_t query_results_ = 0;
  uint64_t queries_run_ = 0;
};

psky::SegmentStore::Options SegmentOptions(const std::string& dir) {
  psky::SegmentStore::Options o;
  o.dir = dir;
  o.dims = kDims;
  o.elements_per_segment = kSegmentElems;
  o.resident_budget = kSegmentBudget;
  return o;
}

/// durable_corr: CSV file -> WAL (async group commit every 4096 records)
/// -> disk window (segment store) -> SSKY -> slice audit in check mode ->
/// streamed checkpoints every kCheckpointEvery elements with WAL rotation,
/// at psky_stream's defaults. The consumer reads the continuous
/// q-skyline. After the run the state is rebuilt from the checkpoint dir
/// and WAL the way psky_stream --wal --resume does in disk mode
/// (RecoverState + replay).
class DurablePipeline : public Pipeline {
 public:
  DurablePipeline(const std::string& work_dir, const std::string& csv_path,
                  double csv_bytes_per_line, Tracer* tracer, Tally* tally)
      : Pipeline(tracer, tally),
        csv_path_(csv_path),
        csv_bytes_per_line_(csv_bytes_per_line),
        dir_(work_dir + "/durable"),
        ckpt_dir_(dir_ + "/ckpt"),
        stage_(tracer) {
    std::error_code ec;
    fs::remove_all(dir_, ec);
    fs::create_directories(ckpt_dir_, ec);
    if (ec) Fatal("cannot create " + ckpt_dir_ + ": " + ec.message());
    OpenSource();
    std::string error;
    int err = 0;
    if (!wal_.Create(ckpt_dir_ + "/" + psky::WalFileName(0), kDims, 0, &error,
                     &err)) {
      Fatal("WAL: " + error);
    }
    wal_.SetAsyncSync(true);
    window_ = std::make_unique<psky::StoredCountWindow>(
        kWindow, SegmentOptions(dir_ + "/segments"));
    if (!window_->Init(&error)) Fatal("segment store: " + error);
    psky::AuditOptions audit;
    audit.mode = psky::AuditMode::kCheck;
    audit.audit_every = kAuditEvery;
    psky::StoredCountWindow* w = window_.get();
    psky::AuditManager::WindowStream ws;
    ws.size = [w] { return static_cast<uint64_t>(w->size()); };
    ws.at = [w](uint64_t i) { return w->At(static_cast<size_t>(i)); };
    ws.scan = [w](const std::function<void(const UncertainElement&)>& visit) {
      psky::SegmentStore::Cursor cur = w->NewCursor();
      UncertainElement e;
      while (cur.Next(&e)) visit(e);
    };
    audit_ = std::make_unique<psky::AuditManager>(&stage_.op(), audit,
                                                  std::move(ws));
  }

  void Apply(size_t count) override {
    std::string error;
    int err = 0;
    for (size_t i = 0; i < count; ++i) {
      const UncertainElement e = NextElement();
      psky::WalRecord r;
      r.element = e;
      r.step_after = consumed() + 1;
      r.next_seq_after = e.seq + 1;
      r.lines_after = reader_->lines_read();
      {
        Tracer::Scope s(tracer_, Site::kWalAppend);
        tally_->Check(wal_.Append(r, &error, &err), "WAL append");
      }
      if (tracer_->enabled() && consumed() % kBatch == 0) {
        // Framed record size (u32 length + u32 CRC + body), sampled.
        wal_bytes_ += static_cast<double>(psky::EncodeWalRecord(r).size() + 8);
        ++wal_bytes_samples_;
      }
      if (wal_.pending() >= kWalSyncEvery) {
        {
          Tracer::Scope s(tracer_, Site::kWalSync);
          tally_->Check(wal_.Sync(&error, &err), "WAL sync");
        }
        async_sync_ms_ += static_cast<double>(wal_.TakeAsyncSyncLatencyMs());
        ++syncs_;
      }
      if (window_->full()) {
        UncertainElement old;
        {
          Tracer::Scope s(tracer_, Site::kSegmentRotate);
          old = window_->PushRotate(e);
        }
        stage_.Expire(old);
      } else {
        Tracer::Scope s(tracer_, Site::kSegmentRotate);
        window_->Push(e);
      }
      stage_.Insert(e);
      {
        Tracer::Scope s(tracer_, Site::kAuditStep);
        tally_->Check(audit_->Step(), "audit found an unrepaired violation");
      }
      tally_->Attempt();
      Advance();
      if (consumed() % kCheckpointEvery == 0) Checkpoint();
    }
    stage_.SampleSizes();
    if (tracer_->enabled()) {
      resident_max_ = std::max<uint64_t>(
          resident_max_, window_->store_stats().segments_resident);
    }
  }

  ResultCheck Observe() override {
    return ObserveOperator(stage_.op(), consumed());
  }
  std::vector<UncertainElement> WindowSnapshot() override {
    return window_->Snapshot();
  }

  void LayerMetrics(const Tracer::Totals& t, Metrics* m) override {
    AddSiteNs(t, "stream.source.ns_per_elem", Site::kSourceNext, 1.0, "ns", m);
    m->push_back({"stream.source.bytes_per_elem", csv_bytes_per_line_,
                  "B/elem", 1});
    stage_.AddMetrics(t, LayerSteps(), m);
    AddSiteNs(t, "store.wal.append_ns", Site::kWalAppend, 1.0, "ns", m);
    AddSiteNs(t, "store.wal.sync_us", Site::kWalSync, 1e3, "us", m);
    m->push_back({"store.wal.async_sync_ms",
                  Ratio(async_sync_ms_, static_cast<double>(syncs_)), "ms",
                  syncs_});
    m->push_back({"store.wal.syncs", static_cast<double>(syncs_), "count", 1});
    m->push_back({"store.wal.bytes_per_elem",
                  Ratio(wal_bytes_, static_cast<double>(wal_bytes_samples_)),
                  "B/elem", wal_bytes_samples_});
    const psky::SegmentStore::Stats& ss = window_->store_stats();
    const uint64_t hits = ss.readahead_hits - store_base_.readahead_hits;
    const uint64_t misses = ss.readahead_misses - store_base_.readahead_misses;
    AddSiteNs(t, "store.segment.ns_per_elem", Site::kSegmentRotate, 1.0, "ns",
              m);
    m->push_back({"store.segment.readahead_hit_ratio",
                  Ratio(static_cast<double>(hits),
                        static_cast<double>(hits + misses)),
                  "ratio", hits + misses});
    m->push_back({"store.segment.resident_max",
                  static_cast<double>(resident_max_), "count", 1});
    m->push_back({"store.segment.recycle_pressure",
                  static_cast<double>(ss.recycle_pressure -
                                      store_base_.recycle_pressure),
                  "count", 1});
    AddSiteNs(t, "core.checkpoint.write_ms", Site::kCheckpointWrite, 1e6, "ms",
              m);
    m->push_back({"core.checkpoint.bytes", checkpoint_bytes_, "B", 1});
    m->push_back({"core.checkpoint.count", static_cast<double>(checkpoints_),
                  "count", 1});
    AddSiteNs(t, "core.audit.step_ns", Site::kAuditStep, 1.0, "ns", m);
    m->push_back({"core.audit.elements_audited",
                  static_cast<double>(audit_->report().elements_audited -
                                      audited_base_),
                  "count", 1});
  }

  /// Final group commit, then a rebuild from the checkpoint dir and WAL
  /// the way a resumed run does, which must match the live state.
  void Finish(Metrics* m) override {
    std::string error;
    int err = 0;
    tally_->Check(wal_.Sync(&error, &err) && wal_.SyncBarrier(&error, &err),
                  "final WAL sync");
    wal_.Close();
    const ResultCheck live = Observe();

    RssPeak rss;
    psky::Timer timer;
    psky::RecoveredState rec;
    const bool read_ok = tally_->Check(
        psky::RecoverState(ckpt_dir_, &rec, &error), "RecoverState");
    const double read_s = timer.ElapsedSeconds();
    rss.Sample();
    timer.Reset();
    psky::SskyOperator op(kDims, kQ);
    psky::StoredCountWindow window(kWindow,
                                   SegmentOptions(dir_ + "/recover-segments"));
    if (!window.Init(&error)) Fatal("segment store: " + error);
    psky::ReplayWindow(rec.checkpoint, &op);
    for (const UncertainElement& e : rec.checkpoint.window) window.Push(e);
    for (const psky::WalRecord& r : rec.tail) {
      if (window.full()) {
        op.Expire(window.PushRotate(r.element));
      } else {
        window.Push(r.element);
      }
      op.Insert(r.element);
    }
    const double replay_s = timer.ElapsedSeconds();
    rss.Sample();
    const uint64_t pos = rec.tail.empty() ? rec.checkpoint.elements_consumed
                                          : rec.tail.back().step_after;
    tally_->Check(read_ok && ObserveOperator(op, pos) == live,
                  "recovered state differs from the live state");

    m->push_back({"store.recovery.recover_s", read_s + replay_s, "s", 1});
    m->push_back({"store.recovery.read_ms", read_s * 1e3, "ms", 1});
    m->push_back({"store.recovery.replay_ms", replay_s * 1e3, "ms", 1});
    m->push_back({"store.recovery.wal_records_replayed",
                  static_cast<double>(rec.tail.size()), "count", 1});
    m->push_back({"store.recovery.peak_rss_growth_mb", rss.GrowthMb(), "MB",
                  1});
  }

 protected:
  void ResetLayer() override {
    stage_.Reset();
    syncs_ = 0;
    async_sync_ms_ = 0.0;
    wal_bytes_ = 0.0;
    wal_bytes_samples_ = 0;
    store_base_ = window_->store_stats();
    resident_max_ = 0;
    checkpoints_ = 0;
    audited_base_ = audit_->report().elements_audited;
  }

  bool Read() override {
    stage_.ReadSkyline();
    return true;
  }

 private:
  /// (Re)opens the CSV input: the stream repeats the file with fresh
  /// sequence numbers continuing from the current position.
  void OpenSource() {
    reader_.reset();
    in_ = std::make_unique<std::ifstream>(csv_path_);
    if (!*in_) Fatal("cannot open " + csv_path_);
    psky::CsvReaderOptions o;
    o.start_seq = consumed();
    reader_ = std::make_unique<psky::CsvElementReader>(in_.get(), kDims, o);
  }

  UncertainElement NextElement() {
    Tracer::Scope s(tracer_, Site::kSourceNext);
    std::optional<UncertainElement> e = reader_->Next();
    if (!e && reader_->ok()) {
      OpenSource();
      e = reader_->Next();
    }
    if (!e) {
      Fatal("CSV source: " +
            (reader_->ok() ? std::string("empty input") : reader_->error()));
    }
    return *e;
  }

  void Checkpoint() {
    Tracer::Scope scope(tracer_, Site::kCheckpointWrite);
    std::string error;
    int err = 0;
    {
      // WAL before checkpoint: everything the snapshot covers is durable.
      Tracer::Scope s(tracer_, Site::kWalSync);
      tally_->Check(wal_.Sync(&error, &err) && wal_.SyncBarrier(&error, &err),
                    "WAL sync before checkpoint");
    }
    psky::CheckpointState header;
    header.dims = kDims;
    header.q = kQ;
    header.window_kind = psky::WindowKind::kCount;
    header.window_capacity = kWindow;
    header.elements_consumed = consumed();
    header.lines_consumed = reader_->lines_read();
    header.next_seq = consumed();
    const std::string path =
        ckpt_dir_ + "/" + psky::CheckpointFileName(consumed());
    psky::SegmentStore::Cursor cursor = window_->NewCursor();
    const bool written = psky::WriteCheckpointFileStreamed(
        path, header, window_->size(),
        [&](UncertainElement* out) {
          Tracer::Scope s(tracer_, Site::kSegmentRead);
          return cursor.Next(out);
        },
        &error, &err);
    tally_->Check(written, "checkpoint write");
    std::error_code ec;
    const uintmax_t bytes = fs::file_size(path, ec);
    if (!ec) checkpoint_bytes_ = static_cast<double>(bytes);
    ++checkpoints_;
    psky::PruneCheckpoints(ckpt_dir_, kKeepCheckpoints);
    {
      Tracer::Scope s(tracer_, Site::kWalRotate);
      tally_->Check(wal_.RotateTo(ckpt_dir_, consumed(), &error, &err),
                    "WAL rotation");
    }
    uint64_t oldest_kept = consumed();
    for (const std::string& p : psky::ListCheckpointFiles(ckpt_dir_)) {
      uint64_t step = 0;
      if (psky::ParseCheckpointStep(p, &step)) {
        oldest_kept = std::min(oldest_kept, step);
      }
    }
    psky::PruneWalFiles(ckpt_dir_, oldest_kept);
  }

  std::string csv_path_;
  double csv_bytes_per_line_;
  std::string dir_;
  std::string ckpt_dir_;
  std::unique_ptr<std::ifstream> in_;
  std::unique_ptr<psky::CsvElementReader> reader_;
  SskyStage stage_;
  psky::WalWriter wal_;
  std::unique_ptr<psky::StoredCountWindow> window_;
  std::unique_ptr<psky::AuditManager> audit_;
  uint64_t syncs_ = 0;
  double async_sync_ms_ = 0.0;
  double wal_bytes_ = 0.0;
  uint64_t wal_bytes_samples_ = 0;
  psky::SegmentStore::Stats store_base_;
  uint64_t resident_max_ = 0;
  double checkpoint_bytes_ = 0.0;
  uint64_t checkpoints_ = 0;
  uint64_t audited_base_ = 0;
};

/// parallel_anti: ingest_anti's stream through the shard engine (grid
/// routing, no per-shard audit, as psky_stream --shards runs by default).
/// The driver thread is the router. The consumer's read is a published
/// exact merge (barrier + GlobalSkyline), and results are readable only
/// at a merge.
class ShardPipeline : public Pipeline {
 public:
  ShardPipeline(int shards, const std::vector<UncertainElement>& pool,
                Tracer* tracer, Tally* tally)
      : Pipeline(tracer, tally), pool_(pool) {
    psky::ShardEngine::Options o;
    o.dims = kDims;
    o.q = kQ;
    o.shards = shards;
    o.strategy = psky::ShardStrategy::kGrid;
    o.window_capacity = kWindow;
    o.audit.mode = psky::AuditMode::kOff;
    engine_ = std::make_unique<psky::ShardEngine>(o);
  }

  void Apply(size_t count) override {
    for (size_t i = 0; i < count; ++i) {
      const UncertainElement e = StreamAt(pool_, consumed());
      bool routed = false;
      {
        Tracer::Scope s(tracer_, Site::kShardRoute);
        routed = engine_->Route(e);
      }
      tally_->Check(routed, "shard router rejected an element");
      Advance();
    }
  }

  uint64_t PublishEvery() const override { return kPublishEvery; }

  ResultCheck Observe() override {
    size_t candidates = 0;
    const std::vector<psky::SkylineMember> sky = Merge(&candidates);
    return MakeCheck(consumed(), candidates, sky);
  }
  std::vector<UncertainElement> WindowSnapshot() override {
    return engine_->WindowSnapshot();
  }

  void LayerMetrics(const Tracer::Totals& t, Metrics* m) override {
    engine_->Barrier();
    const Counters work =
        Delta(Delta(ShardCounters(), counters_base_), merge_work_);
    const auto samples = static_cast<double>(merge_samples_);
    AddSskyWork(work, LayerSteps(), Ratio(union_sum_, samples),
                Ratio(skyline_sum_, samples), merge_samples_, m);
    const psky::ShardEngine::Stats st = engine_->GetStats();
    const uint64_t n = st.merges - stats_base_.merges;
    const auto merges = static_cast<double>(n);
    const auto candidates = static_cast<double>(st.merge_candidates -
                                                stats_base_.merge_candidates);
    const auto probes =
        static_cast<double>(st.merge_probes - stats_base_.merge_probes);
    const auto skips =
        static_cast<double>(st.merge_cell_skips - stats_base_.merge_cell_skips);
    AddSiteNs(t, "core.shard_engine.route_ns", Site::kShardRoute, 1.0, "ns",
              m);
    AddSiteNs(t, "core.shard_engine.merge_ms", Site::kShardMerge, 1e6, "ms",
              m);
    AddSiteNs(t, "core.shard_engine.barrier_wait_ms", Site::kShardBarrier, 1e6,
              "ms", m);
    m->push_back({"core.shard_engine.merge_candidates",
                  Ratio(candidates, merges), "count", n});
    m->push_back({"core.shard_engine.merge_probes", Ratio(probes, merges),
                  "count", n});
    m->push_back({"core.shard_engine.cell_skip_ratio",
                  Ratio(skips, skips + probes), "ratio", n});
    m->push_back({"core.shard_engine.queue_depth_max",
                  static_cast<double>(queue_depth_max_), "count", n});
    m->push_back({"core.shard_engine.imbalance", st.imbalance, "ratio", 1});
    m->push_back({"core.shard_engine.candidate_inflation",
                  Ratio(inflation_sum_, samples), "ratio", merge_samples_});
  }

 protected:
  void ResetLayer() override {
    engine_->Barrier();
    counters_base_ = ShardCounters();
    stats_base_ = engine_->GetStats();
    merge_work_ = {};
    union_sum_ = skyline_sum_ = inflation_sum_ = 0.0;
    merge_samples_ = 0;
    queue_depth_max_ = 0;
  }

  /// The published result: barrier, then the exact cross-shard merge.
  bool Read() override {
    if (tracer_->enabled()) {
      const psky::ShardEngine::Stats stats = engine_->GetStats();
      for (const psky::ShardEngine::ShardStats& s : stats.shards) {
        queue_depth_max_ = std::max<uint64_t>(queue_depth_max_, s.queue_depth);
      }
    }
    {
      Tracer::Scope s(tracer_, Site::kShardBarrier);
      engine_->Barrier();
    }
    size_t union_size = 0;
    for (int i = 0; i < engine_->shards(); ++i) {
      union_size += engine_->shard_operator(i).candidate_count();
    }
    size_t candidates = 0;
    std::vector<psky::SkylineMember> merged;
    {
      Tracer::Scope s(tracer_, Site::kShardMerge);
      merged = Merge(&candidates);
    }
    if (tracer_->enabled()) {
      union_sum_ += static_cast<double>(union_size);
      skyline_sum_ += static_cast<double>(merged.size());
      inflation_sum_ += Ratio(static_cast<double>(union_size),
                              static_cast<double>(candidates));
      ++merge_samples_;
    }
    return true;
  }

 private:
  /// GlobalSkyline, booking the shard-tree counter ticks of its dominance
  /// probes as merge work rather than operator work.
  std::vector<psky::SkylineMember> Merge(size_t* candidates) {
    engine_->Barrier();
    const Counters before = ShardCounters();
    std::vector<psky::SkylineMember> merged =
        engine_->GlobalSkyline(candidates);
    Accumulate(&merge_work_, Delta(ShardCounters(), before));
    return merged;
  }

  /// Sum of the shard trees' counters; read only after a barrier.
  Counters ShardCounters() const {
    Counters c{};
    for (int i = 0; i < engine_->shards(); ++i) {
      Accumulate(&c, engine_->shard_operator(i).tree().counters());
    }
    return c;
  }

  const std::vector<UncertainElement>& pool_;
  std::unique_ptr<psky::ShardEngine> engine_;
  Counters counters_base_{};
  Counters merge_work_{};
  psky::ShardEngine::Stats stats_base_;
  double union_sum_ = 0.0;
  double skyline_sum_ = 0.0;
  double inflation_sum_ = 0.0;
  uint64_t merge_samples_ = 0;
  uint64_t queue_depth_max_ = 0;
};

psky::SpatialDistribution ParseStream(const std::string& name) {
  if (name == "anti") return psky::SpatialDistribution::kAntiCorrelated;
  if (name == "corr") return psky::SpatialDistribution::kCorrelated;
  if (name == "inde") return psky::SpatialDistribution::kIndependent;
  Fatal("unknown stream " + name);
}

std::string StreamOfWorkload(const std::string& workload) {
  if (workload == "ingest_anti" || workload == "parallel_anti") return "anti";
  if (workload == "durable_corr") return "corr";
  if (workload == "query_inde") return "inde";
  Fatal("unknown workload " + workload);
}

/// Inputs, generated before any timing starts.
struct Inputs {
  std::vector<UncertainElement> pool;
  std::vector<QuerySpec> queries;
  std::string csv_path;
  double csv_bytes_per_line = 0.0;
};

/// Writes the first `lines` elements of the seeded stream as CSV
/// (x,y,z,prob; 17 significant digits round-trip exactly) without holding
/// them in memory. Returns the bytes written.
double WriteCsv(const std::string& path, psky::SpatialDistribution spatial,
                uint64_t seed, size_t lines) {
  psky::StreamConfig sc;
  sc.dims = kDims;
  sc.spatial = spatial;
  sc.seed = seed;
  psky::StreamGenerator gen(sc);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) Fatal("cannot write " + path);
  for (size_t i = 0; i < lines; ++i) {
    const UncertainElement e = gen.Next();
    std::fprintf(f, "%.17g,%.17g,%.17g,%.17g\n", e.pos[0], e.pos[1], e.pos[2],
                 e.prob);
  }
  const long bytes = std::ftell(f);
  if (std::fclose(f) != 0 || bytes <= 0) Fatal("cannot write " + path);
  return static_cast<double>(bytes);
}

Inputs MakeInputs(const Config& cfg) {
  Inputs in;
  const psky::SpatialDistribution spatial =
      ParseStream(StreamOfWorkload(cfg.workload));
  const size_t pool_size = kPoolWindows * kWindow;
  if (cfg.workload == "durable_corr") {
    in.csv_path = cfg.work_dir + "/input.csv";
    in.csv_bytes_per_line =
        WriteCsv(in.csv_path, spatial, cfg.seed, pool_size) /
        static_cast<double>(pool_size);
  } else {
    in.pool = MakePool(spatial, cfg.seed, pool_size);
  }
  if (cfg.workload == "query_inde") {
    in.queries = MakeQueries(cfg.seed, kQueryPool);
  }
  return in;
}

std::unique_ptr<Pipeline> MakePipeline(const Config& cfg, const Inputs& in,
                                       Tracer* tracer, Tally* tally) {
  if (cfg.workload == "ingest_anti") {
    return std::make_unique<SskyPipeline>(in.pool, tracer, tally);
  }
  if (cfg.workload == "durable_corr") {
    return std::make_unique<DurablePipeline>(
        cfg.work_dir, in.csv_path, in.csv_bytes_per_line, tracer, tally);
  }
  if (cfg.workload == "query_inde") {
    return std::make_unique<MskyPipeline>(in.pool, in.queries, tracer, tally);
  }
  if (cfg.workload == "parallel_anti") {
    return std::make_unique<ShardPipeline>(cfg.shards, in.pool, tracer, tally);
  }
  Fatal("unknown workload " + cfg.workload);
}

struct LoopResult {
  uint64_t elements = 0;
  double seconds = 0.0;
  int64_t read_ns = 0;  ///< spent in the consumer's reads
  /// Elements per measured second of each whole stream period applied.
  std::vector<double> period_eps;
};

/// Open-loop latency percentiles are taken per slice of this length and
/// the median slice is reported, so a few seconds in which other tenants
/// of a shared host slow this process move them little.
constexpr int64_t kOpenSliceNs = 500'000'000;

/// Pins the calling thread to each CPU of its starting affinity mask in
/// turn, and restores the mask when destroyed. Other tenants of a shared
/// host slow one CPU at a time: a thread the scheduler leaves on a
/// disturbed CPU stays slow for the whole run, while in the same seconds
/// the other CPUs run at full speed.
class CpuRotation {
 public:
  /// The first Next() pins to the `first`-th CPU of the mask (mod its size).
  explicit CpuRotation(size_t first = 0) : next_(first) {
    CPU_ZERO(&original_);
    if (sched_getaffinity(0, sizeof original_, &original_) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &original_)) cpus_.push_back(c);
    }
  }
  ~CpuRotation() {
    if (cpus_.size() > 1) sched_setaffinity(0, sizeof original_, &original_);
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void Next() {
    if (cpus_.size() < 2) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_++ % cpus_.size()], &one);
    sched_setaffinity(0, sizeof one, &one);
  }

 private:
  cpu_set_t original_;
  std::vector<int> cpus_;
  size_t next_ = 0;
};

/// Closed loop: batches back to back until `seconds` of measured time
/// have passed, every check position is reached and a stream period has
/// just ended. Result checks are taken between batches, off the clock.
/// Every period applies the same elements to the same window state, so
/// the periods' rates differ only by what the host did meanwhile. Each
/// period runs on the next CPU the process may use.
LoopResult ClosedLoop(Pipeline* p, Tracer* tracer, double seconds,
                      const std::vector<uint64_t>& positions,
                      size_t* next_check, std::vector<ResultCheck>* checks) {
  constexpr uint64_t kPeriod = kPoolWindows * kWindow;
  CpuRotation rotation;
  rotation.Next();
  psky::Timer timer;
  double off_clock = 0.0;
  const uint64_t start = p->consumed();
  const int64_t read_start = p->read_ns();
  LoopResult out;
  double period_start_s = 0.0;
  while (true) {
    const bool checks_left = *next_check < positions.size();
    if (checks_left && p->consumed() == positions[*next_check]) {
      psky::Timer off;
      checks->push_back(p->Observe());
      ++*next_check;
      off_clock += off.ElapsedSeconds();
      continue;
    }
    const double measured = timer.ElapsedSeconds() - off_clock;
    const uint64_t into_period = (p->consumed() - start) % kPeriod;
    if (into_period == 0 && p->consumed() != start) {
      out.period_eps.push_back(
          Ratio(static_cast<double>(kPeriod), measured - period_start_s));
      rotation.Next();
      period_start_s = timer.ElapsedSeconds() - off_clock;
    }
    if (measured >= seconds && !checks_left && into_period == 0) {
      out.elements = p->consumed() - start;
      out.seconds = measured;
      out.read_ns = p->read_ns() - read_start;
      return out;
    }
    uint64_t take = std::min(p->MaxTake(), kPeriod - into_period);
    if (checks_left) {
      take = std::min(take, positions[*next_check] - p->consumed());
    }
    tracer->BeginBatch();
    p->Apply(take);
    tracer->EndBatch();
  }
}

/// Layer self-time shares of the traced closed phase, and the driver's
/// own figures.
void AddTraceMetrics(const Tracer::Totals& t, const LoopResult& traced,
                     const LoopResult& untraced, const OpenLoopStats& open,
                     Metrics* m) {
  const double wall_ns = traced.seconds * 1e9;
  double all_self = 0.0;
  for (const char* layer : kLayers) {
    double self = 0.0;
    for (int s = 0; s < kSiteCount; ++s) {
      if (std::string_view(kSiteInfo[s].layer) == layer) {
        self += static_cast<double>(t.sites[static_cast<size_t>(s)].self_ns);
      }
    }
    all_self += self;
    m->push_back({std::string(layer) + ".self_share", Ratio(self, wall_ns),
                  "share", traced.elements});
  }
  const double driver_self = static_cast<double>(t.batch_ns) - all_self;
  const auto elements = static_cast<double>(traced.elements);
  m->push_back({"driver.self_ns_per_elem", Ratio(driver_self, elements), "ns",
                traced.elements});
  m->push_back({"driver.self_share", Ratio(driver_self, wall_ns), "share",
                traced.elements});
  m->push_back({"driver.backlog_max", static_cast<double>(open.backlog_max),
                "count", open.applied});
  m->push_back({"driver.idle_share", Ratio(open.idle_s, open.wall_s), "share",
                open.applied});
  m->push_back({"driver.trace_overhead",
                1.0 - Ratio(Percentile(traced.period_eps, kIngestPercentile),
                            Percentile(untraced.period_eps, kIngestPercentile)),
                "share", traced.period_eps.size()});
  m->push_back({"trace.accounted_share",
                Ratio(static_cast<double>(t.batch_ns), wall_ns), "share",
                t.batches});
}

std::string JsonString(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string ChecksJson(const std::vector<ResultCheck>& checks) {
  std::string out = "[";
  for (size_t i = 0; i < checks.size(); ++i) {
    const ResultCheck& c = checks[i];
    out += (i ? "," : "") + std::string("{\"pos\":") + std::to_string(c.pos) +
           ",\"candidates\":" + std::to_string(c.candidates) +
           ",\"skyline\":" + std::to_string(c.skyline) +
           ",\"digest\":" + JsonString(Hex64(c.digest)) + "}";
  }
  return out + "]";
}

std::string SiteName(int site) {
  if (site < 0) return "driver.batch";
  const SiteInfo& info = kSiteInfo[site];
  return std::string(info.layer) + "." + info.call;
}

/// Writes the traced run's per-site figures and spans as JSON.
void WriteTrace(const Config& cfg, const Tracer& tracer,
                const Tracer::Totals& closed, const LoopResult& traced) {
  if (cfg.trace_out.empty()) return;
  std::FILE* f = std::fopen(cfg.trace_out.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "warning: cannot write %s\n", cfg.trace_out.c_str());
    return;
  }
  std::fprintf(f,
               "{\"workload\":%s,\"seed\":%llu,\"closed_traced\":{\"wall_ns\":"
               "%.0f,\"elements\":%llu,\"batch_ns\":%lld},\"sites\":[",
               JsonString(cfg.workload).c_str(),
               static_cast<unsigned long long>(cfg.seed), traced.seconds * 1e9,
               static_cast<unsigned long long>(traced.elements),
               static_cast<long long>(closed.batch_ns));
  const Tracer::Totals& all = tracer.totals();
  for (int s = 0; s < kSiteCount; ++s) {
    const Tracer::SiteStats& st = all.sites[static_cast<size_t>(s)];
    std::fprintf(f,
                 "%s{\"site\":%s,\"calls\":%llu,\"busy_ns\":%lld,\"self_ns\":"
                 "%lld,\"closed_self_ns\":%lld,\"hist_log2_ns\":[",
                 s ? "," : "", JsonString(SiteName(s)).c_str(),
                 static_cast<unsigned long long>(st.calls),
                 static_cast<long long>(st.busy_ns),
                 static_cast<long long>(st.self_ns),
                 static_cast<long long>(
                     closed.sites[static_cast<size_t>(s)].self_ns));
    for (int b = 0; b < Log2Histogram::kBuckets; ++b) {
      std::fprintf(f, "%s%llu", b ? "," : "",
                   static_cast<unsigned long long>(st.hist.buckets[b]));
    }
    std::fprintf(f, "]}");
  }
  std::fprintf(f,
               "],\"span_fields\":[\"batch\",\"site\",\"parent\",\"start_ns\","
               "\"end_ns\",\"busy_ns\",\"calls\"],\"spans\":[");
  const std::vector<Tracer::Span>& spans = tracer.spans();
  for (size_t i = 0; i < spans.size(); ++i) {
    const Tracer::Span& sp = spans[i];
    std::fprintf(f, "%s[%llu,%s,%s,%lld,%lld,%lld,%u]", i ? "," : "",
                 static_cast<unsigned long long>(sp.batch),
                 JsonString(SiteName(static_cast<int>(sp.site))).c_str(),
                 JsonString(SiteName(sp.parent)).c_str(),
                 static_cast<long long>(sp.start_ns),
                 static_cast<long long>(sp.end_ns),
                 static_cast<long long>(sp.busy_ns), sp.calls);
  }
  std::fprintf(f, "]}\n");
  std::fclose(f);
}

void PrintReport(const Config& cfg, const Tally& tally,
                 const std::vector<ResultCheck>& checks, const Metrics& m) {
  std::string out = "{\"workload\":" + JsonString(cfg.workload) +
                    ",\"seed\":" + std::to_string(cfg.seed) +
                    ",\"attempted\":" + std::to_string(tally.attempted()) +
                    ",\"failed\":" + std::to_string(tally.failed()) +
                    ",\"reasons\":[";
  for (size_t i = 0; i < tally.reasons().size(); ++i) {
    out += (i ? "," : "") + JsonString(tally.reasons()[i]);
  }
  out += "],\"checks\":" + ChecksJson(checks) + ",\"metrics\":{";
  for (size_t i = 0; i < m.size(); ++i) {
    out += (i ? "," : "") + JsonString(m[i].name) +
           ":{\"value\":" + JsonNumber(m[i].value) +
           ",\"unit\":" + JsonString(m[i].unit) +
           ",\"samples\":" + std::to_string(m[i].samples) + "}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

int Run(const Config& cfg) {
  Tally tally;
  Metrics m;
  Tracer tracer;
  const Inputs inputs = MakeInputs(cfg);
  const double closed_s = cfg.seconds * kClosedShare;
  const double open_s = cfg.seconds - closed_s;
  // The open loop offers rate * open_s elements, plus fewer than
  // kPublishEvery to end on a publish. Its latency buffers are resident
  // before the RSS base is taken, so peak_rss_mb counts the pipeline's
  // memory and not the benchmark's own samples.
  const auto open_max =
      static_cast<size_t>(cfg.rate * open_s) + kPublishEvery;
  std::vector<double> visible_buf = TouchedBuffer<double>(open_max);
  std::vector<double> query_buf =
      TouchedBuffer<double>(open_max / kPublishEvery + 1);
  std::vector<int64_t> query_due_buf =
      TouchedBuffer<int64_t>(open_max / kPublishEvery + 1);
  // Sampled at the end of each set-up and phase, where the pipeline is
  // largest.
  RssPeak rss;

  // Phase 1: set-up; the last pipeline built here is the one measured.
  std::unique_ptr<Pipeline> p;
  std::vector<double> setup_s;
  const auto set_up = [&] {
    p.reset();
    psky::Timer timer;
    p = MakePipeline(cfg, inputs, &tracer, &tally);
    // Each fill runs on the next CPU, so the median is not one disturbed
    // CPU's. The threads the pipeline started keep the full mask.
    CpuRotation rotation(setup_s.size());
    rotation.Next();
    while (p->consumed() < kWindow) {
      p->Apply(std::min<uint64_t>(p->MaxTake(), kWindow - p->consumed()));
    }
    setup_s.push_back(timer.ElapsedSeconds());
  };
  for (int r = 0; r < kEarlySetups; ++r) {
    set_up();
    rss.Sample();
  }

  // Phase 2: closed loop, in two halves. An untraced run puts its second
  // half after the open loop, so the periods sample both ends of the run.
  // A traced run times its second half with the per-call timers on, right
  // after the first, which is the baseline for the tracing overhead.
  const std::vector<uint64_t> positions =
      CheckPositions(kWindow, kCheckEvery, kChecks);
  std::vector<ResultCheck> checks;
  size_t next_check = 0;
  LoopResult closed = ClosedLoop(p.get(), &tracer, closed_s / 2, positions,
                                 &next_check, &checks);
  LoopResult traced;
  Tracer::Totals traced_totals;
  if (cfg.trace) {
    tracer.set_enabled(true);
    p->ResetLayerStats();
    traced = ClosedLoop(p.get(), &tracer, closed_s / 2, positions, &next_check,
                        &checks);
    traced_totals = tracer.totals();
  }

  // Phase 3: open loop at the offered rate, ending on a publish boundary.
  auto offered = static_cast<uint64_t>(cfg.rate * open_s);
  if (const uint64_t every = p->PublishEvery(); every != 0) {
    offered += (every - (p->consumed() + offered) % every) % every;
  }
  Schedule schedule(cfg.rate);
  p->StartQueries(&schedule, p->consumed(), std::move(query_buf),
                  std::move(query_due_buf));
  const OpenLoopStats open = RunOpenLoop(
      &schedule, offered, 2.0 * open_s + 5.0, std::move(visible_buf),
      [&](uint64_t, uint64_t count) {
        tracer.BeginBatch();
        p->Apply(count);
        tracer.EndBatch();
        return p->Readable();
      },
      [&] { return p->MaxTake(); });
  p->StopQueries();
  rss.Sample();
  if (!cfg.trace) {
    const LoopResult late = ClosedLoop(p.get(), &tracer, closed_s / 2,
                                       positions, &next_check, &checks);
    rss.Sample();
    closed.elements += late.elements;
    closed.seconds += late.seconds;
    closed.read_ns += late.read_ns;
    closed.period_eps.insert(closed.period_eps.end(), late.period_eps.begin(),
                             late.period_eps.end());
  }
  m.push_back({"ingest_eps", Percentile(closed.period_eps, kIngestPercentile),
               "elem/s", closed.period_eps.size()});
  m.push_back({"driver.read_share",
               Ratio(static_cast<double>(closed.read_ns), closed.seconds * 1e9),
               "share", closed.elements / kPublishEvery});
  if (open.applied < open.offered) {
    tally.Attempt(open.offered - open.applied);
    tally.Fail("open loop: elements not applied before the cap",
               open.offered - open.applied);
  }
  std::vector<int64_t> visible_due(open.visible_us.size());
  for (size_t i = 0; i < visible_due.size(); ++i) {
    visible_due[i] = schedule.DueNs(i);
  }
  const Summary visible =
      SliceSummary(open.visible_us, visible_due, kOpenSliceNs);
  m.push_back({"visible_p50_us", visible.p50, "us", visible.count});
  m.push_back({"visible_p99_us", visible.p99, "us", visible.count});
  const Summary query =
      SliceSummary(p->query_us(), p->query_due_ns(), kOpenSliceNs);
  m.push_back({"query_p50_us", query.p50, "us", query.count});
  m.push_back({"query_p99_us", query.p99, "us", query.count});

  // Peak RSS of the measured phases. The durable workload's recovery
  // reports its own growth (store.recovery.peak_rss_growth_mb): its WAL
  // tail length depends on where the time-bounded run stopped.
  m.push_back({"peak_rss_mb", rss.GrowthMb(), "MB", 1});
  p->Finish(&m);

  // Output checks for any seed: the final window holds exactly the last N
  // stream elements, and a fresh sequential replay of it gives the same
  // result as the pipeline.
  {
    const ResultCheck live = p->Observe();
    const std::vector<UncertainElement> window = p->WindowSnapshot();
    bool exact = window.size() == kWindow;
    for (size_t i = 0; exact && i < window.size(); ++i) {
      exact = window[i].seq == p->consumed() - kWindow + i;
    }
    tally.Check(exact, "final window is not the last N stream elements");
    tally.Check(live == ReplayCheck(window, p->consumed()),
                "final result differs from a sequential SSKY replay of the "
                "final window");
  }

  if (cfg.trace) {
    p->LayerMetrics(tracer.totals(), &m);
    AddTraceMetrics(traced_totals, traced, closed, open, &m);
    WriteTrace(cfg, tracer, traced_totals, traced);
  }

  // The late set-ups, after the last RSS sample.
  tracer.set_enabled(false);
  for (int r = kEarlySetups; r < kSetupRepeats; ++r) set_up();
  p.reset();
  m.push_back({"setup_s", Median(setup_s), "s", setup_s.size()});
  PrintReport(cfg, tally, checks, m);
  return 0;
}

int Reference(const Config& cfg) {
  const std::vector<UncertainElement> pool =
      MakePool(ParseStream(cfg.stream), cfg.seed, kPoolWindows * kWindow);
  psky::SskyOperator op(kDims, kQ);
  const std::vector<ResultCheck> checks = ReferenceChecks(
      pool, kWindow, CheckPositions(kWindow, kCheckEvery, kChecks), &op);
  std::printf(
      "{\"stream\":%s,\"seed\":%llu,\"window\":%zu,\"check_every\":%llu,"
      "\"check_count\":%d,\"checks\":%s}\n",
      JsonString(cfg.stream).c_str(), static_cast<unsigned long long>(cfg.seed),
      kWindow, static_cast<unsigned long long>(kCheckEvery), kChecks,
      ChecksJson(checks).c_str());
  return 0;
}

Config ParseArgs(int argc, char** argv) {
  Config c;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string flag = argv[i];
      if (flag == "--reference") {
        c.reference = true;
        continue;
      }
      if (i + 1 >= argc) Fatal("missing value for " + flag);
      const std::string v = argv[++i];
      if (flag == "--workload") c.workload = v;
      else if (flag == "--stream") c.stream = v;
      else if (flag == "--seed") c.seed = std::stoull(v);
      else if (flag == "--seconds") c.seconds = std::stod(v);
      else if (flag == "--trace") c.trace = v == "1";
      else if (flag == "--work-dir") c.work_dir = v;
      else if (flag == "--trace-out") c.trace_out = v;
      else if (flag == "--rate") c.rate = std::stod(v);
      else if (flag == "--shards") c.shards = std::stoi(v);
      else Fatal("unknown flag " + flag);
    }
  } catch (const std::exception& e) {
    Fatal(std::string("bad flag value: ") + e.what());
  }
  if (c.reference) {
    if (c.stream.empty()) Fatal("--reference needs --stream");
    return c;
  }
  if (c.workload.empty()) Fatal("--workload is required");
  if (!(c.rate > 0.0)) Fatal("--rate must be positive");
  if (!(c.seconds > 0.0)) Fatal("--seconds must be positive");
  if (c.shards < 1 || c.shards > 255) Fatal("--shards must be in [1, 255]");
  return c;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Config cfg = perfbench::ParseArgs(argc, argv);
  return cfg.reference ? perfbench::Reference(cfg) : perfbench::Run(cfg);
}
