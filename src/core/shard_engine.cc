#include "core/shard_engine.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <numbers>

#include "base/check.h"
#include "base/timer.h"

namespace psky {

thread_local int ShardEngine::worker_shard_ = -1;
thread_local const ShardEngine::Command* ShardEngine::worker_command_ =
    nullptr;

namespace {

constexpr size_t kWorkerBatch = 256;
// Commands in flight per shard: how far the router may run ahead of a
// worker before Push blocks.
constexpr size_t kQueueCapacity = 4096;

// The sector, of n equal ones counted from -pi, of the polar angle of
// (x0, x1, x2) around the diagonal (see the header's file comment). A
// point on the diagonal has no angle and goes to shard n / 2; NaN and
// infinite inputs reach a valid shard without converting a non-finite
// value to int.
int SectorOf(const Point& pos, int n) {
  constexpr double kPi = std::numbers::pi;
  const double c1 = pos[0] - pos[1];
  const double c2 = (pos[0] + pos[1] - 2.0 * pos[2]) / std::numbers::sqrt3;
  if (c1 == 0.0 && c2 == 0.0) return n / 2;
  const double t = n * (std::atan2(c2, c1) + kPi) / (2.0 * kPi);
  if (!(t > 0.0)) return 0;  // also NaN
  if (t >= n) return n - 1;
  return static_cast<int>(t);
}

// Oldest-first view of a shard's audit window.
AuditManager::WindowStream StreamOf(const std::deque<UncertainElement>* w) {
  AuditManager::WindowStream stream;
  stream.size = [w] { return static_cast<uint64_t>(w->size()); };
  stream.at = [w](uint64_t idx) { return (*w)[idx]; };
  stream.scan = [w](const auto& visit) {
    for (const UncertainElement& e : *w) visit(e);
  };
  return stream;
}

}  // namespace

ShardEngine::Shard::Shard(const Options& opts)
    : queue(kQueueCapacity), op(opts.dims, opts.q) {
  if (opts.audit.mode != AuditMode::kOff) {
    audit_window = std::make_unique<std::deque<UncertainElement>>();
    audit = std::make_unique<AuditManager>(&op, opts.audit,
                                           StreamOf(audit_window.get()));
  }
}

ShardEngine::ShardEngine(const Options& options)
    : options_(options),
      grid_(options.dims, CellGrid::ChooseResolution(options.dims)) {
  PSKY_CHECK(options_.shards >= 1 && options_.shards <= 255);
  if (options_.window_capacity > 0) {
    count_window_ = std::make_unique<CountWindow>(options_.window_capacity);
  }
  shards_.reserve(static_cast<size_t>(options_.shards));
  for (int i = 0; i < options_.shards; ++i) {
    shards_.push_back(std::make_unique<Shard>(options_));
    Shard* shard = shards_.back().get();
    shard->worker = std::thread([this, i, shard] { WorkerLoop(i, shard); });
  }
}

ShardEngine::~ShardEngine() { Shutdown(); }

void ShardEngine::Shutdown() {
  if (shutdown_) return;
  shutdown_ = true;
  for (auto& shard : shards_) shard->queue.Close();
  for (auto& shard : shards_) {
    if (shard->worker.joinable()) shard->worker.join();
  }
}

int ShardEngine::ShardOf(const UncertainElement& e) const {
  const int n = shards();
  if (n == 1) return 0;
  if (options_.dims >= 3) return SectorOf(e.pos, n);
  return static_cast<int>(CellGrid::HashCell(grid_.IndexOf(e.pos)) %
                          static_cast<uint64_t>(n));
}

bool ShardEngine::CurrentWorkerCommand(WorkerCommand* out) {
  const Command* cmd = worker_command_;
  if (cmd == nullptr) return false;
  out->shard = worker_shard_;
  out->has_element = false;
  out->seq = 0;
  switch (cmd->kind) {
    case Command::kInsert:
    case Command::kExpire:
      out->kind = cmd->kind == Command::kInsert ? "insert" : "expire";
      out->seq = cmd->element.seq;
      out->has_element = true;
      break;
    case Command::kMergeProbe:
      out->kind = "merge-probe";
      break;
    case Command::kDegrade:
      out->kind = "degrade";
      break;
  }
  return true;
}

void ShardEngine::Send(Shard* shard, Command cmd) {
  shard->queue.Push(std::move(cmd));
  ++shard->routed;
}

void ShardEngine::SendElement(Command::Kind kind, const UncertainElement& e) {
  Shard* shard = shards_[static_cast<size_t>(ShardOf(e))].get();
  Command cmd;
  cmd.kind = kind;
  cmd.element = e;
  Send(shard, std::move(cmd));
  ++(kind == Command::kInsert ? shard->inserted : shard->expired);
}

void ShardEngine::Insert(const UncertainElement& e) {
  PSKY_CHECK(!shutdown_);
  PSKY_CHECK(count_window_ == nullptr);
  SendElement(Command::kInsert, e);
}

void ShardEngine::Expire(const UncertainElement& e) {
  PSKY_CHECK(!shutdown_);
  PSKY_CHECK(count_window_ == nullptr);
  SendElement(Command::kExpire, e);
}

bool ShardEngine::Route(const UncertainElement& e) {
  PSKY_CHECK(!shutdown_);
  PSKY_CHECK(count_window_ != nullptr);
  if (const auto old = count_window_->Push(e)) {
    SendElement(Command::kExpire, *old);
  }
  SendElement(Command::kInsert, e);
  return true;
}

void ShardEngine::SetAuditDegradation(bool suspend_oracle,
                                      uint64_t audit_stretch) {
  PSKY_CHECK(!shutdown_);
  if (audit_stretch == 0) audit_stretch = 1;  // as SetDegradation reads it
  if (options_.audit.mode == AuditMode::kOff ||
      (suspend_oracle == suspend_oracle_ && audit_stretch == audit_stretch_)) {
    return;
  }
  suspend_oracle_ = suspend_oracle;
  audit_stretch_ = audit_stretch;
  // A slice cadence stretched past 2^32 steps never comes due either way.
  const uint64_t capped = std::min<uint64_t>(audit_stretch, UINT32_MAX);
  for (auto& shard : shards_) {
    Command cmd;
    cmd.kind = Command::kDegrade;
    cmd.suspend_oracle = suspend_oracle;
    cmd.audit_stretch = static_cast<uint32_t>(capped);
    Send(shard.get(), std::move(cmd));
  }
}

void ShardEngine::Barrier() {
  PSKY_CHECK(!shutdown_);
  ++barriers_;
  WaitApplied();
}

void ShardEngine::WaitApplied() {
  for (auto& shard : shards_) {
    // Workers park in PopBatch when drained, so poll with a short sleep
    // instead of spinning — barriers sit off the per-element hot path
    // (checkpoints, emits, shutdown).
    int spins = 0;
    while (shard->applied.load(std::memory_order_acquire) != shard->routed) {
      if (++spins < 64) {
        std::this_thread::yield();
      } else {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
    }
  }
}

void ShardEngine::WorkerLoop(int index, Shard* shard) {
  worker_shard_ = index;
  std::vector<Command> batch;
  batch.reserve(kWorkerBatch);
  while (true) {
    batch.clear();
    const size_t n = shard->queue.PopBatch(&batch, kWorkerBatch);
    if (n == 0) break;  // closed and drained
    for (const Command& cmd : batch) {
      worker_command_ = &cmd;
      ApplyCommand(shard, cmd);
    }
    worker_command_ = nullptr;
    shard->candidates.store(shard->op.candidate_count(),
                            std::memory_order_relaxed);
    if (shard->audit != nullptr) {
      shard->audit_lag.store(shard->audit->steps_since_last_audit(),
                             std::memory_order_relaxed);
    }
    shard->applied.fetch_add(n, std::memory_order_release);
  }
}

void ShardEngine::ApplyCommand(Shard* shard, const Command& cmd) {
  std::deque<UncertainElement>* audit_window = shard->audit_window.get();
  switch (cmd.kind) {
    case Command::kMergeProbe:
      ProbeMergeCandidates(shard);
      return;
    case Command::kDegrade:
      shard->audit->SetDegradation(cmd.suspend_oracle, cmd.audit_stretch);
      return;
    case Command::kExpire:
      if (audit_window != nullptr) {
        // The audit window holds this shard's substream, and windows
        // expire oldest first: the named element must be its oldest.
        PSKY_CHECK(!audit_window->empty() &&
                   audit_window->front().seq == cmd.element.seq);
        audit_window->pop_front();
      }
      shard->op.Expire(cmd.element);
      return;
    case Command::kInsert:
      if (audit_window != nullptr) audit_window->push_back(cmd.element);
      shard->op.Insert(cmd.element);
      if (shard->audit != nullptr && !shard->audit->Step()) {
        shard->audit_violations.fetch_add(1, std::memory_order_relaxed);
      }
      return;
  }
}

void ShardEngine::ProbeMergeCandidates(Shard* shard) const {
  shard->merge_sums.resize(merge_u_.size());
  const SkyTree& tree = shard->op.tree();
  for (size_t k = 0; k < merge_u_.size(); ++k) {
    const UncertainElement& a = merge_u_[k];
    shard->merge_sums[k] = tree.ExactDominators(a.pos, a.seq);
  }
}

std::vector<SkylineMember> ShardEngine::GlobalSkyline(
    size_t* candidate_count) {
  Barrier();
  const Timer timer;
  ++merges_;
  const LogSum q_sum = QuantizeLog(std::log(options_.q));

  // U = union of shard-local candidate sets, each sorted by seq.
  merge_u_.clear();
  for (const auto& shard : shards_) {
    for (const SkylineMember& m : shard->op.Candidates()) {
      merge_u_.push_back(m.element);
    }
  }
  const size_t u_size = merge_u_.size();
  merge_candidates_ += u_size;

  // Exact dominator sums over U. Every shard's store is probed for all
  // of U: shard 0's by the router itself (its worker is parked after the
  // barrier), the others' by their workers.
  Command probe;
  probe.kind = Command::kMergeProbe;
  for (size_t j = 1; j < shards_.size(); ++j) Send(shards_[j].get(), probe);
  ProbeMergeCandidates(shards_[0].get());
  WaitApplied();
  merge_probes_ += shards_.size() * u_size;

  // Each candidate's integer sums fold across shards. A candidate is in
  // S* when its full-window P_new >= q, and a q-skyline member when its
  // P_sky over the U-sums is (see file comment for why both are exact).
  std::vector<SkylineMember> out;
  size_t sstar = 0;
  for (size_t k = 0; k < u_size; ++k) {
    LogSum newer = 0;
    LogSum older = 0;
    for (const auto& shard : shards_) {
      newer += shard->merge_sums[k].newer;
      older += shard->merge_sums[k].older;
    }
    if (newer < q_sum) continue;
    ++sstar;
    const UncertainElement& a = merge_u_[k];
    const int64_t log_prob = LogProbOf(a.prob);
    if (log_prob + newer + older >= q_sum) {
      out.push_back(MakeSkylineMember(a, log_prob, newer, older, true));
    }
  }
  if (candidate_count != nullptr) *candidate_count = sstar;
  std::sort(out.begin(), out.end(),
            [](const SkylineMember& a, const SkylineMember& b) {
              return a.element.seq < b.element.seq;
            });
  merge_ns_ += static_cast<uint64_t>(timer.ElapsedNanos());
  return out;
}

std::vector<UncertainElement> ShardEngine::WindowSnapshot() const {
  PSKY_CHECK(!shutdown_);
  PSKY_CHECK(count_window_ != nullptr);
  return count_window_->Snapshot();
}

ShardEngine::Stats ShardEngine::GetStats() const {
  Stats stats;
  stats.shards.reserve(shards_.size());
  uint64_t total_window = 0;
  uint64_t max_window = 0;
  for (const auto& shard : shards_) {
    ShardStats s;
    s.routed = shard->routed;
    s.applied = shard->applied.load(std::memory_order_relaxed);
    s.inserted = shard->inserted;
    s.queue_depth = shard->queue.SizeApprox();
    s.window_elements = shard->inserted - shard->expired;
    s.candidates = shard->candidates.load(std::memory_order_relaxed);
    s.audit_lag = shard->audit_lag.load(std::memory_order_relaxed);
    s.audit_violations =
        shard->audit_violations.load(std::memory_order_relaxed);
    total_window += s.window_elements;
    max_window = std::max<uint64_t>(max_window, s.window_elements);
    stats.shards.push_back(s);
  }
  if (total_window > 0) {
    const double mean = static_cast<double>(total_window) /
                        static_cast<double>(shards_.size());
    stats.imbalance = static_cast<double>(max_window) / mean;
  }
  stats.merges = merges_;
  stats.merge_candidates = merge_candidates_;
  stats.merge_probes = merge_probes_;
  stats.merge_ns = merge_ns_;
  stats.barriers = barriers_;
  return stats;
}

AuditReport ShardEngine::AuditReportMerged() {
  AuditReport merged;
  for (const auto& shard : shards_) {
    if (shard->audit == nullptr) continue;
    const AuditReport& r = shard->audit->report();
    merged.steps_seen += r.steps_seen;
    merged.elements_audited += r.elements_audited;
    merged.max_drift = std::max(merged.max_drift, r.max_drift);
    merged.drift_beyond_tolerance += r.drift_beyond_tolerance;
    merged.repairs_applied += r.repairs_applied;
    merged.band_flips_prevented += r.band_flips_prevented;
    merged.false_evictions += r.false_evictions;
    merged.oracle_replays += r.oracle_replays;
    merged.oracle_mismatches += r.oracle_mismatches;
    merged.violations_unrepaired += r.violations_unrepaired;
  }
  return merged;
}

}  // namespace psky
