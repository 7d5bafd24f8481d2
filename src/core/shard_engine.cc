#include "core/shard_engine.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>

#include "base/check.h"
#include "base/timer.h"
#include "geom/dominance_kernel.h"

namespace psky {

bool ParseShardStrategy(const std::string& text, ShardStrategy* out) {
  if (text == "grid") {
    *out = ShardStrategy::kGrid;
    return true;
  }
  if (text == "band") {
    *out = ShardStrategy::kBand;
    return true;
  }
  return false;
}

namespace {

constexpr size_t kWorkerBatch = 256;

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
    : queue(opts.queue_capacity), op(opts.dims, opts.q, opts.tree_options) {
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
  } else if (options_.time_span > 0.0) {
    time_window_ =
        std::make_unique<TimeWindow>(options_.time_span, options_.ooo_policy);
  }
  shards_.reserve(static_cast<size_t>(options_.shards));
  for (int i = 0; i < options_.shards; ++i) {
    shards_.push_back(std::make_unique<Shard>(options_));
    Shard* shard = shards_.back().get();
    shard->worker = std::thread([this, shard] { WorkerLoop(shard); });
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
  if (options_.strategy == ShardStrategy::kBand) {
    const double p = ClampProb(e.prob);
    int band = static_cast<int>(p * n);
    if (band >= n) band = n - 1;
    return band;
  }
  return static_cast<int>(CellGrid::HashCell(grid_.IndexOf(e.pos)) %
                          static_cast<uint64_t>(n));
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
  PSKY_CHECK(count_window_ == nullptr && time_window_ == nullptr);
  SendElement(Command::kInsert, e);
}

void ShardEngine::Expire(const UncertainElement& e) {
  PSKY_CHECK(!shutdown_);
  PSKY_CHECK(count_window_ == nullptr && time_window_ == nullptr);
  SendElement(Command::kExpire, e);
}

bool ShardEngine::Route(const UncertainElement& e,
                        UncertainElement* out_admitted) {
  PSKY_CHECK(!shutdown_);
  UncertainElement admitted = e;
  if (count_window_ != nullptr) {
    if (const auto old = count_window_->Push(e)) {
      SendElement(Command::kExpire, *old);
    }
  } else {
    PSKY_CHECK(time_window_ != nullptr);
    expired_.clear();
    if (!time_window_->TryPush(&admitted, &expired_)) return false;
    for (const UncertainElement& old : expired_) {
      SendElement(Command::kExpire, old);
    }
  }
  SendElement(Command::kInsert, admitted);
  if (out_admitted != nullptr) *out_admitted = admitted;
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

void ShardEngine::WorkerLoop(Shard* shard) {
  std::vector<Command> batch;
  batch.reserve(kWorkerBatch);
  while (true) {
    batch.clear();
    const size_t n = shard->queue.PopBatch(&batch, kWorkerBatch);
    if (n == 0) break;  // closed and drained
    for (const Command& cmd : batch) ApplyCommand(shard, cmd);
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
  const double q_log = std::log(options_.q);

  // U = union of shard-local candidate sets, each sorted by seq.
  merge_u_.clear();
  for (const auto& shard : shards_) {
    for (const SkylineMember& m : shard->op.Candidates()) {
      merge_u_.push_back(m.element);
    }
  }
  const size_t u_size = merge_u_.size();
  merge_candidates_ += u_size;

  // Phase 1: exact dominator sums over U. Every shard's tree is probed
  // for all of U: shard 0's by the router itself (its worker is parked
  // after the barrier), the others' by their workers. The router then
  // folds the per-shard sums in shard-index order, so each candidate's
  // additions happen in the same order as a serial (candidate, shard)
  // loop (see file comment).
  Command probe;
  probe.kind = Command::kMergeProbe;
  for (size_t j = 1; j < shards_.size(); ++j) Send(shards_[j].get(), probe);
  ProbeMergeCandidates(shards_[0].get());
  WaitApplied();
  std::vector<SkyTree::DominatorSums> sums(u_size);
  for (const auto& shard : shards_) {
    for (size_t k = 0; k < u_size; ++k) {
      // order-sensitive: shard-index order per candidate; the
      // bit-identity contract of the merge rests on it.
      sums[k].newer_log += shard->merge_sums[k].newer_log;
      // order-sensitive: same fold order as newer_log above.
      sums[k].older_log += shard->merge_sums[k].older_log;
    }
  }
  merge_probes_ += shards_.size() * u_size;

  // S* membership: full-window P_new >= q (see file comment for why the
  // U-sum equals the full-window sum exactly for true members). The
  // rejected U \ S* members are packed, in U order, into dim-major blocks
  // for the dominance kernel, with their seq and log(1 - P) factor.
  const int dims = options_.dims;
  constexpr int kBlock = kDominanceKernelMaxBlock;
  const size_t block_size = static_cast<size_t>(dims) * kBlock;
  std::vector<double> block_coords;
  std::vector<uint64_t> rejected_seq;
  std::vector<double> rejected_factor;
  for (size_t k = 0; k < u_size; ++k) {
    if (sums[k].newer_log >= q_log) continue;
    const UncertainElement& e = merge_u_[k];
    const size_t r = rejected_seq.size();
    if (r % kBlock == 0) block_coords.resize(block_coords.size() + block_size);
    double* block = block_coords.data() + (r / kBlock) * block_size;
    for (int d = 0; d < dims; ++d) {
      block[static_cast<size_t>(d) * kBlock + r % kBlock] = e.pos[d];
    }
    rejected_seq.push_back(e.seq);
    rejected_factor.push_back(LogOneMinusProb(e.prob));
  }
  const size_t num_rejected = rejected_seq.size();
  const size_t num_blocks = block_coords.size() / block_size;
  if (candidate_count != nullptr) *candidate_count = u_size - num_rejected;

  // Phase 2: restrict the sums to S* by removing the factors of
  // U \ S* dominators, then decide membership on restricted P_sky.
  // Blocks are taken in order and mask bits walked ascending, so the
  // subtractions happen in rejected-list order.
  std::vector<SkylineMember> out;
  uint64_t dominators[kDominanceKernelMaskWords];
  uint64_t dominated[kDominanceKernelMaskWords];
  for (size_t k = 0; k < u_size; ++k) {
    if (!(sums[k].newer_log >= q_log)) continue;
    const UncertainElement& a = merge_u_[k];
    double newer_log = sums[k].newer_log;
    double older_log = sums[k].older_log;
    for (size_t b = 0; b < num_blocks; ++b) {
      const size_t left = num_rejected - b * kBlock;
      const int n = left < kBlock ? static_cast<int>(left) : kBlock;
      DominanceBlockCompare(a.pos.data(), dims,
                            block_coords.data() + b * block_size, kBlock, n,
                            dominators, dominated);
      for (int w = 0; w < (n + 63) / 64; ++w) {
        for (uint64_t bits = dominators[w]; bits != 0; bits &= bits - 1) {
          const size_t r = b * kBlock + static_cast<size_t>(w) * 64 +
                           static_cast<size_t>(std::countr_zero(bits));
          if (rejected_seq[r] > a.seq) {
            // order-sensitive: rejected-list order, as the serial loop.
            newer_log -= rejected_factor[r];
          } else {
            // order-sensitive: rejected-list order, as the serial loop.
            older_log -= rejected_factor[r];
          }
        }
      }
    }
    const double prob_log = std::log(a.prob);
    const double psky_log = prob_log + newer_log + older_log;
    if (psky_log >= q_log) {
      SkylineMember m;
      m.element = a;
      m.pnew = std::exp(newer_log);
      m.pold = std::exp(older_log);
      m.psky = std::exp(psky_log);
      m.in_skyline = true;
      out.push_back(m);
    }
  }
  std::sort(out.begin(), out.end(),
            [](const SkylineMember& a, const SkylineMember& b) {
              return a.element.seq < b.element.seq;
            });
  merge_ns_ += static_cast<uint64_t>(timer.ElapsedNanos());
  return out;
}

std::vector<UncertainElement> ShardEngine::WindowSnapshot() const {
  PSKY_CHECK(!shutdown_);
  if (count_window_ != nullptr) return count_window_->Snapshot();
  PSKY_CHECK(time_window_ != nullptr);
  return time_window_->Snapshot();
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
