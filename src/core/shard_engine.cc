#include "core/shard_engine.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <limits>

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

}  // namespace

ShardEngine::Shard::Shard(const Options& opts)
    : queue(opts.queue_capacity), op(opts.dims, opts.q, opts.tree_options) {}

ShardEngine::ShardEngine(const Options& options)
    : options_(options),
      grid_(options.dims, CellGrid::ChooseResolution(options.dims)),
      watermark_(-std::numeric_limits<double>::infinity()) {
  PSKY_CHECK(options_.shards >= 1 && options_.shards <= 255);
  PSKY_CHECK(options_.window_capacity > 0 || options_.time_span > 0.0);
  PSKY_CHECK(options_.audit.pool == nullptr);
  shards_.reserve(static_cast<size_t>(options_.shards));
  for (int i = 0; i < options_.shards; ++i) {
    shards_.push_back(std::make_unique<Shard>(options_));
    Shard* shard = shards_.back().get();
    if (options_.audit.mode != AuditMode::kOff) {
      AuditManager::WindowStream fifo;
      fifo.size = [shard] { return static_cast<uint64_t>(shard->fifo.size()); };
      fifo.at = [shard](uint64_t idx) { return shard->fifo[idx]; };
      fifo.scan = [shard](const auto& visit) {
        for (const UncertainElement& e : shard->fifo) visit(e);
      };
      shard->audit = std::make_unique<AuditManager>(&shard->op, options_.audit,
                                                    std::move(fifo));
    }
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

void ShardEngine::SendExpireOldest(uint8_t shard) {
  Command cmd;
  cmd.kind = Command::kExpireOldest;
  Send(shards_[shard].get(), std::move(cmd));
}

void ShardEngine::SendInsert(const UncertainElement& e, uint8_t shard) {
  Command cmd;
  cmd.kind = Command::kInsert;
  cmd.element = e;
  Send(shards_[shard].get(), std::move(cmd));
  ++shards_[shard]->inserted;
}

bool ShardEngine::Route(const UncertainElement& e,
                        UncertainElement* out_admitted) {
  PSKY_CHECK(!shutdown_);
  if (options_.window_capacity > 0) {
    // CountWindow::Push semantics: overflow expires exactly the oldest.
    if (ring_.size() == options_.window_capacity) {
      SendExpireOldest(ring_.front().shard);
      ring_.pop_front();
    }
    const uint8_t owner = static_cast<uint8_t>(ShardOf(e));
    ring_.push_back(RingEntry{e.time, owner});
    SendInsert(e, owner);
    if (out_admitted != nullptr) *out_admitted = e;
    return true;
  }
  // TimeWindow::TryPush semantics, replicated exactly (stream/window.cc).
  UncertainElement admitted = e;
  if (admitted.time < watermark_) {
    if (options_.ooo_policy == TimestampPolicy::kReject) {
      ++rejected_;
      return false;
    }
    admitted.time = watermark_;
    ++clamped_;
  }
  watermark_ = admitted.time;
  const double cutoff = admitted.time - options_.time_span;
  while (!ring_.empty() && ring_.front().time <= cutoff) {
    SendExpireOldest(ring_.front().shard);
    ring_.pop_front();
  }
  const uint8_t owner = static_cast<uint8_t>(ShardOf(admitted));
  ring_.push_back(RingEntry{admitted.time, owner});
  SendInsert(admitted, owner);
  if (out_admitted != nullptr) *out_admitted = admitted;
  return true;
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
    shard->window_elements.store(shard->fifo.size(),
                                 std::memory_order_relaxed);
    shard->candidates.store(shard->op.candidate_count(),
                            std::memory_order_relaxed);
    shard->applied.fetch_add(n, std::memory_order_release);
  }
  if (shard->audit != nullptr) shard->audit->Drain();
}

void ShardEngine::ApplyCommand(Shard* shard, const Command& cmd) {
  if (cmd.kind == Command::kMergeProbe) {
    ProbeMergeCandidates(shard);
    return;
  }
  if (cmd.kind == Command::kExpireOldest) {
    PSKY_CHECK(!shard->fifo.empty());
    const UncertainElement oldest = shard->fifo.front();
    shard->fifo.pop_front();
    shard->op.Expire(oldest);
    return;
  }
  shard->fifo.push_back(cmd.element);
  shard->op.Insert(cmd.element);
  if (shard->audit != nullptr && !shard->audit->Step()) {
    shard->audit_violations.fetch_add(1, std::memory_order_relaxed);
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

std::vector<UncertainElement> ShardEngine::WindowSnapshot() {
  Barrier();
  // K-way merge of the shard FIFOs by arrival sequence. Each FIFO is
  // already seq-sorted (commands arrive in global order), so a linear
  // merge reconstructs the exact sequential window.
  std::vector<UncertainElement> out;
  out.reserve(ring_.size());
  std::vector<size_t> cursor(static_cast<size_t>(shards()), 0);
  while (true) {
    int best = -1;
    uint64_t best_seq = 0;
    for (int i = 0; i < shards(); ++i) {
      const auto& fifo = shards_[static_cast<size_t>(i)]->fifo;
      const size_t c = cursor[static_cast<size_t>(i)];
      if (c >= fifo.size()) continue;
      if (best < 0 || fifo[c].seq < best_seq) {
        best = i;
        best_seq = fifo[c].seq;
      }
    }
    if (best < 0) break;
    out.push_back(
        shards_[static_cast<size_t>(best)]->fifo[cursor[static_cast<size_t>(
            best)]++]);
  }
  PSKY_CHECK(out.size() == ring_.size());
  return out;
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
    s.window_elements =
        shard->window_elements.load(std::memory_order_relaxed);
    s.candidates = shard->candidates.load(std::memory_order_relaxed);
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
    shard->audit->Drain();
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
