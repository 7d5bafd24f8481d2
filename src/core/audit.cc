#include "core/audit.h"

#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <utility>

#include "core/naive_operator.h"
#include "geom/dominance_kernel.h"

namespace psky {

namespace {

std::vector<uint64_t> SkylineSeqs(const std::vector<SkylineMember>& members) {
  std::vector<uint64_t> seqs;
  seqs.reserve(members.size());
  for (const SkylineMember& m : members) seqs.push_back(m.element.seq);
  return seqs;  // Skyline() is already seq-sorted in both operators
}

}  // namespace

AuditManager::AuditManager(SskyOperator* op, AuditOptions options,
                           WindowStream window)
    : op_(op),
      options_(options),
      window_(std::move(window)),
      settle_bound_(QuantizeLog(std::log(op->threshold())) +
                    QuantizeLog(options.tolerance)) {}

void AuditManager::AuditBatch(const std::vector<Target>& targets) {
  if (targets.empty()) return;
  // Exact P_new from first principles: every dominator that arrived after
  // a target is still in the window (windows expire oldest-first), so the
  // sum of the newer window dominators' terms *is* the true P_new — no
  // stored sum consulted. One oldest→newest pass accumulates every
  // target's sum, so a slice of k elements costs one pass over the
  // window, not k, and the pass starts just past the oldest target: no
  // earlier position is newer than any of them.
  //
  // The pass packs positions into dim-major blocks (the candidate
  // store's layout) and tests each target against a whole block with the
  // dominance kernel. A block position's term is computed once, if it
  // dominates any target. The terms are the store's quantized integers,
  // so a target's sum is exact and in no particular order.
  //
  // A target the store no longer holds needs only its verdict: a false
  // eviction iff its exact P_new >= the settle bound (AuditElement).
  // Every later term is negative, so once its partial sum is below that
  // bound the verdict is "sound". After each block such a target settles:
  // the kernel skips it, and the pass ends when only settled targets
  // remain (audit.h gives the expected cost). A held target never
  // settles: its sum is the full scan.
  constexpr int kBlock = kDominanceKernelMaxBlock;
  constexpr int kWords = kDominanceKernelMaskWords;
  const int dims = op_->dims();
  uint64_t oldest = targets.front().index;
  for (const Target& t : targets) oldest = std::min(oldest, t.index);
  const uint64_t n = window_.size();
  std::vector<double> coords(static_cast<size_t>(dims) * kBlock);
  double prob[kBlock];
  int64_t term[kBlock];
  std::vector<uint64_t> masks(targets.size() * kWords);
  std::vector<LogSum> exact_pnew(targets.size(), 0);
  std::vector<char> settled(targets.size(), 0);
  size_t unsettled = targets.size();
  for (uint64_t start = oldest + 1; start < n && unsettled > 0;
       start += kBlock) {
    const int count = static_cast<int>(std::min<uint64_t>(kBlock, n - start));
    const int words = (count + 63) / 64;
    for (int r = 0; r < count; ++r) {
      const UncertainElement w = window_.at(start + static_cast<uint64_t>(r));
      for (int d = 0; d < dims; ++d) {
        coords[static_cast<size_t>(d) * kBlock + static_cast<size_t>(r)] =
            w.pos[d];
      }
      prob[r] = w.prob;
    }
    uint64_t any[kWords] = {};
    for (size_t t = 0; t < targets.size(); ++t) {
      uint64_t* mask = &masks[t * kWords];
      // Block positions at or before the target are not newer than it.
      const uint64_t not_newer =
          targets[t].index < start ? 0 : targets[t].index - start + 1;
      if (settled[t] != 0 || not_newer >= static_cast<uint64_t>(count)) {
        std::fill(mask, mask + words, uint64_t{0});
        continue;
      }
      uint64_t dominated[kWords];
      DominanceBlockCompare(targets[t].element.pos.data(), dims,
                            coords.data(), kBlock, count, mask, dominated);
      for (int wd = 0; wd < words && not_newer > 64u * wd; ++wd) {
        const uint64_t cut = not_newer - 64u * wd;
        mask[wd] &= cut >= 64 ? 0 : ~uint64_t{0} << cut;
      }
      for (int wd = 0; wd < words; ++wd) any[wd] |= mask[wd];
    }
    // All terms first, then the sums: the log1p calls run back to back
    // instead of inside each target's chain of additions.
    for (int wd = 0; wd < words; ++wd) {
      for (uint64_t bits = any[wd]; bits != 0; bits &= bits - 1) {
        const int r = wd * 64 + std::countr_zero(bits);
        term[r] = LogTermOf(ClampProb(prob[r]));
      }
    }
    for (size_t t = 0; t < targets.size(); ++t) {
      const uint64_t* mask = &masks[t * kWords];
      for (int wd = 0; wd < words; ++wd) {
        for (uint64_t bits = mask[wd]; bits != 0; bits &= bits - 1) {
          exact_pnew[t] += term[wd * 64 + std::countr_zero(bits)];
        }
      }
      if (settled[t] == 0 && !targets[t].held &&
          exact_pnew[t] < settle_bound_) {
        settled[t] = 1;
        --unsettled;
      }
    }
  }
  // P_new is a function of raw window contents only, so repairs applied
  // while draining the batch cannot invalidate the accumulated sums.
  for (size_t t = 0; t < targets.size(); ++t) {
    AuditElement(targets[t].element, exact_pnew[t]);
  }
}

void AuditManager::AuditElement(const UncertainElement& e, LogSum exact_pnew) {
  ++report_.elements_audited;
  const SkyTree* tree = &op_->tree();
  const SkyTree::AuditView view = tree->LookupForAudit(e.pos, e.seq);
  if (!view.found) {
    // Evicted from S_{N,q}. Eviction is sound iff exact P_new sits below
    // the retention threshold; newer dominators only shrink P_new, so a
    // correct eviction can never look wrong later. The tolerance margin
    // keeps a planted or real defect within it from flagging.
    if (exact_pnew >= settle_bound_) {
      ++report_.false_evictions;
      ++report_.violations_unrepaired;
    }
    return;
  }

  // Exact P_old: the combined dominator sum over the live candidate set
  // fixes P_sky, and P_old is the remainder after the window-exact P_new
  // (eviction compensation is booked against P_old, paper Lemma 2). For
  // a live element every newer window dominator is live, so this is the
  // older dominators' sum, exactly.
  const SkyTree::DominatorSums sums = tree->ExactDominators(e.pos, e.seq);
  const LogSum exact_total = sums.newer + sums.older;
  const LogSum exact_pold = exact_total - exact_pnew;

  const auto distance = [](LogSum a, LogSum b) {
    return LogSumToDouble(a > b ? a - b : b - a);
  };
  const double drift_new = distance(view.pnew, exact_pnew);
  const double drift_old = distance(view.pold, exact_pold);
  report_.max_drift = std::max({report_.max_drift, drift_new, drift_old});

  const LogSum exact_psky = LogProbOf(ClampProb(e.prob)) + exact_total;
  const int exact_band = tree->BandOf(exact_psky);
  const bool drifted =
      drift_new > options_.tolerance || drift_old > options_.tolerance;
  const bool band_wrong = exact_band != view.band;
  if (drifted) ++report_.drift_beyond_tolerance;
  if (!drifted && !band_wrong) return;

  if (options_.mode != AuditMode::kRepair) {
    ++report_.violations_unrepaired;
    return;
  }
  const SkyTree::RepairOutcome outcome =
      op_->mutable_tree()->RepairElement(e.pos, e.seq, exact_pnew, exact_pold);
  ++report_.repairs_applied;
  if (outcome.found && outcome.old_band != outcome.new_band) {
    ++report_.band_flips_prevented;
  }
}

AuditManager::Target AuditManager::TargetAt(uint64_t index) const {
  const UncertainElement e = window_.at(index);
  const bool held = op_->tree().Contains(e.pos, e.seq);
  return Target{index, e, held};
}

void AuditManager::RunSliceAudit() {
  const uint64_t n = window_.size();
  if (n == 0) return;
  std::vector<Target> targets;
  targets.reserve(static_cast<size_t>(options_.elements_per_audit));
  for (int k = 0; k < options_.elements_per_audit; ++k) {
    targets.push_back(TargetAt(cursor_ % n));
    ++cursor_;
  }
  AuditBatch(targets);
}

uint64_t AuditManager::AuditAll() {
  const uint64_t before = report_.violations_unrepaired;
  // Batched full sweep: bounded target memory per scan regardless of
  // window size. Held and evicted targets fill separate batches, so an
  // evicted batch ends once its targets settle (AuditBatch) and only the
  // held batches scan to the window end. Held targets keep their window
  // order, so repairs run in the order of a sweep of mixed batches; an
  // evicted target's audit changes nothing in the tree, so when it runs
  // does not matter.
  constexpr size_t kBatch = 256;
  const uint64_t n = window_.size();
  std::vector<Target> batches[2];  // [held]
  for (uint64_t idx = 0; idx < n; ++idx) {
    const Target t = TargetAt(idx);
    std::vector<Target>& batch = batches[t.held ? 1 : 0];
    batch.push_back(t);
    if (batch.size() == kBatch) {
      AuditBatch(batch);
      batch.clear();
    }
  }
  for (const std::vector<Target>& batch : batches) AuditBatch(batch);
  return report_.violations_unrepaired - before;
}

bool AuditManager::RunOracleCheck() {
  ++report_.oracle_replays;
  NaiveSkylineOperator oracle(op_->dims(), op_->threshold());
  window_.scan([&](const UncertainElement& e) { oracle.Insert(e); });
  const std::vector<uint64_t> want = SkylineSeqs(oracle.Skyline());
  if (SkylineSeqs(op_->Skyline()) == want) return true;

  // Escalate: a q-skyline disagreement means some candidate's band is
  // wrong. Renormalize everything and re-compare; only a disagreement that
  // survives an exact sweep is a genuine (unrepairable) violation.
  if (options_.mode == AuditMode::kRepair) {
    AuditAll();
    if (SkylineSeqs(op_->Skyline()) == want) return true;
  }
  ++report_.oracle_mismatches;
  ++report_.violations_unrepaired;
  return false;
}

bool AuditManager::Step() {
  ++report_.steps_seen;
  if (options_.mode == AuditMode::kOff) return true;
  const uint64_t before = report_.violations_unrepaired;
  // The degradation ladder stretches the slice cadence multiplicatively;
  // stretch 1 is the configured behavior.
  const uint64_t effective_every = options_.audit_every * audit_stretch_;
  if (options_.audit_every > 0 && report_.steps_seen % effective_every == 0) {
    RunSliceAudit();
    last_slice_audit_step_ = report_.steps_seen;
  }
  if (!suspend_oracle_ && options_.oracle_every > 0 &&
      report_.steps_seen % options_.oracle_every == 0) {
    RunOracleCheck();
  }
  return report_.violations_unrepaired == before;
}

// ---------------------------------------------------------------------------
// Crash quarantine.
// ---------------------------------------------------------------------------

std::string QuarantineFileName(uint64_t elements_consumed, uint64_t dump_seq) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "quarantine-%020llu-%03llu.psky",
                static_cast<unsigned long long>(elements_consumed),
                static_cast<unsigned long long>(dump_seq));
  return buf;
}

bool WriteQuarantineNote(const std::string& path, const std::string& reason,
                         const AuditReport& report, std::string* error) {
  // Quarantine I/O runs on the one dying thread; nothing else calls
  // strerror concurrently.
  auto fail = [error](const std::string& what, int err) {
    // NOLINTNEXTLINE(concurrency-mt-unsafe)
    *error = what + ": " + std::strerror(err != 0 ? err : EIO);
    return false;
  };
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "w");
  if (f == nullptr) return fail("cannot open " + tmp, errno);
  const AuditReport& r = report;
  auto u = [](uint64_t v) { return static_cast<unsigned long long>(v); };
  std::fprintf(f,
               "reason=%s\nsteps_seen=%llu\nelements_audited=%llu\n"
               "max_drift=%.17g\ndrift_beyond_tolerance=%llu\n"
               "repairs_applied=%llu\nband_flips_prevented=%llu\n"
               "false_evictions=%llu\noracle_replays=%llu\n"
               "oracle_mismatches=%llu\nviolations_unrepaired=%llu\n",
               reason.c_str(), u(r.steps_seen), u(r.elements_audited),
               r.max_drift, u(r.drift_beyond_tolerance),
               u(r.repairs_applied), u(r.band_flips_prevented),
               u(r.false_evictions), u(r.oracle_replays),
               u(r.oracle_mismatches), u(r.violations_unrepaired));
  errno = 0;
  bool written =
      std::fflush(f) == 0 && std::ferror(f) == 0 && fsync(fileno(f)) == 0;
  int err = errno;
  if (std::fclose(f) != 0 && written) {
    written = false;
    err = errno;
  }
  if (!written) return fail("cannot write " + tmp, err);
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    return fail("cannot rename " + tmp + " to " + path, errno);
  }
  return true;
}

bool QuarantineGovernor::Admit(uint64_t step, uint64_t* seq_out) {
  // A failure while the window since the last admitted dump is still open
  // belongs to that dump's burst. Out-of-order steps (never expected on
  // the crash path) conservatively start a new burst.
  if (dumps_admitted_ > 0 && step >= last_dump_step_ &&
      step - last_dump_step_ < options_.burst_window_steps) {
    ++dumps_suppressed_;
    return false;
  }
  last_dump_step_ = step;
  ++dumps_admitted_;
  if (seq_out != nullptr) *seq_out = dumps_admitted_;
  return true;
}

}  // namespace psky
