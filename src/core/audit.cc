#include "core/audit.h"

#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <utility>

#include "base/build_info.h"
#include "base/crc32.h"
#include "base/fault_injection.h"
#include "base/wire.h"
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
      q_log_(std::log(op->threshold())) {}

void AuditManager::AuditBatch(const std::vector<Target>& targets) {
  if (targets.empty()) return;
  // Exact P_new from first principles: every dominator that arrived after
  // a target is still in the window (windows expire oldest-first), so the
  // sum over newer window dominators *is* the true accumulated P_new — no
  // lazy state consulted. One oldest→newest pass accumulates every
  // target's sum, so a slice of k elements costs one pass over the
  // window, not k, and the pass starts just past the oldest target: no
  // earlier position is newer than any of them.
  //
  // The pass packs positions into dim-major blocks (the sky-tree leaves'
  // layout) and tests each target against a whole block with the
  // dominance kernel. A block position's log(1 - P) factor is computed
  // once, if it dominates any target. Mask bits are walked ascending and
  // blocks are taken oldest first, so each target's sum receives the
  // same terms in the same order as a per-element scan: the sums, and
  // every drift and repair derived from them, are bit-identical to it.
  //
  // A target the tree no longer holds needs only its verdict: a false
  // eviction iff its exact P_new >= q_log_ + tolerance (AuditElement).
  // Every later term log1p(-P) is <= 0, and adding a term <= 0 can only
  // round the sum down, so once its partial sum is below that bound the
  // verdict is "sound". After each block such a target settles: the
  // kernel skips it, and the pass ends when only settled targets remain
  // (audit.h gives the expected cost). A held target never settles: its
  // sum is the full scan.
  constexpr int kBlock = kDominanceKernelMaxBlock;
  constexpr int kWords = kDominanceKernelMaskWords;
  const int dims = op_->dims();
  const double settle_below = q_log_ + options_.tolerance;
  uint64_t oldest = targets.front().index;
  for (const Target& t : targets) oldest = std::min(oldest, t.index);
  const uint64_t n = window_.size();
  std::vector<double> coords(static_cast<size_t>(dims) * kBlock);
  double prob[kBlock];
  double factor[kBlock];
  std::vector<uint64_t> masks(targets.size() * kWords);
  std::vector<double> exact_pnew(targets.size(), 0.0);
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
    // All factors first, then the sums: the log1p calls run back to back
    // instead of inside each target's dependent chain of additions.
    for (int wd = 0; wd < words; ++wd) {
      for (uint64_t bits = any[wd]; bits != 0; bits &= bits - 1) {
        const int r = wd * 64 + std::countr_zero(bits);
        factor[r] = LogOneMinusProb(ClampProb(prob[r]));
      }
    }
    for (size_t t = 0; t < targets.size(); ++t) {
      const uint64_t* mask = &masks[t * kWords];
      for (int wd = 0; wd < words; ++wd) {
        for (uint64_t bits = mask[wd]; bits != 0; bits &= bits - 1) {
          // order-sensitive: oldest-first window order, as a scalar scan.
          exact_pnew[t] += factor[wd * 64 + std::countr_zero(bits)];
        }
      }
      if (settled[t] == 0 && !targets[t].held &&
          exact_pnew[t] < settle_below) {
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

void AuditManager::AuditElement(const UncertainElement& e, double exact_pnew) {
  ++report_.elements_audited;
  const SkyTree* tree = &op_->tree();
  const SkyTree::AuditView view = tree->LookupForAudit(e.pos, e.seq);
  if (!view.found) {
    // Evicted from S_{N,q}. Eviction is sound iff exact P_new sits below
    // the retention threshold; newer dominators only shrink P_new, so a
    // correct eviction can never look wrong later. The tolerance margin
    // keeps honest boundary rounding from flagging.
    if (exact_pnew >= q_log_ + options_.tolerance) {
      ++report_.false_evictions;
      ++report_.violations_unrepaired;
    }
    return;
  }

  // Exact P_old: the combined dominator sum over the live candidate set
  // fixes P_sky, and P_old is the remainder after the window-exact P_new
  // (eviction compensation is booked against P_old, paper Lemma 2).
  const SkyTree::DominatorSums sums = tree->ExactDominators(e.pos, e.seq);
  const double exact_total = sums.newer_log + sums.older_log;
  const double exact_pold = exact_total - exact_pnew;

  const double drift_new = std::abs(view.pnew_log - exact_pnew);
  const double drift_old = std::abs(view.pold_log - exact_pold);
  report_.max_drift = std::max({report_.max_drift, drift_new, drift_old});

  const double exact_psky = std::log(ClampProb(e.prob)) + exact_total;
  const int exact_band = tree->BandOfLog(exact_psky);
  const bool drifted =
      drift_new > options_.tolerance || drift_old > options_.tolerance;
  const bool band_wrong = exact_band != view.band;
  if (drifted) ++report_.drift_beyond_tolerance;
  if (!drifted && !band_wrong) return;

  if (options_.mode != AuditMode::kRepair) {
    ++report_.violations_unrepaired;
    return;
  }
  // A live element has no evicted newer dominator (that dominator's own
  // newer dominators dominate the element too, so it would have been
  // evicted first): its true P_old is the product over older candidate
  // dominators, <= 0 in the log domain. The difference above sums the
  // newer dominators in two orders and can round a zero P_old a few ulps
  // positive, which RepairElement rejects.
  const SkyTree::RepairOutcome outcome = op_->mutable_tree()->RepairElement(
      e.pos, e.seq, exact_pnew, std::min(exact_pold, 0.0));
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

namespace {

constexpr char kQuarantineMagic[8] = {'P', 'S', 'K', 'Y', 'Q', 'R', 'T', 'N'};
constexpr uint32_t kQuarantineVersion = 1;
constexpr size_t kQuarantineHeaderSize = 24;
constexpr uint64_t kMaxQuarantineString = 1 << 20;

std::string EncodeQuarantine(const QuarantineDump& dump) {
  std::string payload;
  wire::AppendString(&payload, dump.producer.empty() ? BuildInfoString()
                                                     : dump.producer);
  wire::AppendString(&payload, dump.reason);
  const AuditReport& r = dump.report;
  wire::AppendU64(&payload, r.steps_seen);
  wire::AppendU64(&payload, r.elements_audited);
  wire::AppendF64(&payload, r.max_drift);
  wire::AppendU64(&payload, r.drift_beyond_tolerance);
  wire::AppendU64(&payload, r.repairs_applied);
  wire::AppendU64(&payload, r.band_flips_prevented);
  wire::AppendU64(&payload, r.false_evictions);
  wire::AppendU64(&payload, r.oracle_replays);
  wire::AppendU64(&payload, r.oracle_mismatches);
  wire::AppendU64(&payload, r.violations_unrepaired);
  // The window state rides along as a complete embedded checkpoint, so
  // post-mortem tooling can replay it with the ordinary restore path.
  const std::string checkpoint = EncodeCheckpoint(dump.state);
  wire::AppendU64(&payload, checkpoint.size());
  payload += checkpoint;

  std::string out;
  out.reserve(kQuarantineHeaderSize + payload.size());
  out.append(kQuarantineMagic, sizeof kQuarantineMagic);
  wire::AppendU32(&out, kQuarantineVersion);
  wire::AppendU32(&out, Crc32(payload.data(), payload.size()));
  wire::AppendU64(&out, payload.size());
  out += payload;
  return out;
}

bool FailQ(std::string* error, const std::string& msg) {
  if (error != nullptr) *error = msg;
  return false;
}

// strerror's static buffer is not thread-safe in general, but quarantine
// IO runs entirely on the caller's thread and nothing else in this
// process calls strerror concurrently.
std::string ErrnoString() {
  return std::strerror(errno);  // NOLINT(concurrency-mt-unsafe)
}

bool DecodeQuarantine(std::string_view bytes, QuarantineDump* out,
                      std::string* error) {
  if (bytes.size() < kQuarantineHeaderSize) {
    return FailQ(error, "quarantine file truncated in header");
  }
  if (std::memcmp(bytes.data(), kQuarantineMagic, sizeof kQuarantineMagic) !=
      0) {
    return FailQ(error, "bad quarantine magic (not a quarantine file?)");
  }
  wire::Cursor header(bytes.substr(sizeof kQuarantineMagic));
  uint32_t version = 0, crc = 0;
  uint64_t payload_size = 0;
  header.ReadU32(&version);
  header.ReadU32(&crc);
  header.ReadU64(&payload_size);
  if (version != kQuarantineVersion) {
    return FailQ(error, "unsupported quarantine version " +
                            std::to_string(version));
  }
  const std::string_view payload = bytes.substr(kQuarantineHeaderSize);
  if (payload.size() != payload_size) {
    return FailQ(error, "quarantine payload size mismatch");
  }
  if (Crc32(payload.data(), payload.size()) != crc) {
    return FailQ(error, "quarantine CRC mismatch (corrupted payload)");
  }

  QuarantineDump dump;
  wire::Cursor c(payload);
  uint64_t checkpoint_size = 0;
  AuditReport& r = dump.report;
  if (!c.ReadString(&dump.producer, kMaxQuarantineString) ||
      !c.ReadString(&dump.reason, kMaxQuarantineString) ||
      !c.ReadU64(&r.steps_seen) || !c.ReadU64(&r.elements_audited) ||
      !c.ReadF64(&r.max_drift) || !c.ReadU64(&r.drift_beyond_tolerance) ||
      !c.ReadU64(&r.repairs_applied) || !c.ReadU64(&r.band_flips_prevented) ||
      !c.ReadU64(&r.false_evictions) || !c.ReadU64(&r.oracle_replays) ||
      !c.ReadU64(&r.oracle_mismatches) ||
      !c.ReadU64(&r.violations_unrepaired) || !c.ReadU64(&checkpoint_size)) {
    return FailQ(error, "quarantine payload truncated in fixed fields");
  }
  std::string checkpoint;
  if (!c.ReadBytes(&checkpoint, checkpoint_size) || c.remaining() != 0) {
    return FailQ(error, "quarantine embedded checkpoint size mismatch");
  }
  std::string ckpt_error;
  if (!DecodeCheckpoint(checkpoint, &dump.state, &ckpt_error)) {
    return FailQ(error, "quarantine embedded checkpoint: " + ckpt_error);
  }
  *out = std::move(dump);
  return true;
}

}  // namespace

std::string QuarantineFileName(uint64_t elements_consumed) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "quarantine-%020llu.pskyq",
                static_cast<unsigned long long>(elements_consumed));
  return buf;
}

std::string QuarantineFileName(uint64_t elements_consumed, uint64_t dump_seq) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "quarantine-%020llu-%03llu.pskyq",
                static_cast<unsigned long long>(elements_consumed),
                static_cast<unsigned long long>(dump_seq));
  return buf;
}

bool WriteQuarantineFile(const std::string& path, const QuarantineDump& dump,
                         std::string* error) {
  return WriteQuarantineFile(path, dump, error, nullptr);
}

bool WriteQuarantineFile(const std::string& path, const QuarantineDump& dump,
                         std::string* error, int* out_errno) {
  if (out_errno != nullptr) *out_errno = 0;
  auto fail_io = [error, out_errno](int err, const std::string& msg) {
    if (out_errno != nullptr) *out_errno = err;
    return FailQ(error, msg);
  };
  const std::string bytes = EncodeQuarantine(dump);
  const std::string tmp = path + ".tmp";
  if (fault::Enabled()) {
    if (const int inj = fault::FailErrno(fault::Site::kQuarantineWrite)) {
      return fail_io(inj, "cannot write " + tmp + ": " +
                              std::string(std::strerror(inj)) +  // NOLINT(concurrency-mt-unsafe)
                              " (injected)");
    }
  }
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    return fail_io(errno, "cannot open " + tmp + ": " + ErrnoString());
  }
  errno = 0;
  if (std::fwrite(bytes.data(), 1, bytes.size(), f) != bytes.size()) {
    const int err = errno != 0 ? errno : EIO;
    std::fclose(f);
    return fail_io(err, "short write to " + tmp);
  }
  if (std::fflush(f) != 0 || fsync(fileno(f)) != 0) {
    const int err = errno;
    std::fclose(f);
    return fail_io(err, "cannot flush " + tmp + ": " + ErrnoString());
  }
  std::fclose(f);
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    return fail_io(errno, "cannot rename " + tmp + " to " + path + ": " +
                              ErrnoString());
  }
  return true;
}

bool WriteQuarantineFileRetry(const std::string& path,
                              const QuarantineDump& dump,
                              const RetryPolicy& policy, RetryStats* stats,
                              std::string* error) {
  std::string last_error;
  const bool ok = RetryWithBackoff(
      policy,
      [&](int* err) {
        return WriteQuarantineFile(path, dump, &last_error, err);
      },
      stats);
  if (!ok && error != nullptr) *error = last_error;
  return ok;
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

bool ReadQuarantineFile(const std::string& path, QuarantineDump* out,
                        std::string* error) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return FailQ(error, "cannot open " + path + ": " + ErrnoString());
  }
  std::string bytes;
  char buf[1 << 16];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) bytes.append(buf, n);
  const bool read_error = std::ferror(f) != 0;
  std::fclose(f);
  if (read_error) return FailQ(error, "cannot read " + path);
  std::string decode_error;
  if (!DecodeQuarantine(bytes, out, &decode_error)) {
    return FailQ(error, path + ": " + decode_error);
  }
  return true;
}

}  // namespace psky
