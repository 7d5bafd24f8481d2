// The candidate store of the SSKY family: S_{N,q} as one flat,
// arrival-ordered array scanned with the block dominance kernel.
//
// The paper keeps S_{N,q} in an aggregate R-tree (Section IV) so that a
// step visits "far fewer than |S_{N,q}|" entries. On this system's
// streams a tree step touched most of S anyway (0.89 of |S| at N = 50K,
// 0.68 at 1M) and paid for nodes, lazy addends and bounds on top, so the
// store is one level deep (docs/algorithm.md section 3):
//
//   * Slots are in arrival order, which is seq order. Coordinates are
//     dim-major per 256-slot block, the layout DominanceBlockCompare
//     scans; a bitset marks the live slots. A dead slot stays in place
//     until 1/8 of the slots are dead, then a compaction that keeps the
//     order drops them all.
//   * Every probability is an exact integer sum of quantized terms
//     (operator.h, LogSum): P_new(e) sums the terms log(1 - P) of the
//     newer candidates dominating e, P_old(e) those of the older ones.
//     A departing dominator's term is subtracted back out exactly.
//   * Each block keeps the exact sum of its live slots' terms and a min
//     and max corner over its slots since the last compaction (a bound
//     over a superset of the live slots is still a bound). A block that
//     cannot touch a probe is skipped; one whose max corner dominates an
//     arrival adds its sum in O(1); the rest take one kernel pass, which
//     yields both dominance masks. A departing element whose position
//     dominates a block's min corner gives its term back to the whole
//     block at once, through the block's P_old shift, and an upper bound
//     on the block's P_sky lets the re-band skip a block that stays below
//     every threshold. Both are exact integers: the shift is folded into
//     the slots at the next compaction, bit for bit.
//
// Threshold bands generalize the paper's two trees R1 (skyline) and R2
// (other candidates) and its Section IV-D multi-threshold variant: for
// descending thresholds q_1 > q_2 > ... > q_k, an element with
// P_sky ∈ [q_i, q_{i-1}) is in band i, and band k+1 holds candidates below
// every threshold. With a single threshold, band 1 *is* R1 and band 2 is
// R2. Only slots whose sums changed in a step are re-banded.
//
// The class keeps its name, SkyTree, because every operator, the shard
// engine, the auditor and the benchmark reach the store through it.

#ifndef PSKY_CORE_SKY_TREE_H_
#define PSKY_CORE_SKY_TREE_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "base/cancel.h"
#include "core/operator.h"
#include "geom/dominance_kernel.h"
#include "stream/element.h"

namespace psky {

/// Flat candidate store over S_{N,q} with exact integer sums.
class SkyTree {
 public:
  struct Options {
    /// When true, every band transition (including candidate entry and
    /// departure) is recorded and retrievable via DrainBandChanges() —
    /// the push-style delta feed of the continuous query.
    bool record_events = false;
  };

  /// Work counters for efficiency studies.
  struct Counters {
    /// Blocks examined by arrivals, restores, expiries and audit probes.
    uint64_t nodes_visited = 0;
    /// Slots the kernel compared; every slot whose sums an arrival or a
    /// departure changes one by one is among them.
    uint64_t elements_touched = 0;
    uint64_t evictions = 0;
    /// Always 0: exact sums need no lazy addends to push down. Kept
    /// because the benchmark reports it.
    uint64_t pushdowns = 0;
    uint64_t band_flips = 0;
  };

  /// `thresholds` must be strictly decreasing values in (1e-9, 1]; the
  /// last one is the retention threshold q_k that gates membership of
  /// S_{N,q}. A single-element vector gives the plain q-skyline operator.
  SkyTree(int dims, std::vector<double> thresholds);
  SkyTree(int dims, std::vector<double> thresholds, Options options);

  SkyTree(const SkyTree&) = delete;
  SkyTree& operator=(const SkyTree&) = delete;

  int dims() const { return dims_; }
  int num_thresholds() const { return static_cast<int>(thresholds_.size()); }
  double retention_threshold() const { return thresholds_.back(); }
  const std::vector<double>& thresholds() const { return thresholds_; }

  /// Number of candidate elements currently held (|S_{N,q}|).
  size_t size() const { return live_count_; }

  /// Number of elements in band `band` (1-based; band k+1 = candidates
  /// below every threshold).
  size_t band_size(int band) const;

  /// Elements with P_sky >= thresholds[band-1], i.e. bands 1..band.
  size_t CountUpToBand(int band) const;

  /// |SKY_{N,q_1}| — elements at or above the highest threshold.
  size_t skyline_size() const { return band_size(1); }

  /// Processes the arrival of element `e` (paper Algorithm 4): adds its
  /// term to the P_new of the candidates it dominates, evicts those
  /// falling below the retention threshold, restores the P_old of the
  /// newer survivors each evictee dominated, and appends `e`.
  /// `e.prob` must already be clamped via ClampProb(), and `e.seq` must
  /// exceed every seq seen before.
  void Arrive(const UncertainElement& e);

  /// Processes the expiry of `e` (paper Algorithm 11). Returns false when
  /// `e` had already been evicted from S_{N,q} (then nothing changes).
  bool Expire(const UncertainElement& e);

  /// Visits every candidate in seq order. The visitor receives the member
  /// and its band.
  void ForEach(
      const std::function<void(const SkylineMember&, int band)>& visit) const;

  /// All candidates with P_sky >= qprime (ad-hoc query, Section IV-D), in
  /// seq order. `qprime` must be >= the retention threshold.
  std::vector<SkylineMember> CollectAtLeast(double qprime) const;

  /// Count of candidates with P_sky >= qprime.
  size_t CountAtLeast(double qprime) const;

  /// The k candidates with the highest P_sky (ties by seq), ordered by
  /// decreasing P_sky (Section VI's top-k extension).
  std::vector<SkylineMember> TopK(size_t k) const;

  // --- interruptible queries (base/cancel.h) ----------------------------
  // Deadline/cancellation-aware variants for serving under overload: the
  // scan ticks `ctl` once per block and stops cooperatively when the
  // deadline passes or the token fires. Each fills `*out` (cleared first)
  // and returns true when the scan ran to completion, false when it was
  // cut short — `*out` then holds a well-formed partial result (a subset
  // of the full answer; for TopK, which ranks only after a full scan, the
  // empty prefix of the exact ranking). An inert control
  // (QueryControl::Unbounded) adds one predictable branch per block.

  bool CollectAtLeast(double qprime, const QueryControl& ctl,
                      std::vector<SkylineMember>* out) const;
  bool CountAtLeast(double qprime, const QueryControl& ctl,
                    size_t* out) const;
  bool TopK(size_t k, const QueryControl& ctl,
            std::vector<SkylineMember>* out) const;

  /// One band transition of one element. Band 0 is the pseudo-band
  /// "not in the candidate set": arrivals come from band 0, evictions and
  /// expiries go to band 0. With a single threshold, a change crossing
  /// band 1 is a skyline enter/leave event.
  struct BandChange {
    uint64_t seq = 0;
    int old_band = 0;
    int new_band = 0;
  };

  /// Drains the band-change events recorded since the last call into
  /// `*out` (clearing it first, by swapping, so a caller-owned buffer and
  /// its capacity are recycled across calls). Requires
  /// Options::record_events; otherwise always empty. Events are in
  /// occurrence order; within a step, evictions come first, then the
  /// arrival, then re-bands. The net effect is the composition.
  void DrainBandChanges(std::vector<BandChange>* out);

  const Counters& counters() const { return counters_; }

  // --- integrity auditing (see src/core/audit.h) ------------------------
  // These hooks let an external auditor re-derive each value from the
  // element probabilities and compare it with the stored sum (which must
  // match exactly), and let tests and --inject-drift-at plant damage.

  /// Stored probability state of one live element, fetched by identity.
  /// `found` is false when (pos, seq) is not in S_{N,q}.
  struct AuditView {
    bool found = false;
    double prob = 0.0;
    LogSum pnew = 0;
    LogSum pold = 0;
    int band = 0;
  };
  AuditView LookupForAudit(const Point& pos, uint64_t seq) const;

  /// Whether (pos, seq) is in S_{N,q}: LookupForAudit's search, but it
  /// ticks no counter, so an auditor can sort its targets before the
  /// audit proper without changing the work counters.
  bool Contains(const Point& pos, uint64_t seq) const;

  /// Exact sums of the terms of the live candidates a ≠ (pos, seq) that
  /// dominate `pos`, split by arrival order relative to `seq`. Computed
  /// from the element probabilities only — no stored sum is consulted.
  struct DominatorSums {
    LogSum newer = 0;  ///< dominators with a.seq > seq
    LogSum older = 0;  ///< dominators with a.seq < seq
  };
  DominatorSums ExactDominators(const Point& pos, uint64_t seq) const;

  /// Overwrites the stored P_new/P_old of element (pos, seq) and re-bands
  /// it. Used by the audit subsystem to repair damage (and by
  /// fault-injection tests to plant it).
  struct RepairOutcome {
    bool found = false;
    bool value_changed = false;  ///< stored sums differed
    int old_band = 0;
    int new_band = 0;
  };
  RepairOutcome RepairElement(const Point& pos, uint64_t seq, LogSum pnew,
                              LogSum pold);

  /// Band a P_sky sum classifies into (1-based).
  int BandOf(LogSum psky) const;

  /// Validates every structural and aggregate invariant by recomputation;
  /// aborts on violation. Test helper: O(n) per call, O(n^2) with `deep`
  /// = true, which also recomputes every live slot's P_new and P_old from
  /// the live set and requires exact equality.
  void CheckInvariants(bool deep = false) const;

 private:
  static constexpr int kBlock = kDominanceKernelMaxBlock;
  static constexpr int kWords = kDominanceKernelMaskWords;

  struct Slot {
    LogSum pnew = 0;
    LogSum pold = 0;  // without its block's pold_shift (PoldOf)
    int64_t term = 0;      // LogTermOf(prob)
    int64_t log_prob = 0;  // LogProbOf(prob)
    uint64_t seq = 0;
    double prob = 1.0;
    double time = 0.0;
    int band = 1;
    bool dirty = false;  // sums changed this step; queued in dirty_
  };

  // Per 256-slot block. The corners cover every slot appended since the
  // last compaction, live or not.
  struct Block {
    LogSum term_sum = 0;  // exact sum of the live slots' terms
    // Added to the P_old of every slot in the block.
    LogSum pold_shift = 0;
    // At least log P + P_new + pold of every live slot (before the
    // shift): raised with any slot's P_sky, recomputed at compaction.
    LogSum psky_hi = 0;
    int live = 0;
    bool reband = false;  // queued in reband_blocks_
    double lo[kMaxDims];
    double hi[kMaxDims];
  };

  // How a probe relates to a whole block, from its corners.
  struct Reach {
    bool dominates_probe;     // some slot may dominate the probe
    bool dominated_by_probe;  // the probe may dominate some slot
    bool all_dominate_probe;  // the max corner dominates the probe
    bool probe_dominates_all;  // the probe dominates the min corner
  };
  Reach ReachOf(const Block& b, const double* probe) const;

  size_t num_slots() const { return slots_.size(); }
  int SlotsIn(size_t block) const;
  const double* BlockCoords(size_t block) const {
    return coords_.data() + block * static_cast<size_t>(dims_) * kBlock;
  }
  double Coord(size_t slot, int k) const {
    return coords_[(slot / kBlock * static_cast<size_t>(dims_) +
                    static_cast<size_t>(k)) *
                       kBlock +
                   slot % kBlock];
  }
  bool IsLive(size_t slot) const {
    return (live_[slot / 64] >> (slot % 64) & 1) != 0;
  }
  // Live-slot mask of `block`, word `w`.
  uint64_t LiveWord(size_t block, int w) const {
    return live_[block * kWords + static_cast<size_t>(w)];
  }
  // The kernel's two masks over `block`, restricted to live slots.
  void Compare(size_t block, const double* probe, uint64_t* over_probe,
               uint64_t* under_probe) const;

  // Index of the slot holding (pos, seq), or seq, live or dead; npos if
  // none.
  size_t Find(const Point& pos, uint64_t seq) const;
  size_t FindSeq(uint64_t seq) const;
  Point PosOf(size_t slot) const;
  SkylineMember MemberOf(size_t slot) const;
  LogSum PoldOf(size_t slot) const {
    return slots_[slot].pold + blocks_[slot / kBlock].pold_shift;
  }
  LogSum PskyOf(size_t slot) const {
    const Slot& s = slots_[slot];
    return s.log_prob + s.pnew + PoldOf(slot);
  }
  // Raises slot `i`'s block bound to the slot's current P_sky.
  void RaiseBound(size_t i) {
    const Slot& s = slots_[i];
    LogSum& hi = blocks_[i / kBlock].psky_hi;
    hi = std::max(hi, s.log_prob + s.pnew + s.pold);
  }

  void Append(const UncertainElement& e, int64_t term, LogSum pold);
  // Marks slot `i` dead (band 0) and takes its term out of its block.
  void Kill(size_t i);
  // Takes dead slot `g`'s term back out of every live slot it dominates:
  // out of the P_old of the newer ones and, with `older_too`, out of the
  // P_new of the older ones.
  void GiveBack(size_t g, bool older_too);
  void MarkDirty(size_t i);
  // Re-bands every slot queued in dirty_ and every live slot of the
  // blocks queued in reband_blocks_ that may reach a threshold.
  void Reband();
  // Drops the dead slots, keeping order, once 1/8 of the slots are dead.
  void MaybeCompact();

  void RecordEvent(uint64_t seq, int old_band, int new_band) {
    if (options_.record_events) {
      events_.push_back(BandChange{seq, old_band, new_band});
    }
  }

  int dims_;
  std::vector<double> thresholds_;  // strictly decreasing, linear
  std::vector<LogSum> threshold_sums_;  // QuantizeLog(log q_i)
  Options options_;

  std::vector<Slot> slots_;
  std::vector<double> coords_;    // per block: dims rows of kBlock
  std::vector<uint64_t> live_;    // kWords words per block
  std::vector<Block> blocks_;
  size_t live_count_ = 0;
  size_t dead_count_ = 0;

  std::vector<size_t> band_counts_;  // 1-based; size k + 2
  std::vector<BandChange> events_;
  // Per-step scratch, reused across steps.
  std::vector<size_t> evicted_;
  std::vector<size_t> dirty_;
  std::vector<size_t> reband_blocks_;
  // Seqs of slots RepairElement set below the retention threshold; the
  // next arrival evicts them.
  std::vector<uint64_t> repaired_below_;
  mutable Counters counters_;
};

}  // namespace psky

#endif  // PSKY_CORE_SKY_TREE_H_
