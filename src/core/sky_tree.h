// The aggregate sky-tree: the paper's core data structure (Section IV).
//
// One in-memory aggregate R-tree holds the candidate set S_{N,q}. Every
// node keeps, for the elements beneath it (paper Section IV-A):
//
//   * pnoc            Π (1 − P(e)) — the no-occurrence probability;
//   * min/max P_new   bounds used to evict / keep whole subtrees when a
//                     new dominator arrives (Algorithm 9);
//   * min/max P_sky   bounds used to re-classify whole subtrees into or
//                     out of the reported skyline (Algorithms 10, 11);
//   * lazy_new        pending Π (1 − P(a_new)) multiplier from new
//                     dominating arrivals (the paper's P_new^global);
//   * lazy_old        pending Π 1/(1 − P(a')) multiplier from dominators
//                     that left S_{N,q} (the paper's P_old^global; the
//                     paper stores the divisor, we store the multiplier);
//   * band bounds     classification of descendants into threshold bands.
//
// Lazy multipliers are applied subtree-wide in O(1) and pushed toward the
// leaves only when a traversal must descend (paper's CalProb /
// UpdateOldNew push-down). Aggregates at a node always include the node's
// own pending lazies, so a parent can combine child aggregates directly.
//
// Threshold bands generalize the paper's two trees R1 (skyline) and R2
// (other candidates) and its Section IV-D multi-threshold variant: for
// descending thresholds q_1 > q_2 > ... > q_k, an element with
// P_sky ∈ [q_i, q_{i-1}) is in band i, and band k+1 holds candidates below
// every threshold. With a single threshold, band 1 *is* R1 and band 2 is
// R2; "moving an entry between R1 and R2" becomes a band flip guarded by
// exactly the paper's P_sky,min/max tests, without physically relocating
// subtrees.

#ifndef PSKY_CORE_SKY_TREE_H_
#define PSKY_CORE_SKY_TREE_H_

#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "base/cancel.h"
#include "core/operator.h"
#include "geom/mbr.h"
#include "stream/element.h"

namespace psky {

/// Aggregate R-tree over the candidate set S_{N,q}.
class SkyTree {
 public:
  struct Options {
    /// Node capacity; a node splits above this fanout.
    int max_entries = 128;
    /// Minimum fanout; an underfull node is condensed (contents
    /// reinserted).
    int min_entries = 8;
    /// Ablation knob: when false, probability multipliers are pushed to
    /// every element immediately instead of being kept lazily at nodes.
    bool use_lazy = true;
    /// Ablation knob: when false, min/max aggregate pruning is disabled
    /// and traversals descend to the leaves.
    bool use_minmax_pruning = true;
    /// When true, every band transition (including candidate entry and
    /// departure) is recorded and retrievable via DrainBandChanges() —
    /// the push-style delta feed of the continuous query.
    bool record_events = false;
  };

  /// Internal counters for efficiency studies.
  struct Counters {
    uint64_t nodes_visited = 0;
    uint64_t elements_touched = 0;
    uint64_t evictions = 0;
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
  size_t size() const;

  /// Number of elements in band `band` (1-based; band k+1 = candidates
  /// below every threshold).
  size_t band_size(int band) const;

  /// Elements with P_sky >= thresholds[band-1], i.e. bands 1..band.
  size_t CountUpToBand(int band) const;

  /// |SKY_{N,q_1}| — elements at or above the highest threshold.
  size_t skyline_size() const { return band_size(1); }

  /// Processes the arrival of element `e` (paper Algorithm 4):
  /// updates P_new of dominated candidates, evicts those falling below the
  /// retention threshold, restores P_old of surviving dominated elements,
  /// inserts `e`, and re-bands affected regions.
  /// `e.prob` must already be clamped via ClampProb().
  void Arrive(const UncertainElement& e);

  /// Processes the expiry of `e` (paper Algorithm 11). Returns false when
  /// `e` had already been evicted from S_{N,q} (then nothing changes).
  bool Expire(const UncertainElement& e);

  /// Visits every candidate with fully materialized probabilities, in
  /// arbitrary order. The visitor receives the member and its band.
  void ForEach(
      const std::function<void(const SkylineMember&, int band)>& visit) const;

  /// All candidates with P_sky >= qprime (ad-hoc query, Section IV-D).
  /// `qprime` must be >= the retention threshold.
  std::vector<SkylineMember> CollectAtLeast(double qprime) const;

  /// Count of candidates with P_sky >= qprime without enumerating
  /// qualifying subtrees (uses min/max P_sky pruning).
  size_t CountAtLeast(double qprime) const;

  /// The k candidates with the highest P_sky (all >= the retention
  /// threshold), best-first via the max P_sky aggregates (Section VI
  /// "heap tree" view). Ordered by decreasing P_sky.
  std::vector<SkylineMember> TopK(size_t k) const;

  // --- interruptible queries (base/cancel.h) ----------------------------
  // Deadline/cancellation-aware variants for serving under overload: the
  // traversal ticks `ctl` per node visit and stops cooperatively when the
  // deadline passes or the token fires. Each fills `*out` (cleared first)
  // and returns true when the traversal ran to completion, false when it
  // was cut short — `*out` then holds a well-formed partial result (a
  // subset of the full answer; for TopK, a prefix of the exact ranking).
  // An inert control (QueryControl::Unbounded) adds one predictable
  // branch per node and never stops.

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
  /// occurrence order; an element may appear more than once per step
  /// (e.g., evicted after a band flip) — the net effect is the
  /// composition.
  void DrainBandChanges(std::vector<BandChange>* out);

  const Counters& counters() const { return counters_; }

  // --- integrity auditing (see src/core/audit.h) ------------------------
  // The lazy log-domain bookkeeping accumulates one rounding error per
  // applied addend; over a long stream an element near a threshold can
  // silently land in the wrong band. These hooks let an external auditor
  // re-derive exact values and renormalize drifted elements in place.

  /// Materialized probability state of one live element, fetched by
  /// identity. `found` is false when (pos, seq) is not in S_{N,q}.
  struct AuditView {
    bool found = false;
    double prob = 0.0;
    double pnew_log = 0.0;  ///< materialized (all ancestor lazies applied)
    double pold_log = 0.0;
    int band = 0;
  };
  AuditView LookupForAudit(const Point& pos, uint64_t seq) const;

  /// Whether (pos, seq) is in S_{N,q}: LookupForAudit's walk, but it
  /// ticks no counter, so an auditor can sort its targets before the
  /// audit proper without changing the work counters.
  bool Contains(const Point& pos, uint64_t seq) const;

  /// Exact Σ log(1 - P(a)) over live candidates a ≠ (pos, seq) that
  /// dominate `pos`, split by arrival order relative to `seq`. Computed by
  /// fresh traversal from element probabilities only — no lazy state is
  /// consulted, so the result is immune to accumulated drift.
  struct DominatorSums {
    double newer_log = 0.0;  ///< dominators with a.seq > seq
    double older_log = 0.0;  ///< dominators with a.seq < seq
  };
  DominatorSums ExactDominators(const Point& pos, uint64_t seq) const;

  /// Overwrites the materialized P_new/P_old of element (pos, seq), re-bands
  /// it, and renormalizes the probability aggregates along the leaf path.
  /// Used by the audit subsystem to repair drift (and by fault-injection
  /// tests to plant it). Structure (MBRs, counts, P_noc) is untouched.
  struct RepairOutcome {
    bool found = false;
    bool value_changed = false;  ///< stored values differed bitwise
    int old_band = 0;
    int new_band = 0;
  };
  RepairOutcome RepairElement(const Point& pos, uint64_t seq,
                              double pnew_log, double pold_log);

  /// Band a materialized log P_sky value classifies into (1-based).
  int BandOfLog(double psky_log) const { return BandOf(psky_log); }

  /// Validates every structural and aggregate invariant by recomputation;
  /// aborts on violation. Test helper (O(n) per call, O(n^2) with
  /// `deep` = true, which also re-derives every band from scratch).
  void CheckInvariants(bool deep = false) const;

 private:
  // --- SoA leaf coordinate blocks ---------------------------------------
  // Every leaf mirrors its element coordinates into a dim-major
  // structure-of-arrays block (dimension k of element i at
  // data[k * stride + i]) so the block dominance kernel
  // (geom/dominance_kernel.h) can scan a whole leaf branchlessly over
  // contiguous rows. Blocks come from a free-list arena: fixed-size,
  // allocated in contiguous chunks, recycled when nodes die, never
  // malloc'd per insert. The mirror is written in exactly two places:
  // AppendAgg writes an appended element's column, and RecomputeAgg,
  // which every other leaf-membership change (evict, remove, split)
  // calls, rewrites every column in the same pass that derives the leaf's
  // aggregates. So it can never drift out of sync with the Elem array.
  class SoaArena {
   public:
    SoaArena() = default;
    SoaArena(const SoaArena&) = delete;
    SoaArena& operator=(const SoaArena&) = delete;

    void Init(size_t block_doubles) { block_doubles_ = block_doubles; }

    double* Alloc() {
      if (free_list_.empty()) Grow();
      double* block = free_list_.back();
      free_list_.pop_back();
      return block;
    }

    void Free(double* block) { free_list_.push_back(block); }

   private:
    static constexpr size_t kBlocksPerChunk = 64;
    void Grow() {
      auto chunk = std::make_unique<double[]>(block_doubles_ * kBlocksPerChunk);
      for (size_t i = 0; i < kBlocksPerChunk; ++i) {
        free_list_.push_back(chunk.get() + i * block_doubles_);
      }
      chunks_.push_back(std::move(chunk));
    }
    size_t block_doubles_ = 0;
    std::vector<std::unique_ptr<double[]>> chunks_;
    std::vector<double*> free_list_;
  };

  /// RAII handle for one arena block, owned by a leaf node.
  struct SoaBlock {
    SoaArena* arena = nullptr;
    double* data = nullptr;
    SoaBlock() = default;
    SoaBlock(const SoaBlock&) = delete;
    SoaBlock& operator=(const SoaBlock&) = delete;
    ~SoaBlock() {
      if (data != nullptr) arena->Free(data);
    }
  };

  // All probability bookkeeping is in log space (see operator.h): products
  // of (1 - P) factors become sums, "divide out a factor" becomes an exact
  // subtraction, and nothing underflows no matter how many dominators an
  // element accumulates. Lazy multipliers are therefore lazy *addends*.
  struct Elem {
    Point pos;
    double prob = 1.0;
    uint64_t seq = 0;
    double time = 0.0;
    double pnew_log = 0.0;
    double pold_log = 0.0;
    // Cached logs of prob / (1 - prob): computed once per element, read on
    // every aggregate recomputation.
    double log_prob = 0.0;
    double log_one_minus_prob = 0.0;
    int band = 1;
  };

  struct Node {
    bool is_leaf = true;
    Mbr mbr;
    int64_t count = 0;
    double pnoc_log = 0.0;      // Σ log(1 - P(e)) over elements below
    double min_pnew_log = 0.0;  // bounds include this node's own lazies
    double max_pnew_log = 0.0;
    double min_psky_log = 0.0;
    double max_psky_log = 0.0;
    int band_lo = 1;
    int band_hi = 1;
    double lazy_new_log = 0.0;  // pending addend for pnew_log below
    double lazy_old_log = 0.0;  // pending addend for pold_log below
    bool dirty_some = false;    // some descendant region changed P_sky
    bool dirty_all = false;     // the whole subtree changed P_sky
    // The P_new/P_sky bounds and band range are bit for bit what a
    // recompute from the level below would give. Every recompute sets it;
    // a lazy addend (ApplyNewAddend, ApplyOldAddend, the parent's
    // PushDown) clears it, because `bound + addend` can differ in the last
    // bit from a bound over `value + addend`. Only fresh bounds are
    // extended by an append (AppendAgg).
    bool fresh = false;
    std::vector<std::unique_ptr<Node>> children;
    std::vector<Elem> elems;
    // Dim-major coordinate mirror of `elems` (leaves only); written by
    // AppendAgg and RecomputeAgg.
    SoaBlock soa;
    int Fanout() const {
      return is_leaf ? static_cast<int>(elems.size())
                     : static_cast<int>(children.size());
    }
  };

  // P_new/P_sky bounds and band range folded in element or child order
  // (sky_tree.cc).
  struct Bounds;
  // A node's aggregates as a rescan of its elements or children derives
  // them.
  struct Rescanned;

  // --- probability plumbing -------------------------------------------
  int BandOf(double psky_log) const;
  void RebandElem(Elem* el);
  static double PskyLogOf(const Elem& e) {
    return e.log_prob + e.pnew_log + e.pold_log;
  }
  void ApplyNewAddend(Node* n, double addend);
  void ApplyOldAddend(Node* n, double addend);
  void PushDown(Node* n);
  void PushDownRecursive(Node* n);
  // Recomputes the probability aggregates (min/max P_new, min/max P_sky,
  // band bounds) of `n` from its children/elements. Positions, counts and
  // P_noc are untouched — used on probability-only update paths.
  void RecomputeProbAgg(Node* n);
  // Full recomputation including MBR, count and P_noc — used when the
  // node's membership changed (remove / evict / split, or an insert that
  // split a child). A leaf's SoA columns are rewritten in the same pass.
  void RecomputeAgg(Node* n);
  // Rescans `n` one level deep. When `soa` is not null (leaves only), also
  // writes every element's coordinates into it.
  Rescanned Rescan(const Node& n, double* soa) const;
  // Extends the aggregates of `n` by `elem`, just appended below it, in
  // O(d): MBR, count and P_noc always, the bounds only when they are
  // fresh and `below_extended` (the child on the path extended its own);
  // otherwise the bounds are recomputed. Returns whether they extended.
  bool AppendAgg(Node* n, const Elem& elem, bool below_extended);
  // True when the aggregates of `n` equal a rescan bit for bit (and a
  // leaf's SoA columns equal its elements); checks AppendAgg in
  // assertion builds.
  bool MatchesRescan(const Node& n) const;
  void WriteSoaColumn(double* soa, size_t i, const Point& pos) const {
    double* col = soa + i;
    for (int k = 0; k < dims_; ++k) col[k * soa_stride_] = pos[k];
  }

  // --- arrival phases ---------------------------------------------------
  // Returns true when some P_new below `n` changed.
  bool ProcessArrival(Node* n, const UncertainElement& e,
                      double arrival_log_factor, double* pold_log_acc);
  bool EvictPhase(Node* n, bool is_root, std::vector<Elem>* evicted,
                  std::vector<Elem>* reinsert);
  // Returns true when some P_old below `n` changed.
  bool ApplyOldForDominator(Node* n, const Point& pos, double addend);
  void Reflag(Node* n);

  // --- structure maintenance --------------------------------------------
  void CollectElems(Node* n, std::vector<Elem>* out);
  std::unique_ptr<Node> Split(Node* n);
  // Inserts below `n`; returns the split-off sibling of `n`, if any, and
  // sets `*extended` when `n`'s bounds were extended rather than
  // recomputed.
  std::unique_ptr<Node> InsertRec(Node* n, const Elem& elem, bool* extended);
  void InsertElem(const Elem& elem);
  bool RemoveRec(Node* n, const Point& pos, uint64_t seq, Elem* removed,
                 std::vector<Elem>* orphans);
  void ShrinkRoot();
  bool RepairRec(Node* n, const Point& pos, uint64_t seq, double pnew_log,
                 double pold_log, RepairOutcome* out);

  // The walk of LookupForAudit and Contains: finds (pos, seq) below `n`
  // and materializes it into `*out`, adding one to `*nodes_visited` per
  // node visited when that is not null.
  bool FindForAudit(const Node* n, const Point& pos, uint64_t seq,
                    double acc_new, double acc_old, uint64_t* nodes_visited,
                    AuditView* out) const;

  void ForEachNode(const Node* n, double acc_new_log, double acc_old_log,
                   const std::function<void(const Elem&, double pnew_log,
                                            double pold_log)>& visit) const;

  SkylineMember MakeMember(const Elem& e, double pnew_log,
                           double pold_log) const;

  void RecordEvent(uint64_t seq, int old_band, int new_band) {
    if (options_.record_events) {
      events_.push_back(BandChange{seq, old_band, new_band});
    }
  }

  int dims_;
  std::vector<double> thresholds_;      // strictly decreasing, linear
  std::vector<double> thresholds_log_;  // log of the above
  Options options_;
  int soa_stride_ = 0;  // doubles per dimension row in a leaf SoA block
  // Declared before root_ so nodes (whose SoaBlock handles return blocks
  // to the arena on destruction) are destroyed first.
  SoaArena soa_arena_;
  std::unique_ptr<Node> root_;
  std::vector<size_t> band_counts_;  // 1-based; size k + 2
  std::vector<BandChange> events_;
  // Arrive-phase scratch, reused across steps to avoid per-call heap
  // churn on the hot path.
  std::vector<Elem> scratch_evicted_;
  std::vector<Elem> scratch_reinsert_;
  mutable Counters counters_;
};

}  // namespace psky

#endif  // PSKY_CORE_SKY_TREE_H_
