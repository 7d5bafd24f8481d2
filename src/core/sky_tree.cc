#include "core/sky_tree.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <queue>
#include <utility>

#include "base/check.h"
#include "geom/dominance.h"
#include "geom/dominance_kernel.h"
#include "rtree/split.h"

namespace psky {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();

bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}
}  // namespace

// std::min and std::max keep the earlier of two equal values, so a leaf's
// fold extended by its new last element equals the fold over all its
// elements, bit for bit. An internal node's fold extended by the same
// element equals the fold over its children with the extended child's
// bounds: min and max are associative and commutative on values, and
// only the sign of a zero could tell the two apart (these log values are
// never -0.0). That is what lets AppendAgg extend a fresh node in O(1).
struct SkyTree::Bounds {
  double min_pnew = kInf;
  double max_pnew = -kInf;
  double min_psky = kInf;
  double max_psky = -kInf;
  int band_lo = std::numeric_limits<int>::max();
  int band_hi = 0;

  static Bounds Of(const Node& n) {
    Bounds b;
    b.min_pnew = n.min_pnew_log;
    b.max_pnew = n.max_pnew_log;
    b.min_psky = n.min_psky_log;
    b.max_psky = n.max_psky_log;
    b.band_lo = n.band_lo;
    b.band_hi = n.band_hi;
    return b;
  }
  void Add(double pnew, double psky, int band) {
    min_pnew = std::min(min_pnew, pnew);
    max_pnew = std::max(max_pnew, pnew);
    min_psky = std::min(min_psky, psky);
    max_psky = std::max(max_psky, psky);
    band_lo = std::min(band_lo, band);
    band_hi = std::max(band_hi, band);
  }
  void Add(const Elem& e) { Add(e.pnew_log, PskyLogOf(e), e.band); }
  void Add(const Node& child) {
    min_pnew = std::min(min_pnew, child.min_pnew_log);
    max_pnew = std::max(max_pnew, child.max_pnew_log);
    min_psky = std::min(min_psky, child.min_psky_log);
    max_psky = std::max(max_psky, child.max_psky_log);
    band_lo = std::min(band_lo, child.band_lo);
    band_hi = std::max(band_hi, child.band_hi);
  }
  void StoreIn(Node* n) const {
    n->min_pnew_log = min_pnew;
    n->max_pnew_log = max_pnew;
    n->min_psky_log = min_psky;
    n->max_psky_log = max_psky;
    n->band_lo = band_lo;
    n->band_hi = band_hi;
    n->fresh = true;
  }
  bool SameBitsAs(const Bounds& o) const {
    return SameBits(min_pnew, o.min_pnew) && SameBits(max_pnew, o.max_pnew) &&
           SameBits(min_psky, o.min_psky) && SameBits(max_psky, o.max_psky) &&
           band_lo == o.band_lo && band_hi == o.band_hi;
  }
};

struct SkyTree::Rescanned {
  Mbr mbr;
  int64_t count = 0;
  double pnoc_log = 0.0;
  Bounds bounds;
};

SkyTree::SkyTree(int dims, std::vector<double> thresholds)
    : SkyTree(dims, std::move(thresholds), Options()) {}

SkyTree::SkyTree(int dims, std::vector<double> thresholds, Options options)
    : dims_(dims), thresholds_(std::move(thresholds)), options_(options) {
  PSKY_CHECK_MSG(dims >= 1 && dims <= kMaxDims, "dims out of range");
  PSKY_CHECK_MSG(!thresholds_.empty(), "at least one threshold required");
  for (size_t i = 0; i < thresholds_.size(); ++i) {
    PSKY_CHECK_MSG(thresholds_[i] > 1e-9 && thresholds_[i] <= 1.0,
                   "threshold must be in (1e-9, 1]");
    if (i > 0) {
      PSKY_CHECK_MSG(thresholds_[i] < thresholds_[i - 1],
                     "thresholds must be strictly decreasing");
    }
    thresholds_log_.push_back(std::log(thresholds_[i]));
  }
  PSKY_CHECK_MSG(options_.min_entries >= 2, "min_entries must be >= 2");
  PSKY_CHECK_MSG(options_.max_entries >= 2 * options_.min_entries,
                 "max_entries must be >= 2 * min_entries");
  // Leaf SoA blocks hold fanout + 1 slots (a leaf briefly overflows to
  // max_entries + 1 between insert and split) and must fit one kernel call.
  PSKY_CHECK_MSG(options_.max_entries + 1 <= kDominanceKernelMaxBlock,
                 "max_entries exceeds dominance kernel block capacity");
  soa_stride_ = options_.max_entries + 1;
  soa_arena_.Init(static_cast<size_t>(soa_stride_) *
                  static_cast<size_t>(dims_));
  root_ = std::make_unique<Node>();
  root_->is_leaf = true;
  root_->mbr = Mbr::Empty(dims_);
  RecomputeAgg(root_.get());
  band_counts_.assign(thresholds_.size() + 2, 0);
}

size_t SkyTree::size() const {
  return static_cast<size_t>(root_->count);
}

size_t SkyTree::band_size(int band) const {
  PSKY_CHECK(band >= 1 && band <= num_thresholds() + 1);
  return band_counts_[static_cast<size_t>(band)];
}

size_t SkyTree::CountUpToBand(int band) const {
  PSKY_CHECK(band >= 1 && band <= num_thresholds() + 1);
  size_t total = 0;
  for (int b = 1; b <= band; ++b) {
    total += band_counts_[static_cast<size_t>(b)];
  }
  return total;
}

void SkyTree::RebandElem(Elem* el) {
  const int band = BandOf(PskyLogOf(*el));
  if (band != el->band) {
    --band_counts_[static_cast<size_t>(el->band)];
    ++band_counts_[static_cast<size_t>(band)];
    RecordEvent(el->seq, el->band, band);
    el->band = band;
    ++counters_.band_flips;
  }
}

// Trivial event-queue drain; no tree state is touched, so there is no
// invariant to check.
// psky-lint: allow(mutation-guard)
void SkyTree::DrainBandChanges(std::vector<BandChange>* out) {
  out->clear();
  out->swap(events_);
}

int SkyTree::BandOf(double psky_log) const {
  const int k = num_thresholds();
  for (int i = 0; i < k; ++i) {
    if (psky_log >= thresholds_log_[static_cast<size_t>(i)]) return i + 1;
  }
  return k + 1;
}

// ---------------------------------------------------------------------------
// Probability plumbing.
// ---------------------------------------------------------------------------

void SkyTree::ApplyNewAddend(Node* n, double addend) {
  n->min_pnew_log += addend;
  n->max_pnew_log += addend;
  n->min_psky_log += addend;
  n->max_psky_log += addend;
  n->lazy_new_log += addend;
  n->fresh = false;
  n->dirty_all = true;
  if (!options_.use_lazy) PushDownRecursive(n);
}

void SkyTree::ApplyOldAddend(Node* n, double addend) {
  n->min_psky_log += addend;
  n->max_psky_log += addend;
  n->lazy_old_log += addend;
  n->fresh = false;
  n->dirty_all = true;
  if (!options_.use_lazy) PushDownRecursive(n);
}

void SkyTree::PushDown(Node* n) {
  // Exact-zero fast path: lazies start at literal 0.0 and are reset to
  // literal 0.0; any accumulation makes them nonzero, so == is the intended
  // sentinel test, not a tolerance check.
  // psky-lint: allow(float-eq)
  if (n->lazy_new_log == 0.0 && n->lazy_old_log == 0.0) return;
  ++counters_.pushdowns;
  if (n->is_leaf) {
    for (Elem& e : n->elems) {
      e.pnew_log += n->lazy_new_log;
      e.pold_log += n->lazy_old_log;
      ++counters_.elements_touched;
    }
  } else {
    const double psky_addend = n->lazy_new_log + n->lazy_old_log;
    for (auto& child : n->children) {
      child->lazy_new_log += n->lazy_new_log;
      child->lazy_old_log += n->lazy_old_log;
      child->min_pnew_log += n->lazy_new_log;
      child->max_pnew_log += n->lazy_new_log;
      child->min_psky_log += psky_addend;
      child->max_psky_log += psky_addend;
      child->fresh = false;
    }
  }
  n->lazy_new_log = 0.0;
  n->lazy_old_log = 0.0;
}

void SkyTree::PushDownRecursive(Node* n) {
  PushDown(n);
  if (!n->is_leaf) {
    for (auto& child : n->children) PushDownRecursive(child.get());
  }
}

void SkyTree::RecomputeProbAgg(Node* n) {
  PSKY_DCHECK(n->lazy_new_log == 0.0 && n->lazy_old_log == 0.0);
  Bounds bounds;
  if (n->is_leaf) {
    for (const Elem& e : n->elems) bounds.Add(e);
  } else {
    for (const auto& child : n->children) bounds.Add(*child);
  }
  bounds.StoreIn(n);
}

SkyTree::Rescanned SkyTree::Rescan(const Node& n, double* soa) const {
  Rescanned r;
  r.mbr = Mbr::Empty(dims_);
  if (n.is_leaf) {
    PSKY_DCHECK(n.elems.size() <= static_cast<size_t>(soa_stride_));
    for (size_t i = 0; i < n.elems.size(); ++i) {
      const Elem& e = n.elems[i];
      r.mbr.Expand(e.pos);
      // order-sensitive: element order; AppendAgg's one addition extends
      // exactly this sum.
      r.pnoc_log += e.log_one_minus_prob;
      r.bounds.Add(e);
      if (soa != nullptr) WriteSoaColumn(soa, i, e.pos);
    }
    r.count = static_cast<int64_t>(n.elems.size());
  } else {
    for (const auto& child : n.children) {
      r.mbr.Expand(child->mbr);
      r.count += child->count;
      // order-sensitive: child order, as AppendAgg re-sums it.
      r.pnoc_log += child->pnoc_log;
      r.bounds.Add(*child);
    }
  }
  return r;
}

void SkyTree::RecomputeAgg(Node* n) {
  PSKY_DCHECK(n->lazy_new_log == 0.0 && n->lazy_old_log == 0.0);
  if (n->is_leaf && n->soa.data == nullptr) {
    n->soa.arena = &soa_arena_;
    n->soa.data = soa_arena_.Alloc();
  }
  // One pass over a leaf derives its aggregates and rewrites its SoA
  // columns.
  const Rescanned r = Rescan(*n, n->is_leaf ? n->soa.data : nullptr);
  n->mbr = r.mbr;
  n->count = r.count;
  n->pnoc_log = r.pnoc_log;
  r.bounds.StoreIn(n);
}

bool SkyTree::AppendAgg(Node* n, const Elem& elem, bool below_extended) {
  PSKY_DCHECK(n->lazy_new_log == 0.0 && n->lazy_old_log == 0.0);
  n->mbr.Expand(elem.pos);
  ++n->count;
  if (n->is_leaf) {
    PSKY_DCHECK(n->soa.data != nullptr && !n->elems.empty());
    // order-sensitive: `elem` is the leaf's last element, so this is the
    // last addition of Rescan's ordered sum.
    n->pnoc_log += elem.log_one_minus_prob;
    WriteSoaColumn(n->soa.data, n->elems.size() - 1, elem.pos);
  } else {
    double pnoc_log = 0.0;
    for (const auto& child : n->children) {
      // order-sensitive: child order, as Rescan sums it.
      pnoc_log += child->pnoc_log;
    }
    n->pnoc_log = pnoc_log;
  }
  const bool extend = n->fresh && below_extended;
  if (extend) {
    Bounds bounds = Bounds::Of(*n);
    bounds.Add(elem);
    bounds.StoreIn(n);
  } else {
    RecomputeProbAgg(n);
  }
  PSKY_DCHECK(MatchesRescan(*n));
  return extend;
}

bool SkyTree::MatchesRescan(const Node& n) const {
  const Rescanned r = Rescan(n, nullptr);
  // Mbr's == compares coordinates by value; only the sign of a zero could
  // tell a value-equal extension from a rescan, and no decision reads it.
  if (!(r.mbr == n.mbr) || r.count != n.count ||
      !SameBits(r.pnoc_log, n.pnoc_log) ||
      !r.bounds.SameBitsAs(Bounds::Of(n))) {
    return false;
  }
  for (size_t i = 0; i < n.elems.size(); ++i) {
    const double* col = n.soa.data + i;
    for (int k = 0; k < dims_; ++k) {
      if (col[k * soa_stride_] != n.elems[i].pos[k]) return false;
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Arrival (paper Algorithm 4 with Algorithms 5-10 fused into traversals).
// ---------------------------------------------------------------------------

bool SkyTree::ProcessArrival(Node* n, const UncertainElement& e,
                             double arrival_log_factor,
                             double* pold_log_acc) {
  ++counters_.nodes_visited;
  if (n->count == 0) return false;

  const PointEntryRelation rel = ClassifyPointEntry(e.pos, n->mbr);
  // Entries fully dominating the arrival contribute their no-occurrence
  // probability to P_old(a_new) wholesale (Algorithm 4 lines 3-5).
  if (rel.entry_over_point == DomRelation::kFull) {
    // order-sensitive: subtree factors fold in before any per-element
    // factor below, same as the scalar pre-kernel traversal.
    *pold_log_acc += n->pnoc_log;
    return false;
  }
  // Entries fully dominated by the arrival get the (1 - P(a_new)) factor
  // applied to their whole subtree lazily (Algorithm 8 line 6).
  if (rel.point_over_entry == DomRelation::kFull) {
    ApplyNewAddend(n, arrival_log_factor);
    return true;
  }
  if (rel.entry_over_point == DomRelation::kNone &&
      rel.point_over_entry == DomRelation::kNone) {
    return false;
  }

  // Partial overlap in either direction: descend (queues C1/C2/C12 of
  // Algorithms 5, 7, 8 collapse into this recursion).
  PushDown(n);
  bool changed = false;
  if (n->is_leaf) {
    // Block kernel over the leaf's SoA mirror. Walking set bits ascending
    // visits elements in array order, so the P_old accumulation is
    // bit-identical to the original per-element DominanceCompare loop.
    const int cnt = static_cast<int>(n->elems.size());
    counters_.elements_touched += static_cast<uint64_t>(cnt);
    uint64_t cand[kDominanceKernelMaskWords];
    uint64_t dominated[kDominanceKernelMaskWords];
    DominanceBlockCompare(e.pos.data(), dims_, n->soa.data, soa_stride_, cnt,
                          cand, dominated);
    for (int w = 0; w < (cnt + 63) / 64; ++w) {
      for (uint64_t bits = cand[w]; bits != 0; bits &= bits - 1) {
        const int i = w * 64 + std::countr_zero(bits);
        // order-sensitive: ascending bit walk = element order, keeping
        // the sum bit-identical to the scalar loop this replaced.
        *pold_log_acc += n->elems[static_cast<size_t>(i)].log_one_minus_prob;
      }
      for (uint64_t bits = dominated[w]; bits != 0; bits &= bits - 1) {
        const int i = w * 64 + std::countr_zero(bits);
        // order-sensitive: single addend per element; applied in
        // ascending element order like the scalar path.
        n->elems[static_cast<size_t>(i)].pnew_log += arrival_log_factor;
        changed = true;
      }
    }
    if (changed) n->dirty_all = true;
  } else {
    for (auto& child : n->children) {
      changed |= ProcessArrival(child.get(), e, arrival_log_factor,
                                pold_log_acc);
    }
  }
  if (changed) {
    n->dirty_some = true;
    RecomputeProbAgg(n);
  }
  return changed;
}

void SkyTree::CollectElems(Node* n, std::vector<Elem>* out) {
  PushDown(n);
  if (n->is_leaf) {
    counters_.elements_touched += n->elems.size();
    out->insert(out->end(), n->elems.begin(), n->elems.end());
    return;
  }
  for (auto& child : n->children) CollectElems(child.get(), out);
}

bool SkyTree::EvictPhase(Node* n, bool is_root, std::vector<Elem>* evicted,
                         std::vector<Elem>* reinsert) {
  ++counters_.nodes_visited;
  const double qk_log = thresholds_log_.back();
  if (n->count == 0) return !is_root;

  if (options_.use_minmax_pruning) {
    // Nothing below can fall under the retention threshold: keep wholesale
    // (Algorithm 9 line 10).
    if (n->min_pnew_log >= qk_log) return false;
    // Everything below falls under: evict wholesale (Algorithm 9 line 11).
    if (n->max_pnew_log < qk_log) {
      CollectElems(n, evicted);
      if (is_root) {
        // The root has no parent to detach it; empty it in place.
        n->is_leaf = true;
        n->children.clear();
        n->elems.clear();
        n->lazy_new_log = n->lazy_old_log = 0.0;
        n->dirty_some = n->dirty_all = false;
        RecomputeAgg(n);
        return false;
      }
      return true;
    }
  }

  // Note: eviction itself never changes a survivor's P_sky (the departed
  // dominators' factors are restored in the separate P_old phase), so
  // this phase does not dirty anything for Reflag.
  PushDown(n);
  if (n->is_leaf) {
    size_t keep = 0;
    for (size_t i = 0; i < n->elems.size(); ++i) {
      ++counters_.elements_touched;
      if (n->elems[i].pnew_log < qk_log) {
        evicted->push_back(n->elems[i]);
      } else {
        n->elems[keep++] = n->elems[i];
      }
    }
    n->elems.resize(keep);
    RecomputeAgg(n);
    if (n->elems.empty()) return !is_root;
    if (!is_root && n->Fanout() < options_.min_entries) {
      CollectElems(n, reinsert);
      return true;
    }
    return false;
  }

  for (size_t i = 0; i < n->children.size();) {
    if (EvictPhase(n->children[i].get(), /*is_root=*/false, evicted,
                   reinsert)) {
      n->children.erase(n->children.begin() + static_cast<ptrdiff_t>(i));
    } else {
      ++i;
    }
  }
  if (n->children.empty()) return !is_root;
  RecomputeAgg(n);
  if (!is_root && n->Fanout() < options_.min_entries) {
    CollectElems(n, reinsert);
    return true;
  }
  return false;
}

bool SkyTree::ApplyOldForDominator(Node* n, const Point& pos,
                                   double addend) {
  ++counters_.nodes_visited;
  if (n->count == 0) return false;
  const DomRelation rel = ClassifyPointEntry(pos, n->mbr).point_over_entry;
  if (rel == DomRelation::kNone) return false;
  if (rel == DomRelation::kFull && options_.use_minmax_pruning) {
    // The departed dominator dominated everything below: restore the
    // whole subtree's P_old lazily (the paper's UpdateOld with P_noc,
    // and Algorithm 11 line 5).
    ApplyOldAddend(n, addend);
    return true;
  }
  PushDown(n);
  bool changed = false;
  if (n->is_leaf) {
    const int cnt = static_cast<int>(n->elems.size());
    counters_.elements_touched += static_cast<uint64_t>(cnt);
    uint64_t cand[kDominanceKernelMaskWords];
    uint64_t dominated[kDominanceKernelMaskWords];
    DominanceBlockCompare(pos.data(), dims_, n->soa.data, soa_stride_, cnt,
                          cand, dominated);
    for (int w = 0; w < (cnt + 63) / 64; ++w) {
      for (uint64_t bits = dominated[w]; bits != 0; bits &= bits - 1) {
        const int i = w * 64 + std::countr_zero(bits);
        // order-sensitive: single addend per element, ascending walk.
        n->elems[static_cast<size_t>(i)].pold_log += addend;
        changed = true;
      }
    }
    if (changed) n->dirty_all = true;
  } else {
    for (auto& child : n->children) {
      changed |= ApplyOldForDominator(child.get(), pos, addend);
    }
  }
  if (changed) {
    n->dirty_some = true;
    RecomputeProbAgg(n);
  }
  return changed;
}

void SkyTree::Reflag(Node* n) {
  if (!n->dirty_some && !n->dirty_all) return;
  ++counters_.nodes_visited;
  if (n->count == 0) {
    n->dirty_some = n->dirty_all = false;
    return;
  }
  if (options_.use_minmax_pruning) {
    // If the P_sky bounds pin the whole subtree into the single band it is
    // already classified as, nothing below can flip (Algorithm 10 line 3's
    // complement, and Algorithm 11's Move pruning).
    const int lo = BandOf(n->max_psky_log);
    const int hi = BandOf(n->min_psky_log);
    if (lo == hi && n->band_lo == lo && n->band_hi == lo) {
      n->dirty_some = n->dirty_all = false;
      return;
    }
  }
  PushDown(n);
  if (n->is_leaf) {
    // Re-band each element and re-derive the leaf's bounds in one pass.
    Bounds bounds;
    for (Elem& el : n->elems) {
      ++counters_.elements_touched;
      const double psky = PskyLogOf(el);
      const int band = BandOf(psky);
      if (band != el.band) {
        --band_counts_[static_cast<size_t>(el.band)];
        ++band_counts_[static_cast<size_t>(band)];
        RecordEvent(el.seq, el.band, band);
        el.band = band;
        ++counters_.band_flips;
      }
      bounds.Add(el.pnew_log, psky, el.band);
    }
    bounds.StoreIn(n);
  } else {
    for (auto& child : n->children) {
      if (n->dirty_all) child->dirty_all = true;
      Reflag(child.get());
    }
    RecomputeProbAgg(n);
  }
  n->dirty_some = n->dirty_all = false;
}

// ---------------------------------------------------------------------------
// Structure maintenance.
// ---------------------------------------------------------------------------

std::unique_ptr<SkyTree::Node> SkyTree::Split(Node* n) {
  PSKY_DCHECK(n->lazy_new_log == 0.0 && n->lazy_old_log == 0.0);
  auto sibling = std::make_unique<Node>();
  sibling->is_leaf = n->is_leaf;
  sibling->dirty_some = n->dirty_some;
  sibling->dirty_all = n->dirty_all;
  if (n->is_leaf) {
    std::vector<Elem> all = std::move(n->elems);
    n->elems.clear();
    QuadraticSplit(
        &all, &n->elems, &sibling->elems,
        [](const Elem& e) { return Mbr(e.pos); }, options_.min_entries);
  } else {
    std::vector<std::unique_ptr<Node>> all = std::move(n->children);
    n->children.clear();
    QuadraticSplit(
        &all, &n->children, &sibling->children,
        [](const std::unique_ptr<Node>& c) { return c->mbr; },
        options_.min_entries);
  }
  RecomputeAgg(n);
  RecomputeAgg(sibling.get());
  return sibling;
}

std::unique_ptr<SkyTree::Node> SkyTree::InsertRec(Node* n, const Elem& elem,
                                                  bool* extended) {
  ++counters_.nodes_visited;
  PushDown(n);
  *extended = false;
  if (n->is_leaf) {
    n->elems.push_back(elem);
    if (n->Fanout() > options_.max_entries) return Split(n);
    *extended = AppendAgg(n, elem, /*below_extended=*/true);
    return nullptr;
  }
  // Least-enlargement child (ties by area).
  Node* best = nullptr;
  double best_enlarge = kInf, best_area = kInf;
  const Mbr elem_mbr(elem.pos);
  for (const auto& child : n->children) {
    const double enlarge = child->mbr.Enlargement(elem_mbr);
    const double area = child->mbr.Area();
    if (enlarge < best_enlarge ||
        (enlarge == best_enlarge && area < best_area)) {
      best_enlarge = enlarge;
      best_area = area;
      best = child.get();
    }
  }
  PSKY_DCHECK(best != nullptr);
  bool below_extended = false;
  std::unique_ptr<Node> sibling = InsertRec(best, elem, &below_extended);
  if (sibling == nullptr) {
    *extended = AppendAgg(n, elem, below_extended);
    return nullptr;
  }
  n->children.push_back(std::move(sibling));
  if (n->Fanout() > options_.max_entries) return Split(n);
  RecomputeAgg(n);
  return nullptr;
}

void SkyTree::InsertElem(const Elem& elem) {
  bool extended = false;
  std::unique_ptr<Node> sibling = InsertRec(root_.get(), elem, &extended);
  if (sibling != nullptr) {
    auto new_root = std::make_unique<Node>();
    new_root->is_leaf = false;
    // Keep the dirty chain intact: Reflag must still reach the flagged
    // regions now sitting one level deeper.
    new_root->dirty_some = root_->dirty_some || root_->dirty_all ||
                           sibling->dirty_some || sibling->dirty_all;
    new_root->children.push_back(std::move(root_));
    new_root->children.push_back(std::move(sibling));
    RecomputeAgg(new_root.get());
    root_ = std::move(new_root);
  }
}

bool SkyTree::RemoveRec(Node* n, const Point& pos, uint64_t seq,
                        Elem* removed, std::vector<Elem>* orphans) {
  ++counters_.nodes_visited;
  if (n->count == 0 || !n->mbr.Contains(pos)) return false;
  PushDown(n);
  if (n->is_leaf) {
    for (size_t i = 0; i < n->elems.size(); ++i) {
      if (n->elems[i].seq == seq && n->elems[i].pos == pos) {
        *removed = n->elems[i];
        n->elems.erase(n->elems.begin() + static_cast<ptrdiff_t>(i));
        RecomputeAgg(n);
        return true;
      }
    }
    return false;
  }
  for (size_t i = 0; i < n->children.size(); ++i) {
    Node* child = n->children[i].get();
    if (!RemoveRec(child, pos, seq, removed, orphans)) continue;
    if (child->count == 0 || child->Fanout() < options_.min_entries) {
      if (child->count > 0) CollectElems(child, orphans);
      n->children.erase(n->children.begin() + static_cast<ptrdiff_t>(i));
    }
    RecomputeAgg(n);
    return true;
  }
  return false;
}

void SkyTree::ShrinkRoot() {
  while (!root_->is_leaf && root_->children.size() == 1) {
    root_ = std::move(root_->children.front());
  }
  if (!root_->is_leaf && root_->children.empty()) {
    root_ = std::make_unique<Node>();
    root_->is_leaf = true;
    root_->mbr = Mbr::Empty(dims_);
    RecomputeAgg(root_.get());
  }
}

// ---------------------------------------------------------------------------
// Public mutation entry points.
// ---------------------------------------------------------------------------

void SkyTree::Arrive(const UncertainElement& e) {
  PSKY_DCHECK(e.pos.dims() == dims_);
  PSKY_DCHECK(e.prob >= kMinElementProb && e.prob <= kMaxElementProb);
  const double arrival_log_factor = LogOneMinusProb(e.prob);

  // Phase A: P_old(a_new) and P_new updates of dominated candidates.
  double pold_log_acc = 0.0;
  ProcessArrival(root_.get(), e, arrival_log_factor, &pold_log_acc);

  // Phase B: evict candidates whose P_new fell below the retention
  // threshold; condense underfull nodes. The scratch vectors are members
  // so their capacity survives across steps.
  std::vector<Elem>& evicted = scratch_evicted_;
  std::vector<Elem>& reinsert = scratch_reinsert_;
  evicted.clear();
  reinsert.clear();
  EvictPhase(root_.get(), /*is_root=*/true, &evicted, &reinsert);
  ShrinkRoot();
  for (Elem& el : reinsert) {
    // The element left the node that carried its dirty marker; its P_new
    // may have just changed, so re-band it before it lands elsewhere.
    RebandElem(&el);
    InsertElem(el);
  }

  // Phase C: survivors dominated by an evictee recover that factor in
  // their restricted P_old (every evictee is older than any surviving
  // dominated element, by Lemma 2).
  counters_.evictions += evicted.size();
  for (const Elem& gone : evicted) {
    --band_counts_[static_cast<size_t>(gone.band)];
    RecordEvent(gone.seq, gone.band, 0);
    ApplyOldForDominator(root_.get(), gone.pos,
                         -LogOneMinusProb(gone.prob));
  }

  // Phase D: the arrival itself always joins S_{N,q} (P_new = 1).
  Elem elem;
  elem.pos = e.pos;
  elem.prob = e.prob;
  elem.seq = e.seq;
  elem.time = e.time;
  elem.pnew_log = 0.0;
  elem.pold_log = pold_log_acc;
  elem.log_prob = std::log(e.prob);
  elem.log_one_minus_prob = LogOneMinusProb(e.prob);
  elem.band = BandOf(PskyLogOf(elem));
  ++band_counts_[static_cast<size_t>(elem.band)];
  RecordEvent(elem.seq, 0, elem.band);
  InsertElem(elem);

  // Phase E: re-band every region whose P_sky changed.
  Reflag(root_.get());
}

bool SkyTree::Expire(const UncertainElement& e) {
  PSKY_DCHECK(e.pos.dims() == dims_);
  Elem removed;
  std::vector<Elem> orphans;
  if (!RemoveRec(root_.get(), e.pos, e.seq, &removed, &orphans)) {
    return false;  // already evicted earlier; nothing to undo
  }
  ShrinkRoot();
  for (Elem& el : orphans) {
    RebandElem(&el);
    InsertElem(el);
  }
  --band_counts_[static_cast<size_t>(removed.band)];
  RecordEvent(removed.seq, removed.band, 0);

  // Elements it dominated recover the factor in their restricted P_old
  // (Algorithm 11 lines 4-17), then regions it touched are re-banded
  // (Move, Algorithm 11 line 20).
  ApplyOldForDominator(root_.get(), removed.pos,
                       -LogOneMinusProb(removed.prob));
  Reflag(root_.get());
  return true;
}

// ---------------------------------------------------------------------------
// Queries.
// ---------------------------------------------------------------------------

SkylineMember SkyTree::MakeMember(const Elem& e, double pnew_log,
                                  double pold_log) const {
  SkylineMember m;
  m.element.pos = e.pos;
  m.element.prob = e.prob;
  m.element.seq = e.seq;
  m.element.time = e.time;
  // P_old is a product of (1 - P) factors, so a positive log P_old can
  // only be rounding: a lazy sum restored to 0 from far below it (the
  // certain chain's passes -552,000) can land a few ulps of its
  // magnitude above. Report it as 1; bands and membership keep the
  // unclamped sums.
  const double reported_pold_log = std::min(pold_log, 0.0);
  m.pnew = std::exp(pnew_log);
  m.pold = std::exp(reported_pold_log);
  m.psky = std::exp(e.log_prob + pnew_log + reported_pold_log);
  m.in_skyline = e.band == 1;
  return m;
}

void SkyTree::ForEachNode(
    const Node* n, double acc_new_log, double acc_old_log,
    const std::function<void(const Elem&, double pnew_log, double pold_log)>&
        visit) const {
  if (n->count == 0) return;
  const double new_log = acc_new_log + n->lazy_new_log;
  const double old_log = acc_old_log + n->lazy_old_log;
  if (n->is_leaf) {
    for (const Elem& e : n->elems) {
      visit(e, e.pnew_log + new_log, e.pold_log + old_log);
    }
    return;
  }
  for (const auto& child : n->children) {
    ForEachNode(child.get(), new_log, old_log, visit);
  }
}

void SkyTree::ForEach(
    const std::function<void(const SkylineMember&, int band)>& visit) const {
  ForEachNode(root_.get(), 0.0, 0.0,
              [this, &visit](const Elem& e, double pnew_log, double pold_log) {
                visit(MakeMember(e, pnew_log, pold_log), e.band);
              });
}

std::vector<SkylineMember> SkyTree::CollectAtLeast(double qprime) const {
  std::vector<SkylineMember> out;
  CollectAtLeast(qprime, QueryControl::Unbounded(), &out);
  return out;
}

bool SkyTree::CollectAtLeast(double qprime, const QueryControl& ctl,
                             std::vector<SkylineMember>* out) const {
  PSKY_CHECK_MSG(qprime >= retention_threshold(),
                 "ad-hoc threshold must be >= the retention threshold");
  const double q_log = std::log(qprime);
  out->clear();
  QueryTicker ticker(ctl);

  struct Walker {
    const SkyTree* tree;
    double q_log;
    std::vector<SkylineMember>* out;
    QueryTicker* ticker;
    void Walk(const Node* n, double acc_new, double acc_old) {
      if (n->count == 0 || !ticker->Tick()) return;
      const double acc_psky = acc_new + acc_old;
      if (tree->options_.use_minmax_pruning &&
          n->max_psky_log + acc_psky < q_log) {
        return;
      }
      const double new_log = acc_new + n->lazy_new_log;
      const double old_log = acc_old + n->lazy_old_log;
      if (n->is_leaf) {
        for (const Elem& e : n->elems) {
          const double pnew = e.pnew_log + new_log;
          const double pold = e.pold_log + old_log;
          if (e.log_prob + pnew + pold >= q_log) {
            out->push_back(tree->MakeMember(e, pnew, pold));
          }
        }
        return;
      }
      for (const auto& child : n->children) {
        Walk(child.get(), new_log, old_log);
      }
    }
  };
  Walker{this, q_log, out, &ticker}.Walk(root_.get(), 0.0, 0.0);
  std::sort(out->begin(), out->end(),
            [](const SkylineMember& a, const SkylineMember& b) {
              return a.element.seq < b.element.seq;
            });
  return !ticker.stopped();
}

size_t SkyTree::CountAtLeast(double qprime) const {
  size_t total = 0;
  CountAtLeast(qprime, QueryControl::Unbounded(), &total);
  return total;
}

bool SkyTree::CountAtLeast(double qprime, const QueryControl& ctl,
                           size_t* out) const {
  PSKY_CHECK_MSG(qprime >= retention_threshold(),
                 "ad-hoc threshold must be >= the retention threshold");
  const double q_log = std::log(qprime);
  QueryTicker ticker(ctl);

  struct Walker {
    const SkyTree* tree;
    double q_log;
    QueryTicker* ticker;
    size_t total = 0;
    void Walk(const Node* n, double acc_psky) {
      if (n->count == 0 || !ticker->Tick()) return;
      if (tree->options_.use_minmax_pruning) {
        if (n->max_psky_log + acc_psky < q_log) return;
        if (n->min_psky_log + acc_psky >= q_log) {
          total += static_cast<size_t>(n->count);
          return;
        }
      }
      const double below = acc_psky + n->lazy_new_log + n->lazy_old_log;
      if (n->is_leaf) {
        for (const Elem& e : n->elems) {
          if (PskyLogOf(e) + below >= q_log) ++total;
        }
        return;
      }
      for (const auto& child : n->children) Walk(child.get(), below);
    }
  };
  Walker walker{this, q_log, &ticker};
  walker.Walk(root_.get(), 0.0);
  *out = walker.total;
  return !ticker.stopped();
}

std::vector<SkylineMember> SkyTree::TopK(size_t k) const {
  std::vector<SkylineMember> out;
  TopK(k, QueryControl::Unbounded(), &out);
  return out;
}

bool SkyTree::TopK(size_t k, const QueryControl& ctl,
                   std::vector<SkylineMember>* out) const {
  // Best-first search on the max P_sky aggregates: the tree acts as the
  // max-heap of Section VI's top-k extension. A cut-short run has already
  // emitted results in exact descending P_sky order, so the partial
  // answer is a true prefix of the full top-k ranking.
  struct Entry {
    double key;  // upper bound (node) or exact (element) log P_sky
    const Node* node;
    const Elem* elem;
    double acc_new, acc_old;
  };
  struct Compare {
    bool operator()(const Entry& a, const Entry& b) const {
      return a.key < b.key;  // max-heap
    }
  };
  out->clear();
  if (root_->count == 0 || k == 0) return true;
  QueryTicker ticker(ctl);

  std::priority_queue<Entry, std::vector<Entry>, Compare> heap;
  heap.push(Entry{root_->max_psky_log, root_.get(), nullptr, 0.0, 0.0});
  while (!heap.empty() && out->size() < k) {
    if (!ticker.Tick()) return false;
    const Entry top = heap.top();
    heap.pop();
    if (top.elem != nullptr) {
      out->push_back(MakeMember(*top.elem, top.elem->pnew_log + top.acc_new,
                                top.elem->pold_log + top.acc_old));
      continue;
    }
    const Node* n = top.node;
    const double new_log = top.acc_new + n->lazy_new_log;
    const double old_log = top.acc_old + n->lazy_old_log;
    if (n->is_leaf) {
      for (const Elem& e : n->elems) {
        heap.push(Entry{PskyLogOf(e) + new_log + old_log, nullptr, &e,
                        new_log, old_log});
      }
    } else {
      for (const auto& child : n->children) {
        if (child->count == 0) continue;
        heap.push(Entry{child->max_psky_log + new_log + old_log, child.get(),
                        nullptr, new_log, old_log});
      }
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Integrity auditing (src/core/audit.h).
// ---------------------------------------------------------------------------

bool SkyTree::FindForAudit(const Node* n, const Point& pos, uint64_t seq,
                           double acc_new, double acc_old,
                           uint64_t* nodes_visited, AuditView* out) const {
  if (nodes_visited != nullptr) ++*nodes_visited;
  if (n->count == 0 || !n->mbr.Contains(pos)) return false;
  const double new_log = acc_new + n->lazy_new_log;
  const double old_log = acc_old + n->lazy_old_log;
  if (n->is_leaf) {
    for (const Elem& e : n->elems) {
      if (e.seq != seq || !(e.pos == pos)) continue;
      out->found = true;
      out->prob = e.prob;
      out->pnew_log = e.pnew_log + new_log;
      out->pold_log = e.pold_log + old_log;
      out->band = e.band;
      return true;
    }
    return false;
  }
  for (const auto& child : n->children) {
    if (FindForAudit(child.get(), pos, seq, new_log, old_log, nodes_visited,
                     out)) {
      return true;
    }
  }
  return false;
}

SkyTree::AuditView SkyTree::LookupForAudit(const Point& pos,
                                           uint64_t seq) const {
  AuditView out;
  FindForAudit(root_.get(), pos, seq, 0.0, 0.0, &counters_.nodes_visited,
               &out);
  return out;
}

bool SkyTree::Contains(const Point& pos, uint64_t seq) const {
  AuditView out;
  return FindForAudit(root_.get(), pos, seq, 0.0, 0.0, nullptr, &out);
}

SkyTree::DominatorSums SkyTree::ExactDominators(const Point& pos,
                                                uint64_t seq) const {
  DominatorSums sums;
  struct Walker {
    const SkyTree* tree;
    const Point& pos;
    uint64_t seq;
    DominatorSums* sums;
    void Walk(const Node* n) {
      ++tree->counters_.nodes_visited;
      if (n->count == 0) return;
      // Only subtrees that might contain a dominator of `pos` matter; the
      // sums are rebuilt purely from element probabilities, so no lazy
      // push-down is needed (or wanted — the audit must not disturb the
      // state it is checking).
      if (ClassifyPointEntry(pos, n->mbr).entry_over_point ==
          DomRelation::kNone) {
        return;
      }
      if (n->is_leaf) {
        const int cnt = static_cast<int>(n->elems.size());
        tree->counters_.elements_touched += static_cast<uint64_t>(cnt);
        uint64_t cand[kDominanceKernelMaskWords];
        uint64_t dominated[kDominanceKernelMaskWords];
        DominanceBlockCompare(pos.data(), tree->dims_, n->soa.data,
                              tree->soa_stride_, cnt, cand, dominated);
        for (int w = 0; w < (cnt + 63) / 64; ++w) {
          for (uint64_t bits = cand[w]; bits != 0; bits &= bits - 1) {
            const int i = w * 64 + std::countr_zero(bits);
            const Elem& e = n->elems[static_cast<size_t>(i)];
            if (e.seq == seq) continue;
            if (e.seq > seq) {
              // order-sensitive: the audit re-derivation must sum in the
              // same ascending element order as the arrival path so its
              // "exact" values are reproducible bit-for-bit.
              sums->newer_log += e.log_one_minus_prob;
            } else {
              // order-sensitive: see above.
              sums->older_log += e.log_one_minus_prob;
            }
          }
        }
        return;
      }
      for (const auto& child : n->children) Walk(child.get());
    }
  };
  Walker{this, pos, seq, &sums}.Walk(root_.get());
  return sums;
}

bool SkyTree::RepairRec(Node* n, const Point& pos, uint64_t seq,
                        double pnew_log, double pold_log,
                        RepairOutcome* out) {
  ++counters_.nodes_visited;
  if (n->count == 0 || !n->mbr.Contains(pos)) return false;
  PushDown(n);
  if (n->is_leaf) {
    for (Elem& e : n->elems) {
      if (e.seq != seq || !(e.pos == pos)) continue;
      out->found = true;
      out->old_band = e.band;
      // Deliberate bitwise comparison: repair must report "changed" on ANY
      // representational difference so the audit drift counters stay exact.
      // psky-lint: allow(float-eq)
      out->value_changed = e.pnew_log != pnew_log || e.pold_log != pold_log;
      e.pnew_log = pnew_log;
      e.pold_log = pold_log;
      RebandElem(&e);
      out->new_band = e.band;
      RecomputeProbAgg(n);
      return true;
    }
    return false;
  }
  for (auto& child : n->children) {
    if (RepairRec(child.get(), pos, seq, pnew_log, pold_log, out)) {
      RecomputeProbAgg(n);
      return true;
    }
  }
  return false;
}

SkyTree::RepairOutcome SkyTree::RepairElement(const Point& pos, uint64_t seq,
                                              double pnew_log,
                                              double pold_log) {
  // <= 0.0 rejects NaN and positive values but permits -inf, which is a
  // legal log-probability when a dominator has prob exactly 1.0.
  PSKY_CHECK_MSG(pnew_log <= 0.0 && pold_log <= 0.0,
                 "RepairElement: repaired log-probabilities must be valid "
                 "log-domain values (<= 0)");
  RepairOutcome out;
  RepairRec(root_.get(), pos, seq, pnew_log, pold_log, &out);
  return out;
}

// ---------------------------------------------------------------------------
// Invariant validation (tests only).
// ---------------------------------------------------------------------------

void SkyTree::CheckInvariants(bool deep) const {
  constexpr double kTol = 1e-6;

  struct Expect {
    int64_t count = 0;
    double pnoc_log = 0.0;
    double min_pnew = kInf, max_pnew = -kInf;
    double min_psky = kInf, max_psky = -kInf;
    int band_lo = std::numeric_limits<int>::max();
    int band_hi = 0;
    Mbr mbr;
  };

  struct Checker {
    const SkyTree* tree;
    bool deep;
    int leaf_depth = -1;
    std::vector<size_t> band_tally;

    Expect Walk(const Node* n, int depth, bool is_root, double acc_new,
                double acc_old) {
      if (!is_root) {
        PSKY_CHECK(n->Fanout() >= tree->options_.min_entries);
      }
      PSKY_CHECK(n->Fanout() <= tree->options_.max_entries);

      Expect ex;
      ex.mbr = Mbr::Empty(tree->dims_);
      const double new_log = acc_new + n->lazy_new_log;
      const double old_log = acc_old + n->lazy_old_log;
      if (n->is_leaf) {
        if (leaf_depth < 0) leaf_depth = depth;
        PSKY_CHECK(leaf_depth == depth);
        // The SoA coordinate mirror must match the element array exactly.
        PSKY_CHECK(n->soa.data != nullptr);
        for (size_t i = 0; i < n->elems.size(); ++i) {
          for (int k = 0; k < tree->dims_; ++k) {
            PSKY_CHECK(n->soa.data[static_cast<size_t>(k) *
                                       static_cast<size_t>(tree->soa_stride_) +
                                   i] == n->elems[i].pos[k]);
          }
        }
        for (const Elem& e : n->elems) {
          ex.mbr.Expand(e.pos);
          ++ex.count;
          // order-sensitive: element order, as Rescan sums it (compared
          // within kTol below).
          ex.pnoc_log += LogOneMinusProb(e.prob);
          // Cached logs must match their definitions exactly.
          PSKY_CHECK(e.log_prob == std::log(e.prob));
          PSKY_CHECK(e.log_one_minus_prob == LogOneMinusProb(e.prob));
          const double pnew = e.pnew_log + new_log;
          const double pold = e.pold_log + old_log;
          const double psky = std::log(e.prob) + pnew + pold;
          ex.min_pnew = std::min(ex.min_pnew, pnew);
          ex.max_pnew = std::max(ex.max_pnew, pnew);
          ex.min_psky = std::min(ex.min_psky, psky);
          ex.max_psky = std::max(ex.max_psky, psky);
          ex.band_lo = std::min(ex.band_lo, e.band);
          ex.band_hi = std::max(ex.band_hi, e.band);
          ++band_tally[static_cast<size_t>(e.band)];
          if (deep) {
            // Band labels must match the element's materialized P_sky,
            // except for values within rounding reach of a threshold.
            const int want = tree->BandOf(psky);
            if (want != e.band) {
              bool near_boundary = false;
              for (double t : tree->thresholds_log_) {
                if (std::abs(psky - t) < 1e-9) near_boundary = true;
              }
              PSKY_CHECK_MSG(near_boundary, "stale band");
            }
          }
        }
      } else {
        PSKY_CHECK(!n->children.empty());
        for (const auto& child : n->children) {
          Expect sub =
              Walk(child.get(), depth + 1, false, new_log, old_log);
          ex.mbr.Expand(sub.mbr);
          ex.count += sub.count;
          // order-sensitive: child order, as Rescan sums it.
          ex.pnoc_log += sub.pnoc_log;
          ex.min_pnew = std::min(ex.min_pnew, sub.min_pnew);
          ex.max_pnew = std::max(ex.max_pnew, sub.max_pnew);
          ex.min_psky = std::min(ex.min_psky, sub.min_psky);
          ex.max_psky = std::max(ex.max_psky, sub.max_psky);
          ex.band_lo = std::min(ex.band_lo, sub.band_lo);
          ex.band_hi = std::max(ex.band_hi, sub.band_hi);
        }
      }

      PSKY_CHECK(ex.count == n->count);
      PSKY_CHECK(ex.mbr == n->mbr);
      PSKY_CHECK(std::abs(ex.pnoc_log - n->pnoc_log) <=
                 kTol * (1.0 + std::abs(ex.pnoc_log)));
      if (ex.count > 0) {
        // Stored bounds are relative to ancestors' lazies: compare after
        // adding the accumulated ancestor addends.
        PSKY_CHECK(std::abs(ex.min_pnew - (n->min_pnew_log + acc_new)) <=
                   kTol * (1.0 + std::abs(ex.min_pnew)));
        PSKY_CHECK(std::abs(ex.max_pnew - (n->max_pnew_log + acc_new)) <=
                   kTol * (1.0 + std::abs(ex.max_pnew)));
        PSKY_CHECK(std::abs(ex.min_psky -
                            (n->min_psky_log + acc_new + acc_old)) <=
                   kTol * (1.0 + std::abs(ex.min_psky)));
        PSKY_CHECK(std::abs(ex.max_psky -
                            (n->max_psky_log + acc_new + acc_old)) <=
                   kTol * (1.0 + std::abs(ex.max_psky)));
        PSKY_CHECK(ex.band_lo == n->band_lo);
        PSKY_CHECK(ex.band_hi == n->band_hi);
      }
      return ex;
    }
  };

  Checker checker{this, deep, -1, {}};
  checker.band_tally.assign(band_counts_.size(), 0);
  if (root_->count == 0) {
    PSKY_CHECK(root_->is_leaf && root_->elems.empty());
  } else {
    checker.Walk(root_.get(), 0, /*is_root=*/true, 0.0, 0.0);
  }
  for (size_t b = 0; b < band_counts_.size(); ++b) {
    PSKY_CHECK(checker.band_tally[b] == band_counts_[b]);
  }
}

}  // namespace psky
