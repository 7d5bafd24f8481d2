#include "core/sky_tree.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <utility>

#include "base/check.h"
#include "geom/dominance.h"

namespace psky {

namespace {
constexpr size_t kNpos = std::numeric_limits<size_t>::max();
// Below any sum of terms: the P_sky bound of an empty block.
constexpr LogSum kNoSum = -(static_cast<LogSum>(1) << 120);
}  // namespace

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
    threshold_sums_.push_back(QuantizeLog(std::log(thresholds_[i])));
  }
  band_counts_.assign(thresholds_.size() + 2, 0);
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

int SkyTree::BandOf(LogSum psky) const {
  const int k = num_thresholds();
  for (int i = 0; i < k; ++i) {
    if (psky >= threshold_sums_[static_cast<size_t>(i)]) return i + 1;
  }
  return k + 1;
}

// Trivial event-queue drain; no store state is touched, so there is no
// invariant to check.
// psky-lint: allow(mutation-guard)
void SkyTree::DrainBandChanges(std::vector<BandChange>* out) {
  out->clear();
  out->swap(events_);
}

// ---------------------------------------------------------------------------
// Slots and blocks.
// ---------------------------------------------------------------------------

int SkyTree::SlotsIn(size_t block) const {
  return static_cast<int>(
      std::min<size_t>(kBlock, num_slots() - block * kBlock));
}

Point SkyTree::PosOf(size_t slot) const {
  Point p(dims_);
  for (int k = 0; k < dims_; ++k) p[k] = Coord(slot, k);
  return p;
}

SkylineMember SkyTree::MemberOf(size_t slot) const {
  const Slot& s = slots_[slot];
  UncertainElement e;
  e.pos = PosOf(slot);
  e.prob = s.prob;
  e.seq = s.seq;
  e.time = s.time;
  return MakeSkylineMember(e, s.log_prob, s.pnew, PoldOf(slot), s.band == 1);
}

SkyTree::Reach SkyTree::ReachOf(const Block& b, const double* probe) const {
  bool lo_le = true;  // lo <= probe
  bool le_hi = true;  // probe <= hi
  bool hi_le = true;  // hi <= probe
  bool hi_lt = false;
  bool le_lo = true;  // probe <= lo
  bool lt_lo = false;
  for (int k = 0; k < dims_; ++k) {
    const double p = probe[k];
    lo_le = lo_le && b.lo[k] <= p;
    le_hi = le_hi && p <= b.hi[k];
    hi_le = hi_le && b.hi[k] <= p;
    hi_lt = hi_lt || b.hi[k] < p;
    le_lo = le_lo && p <= b.lo[k];
    lt_lo = lt_lo || p < b.lo[k];
  }
  return Reach{lo_le, le_hi, hi_le && hi_lt, le_lo && lt_lo};
}

void SkyTree::Compare(size_t block, const double* probe, uint64_t* over_probe,
                      uint64_t* under_probe) const {
  const int n = SlotsIn(block);
  counters_.elements_touched += static_cast<uint64_t>(n);
  DominanceBlockCompare(probe, dims_, BlockCoords(block), kBlock, n,
                        over_probe, under_probe);
  const int words = (n + 63) / 64;
  for (int w = 0; w < kWords; ++w) {
    const uint64_t live = w < words ? LiveWord(block, w) : 0;
    over_probe[w] = w < words ? over_probe[w] & live : 0;
    under_probe[w] = w < words ? under_probe[w] & live : 0;
  }
}

size_t SkyTree::FindSeq(uint64_t seq) const {
  const auto it = std::lower_bound(
      slots_.begin(), slots_.end(), seq,
      [](const Slot& s, uint64_t want) { return s.seq < want; });
  if (it == slots_.end() || it->seq != seq) return kNpos;
  return static_cast<size_t>(it - slots_.begin());
}

size_t SkyTree::Find(const Point& pos, uint64_t seq) const {
  const size_t i = FindSeq(seq);
  return i != kNpos && PosOf(i) == pos ? i : kNpos;
}

void SkyTree::Append(const UncertainElement& e, int64_t term, LogSum pold) {
  const size_t i = num_slots();
  if (i % kBlock == 0) {
    Block b;
    std::fill(b.lo, b.lo + kMaxDims, std::numeric_limits<double>::infinity());
    std::fill(b.hi, b.hi + kMaxDims, -std::numeric_limits<double>::infinity());
    b.psky_hi = kNoSum;
    blocks_.push_back(b);
    coords_.resize(coords_.size() + static_cast<size_t>(dims_) * kBlock);
    live_.resize(live_.size() + kWords, 0);
  }
  Block& b = blocks_.back();
  Slot s;
  s.pold = pold - b.pold_shift;
  s.term = term;
  s.log_prob = LogProbOf(e.prob);
  s.seq = e.seq;
  s.prob = e.prob;
  s.time = e.time;
  s.band = BandOf(s.log_prob + pold);
  slots_.push_back(s);
  RaiseBound(i);

  double* col = coords_.data() + (blocks_.size() - 1) *
                                     static_cast<size_t>(dims_) * kBlock +
                i % kBlock;
  for (int k = 0; k < dims_; ++k) {
    const double x = e.pos[k];
    col[static_cast<size_t>(k) * kBlock] = x;
    b.lo[k] = std::min(b.lo[k], x);
    b.hi[k] = std::max(b.hi[k], x);
  }
  live_[i / 64] |= uint64_t{1} << (i % 64);
  ++b.live;
  b.term_sum += term;
  ++live_count_;
  ++band_counts_[static_cast<size_t>(s.band)];
  RecordEvent(s.seq, 0, s.band);
}

void SkyTree::Kill(size_t i) {
  Slot& s = slots_[i];
  Block& b = blocks_[i / kBlock];
  live_[i / 64] &= ~(uint64_t{1} << (i % 64));
  --b.live;
  b.term_sum -= s.term;
  --live_count_;
  ++dead_count_;
  --band_counts_[static_cast<size_t>(s.band)];
  RecordEvent(s.seq, s.band, 0);
}

void SkyTree::MarkDirty(size_t i) {
  Slot& s = slots_[i];
  if (s.dirty) return;
  s.dirty = true;
  dirty_.push_back(i);
}

void SkyTree::GiveBack(size_t g, bool older_too) {
  double probe[kMaxDims];
  for (int k = 0; k < dims_; ++k) probe[k] = Coord(g, k);
  const int64_t term = slots_[g].term;
  const size_t gb = g / kBlock;
  for (size_t b = older_too ? 0 : gb; b < blocks_.size(); ++b) {
    if (blocks_[b].live == 0) continue;
    ++counters_.nodes_visited;
    const Reach r = ReachOf(blocks_[b], probe);
    if (!r.dominated_by_probe) continue;
    if (b > gb && r.probe_dominates_all) {
      // Every slot of the block is newer than g and dominated by it.
      Block& blk = blocks_[b];
      blk.pold_shift -= term;
      if (!blk.reband) {
        blk.reband = true;
        reband_blocks_.push_back(b);
      }
      continue;
    }
    uint64_t over[kWords];
    uint64_t under[kWords];
    Compare(b, probe, over, under);
    if (b == gb && !older_too) {
      // Only slots after g: clear g's bit and every bit below it.
      const size_t at = g % kBlock;
      for (size_t w = 0; w < at / 64; ++w) under[w] = 0;
      under[at / 64] &= ~uint64_t{0} << (at % 64) << 1;
    }
    for (int w = 0; w < kWords; ++w) {
      for (uint64_t bits = under[w]; bits != 0; bits &= bits - 1) {
        const size_t i = b * kBlock + static_cast<size_t>(w) * 64 +
                         static_cast<size_t>(std::countr_zero(bits));
        // g is dead, so never i itself.
        (i > g ? slots_[i].pold : slots_[i].pnew) -= term;
        RaiseBound(i);
        MarkDirty(i);
      }
    }
  }
}

void SkyTree::Reband() {
  const auto reband = [this](size_t i) {
    Slot& s = slots_[i];
    const int band = BandOf(PskyOf(i));
    if (band == s.band) return;
    --band_counts_[static_cast<size_t>(s.band)];
    ++band_counts_[static_cast<size_t>(band)];
    RecordEvent(s.seq, s.band, band);
    s.band = band;
    ++counters_.band_flips;
  };
  for (const size_t i : dirty_) {
    slots_[i].dirty = false;
    if (IsLive(i)) reband(i);
  }
  dirty_.clear();
  // A shifted block whose bound stays below every threshold held only
  // slots of the last band before the shift raised them, and still does.
  for (const size_t b : reband_blocks_) {
    Block& blk = blocks_[b];
    blk.reband = false;
    if (blk.psky_hi + blk.pold_shift < threshold_sums_.back()) continue;
    ++counters_.nodes_visited;
    const size_t end = b * kBlock + static_cast<size_t>(SlotsIn(b));
    for (size_t i = b * kBlock; i < end; ++i) {
      if (IsLive(i)) reband(i);
    }
  }
  reband_blocks_.clear();
}

void SkyTree::MaybeCompact() {
  if (dead_count_ == 0 || dead_count_ * 8 < num_slots()) return;
  const size_t n = num_slots();
  size_t j = 0;
  for (size_t i = 0; i < n; ++i) {
    if (!IsLive(i)) continue;
    // The block shift goes into the slot, exactly.
    slots_[i].pold = PoldOf(i);
    if (i != j) {
      slots_[j] = slots_[i];
      for (int k = 0; k < dims_; ++k) {
        const double x = Coord(i, k);
        coords_[(j / kBlock * static_cast<size_t>(dims_) +
                 static_cast<size_t>(k)) *
                    kBlock +
                j % kBlock] = x;
      }
    }
    ++j;
  }
  const size_t num_blocks = (j + kBlock - 1) / kBlock;
  slots_.resize(j);
  coords_.resize(num_blocks * static_cast<size_t>(dims_) * kBlock);
  live_.assign(num_blocks * kWords, 0);
  blocks_.resize(num_blocks);
  for (size_t b = 0; b < num_blocks; ++b) {
    Block& blk = blocks_[b];
    blk.term_sum = 0;
    blk.pold_shift = 0;
    blk.psky_hi = kNoSum;
    blk.live = SlotsIn(b);
    for (int k = 0; k < dims_; ++k) {
      const double* row = BlockCoords(b) + static_cast<size_t>(k) * kBlock;
      blk.lo[k] = *std::min_element(row, row + blk.live);
      blk.hi[k] = *std::max_element(row, row + blk.live);
    }
    for (int t = 0; t < blk.live; ++t) {
      const size_t i = b * kBlock + static_cast<size_t>(t);
      blk.term_sum += slots_[i].term;
      live_[i / 64] |= uint64_t{1} << (i % 64);
      RaiseBound(i);
    }
  }
  dead_count_ = 0;
}

// ---------------------------------------------------------------------------
// Arrival and expiry (paper Algorithms 4 and 11).
// ---------------------------------------------------------------------------

void SkyTree::Arrive(const UncertainElement& e) {
  PSKY_DCHECK(e.pos.dims() == dims_);
  PSKY_DCHECK(e.prob >= kMinElementProb && e.prob <= kMaxElementProb);
  PSKY_CHECK_MSG(slots_.empty() || e.seq > slots_.back().seq,
                 "arrival seq must increase");
  const int64_t term = LogTermOf(e.prob);
  const LogSum retain = threshold_sums_.back();
  const double* probe = e.pos.data();

  // One pass over the blocks: the dominators' terms make the arrival's
  // P_old; every dominated candidate takes the arrival's term into its
  // P_new and dies at once if that falls below the retention threshold.
  LogSum pold = 0;
  evicted_.clear();
  for (size_t b = 0; b < blocks_.size(); ++b) {
    const Block& blk = blocks_[b];
    if (blk.live == 0) continue;
    ++counters_.nodes_visited;
    const Reach r = ReachOf(blk, probe);
    if (r.all_dominate_probe) {
      pold += blk.term_sum;
      continue;
    }
    if (!r.dominates_probe && !r.dominated_by_probe) continue;
    uint64_t over[kWords];
    uint64_t under[kWords];
    Compare(b, probe, over, under);
    for (int w = 0; w < kWords; ++w) {
      const size_t base = b * kBlock + static_cast<size_t>(w) * 64;
      for (uint64_t bits = over[w]; bits != 0; bits &= bits - 1) {
        pold += slots_[base + static_cast<size_t>(std::countr_zero(bits))].term;
      }
      for (uint64_t bits = under[w]; bits != 0; bits &= bits - 1) {
        const size_t i = base + static_cast<size_t>(std::countr_zero(bits));
        slots_[i].pnew += term;
        if (slots_[i].pnew < retain) {
          Kill(i);
          evicted_.push_back(i);
        } else {
          MarkDirty(i);
        }
      }
    }
  }
  // A slot repaired below the threshold leaves with this arrival's
  // evictees, as Algorithm 9 evicts every P_new below q.
  for (const uint64_t seq : repaired_below_) {
    const size_t i = FindSeq(seq);
    if (i != kNpos && IsLive(i) && slots_[i].pnew < retain) {
      Kill(i);
      evicted_.push_back(i);
    }
  }
  repaired_below_.clear();
  counters_.evictions += evicted_.size();

  // Each evictee gives its term back to the newer survivors it dominated.
  // No older survivor needs it: an evictee's newer dominators dominate
  // every older element it dominates, so that element fell below the
  // threshold in this same pass (Lemma 2).
  for (const size_t g : evicted_) GiveBack(g, /*older_too=*/false);

  // The arrival always joins S_{N,q} (P_new = 1).
  Append(e, term, pold);
  Reband();
  MaybeCompact();
}

bool SkyTree::Expire(const UncertainElement& e) {
  PSKY_DCHECK(e.pos.dims() == dims_);
  const size_t i = Find(e.pos, e.seq);
  if (i == kNpos || !IsLive(i)) {
    return false;  // already evicted earlier; nothing to undo
  }
  // The slots it dominates take its term back out: the newer ones out of
  // P_old, and, should a caller expire out of window order, the older
  // ones out of P_new.
  Kill(i);
  GiveBack(i, /*older_too=*/true);
  Reband();
  MaybeCompact();
  return true;
}

// ---------------------------------------------------------------------------
// Queries.
// ---------------------------------------------------------------------------

void SkyTree::ForEach(
    const std::function<void(const SkylineMember&, int band)>& visit) const {
  for (size_t i = 0; i < num_slots(); ++i) {
    if (IsLive(i)) visit(MemberOf(i), slots_[i].band);
  }
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
  const LogSum q = QuantizeLog(std::log(qprime));
  out->clear();
  QueryTicker ticker(ctl);
  for (size_t b = 0; b < blocks_.size(); ++b) {
    if (!ticker.Tick()) return false;
    const size_t end = b * kBlock + static_cast<size_t>(SlotsIn(b));
    for (size_t i = b * kBlock; i < end; ++i) {
      if (IsLive(i) && PskyOf(i) >= q) out->push_back(MemberOf(i));
    }
  }
  return true;
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
  const LogSum q = QuantizeLog(std::log(qprime));
  QueryTicker ticker(ctl);
  *out = 0;
  for (size_t b = 0; b < blocks_.size(); ++b) {
    if (!ticker.Tick()) return false;
    const size_t end = b * kBlock + static_cast<size_t>(SlotsIn(b));
    for (size_t i = b * kBlock; i < end; ++i) {
      if (IsLive(i) && PskyOf(i) >= q) ++*out;
    }
  }
  return true;
}

std::vector<SkylineMember> SkyTree::TopK(size_t k) const {
  std::vector<SkylineMember> out;
  TopK(k, QueryControl::Unbounded(), &out);
  return out;
}

bool SkyTree::TopK(size_t k, const QueryControl& ctl,
                   std::vector<SkylineMember>* out) const {
  out->clear();
  if (live_count_ == 0 || k == 0) return true;
  QueryTicker ticker(ctl);
  std::vector<std::pair<LogSum, size_t>> ranked;
  ranked.reserve(live_count_);
  for (size_t b = 0; b < blocks_.size(); ++b) {
    if (!ticker.Tick()) return false;
    const size_t end = b * kBlock + static_cast<size_t>(SlotsIn(b));
    for (size_t i = b * kBlock; i < end; ++i) {
      if (IsLive(i)) ranked.emplace_back(PskyOf(i), i);
    }
  }
  // Highest P_sky first; equal sums by seq, which is slot order.
  const auto top = ranked.begin() +
                   static_cast<ptrdiff_t>(std::min(k, ranked.size()));
  std::partial_sort(ranked.begin(), top, ranked.end(),
                    [](const auto& a, const auto& b) {
                      return a.first > b.first ||
                             (a.first == b.first && a.second < b.second);
                    });
  for (auto it = ranked.begin(); it != top; ++it) {
    out->push_back(MemberOf(it->second));
  }
  return true;
}

// ---------------------------------------------------------------------------
// Integrity auditing (src/core/audit.h).
// ---------------------------------------------------------------------------

SkyTree::AuditView SkyTree::LookupForAudit(const Point& pos,
                                           uint64_t seq) const {
  ++counters_.nodes_visited;
  AuditView out;
  const size_t i = Find(pos, seq);
  if (i == kNpos || !IsLive(i)) return out;
  const Slot& s = slots_[i];
  out.found = true;
  out.prob = s.prob;
  out.pnew = s.pnew;
  out.pold = PoldOf(i);
  out.band = s.band;
  return out;
}

bool SkyTree::Contains(const Point& pos, uint64_t seq) const {
  const size_t i = Find(pos, seq);
  return i != kNpos && IsLive(i);
}

SkyTree::DominatorSums SkyTree::ExactDominators(const Point& pos,
                                                uint64_t seq) const {
  DominatorSums sums;
  const double* probe = pos.data();
  for (size_t b = 0; b < blocks_.size(); ++b) {
    const Block& blk = blocks_[b];
    if (blk.live == 0) continue;
    ++counters_.nodes_visited;
    const Reach r = ReachOf(blk, probe);
    if (!r.dominates_probe) continue;
    if (r.all_dominate_probe) {
      // A whole block on one side of `seq` adds its sum in O(1).
      if (slots_[b * kBlock].seq > seq) {
        sums.newer += blk.term_sum;
        continue;
      }
      if (slots_[b * kBlock + static_cast<size_t>(SlotsIn(b)) - 1].seq <
          seq) {
        sums.older += blk.term_sum;
        continue;
      }
    }
    uint64_t over[kWords];
    uint64_t under[kWords];
    Compare(b, probe, over, under);
    for (int w = 0; w < kWords; ++w) {
      const size_t base = b * kBlock + static_cast<size_t>(w) * 64;
      for (uint64_t bits = over[w]; bits != 0; bits &= bits - 1) {
        const Slot& s =
            slots_[base + static_cast<size_t>(std::countr_zero(bits))];
        if (s.seq > seq) {
          sums.newer += s.term;
        } else if (s.seq < seq) {
          sums.older += s.term;
        }
      }
    }
  }
  return sums;
}

SkyTree::RepairOutcome SkyTree::RepairElement(const Point& pos, uint64_t seq,
                                              LogSum pnew, LogSum pold) {
  // A sum of log(1 - P) terms is never positive.
  PSKY_CHECK_MSG(pnew <= 0 && pold <= 0,
                 "RepairElement: repaired log-probabilities must be valid "
                 "log-domain values (<= 0)");
  RepairOutcome out;
  const size_t i = Find(pos, seq);
  if (i == kNpos || !IsLive(i)) return out;
  Slot& s = slots_[i];
  out.found = true;
  out.old_band = s.band;
  // Exact integer sums: != is the intended identity test.
  // psky-lint: allow(float-eq)
  out.value_changed = s.pnew != pnew || PoldOf(i) != pold;
  s.pnew = pnew;
  s.pold = pold - blocks_[i / kBlock].pold_shift;
  if (pnew < threshold_sums_.back()) repaired_below_.push_back(seq);
  RaiseBound(i);
  MarkDirty(i);
  Reband();
  out.new_band = s.band;
  return out;
}

// ---------------------------------------------------------------------------
// Invariant validation (tests only).
// ---------------------------------------------------------------------------

void SkyTree::CheckInvariants(bool deep) const {
  const size_t n = num_slots();
  PSKY_CHECK(blocks_.size() == (n + kBlock - 1) / kBlock);
  PSKY_CHECK(coords_.size() ==
             blocks_.size() * static_cast<size_t>(dims_) * kBlock);
  PSKY_CHECK(live_.size() == blocks_.size() * kWords);
  PSKY_CHECK(dirty_.empty() && reband_blocks_.empty());
  std::vector<size_t> band_tally(band_counts_.size(), 0);
  size_t live_total = 0;
  for (size_t b = 0; b < blocks_.size(); ++b) {
    const Block& blk = blocks_[b];
    LogSum term_sum = 0;
    int live = 0;
    const size_t end = b * kBlock + static_cast<size_t>(SlotsIn(b));
    for (size_t i = b * kBlock; i < end; ++i) {
      const Slot& s = slots_[i];
      PSKY_CHECK(i == 0 || slots_[i - 1].seq < s.seq);
      PSKY_CHECK(!s.dirty);
      PSKY_CHECK(s.term == LogTermOf(s.prob));
      PSKY_CHECK(s.log_prob == LogProbOf(s.prob));
      for (int k = 0; k < dims_; ++k) {
        PSKY_CHECK(blk.lo[k] <= Coord(i, k) && Coord(i, k) <= blk.hi[k]);
      }
      if (!IsLive(i)) continue;
      term_sum += s.term;
      ++live;
      ++band_tally[static_cast<size_t>(s.band)];
      PSKY_CHECK_MSG(s.band == BandOf(PskyOf(i)), "stale band");
      PSKY_CHECK(s.log_prob + s.pnew + s.pold <= blk.psky_hi);
    }
    for (size_t i = end; i < (b + 1) * kBlock; ++i) PSKY_CHECK(!IsLive(i));
    PSKY_CHECK(term_sum == blk.term_sum);
    PSKY_CHECK(live == blk.live);
    PSKY_CHECK(!blk.reband);
    live_total += static_cast<size_t>(live);
  }
  PSKY_CHECK(live_total == live_count_);
  PSKY_CHECK(n - live_total == dead_count_);
  for (size_t b = 0; b < band_counts_.size(); ++b) {
    PSKY_CHECK(band_tally[b] == band_counts_[b]);
  }
  if (!deep) return;
  // Every live slot's sums are exactly the sums over the live set: its
  // newer dominators' terms in P_new (all of them are live, Lemma 2), its
  // older ones' in P_old.
  for (size_t i = 0; i < n; ++i) {
    if (!IsLive(i)) continue;
    const Point pos = PosOf(i);
    LogSum pnew = 0;
    LogSum pold = 0;
    for (size_t j = 0; j < n; ++j) {
      if (j == i || !IsLive(j) || !Dominates(PosOf(j), pos)) continue;
      (j > i ? pnew : pold) += slots_[j].term;
    }
    PSKY_CHECK_MSG(slots_[i].pnew == pnew, "P_new differs from its sum");
    PSKY_CHECK_MSG(PoldOf(i) == pold, "P_old differs from its sum");
    PSKY_CHECK(pnew >= threshold_sums_.back());
  }
}

}  // namespace psky
