#include "core/naive_operator.h"

#include <algorithm>
#include <cmath>

#include "base/check.h"
#include "geom/dominance.h"

namespace psky {

NaiveSkylineOperator::NaiveSkylineOperator(int dims, double q)
    : dims_(dims), q_(q), q_sum_(QuantizeLog(std::log(q))) {
  PSKY_CHECK_MSG(dims >= 1 && dims <= kMaxDims, "dims out of range");
  PSKY_CHECK_MSG(q > 1e-9 && q <= 1.0, "threshold must be in (1e-9, 1]");
}

void NaiveSkylineOperator::Insert(const UncertainElement& raw) {
  ++stats_.arrivals;
  UncertainElement e = raw;
  e.prob = ClampProb(e.prob);
  const int64_t e_term = LogTermOf(e.prob);

  // 1) P_old of the arrival over the current candidate set, and P_new
  //    updates of the candidates it dominates.
  LogSum pold_new = 0;
  for (Entry& entry : set_) {
    ++stats_.elements_touched;
    if (Dominates(entry.elem.pos, e.pos)) {
      pold_new += entry.term;
    } else if (Dominates(e.pos, entry.elem.pos)) {
      entry.pnew += e_term;
    }
  }

  // 2) Evict candidates whose P_new dropped below q.
  std::vector<Entry> evicted;
  size_t keep = 0;
  for (size_t i = 0; i < set_.size(); ++i) {
    if (set_[i].pnew < q_sum_) {
      evicted.push_back(set_[i]);
    } else {
      set_[keep++] = set_[i];
    }
  }
  set_.resize(keep);
  stats_.evictions += evicted.size();

  // 3) Survivors dominated by an evictee lose that factor from their
  //    restricted P_old. (By Lemma 2 every such evictee is older than the
  //    survivor, so the factor lives in P_old, never in P_new.)
  if (!evicted.empty()) {
    for (Entry& entry : set_) {
      for (const Entry& gone : evicted) {
        ++stats_.elements_touched;
        if (Dominates(gone.elem.pos, entry.elem.pos)) {
          entry.pold -= gone.term;
        }
      }
    }
  }

  // 4) The arrival always joins S_{N,q} (its P_new is 1).
  set_.push_back(Entry{e, e_term, LogProbOf(e.prob), /*pnew=*/0,
                       /*pold=*/pold_new});
}

void NaiveSkylineOperator::Expire(const UncertainElement& e) {
  ++stats_.expirations;
  // The expiring element may have been evicted earlier; then its factor is
  // already absent from every restricted probability.
  auto it = std::find_if(set_.begin(), set_.end(), [&e](const Entry& entry) {
    return entry.elem.seq == e.seq;
  });
  if (it == set_.end()) return;
  const Entry gone = *it;
  set_.erase(it);
  // The oldest window element is older than every candidate, so its term
  // sits in their P_old; an element expired out of window order also
  // sits in the P_new of the older candidates it dominates.
  for (Entry& entry : set_) {
    ++stats_.elements_touched;
    if (Dominates(gone.elem.pos, entry.elem.pos)) {
      (entry.elem.seq > gone.elem.seq ? entry.pold : entry.pnew) -= gone.term;
    }
  }
}

size_t NaiveSkylineOperator::skyline_count() const {
  size_t n = 0;
  for (const Entry& entry : set_) {
    if (entry.psky() >= q_sum_) ++n;
  }
  return n;
}

std::vector<SkylineMember> NaiveSkylineOperator::Collect(
    bool skyline_only) const {
  std::vector<SkylineMember> out;
  for (const Entry& entry : set_) {
    const bool in_sky = entry.psky() >= q_sum_;
    if (skyline_only && !in_sky) continue;
    out.push_back(MakeSkylineMember(entry.elem, entry.log_prob, entry.pnew,
                                    entry.pold, in_sky));
  }
  std::sort(out.begin(), out.end(),
            [](const SkylineMember& a, const SkylineMember& b) {
              return a.element.seq < b.element.seq;
            });
  return out;
}

std::vector<SkylineMember> NaiveSkylineOperator::Skyline() const {
  return Collect(/*skyline_only=*/true);
}

std::vector<SkylineMember> NaiveSkylineOperator::Candidates() const {
  return Collect(/*skyline_only=*/false);
}

}  // namespace psky
