// Fuzz target for the continuous operators against exact oracles.
//
// The input decodes into a tiny stream built to tie: d in 1..4 with
// coordinates from a 4-value alphabet per dimension (duplicates and
// shared coordinates are common), probabilities from {1e-12, 0.1, 0.3,
// 0.4, 0.5, 0.7, 1 - 1e-12, 1} (which holds 1 - q_i for every threshold,
// so a P_new can land exactly on one), thresholds {0.3} or
// {0.9, 0.6, 0.3}, and a count window of 1..24 elements.
//
//   byte 0   bits 0-1: d - 1; bit 2: three thresholds; bit 3: 3 shards
//   byte 1   window size - 1, mod 24
//   then per element: a coordinate byte (2 bits per dimension) and a
//   probability byte (low 3 bits index the alphabet)
//
// After every step it checks, through the public API only:
//   * SSKY's q-skyline and every MSKY band against Eq. (1) over the
//     window (AllSkylineProbabilities), skipping an element only where
//     its exact P_sky lies within 1e-9 of the threshold in question;
//   * SSKY's and MSKY's S_{N,q} against NaiveSkylineOperator exactly,
//     and every reported value within 1e-9;
//   * ForEach and CollectAtLeast in seq order, and CollectAtLeast,
//     CountAtLeast and TopK against a filter and a sort of the reported
//     values;
//   * ShardEngine with 2 or 3 shards against the sequential operator,
//     bit for bit. Each input starts and joins its own worker threads.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "core/msky_operator.h"
#include "core/naive_operator.h"
#include "core/operator.h"
#include "core/possible_worlds.h"
#include "core/shard_engine.h"
#include "core/ssky_operator.h"
#include "stream/window.h"

namespace {

using psky::SkylineMember;
using psky::UncertainElement;

constexpr double kProbs[] = {1e-12, 0.1, 0.3, 0.4, 0.5, 0.7, 1.0 - 1e-12,
                             1.0};
constexpr size_t kMaxElements = 64;
constexpr double kTol = 1e-9;

void Require(bool cond, const char* what, uint64_t step) {
  if (!cond) {
    std::fprintf(stderr, "fuzz_operator invariant violated at step %llu: %s\n",
                 static_cast<unsigned long long>(step), what);
    std::abort();
  }
}

bool Near(double a, double b) { return std::abs(a - b) <= kTol; }

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

std::vector<uint64_t> SeqsOf(const std::vector<SkylineMember>& members) {
  std::vector<uint64_t> seqs;
  for (const SkylineMember& m : members) seqs.push_back(m.element.seq);
  return seqs;
}

bool Contains(const std::vector<SkylineMember>& members, uint64_t seq) {
  return std::any_of(members.begin(), members.end(),
                     [seq](const SkylineMember& m) {
                       return m.element.seq == seq;
                     });
}

// Same candidate sets, values within kTol.
void CheckAgainstNaive(const std::vector<SkylineMember>& want,
                       const std::vector<SkylineMember>& got, uint64_t step) {
  Require(SeqsOf(want) == SeqsOf(got), "S_{N,q} differs from the naive one",
          step);
  for (size_t i = 0; i < want.size(); ++i) {
    Require(Near(want[i].pnew, got[i].pnew) &&
                Near(want[i].pold, got[i].pold) &&
                Near(want[i].psky, got[i].psky),
            "a value differs from the naive one", step);
  }
}

// Membership of {elements with P_sky >= q} against Eq. (1) over the
// window, for every element not within kTol of q.
void CheckAgainstFormula(const std::vector<UncertainElement>& window,
                         const std::vector<double>& psky, double q,
                         const std::vector<SkylineMember>& members,
                         uint64_t step) {
  for (size_t i = 0; i < window.size(); ++i) {
    if (std::abs(psky[i] - q) <= kTol) continue;
    Require((psky[i] >= q) == Contains(members, window[i].seq),
            "membership differs from Eq. (1)", step);
  }
}

// Ad-hoc queries on `tree` against a filter and a sort of `all`, the
// tree's candidates as reported. A value within kTol of q' may fall
// either way.
void CheckQueries(const psky::SkyTree& tree,
                  const std::vector<SkylineMember>& all, double qprime,
                  uint64_t step) {
  const std::vector<SkylineMember> got = tree.CollectAtLeast(qprime);
  const size_t count = tree.CountAtLeast(qprime);
  Require(count == got.size(), "CountAtLeast differs from CollectAtLeast",
          step);
  for (size_t i = 1; i < got.size(); ++i) {
    Require(got[i - 1].element.seq < got[i].element.seq,
            "CollectAtLeast out of seq order", step);
  }
  for (const SkylineMember& m : all) {
    const auto it = std::find_if(got.begin(), got.end(),
                                 [&m](const SkylineMember& g) {
                                   return g.element.seq == m.element.seq;
                                 });
    if (it != got.end()) {
      Require(SameBits(it->psky, m.psky), "CollectAtLeast value differs",
              step);
    }
    if (std::abs(m.psky - qprime) <= kTol) continue;
    Require((m.psky >= qprime) == (it != got.end()),
            "CollectAtLeast differs from a filter", step);
  }
  std::vector<double> sorted;
  for (const SkylineMember& m : all) sorted.push_back(m.psky);
  std::sort(sorted.rbegin(), sorted.rend());
  for (const size_t k : {size_t{1}, size_t{3}, all.size() + 1}) {
    const std::vector<SkylineMember> top = tree.TopK(k);
    Require(top.size() == std::min(k, all.size()), "TopK size", step);
    for (size_t i = 0; i < top.size(); ++i) {
      Require(Near(top[i].psky, sorted[i]), "TopK differs from a sort", step);
    }
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  if (size < 2) return 0;
  const int dims = 1 + (data[0] & 3);
  const std::vector<double> thresholds =
      (data[0] & 4) != 0 ? std::vector<double>{0.9, 0.6, 0.3}
                         : std::vector<double>{0.3};
  const double q = thresholds.back();
  const int shards = 2 + ((data[0] >> 3) & 1);
  const size_t window_size = 1 + data[1] % 24;

  psky::SskyOperator ssky(dims, q);
  psky::MskyOperator msky(dims, thresholds);
  psky::NaiveSkylineOperator naive(dims, q);
  psky::ShardEngine::Options options;
  options.dims = dims;
  options.q = q;
  options.shards = shards;
  options.audit.mode = psky::AuditMode::kOff;
  psky::ShardEngine engine(options);
  psky::CountWindow window(window_size);

  const size_t elements = std::min((size - 2) / 2, kMaxElements);
  for (size_t n = 0; n < elements; ++n) {
    const uint8_t coords = data[2 + 2 * n];
    UncertainElement e;
    e.pos = psky::Point(dims);
    for (int k = 0; k < dims; ++k) e.pos[k] = (coords >> (2 * k)) & 3;
    e.prob = kProbs[data[3 + 2 * n] & 7];
    e.seq = n;
    e.time = static_cast<double>(n);
    if (const auto expired = window.Push(e)) {
      ssky.Expire(*expired);
      msky.Expire(*expired);
      naive.Expire(*expired);
      engine.Expire(*expired);
    }
    ssky.Insert(e);
    msky.Insert(e);
    naive.Insert(e);
    engine.Insert(e);

    std::vector<UncertainElement> clamped = window.Snapshot();
    for (UncertainElement& w : clamped) w.prob = psky::ClampProb(w.prob);
    const std::vector<double> psky = psky::AllSkylineProbabilities(clamped);

    const std::vector<SkylineMember> candidates = ssky.Candidates();
    const std::vector<SkylineMember> skyline = ssky.Skyline();
    std::vector<SkylineMember> msky_all;
    msky.tree().ForEach([&msky_all](const SkylineMember& m, int) {
      msky_all.push_back(m);
    });
    for (size_t i = 1; i < msky_all.size(); ++i) {
      Require(msky_all[i - 1].element.seq < msky_all[i].element.seq,
              "ForEach out of seq order", n);
    }
    CheckAgainstNaive(naive.Candidates(), candidates, n);
    CheckAgainstNaive(naive.Candidates(), msky_all, n);
    CheckAgainstFormula(clamped, psky, q, skyline, n);
    for (int i = 1; i <= msky.num_thresholds(); ++i) {
      CheckAgainstFormula(clamped, psky, thresholds[static_cast<size_t>(i) - 1],
                          msky.Skyline(i), n);
    }

    for (const double qprime : {q, 0.45, 0.6, 0.9, 1.0}) {
      CheckQueries(msky.tree(), msky_all, qprime, n);
    }
    CheckQueries(ssky.tree(), candidates, q, n);

    size_t merged_candidates = 0;
    const std::vector<SkylineMember> merged =
        engine.GlobalSkyline(&merged_candidates);
    Require(merged_candidates == ssky.candidate_count(),
            "sharded |S*| differs from the sequential |S_{N,q}|", n);
    Require(SeqsOf(merged) == SeqsOf(skyline),
            "sharded skyline differs from the sequential one", n);
    for (size_t i = 0; i < merged.size(); ++i) {
      Require(SameBits(merged[i].pnew, skyline[i].pnew) &&
                  SameBits(merged[i].pold, skyline[i].pold) &&
                  SameBits(merged[i].psky, skyline[i].psky),
              "sharded values differ from the sequential bits", n);
    }
  }
  return 0;
}
