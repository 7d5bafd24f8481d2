// Block dominance kernel: one probe point against a contiguous SoA block
// of candidate coordinates, branchlessly.
//
// The candidate store's arrivals, restores and audit probes spend most of
// their time testing one probe point against every candidate of a block.
// With the coordinates kept dim-major (structure-of-arrays, one 256-slot
// block at a time in core/sky_tree.h), the mutual dominance relation of
// the probe against all n candidates reduces to d passes of elementwise
// compares over contiguous rows — no branches, no pointer chasing, and
// directly vectorizable.
//
// The kernel emits two bitmasks rather than per-element bytes: bit i of
// `cand_over_probe` is set iff candidate i ≺ probe, bit i of
// `probe_over_cand` iff probe ≺ candidate i (never both; ties dominate
// neither way). Dominance relations are sparse in practice, so callers
// walk set bits with countr_zero instead of branching on every element.
// Per element the semantics are EXACTLY
// DominanceCompare(candidate_i, probe) (see dominance.h): exact IEEE
// compares, no tolerance. Both paths use one identity: c ≺ p iff c <= p
// on every dimension and not p <= c on every dimension (that is, c and p
// are not equal), so a dimension costs one "<=" and one ">=" compare.
//
// Two implementations behind one entry point:
//   * a portable branchless fallback (flag-byte accumulation, no
//     data-dependent branches) that works on every target;
//   * an explicit AVX2 path (4 doubles per lane group, the last 1-3
//     candidates in one masked group, each 64-bit mask word built in a
//     register across its 16 groups and stored once). On x86-64
//     GCC/Clang it is compiled via the target("avx2") function attribute
//     regardless of the baseline -march, and selected at runtime with
//     __builtin_cpu_supports — the default build stays safe on pre-AVX2
//     CPUs yet uses 256-bit compares where the hardware has them.
//
// NaN coordinates are not supported (same contract as dominance.h: the
// ingestion layer rejects them); all compares are ordered.

#ifndef PSKY_GEOM_DOMINANCE_KERNEL_H_
#define PSKY_GEOM_DOMINANCE_KERNEL_H_

#include <cstdint>

#include "base/check.h"
#include "geom/point.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define PSKY_DOMKERNEL_X86_DISPATCH 1
#include <immintrin.h>
#else
#define PSKY_DOMKERNEL_X86_DISPATCH 0
#endif

namespace psky {

/// Upper bound on the block size a single kernel call supports: the
/// candidate store's and the auditor's block size.
inline constexpr int kDominanceKernelMaxBlock = 256;

/// 64-bit words needed for one mask over a maximal block.
inline constexpr int kDominanceKernelMaskWords = kDominanceKernelMaxBlock / 64;

namespace dominance_internal {

// Portable branchless path: flag bytes per candidate, dimension-major
// sweeps over contiguous rows, then a packing pass that builds each mask
// word in a register. The sweeps have no data-dependent branches, so
// -O2/-O3 auto-vectorizes them at the target's native width. Writes the
// first (n + 63) / 64 words of each mask.
inline void BlockComparePortable(const double* probe, int dims,
                                 const double* block, int stride, int n,
                                 uint64_t* cand_over_probe,
                                 uint64_t* probe_over_cand) {
  uint8_t cand_le[kDominanceKernelMaxBlock];
  uint8_t probe_le[kDominanceKernelMaxBlock];
  for (int i = 0; i < n; ++i) {
    cand_le[i] = 1;
    probe_le[i] = 1;
  }
  for (int k = 0; k < dims; ++k) {
    const double pv = probe[k];
    const double* row = block + k * stride;
    for (int i = 0; i < n; ++i) {
      cand_le[i] = static_cast<uint8_t>(cand_le[i] & (row[i] <= pv));
      probe_le[i] = static_cast<uint8_t>(probe_le[i] & (row[i] >= pv));
    }
  }
  for (int w = 0; w * 64 < n; ++w) {
    uint64_t over = 0;
    uint64_t under = 0;
    const int end = n - w * 64 < 64 ? n - w * 64 : 64;
    for (int j = 0; j < end; ++j) {
      const int i = w * 64 + j;
      over |= static_cast<uint64_t>(cand_le[i] & (probe_le[i] ^ 1)) << j;
      under |= static_cast<uint64_t>(probe_le[i] & (cand_le[i] ^ 1)) << j;
    }
    cand_over_probe[w] = over;
    probe_over_cand[w] = under;
  }
}

#if PSKY_DOMKERNEL_X86_DISPATCH

// The two 4-bit relation masks of one group of four candidates.
struct GroupBits {
  uint64_t over;   // candidate ≺ probe
  uint64_t under;  // probe ≺ candidate
};

// The four candidates at [i, i + 4) against the broadcast probe `pv`:
// lane masks accumulate "candidate <= probe on every dim so far" and
// "probe <= candidate ...", and one movemask each gives their four bits.
// In the last, partial group (kPartial), `lanes` selects the candidates
// that exist: the masked load reads no memory in the other lanes, and
// the caller drops their bits.
template <bool kPartial>
__attribute__((target("avx2"))) inline GroupBits CompareGroupAvx2(
    const __m256d* pv, int dims, const double* block, int stride, int i,
    __m256i lanes) {
  __m256d cand_le = _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
  __m256d probe_le = cand_le;
  for (int k = 0; k < dims; ++k) {
    const double* src = block + k * stride + i;
    __m256d row;
    if constexpr (kPartial) {
      row = _mm256_maskload_pd(src, lanes);
    } else {
      row = _mm256_loadu_pd(src);
    }
    cand_le = _mm256_and_pd(cand_le, _mm256_cmp_pd(row, pv[k], _CMP_LE_OQ));
    probe_le = _mm256_and_pd(probe_le, _mm256_cmp_pd(row, pv[k], _CMP_GE_OQ));
  }
  const auto le = static_cast<uint64_t>(_mm256_movemask_pd(cand_le));
  const auto ge = static_cast<uint64_t>(_mm256_movemask_pd(probe_le));
  return GroupBits{le & ~ge, ge & ~le};
}

// Broadcasts the probe once, then builds each 64-slot mask word in a
// register from its 16 groups of four and stores it once; the last 1-3
// candidates run as one masked group. Groups are 4-aligned, so none
// straddles a word. Compiled for AVX2 via the target attribute; call only
// after CpuHasAvx2() returns true.
__attribute__((target("avx2"))) inline void BlockCompareAvx2(
    const double* probe, int dims, const double* block, int stride, int n,
    uint64_t* cand_over_probe, uint64_t* probe_over_cand) {
  __m256d pv[kMaxDims];
  for (int k = 0; k < dims; ++k) pv[k] = _mm256_set1_pd(probe[k]);
  const __m256i all_lanes = _mm256_set1_epi64x(-1);
  int i = 0;
  for (int w = 0; i < n; ++w) {
    const int end = n - w * 64 < 64 ? n : w * 64 + 64;
    uint64_t over = 0;
    uint64_t under = 0;
    for (; i + 4 <= end; i += 4) {
      const GroupBits g =
          CompareGroupAvx2<false>(pv, dims, block, stride, i, all_lanes);
      over |= g.over << (i & 63);
      under |= g.under << (i & 63);
    }
    if (i < end) {
      // Lane j exists iff j < end - i.
      const __m256i left = _mm256_set1_epi64x(end - i);
      const __m256i index = _mm256_setr_epi64x(0, 1, 2, 3);
      const __m256i lanes = _mm256_cmpgt_epi64(left, index);
      const uint64_t lane_bits = (uint64_t{1} << (end - i)) - 1;
      const GroupBits g =
          CompareGroupAvx2<true>(pv, dims, block, stride, i, lanes);
      over |= (g.over & lane_bits) << (i & 63);
      under |= (g.under & lane_bits) << (i & 63);
      i = end;
    }
    cand_over_probe[w] = over;
    probe_over_cand[w] = under;
  }
}

inline bool CpuHasAvx2() {
  static const bool has = __builtin_cpu_supports("avx2") != 0;
  return has;
}

#endif  // PSKY_DOMKERNEL_X86_DISPATCH

}  // namespace dominance_internal

/// Computes the mutual dominance relation of `probe` (a d-dimensional
/// coordinate array) against `n` candidates stored dim-major in `block`:
/// dimension k of candidate i lives at block[k * stride + i]. Sets bit i
/// of `cand_over_probe` iff candidate i ≺ probe and bit i of
/// `probe_over_cand` iff probe ≺ candidate i; both outputs must hold
/// (n + 63) / 64 words and are fully overwritten. Requires n <= stride
/// and n <= kDominanceKernelMaxBlock.
inline void DominanceBlockCompare(const double* probe, int dims,
                                  const double* block, int stride, int n,
                                  uint64_t* cand_over_probe,
                                  uint64_t* probe_over_cand) {
  PSKY_DCHECK(n >= 0 && n <= stride && n <= kDominanceKernelMaxBlock);
  PSKY_DCHECK(dims >= 1 && dims <= kMaxDims);
#if PSKY_DOMKERNEL_X86_DISPATCH
  if (dominance_internal::CpuHasAvx2()) {
    dominance_internal::BlockCompareAvx2(probe, dims, block, stride, n,
                                         cand_over_probe, probe_over_cand);
    return;
  }
#endif
  dominance_internal::BlockComparePortable(probe, dims, block, stride, n,
                                           cand_over_probe, probe_over_cand);
}

/// Name of the kernel variant DominanceBlockCompare will use on this
/// machine, for bench metadata.
inline const char* DominanceKernelVariant() {
#if PSKY_DOMKERNEL_X86_DISPATCH
  if (dominance_internal::CpuHasAvx2()) return "avx2";
#endif
  return "portable";
}

}  // namespace psky

#endif  // PSKY_GEOM_DOMINANCE_KERNEL_H_
