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
// compares, no tolerance.
//
// Two implementations behind one entry point:
//   * a portable branchless fallback (flag-byte accumulation, no
//     data-dependent branches) that works on every target;
//   * an explicit AVX2 path (4 doubles per lane group, the last 1-3
//     candidates in one masked group). On x86-64 GCC/Clang it is compiled
//     via the target("avx2") function attribute regardless of the
//     baseline -march, and selected at runtime with
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
// sweeps over contiguous rows, then a packing pass into the mask words.
// The sweeps have no data-dependent branches, so -O2/-O3 auto-vectorizes
// them at the target's native width. Mask words must be zeroed by the
// caller.
inline void BlockComparePortable(const double* probe, int dims,
                                 const double* block, int stride, int n,
                                 uint64_t* cand_over_probe,
                                 uint64_t* probe_over_cand) {
  uint8_t cand_le[kDominanceKernelMaxBlock];
  uint8_t probe_le[kDominanceKernelMaxBlock];
  uint8_t strict[kDominanceKernelMaxBlock];
  for (int i = 0; i < n; ++i) {
    cand_le[i] = 1;
    probe_le[i] = 1;
    strict[i] = 0;
  }
  for (int k = 0; k < dims; ++k) {
    const double pv = probe[k];
    const double* row = block + k * stride;
    for (int i = 0; i < n; ++i) {
      const uint8_t gt = row[i] > pv;
      const uint8_t lt = row[i] < pv;
      cand_le[i] = static_cast<uint8_t>(cand_le[i] & (gt ^ 1));
      probe_le[i] = static_cast<uint8_t>(probe_le[i] & (lt ^ 1));
      strict[i] = static_cast<uint8_t>(strict[i] | gt | lt);
    }
  }
  for (int i = 0; i < n; ++i) {
    cand_over_probe[i >> 6] |= static_cast<uint64_t>(cand_le[i] & strict[i])
                               << (i & 63);
    probe_over_cand[i >> 6] |= static_cast<uint64_t>(probe_le[i] & strict[i])
                               << (i & 63);
  }
}

#if PSKY_DOMKERNEL_X86_DISPATCH

// The four candidates at [i, i + 4) against the broadcast probe `pv`:
// lane masks accumulate "candidate <= probe on every dim so far", "probe
// <= candidate ...", and "some dim differs". One movemask pair lands the
// four relation bits directly in the output words (groups are 4-aligned,
// so they never straddle a word). In the last, partial group
// (kPartial), `lanes` selects the candidates that exist: the masked load
// reads no memory in the other lanes, and `lane_bits` drops their bits.
template <bool kPartial>
__attribute__((target("avx2"))) inline void CompareGroupAvx2(
    const __m256d* pv, int dims, const double* block, int stride, int i,
    __m256i lanes, uint64_t lane_bits, uint64_t* cand_over_probe,
    uint64_t* probe_over_cand) {
  __m256d cand_le = _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
  __m256d probe_le = cand_le;
  __m256d strict = _mm256_setzero_pd();
  for (int k = 0; k < dims; ++k) {
    const double* src = block + k * stride + i;
    __m256d row;
    if constexpr (kPartial) {
      row = _mm256_maskload_pd(src, lanes);
    } else {
      row = _mm256_loadu_pd(src);
    }
    const __m256d gt = _mm256_cmp_pd(row, pv[k], _CMP_GT_OQ);
    const __m256d lt = _mm256_cmp_pd(row, pv[k], _CMP_LT_OQ);
    cand_le = _mm256_andnot_pd(gt, cand_le);
    probe_le = _mm256_andnot_pd(lt, probe_le);
    strict = _mm256_or_pd(strict, _mm256_or_pd(gt, lt));
  }
  const uint64_t cand_bits = static_cast<uint64_t>(
      _mm256_movemask_pd(_mm256_and_pd(cand_le, strict)));
  const uint64_t probe_bits = static_cast<uint64_t>(
      _mm256_movemask_pd(_mm256_and_pd(probe_le, strict)));
  cand_over_probe[i >> 6] |= (cand_bits & lane_bits) << (i & 63);
  probe_over_cand[i >> 6] |= (probe_bits & lane_bits) << (i & 63);
}

// Broadcasts the probe once, runs every full group of four, then the last
// 1-3 candidates as one masked group. Compiled for AVX2 via the target
// attribute; call only after CpuHasAvx2() returns true.
__attribute__((target("avx2"))) inline void BlockCompareAvx2(
    const double* probe, int dims, const double* block, int stride, int n,
    uint64_t* cand_over_probe, uint64_t* probe_over_cand) {
  __m256d pv[kMaxDims];
  for (int k = 0; k < dims; ++k) pv[k] = _mm256_set1_pd(probe[k]);
  const __m256i all_lanes = _mm256_set1_epi64x(-1);
  int i = 0;
  for (; i + 4 <= n; i += 4) {
    CompareGroupAvx2<false>(pv, dims, block, stride, i, all_lanes, 0xF,
                            cand_over_probe, probe_over_cand);
  }
  if (i < n) {
    // Lane j exists iff j < n - i.
    const __m256i left = _mm256_set1_epi64x(n - i);
    const __m256i index = _mm256_setr_epi64x(0, 1, 2, 3);
    const __m256i lanes = _mm256_cmpgt_epi64(left, index);
    const uint64_t lane_bits = (uint64_t{1} << (n - i)) - 1;
    CompareGroupAvx2<true>(pv, dims, block, stride, i, lanes, lane_bits,
                           cand_over_probe, probe_over_cand);
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
  for (int w = 0; w < (n + 63) / 64; ++w) {
    cand_over_probe[w] = 0;
    probe_over_cand[w] = 0;
  }
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
