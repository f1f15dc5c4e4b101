#ifndef INVARNETX_MIC_SIMD_H_
#define INVARNETX_MIC_SIMD_H_

namespace invarnetx::mic {

// Vector instruction tier the MIC kernel's hot loops run at. Every tier
// produces bit-identical results: the only vectorized reduction is an
// add-then-max over doubles, which is order-independent because the kernel's
// candidate values are never NaN and never -0.0 (column scores are sums of
// npq*ln(npq/np) terms - each +0.0 or strictly negative - and IEEE addition
// of such values cannot produce a negative zero), so equal candidates have
// identical bit patterns and any max order picks the same bits. The same
// fact lets the column-score build read its terms from MicWorkspace's term
// table, which stores +0.0 for an empty cell the reference skips: adding
// +0.0 to a sum that is never -0.0 leaves its bits unchanged. That build
// still sums in q order and stays scalar at every tier, since reordering
// the sum could change bytes.
enum class SimdLevel {
  kScalar,  // portable fallback, also the NEON baseline layout
  kAvx2,    // 4-wide double lanes (x86-64 with AVX2)
};

const char* SimdLevelName(SimdLevel level);

// Best tier this CPU supports, intersected with the INVARNETX_SIMD
// environment variable ("scalar" forces the fallback, "avx2" requests AVX2
// but still falls back when the CPU lacks it). Computed once per process.
SimdLevel DetectSimdLevel();

// The tier the kernel currently dispatches to; initialized to
// DetectSimdLevel() on first use.
SimdLevel ActiveSimdLevel();

// Test hook: force a tier (clamped to what the CPU supports). Not
// thread-safe against concurrent Mic() calls - tests set it up front.
void SetSimdLevel(SimdLevel level);

// max over s in [s_begin, s_end) of dp[s] + col[s]; returns the kernel's
// -1e300 sentinel for an empty range. `col` is one t-major row of the
// memoized column-score table, so both operands stream contiguously - the
// layout vector lanes (AVX2 today, NEON tomorrow) need. Dispatches on
// ActiveSimdLevel(); every tier is bit-identical (see SimdLevel).
double DpRowMax(const double* dp, const double* col, int s_begin, int s_end);

}  // namespace invarnetx::mic

#endif  // INVARNETX_MIC_SIMD_H_
