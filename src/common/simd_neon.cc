/**
 * @file
 * NEON (AArch64 ASIMD) implementations of the SimdKernels table.
 *
 * This translation unit is the only one that touches <arm_neon.h>
 * (see src/common/CMakeLists.txt). ASIMD is architecturally mandatory
 * on AArch64, so unlike the x86 tiers no runtime feature probe is
 * needed — the table is available whenever the build targeted arm64.
 * Without NEON support the file degrades to a stub returning nullptr,
 * mirroring simd_avx2.cc.
 *
 * Bit-exactness notes:
 *  - cnt/addv popcounts, compares, and the vmull_s32 widening multiply
 *    are exact integer operations; only summation order differs, and
 *    integer sums are order-free.
 *  - the fp32 kernel issues exactly one fmul and one fadd per element
 *    (explicit vmulq/vaddq, never vfmaq; -ffp-contract=off on this TU),
 *    matching the generic loop's rounding per element.
 */

#include "common/simd.h"

#if defined(USYS_HAVE_NEON)

#include <arm_neon.h>
#include <bit>

namespace usys {
namespace {

/**
 * Bulk popcount: vcnt gives per-byte counts; the pairwise-widening
 * ladder (vpaddlq u8->u16->u32->u64) folds a 16-byte vector into two
 * u64 lanes without ever overflowing, and the ladder results
 * accumulate across iterations so the horizontal vaddvq runs once.
 */
u64
popcountWordsNeon(const u64 *words, std::size_t n)
{
    const u8 *bytes = reinterpret_cast<const u8 *>(words);
    uint64x2_t acc = vdupq_n_u64(0);
    std::size_t i = 0;
    for (; i + 2 <= n; i += 2) {
        const uint8x16_t v = vld1q_u8(bytes + i * 8);
        acc = vpadalq_u32(acc, vpaddlq_u16(vpaddlq_u8(vcntq_u8(v))));
    }
    u64 sum = vaddvq_u64(acc);
    for (; i < n; ++i)
        sum += u64(std::popcount(words[i]));
    return sum;
}

/** Low byte of an 8-lane unsigned compare: bit j set iff v[j] < thr. */
inline u64
packByteLt(const u32 *values, uint32x4_t thr)
{
    // vcltq yields all-ones lanes; masking with the lane's bit weight
    // and adding across lanes assembles the byte in stream bit order.
    static const u32 kWeightLo[4] = {1u, 2u, 4u, 8u};
    static const u32 kWeightHi[4] = {16u, 32u, 64u, 128u};
    const uint32x4_t w_lo = vld1q_u32(kWeightLo);
    const uint32x4_t w_hi = vld1q_u32(kWeightHi);
    const uint32x4_t lt_lo = vcltq_u32(vld1q_u32(values), thr);
    const uint32x4_t lt_hi = vcltq_u32(vld1q_u32(values + 4), thr);
    return u64(vaddvq_u32(vandq_u32(lt_lo, w_lo)) +
               vaddvq_u32(vandq_u32(lt_hi, w_hi)));
}

void
thresholdPackWordsNeon(const u32 *values, u32 n, u32 threshold, u64 *out)
{
    const uint32x4_t thr = vdupq_n_u32(threshold);
    u32 k = 0;
    u32 w = 0;
    for (; k + 64 <= n; k += 64, ++w) {
        u64 word = 0;
        for (u32 j = 0; j < 64; j += 8)
            word |= packByteLt(values + k + j, thr) << j;
        out[w] = word;
    }
    if (k < n) {
        u64 word = 0;
        for (u32 j = 0; k + j < n; ++j)
            word |= u64(values[k + j] < threshold) << j;
        out[w] = word;
    }
}

void
axpyF32Neon(float *c, const float *b, float a, int n)
{
    const float32x4_t va = vdupq_n_f32(a);
    int j = 0;
    for (; j + 4 <= n; j += 4) {
        const float32x4_t vb = vld1q_f32(b + j);
        const float32x4_t vc = vld1q_f32(c + j);
        // Explicit mul + add (not vfmaq): one rounding per operation,
        // matching the generic tier exactly.
        vst1q_f32(c + j, vaddq_f32(vc, vmulq_f32(va, vb)));
    }
    for (; j < n; ++j)
        c[j] += a * b[j];
}

void
gemmRowI32Neon(i64 *c, const i32 *b, i32 a, int n)
{
    // vmull_s32 is an exact 32x32->64 widening multiply for the full
    // i32 range of both operands.
    const int32x2_t va = vdup_n_s32(a);
    int j = 0;
    for (; j + 4 <= n; j += 4) {
        const int32x4_t vb = vld1q_s32(b + j);
        const int64x2_t p0 = vmull_s32(vget_low_s32(vb), va);
        const int64x2_t p1 = vmull_s32(vget_high_s32(vb), va);
        vst1q_s64(c + j, vaddq_s64(vld1q_s64(c + j), p0));
        vst1q_s64(c + j + 2, vaddq_s64(vld1q_s64(c + j + 2), p1));
    }
    for (; j < n; ++j)
        c[j] += i64(a) * i64(b[j]);
}

// The pair GEMM, table-kernel gather and row sum run the generic loops:
// no arm64 host is at hand to measure NEON versions against them.
const SimdKernels kNeon = {
    SimdLevel::Neon,           popcountWordsNeon,
    thresholdPackWordsNeon,    axpyF32Neon,
    gemmRowI32Neon,            detail::gemmI16Generic,
    detail::gatherU16Generic,  detail::sumRowsI32Generic,
};

} // namespace

namespace detail {

const SimdKernels *
neonKernelsImpl()
{
    return &kNeon;
}

} // namespace detail
} // namespace usys

#else // !USYS_HAVE_NEON

namespace usys {
namespace detail {

const SimdKernels *
neonKernelsImpl()
{
    return nullptr;
}

} // namespace detail
} // namespace usys

#endif // USYS_HAVE_NEON
