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
 * Bit-exactness: the fp32 kernel issues exactly one fmul and one fadd
 * per element (explicit vmulq/vaddq, never vfmaq; -ffp-contract=off on
 * this TU), matching the generic loop's rounding per element.
 */

#include "common/simd.h"

#if defined(USYS_HAVE_NEON)

#include <arm_neon.h>

namespace usys {
namespace {

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

// The pair GEMM, table-kernel gathers, threshold walk and row sum run
// the generic loops: no arm64 host is at hand to measure NEON versions
// against them.
const SimdKernels kNeon = {
    SimdLevel::Neon,             axpyF32Neon,
    detail::gemmI16Generic,      detail::gatherU16Generic,
    detail::gatherSumU16Generic, detail::walkRowsI16Generic,
    detail::sumRowsI16Generic,
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
