/**
 * @file
 * AVX-512 implementations of the SimdKernels table.
 *
 * This translation unit — and only this one — is compiled with
 * -mavx512f -mavx512bw -mavx512vpopcntdq (see src/common/CMakeLists.txt);
 * nothing here is reachable unless runtime CPUID dispatch selected the
 * table, so the default binary still runs on baseline x86-64. Without
 * compiler AVX-512 support the file degrades to a stub returning
 * nullptr.
 *
 * Bit-exactness notes:
 *  - VPOPCNTDQ popcounts, mask-register compares, and vpmuldq widening
 *    multiplies are exact integer operations; only summation order
 *    differs from the generic loops, and integer sums are order-free.
 *  - the fp32 kernel issues exactly one vmulps and one vaddps per
 *    element (never an FMA; -ffp-contract=off on this TU), matching
 *    the generic loop's rounding per element.
 */

#include "common/simd.h"

#if defined(USYS_HAVE_AVX512)

#include <bit>
#include <cstdint>
#include <immintrin.h>

namespace usys {
namespace {

// GCC 12's TSan pass miscompiles these kernels at -O2: the inserted
// __tsan_read/__tsan_write calls force ZMM/mask-register spills, and
// reloaded __mmask16 values come back holding stack-address fragments
// (observed directly in thresholdPackWords: with threshold 0 the packed
// word's bits 16..47 contained half a stack pointer — DESIGN.md §16).
// The kernels are synchronization-free leaf code over caller-owned
// buffers, so skipping instrumentation inside them costs no real race
// coverage: every buffer they touch is also read/written by
// instrumented caller code.
#if defined(__SANITIZE_THREAD__)
#define USYS_AVX512_NO_TSAN __attribute__((no_sanitize("thread")))
#else
#define USYS_AVX512_NO_TSAN
#endif

/**
 * Bulk popcount via VPOPCNTDQ: one instruction per 8 words replaces
 * the whole AVX2 Harley-Seal adder tree. Two accumulators cover the
 * instruction latency; per-lane u64 counters cannot overflow for any
 * realizable buffer size.
 */
USYS_AVX512_NO_TSAN u64
popcountWordsAvx512(const u64 *words, std::size_t n)
{
    const __m512i *v = reinterpret_cast<const __m512i *>(words);
    const std::size_t nvec = n / 8;

    __m512i acc0 = _mm512_setzero_si512();
    __m512i acc1 = _mm512_setzero_si512();
    std::size_t i = 0;
    for (; i + 2 <= nvec; i += 2) {
        acc0 = _mm512_add_epi64(
            acc0, _mm512_popcnt_epi64(_mm512_loadu_si512(v + i)));
        acc1 = _mm512_add_epi64(
            acc1, _mm512_popcnt_epi64(_mm512_loadu_si512(v + i + 1)));
    }
    for (; i < nvec; ++i)
        acc0 = _mm512_add_epi64(
            acc0, _mm512_popcnt_epi64(_mm512_loadu_si512(v + i)));
    u64 sum = u64(_mm512_reduce_add_epi64(_mm512_add_epi64(acc0, acc1)));
    for (std::size_t w = nvec * 8; w < n; ++w)
        sum += u64(std::popcount(words[w]));
    return sum;
}

USYS_AVX512_NO_TSAN void
thresholdPackWordsAvx512(const u32 *values, u32 n, u32 threshold, u64 *out)
{
    // Native unsigned compare into a mask register: each vector yields
    // 16 bits in lane order, four vectors assemble one little-endian
    // stream word. No sign-flip trick needed.
    const __m512i thr = _mm512_set1_epi32(i32(threshold));
    u32 k = 0;
    u32 w = 0;
    for (; k + 64 <= n; k += 64, ++w) {
        const u64 m0 = _mm512_cmplt_epu32_mask(
            _mm512_loadu_si512(
                reinterpret_cast<const __m512i *>(values + k)),
            thr);
        const u64 m1 = _mm512_cmplt_epu32_mask(
            _mm512_loadu_si512(
                reinterpret_cast<const __m512i *>(values + k + 16)),
            thr);
        const u64 m2 = _mm512_cmplt_epu32_mask(
            _mm512_loadu_si512(
                reinterpret_cast<const __m512i *>(values + k + 32)),
            thr);
        const u64 m3 = _mm512_cmplt_epu32_mask(
            _mm512_loadu_si512(
                reinterpret_cast<const __m512i *>(values + k + 48)),
            thr);
        out[w] = m0 | (m1 << 16) | (m2 << 32) | (m3 << 48);
    }
    if (k < n) {
        u64 word = 0;
        for (u32 j = 0; k + j < n; ++j)
            word |= u64(values[k + j] < threshold) << j;
        out[w] = word;
    }
}

USYS_AVX512_NO_TSAN void
axpyF32Avx512(float *c, const float *b, float a, int n)
{
    const __m512 va = _mm512_set1_ps(a);
    int j = 0;
    for (; j + 16 <= n; j += 16) {
        const __m512 vb = _mm512_loadu_ps(b + j);
        const __m512 vc = _mm512_loadu_ps(c + j);
        _mm512_storeu_ps(c + j,
                         _mm512_add_ps(vc, _mm512_mul_ps(va, vb)));
    }
    for (; j < n; ++j)
        c[j] += a * b[j];
}

USYS_AVX512_NO_TSAN void
gemmRowI32Avx512(i64 *c, const i32 *b, i32 a, int n)
{
    // vpmuldq multiplies the low signed 32 bits of each 64-bit lane:
    // exact i64 products for the full i32 range of both operands,
    // 8 lanes per instruction.
    const __m512i va = _mm512_set1_epi64(i64(u32(a)));
    int j = 0;
    // Peel until the accumulator row is 64-byte aligned: c is both
    // loaded and stored every iteration, and cache-line-split 64-byte
    // accesses double the load/store-port cost of the whole loop.
    while (j < n && (reinterpret_cast<std::uintptr_t>(c + j) & 63) != 0) {
        c[j] += i64(a) * i64(b[j]);
        ++j;
    }
    // Unrolled by 4 (32 lanes in flight): the cvt+mul chain has enough
    // latency that a single stream leaves the multiplier idle.
    for (; j + 32 <= n; j += 32) {
        __m512i *cp = reinterpret_cast<__m512i *>(c + j);
        const __m256i *bp = reinterpret_cast<const __m256i *>(b + j);
        const __m512i p0 = _mm512_mul_epi32(
            _mm512_cvtepi32_epi64(_mm256_loadu_si256(bp + 0)), va);
        const __m512i p1 = _mm512_mul_epi32(
            _mm512_cvtepi32_epi64(_mm256_loadu_si256(bp + 1)), va);
        const __m512i p2 = _mm512_mul_epi32(
            _mm512_cvtepi32_epi64(_mm256_loadu_si256(bp + 2)), va);
        const __m512i p3 = _mm512_mul_epi32(
            _mm512_cvtepi32_epi64(_mm256_loadu_si256(bp + 3)), va);
        _mm512_store_si512(
            cp + 0, _mm512_add_epi64(_mm512_load_si512(cp + 0), p0));
        _mm512_store_si512(
            cp + 1, _mm512_add_epi64(_mm512_load_si512(cp + 1), p1));
        _mm512_store_si512(
            cp + 2, _mm512_add_epi64(_mm512_load_si512(cp + 2), p2));
        _mm512_store_si512(
            cp + 3, _mm512_add_epi64(_mm512_load_si512(cp + 3), p3));
    }
    for (; j + 8 <= n; j += 8) {
        const __m512i vb = _mm512_cvtepi32_epi64(_mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(b + j)));
        const __m512i prod = _mm512_mul_epi32(vb, va);
        __m512i *cp = reinterpret_cast<__m512i *>(c + j);
        _mm512_storeu_si512(
            cp, _mm512_add_epi64(_mm512_loadu_si512(cp), prod));
    }
    for (; j < n; ++j)
        c[j] += i64(a) * i64(b[j]);
}

USYS_AVX512_NO_TSAN void
gatherU16Avx512(i32 *dst, const u16 *row, const u32 *idx, int n)
{
    // A 32-bit gather at scale 2 reads row[idx] and the u16 after it
    // (the caller keeps that one readable); the mask keeps the entry.
    const __m512i low16 = _mm512_set1_epi32(0xffff);
    const __m512i zero = _mm512_setzero_si512();
    int j = 0;
    for (; j + 16 <= n; j += 16) {
        const __m512i vi = _mm512_loadu_si512(idx + j);
        const __m512i g = _mm512_mask_i32gather_epi32(
            zero, __mmask16(0xffff), vi, row, 2);
        _mm512_storeu_si512(dst + j, _mm512_and_si512(g, low16));
    }
    if (j < n) {
        const __mmask16 m = __mmask16((1u << (n - j)) - 1);
        const __m512i vi = _mm512_maskz_loadu_epi32(m, idx + j);
        const __m512i g =
            _mm512_mask_i32gather_epi32(zero, m, vi, row, 2);
        _mm512_mask_storeu_epi32(dst + j, m, _mm512_and_si512(g, low16));
    }
}

/**
 * One register tile of sumRowsI32: V vectors of 16 columns held in
 * zmm accumulators across every selected row, the last vector loaded
 * under `last`. A negated row adds v ^ -1 == -v - 1, and the count of
 * negated rows is added back once before the spill into i64.
 */
template <int V>
USYS_AVX512_NO_TSAN inline void
sumTileAvx512(i64 *out, const i32 *rows, const u32 *slots, int count,
              std::size_t stride, __mmask16 last)
{
    __m512i acc[V];
    for (int v = 0; v < V; ++v)
        acc[v] = _mm512_setzero_si512();
    u32 negated = 0;
    for (int i = 0; i < count; ++i) {
        const u32 s = slots[i];
        const __m512i mask = _mm512_set1_epi32(-i32(s & 1));
        negated += s & 1;
        const i32 *row = rows + std::size_t(s >> 1) * stride;
        for (int v = 0; v + 1 < V; ++v)
            acc[v] = _mm512_add_epi32(
                acc[v],
                _mm512_xor_si512(_mm512_loadu_si512(row + 16 * v), mask));
        acc[V - 1] = _mm512_add_epi32(
            acc[V - 1],
            _mm512_xor_si512(
                _mm512_maskz_loadu_epi32(last, row + 16 * (V - 1)), mask));
    }
    const __m512i bias = _mm512_set1_epi32(i32(negated));
    for (int v = 0; v < V; ++v) {
        const __m512i sum = _mm512_add_epi32(acc[v], bias);
        const __mmask16 m = v + 1 < V ? __mmask16(0xffff) : last;
        const __mmask8 mlo = __mmask8(m);
        const __mmask8 mhi = __mmask8(m >> 8);
        i64 *o = out + 16 * v;
        // The zero-masked forms widen the same lanes as the plain ones
        // without GCC's undefined-source false -Wmaybe-uninitialized.
        const __m512i lo = _mm512_maskz_cvtepi32_epi64(
            0xff, _mm512_maskz_extracti64x4_epi64(0xf, sum, 0));
        const __m512i hi = _mm512_maskz_cvtepi32_epi64(
            0xff, _mm512_maskz_extracti64x4_epi64(0xf, sum, 1));
        _mm512_mask_storeu_epi64(
            o, mlo, _mm512_add_epi64(_mm512_maskz_loadu_epi64(mlo, o), lo));
        _mm512_mask_storeu_epi64(
            o + 8, mhi,
            _mm512_add_epi64(_mm512_maskz_loadu_epi64(mhi, o + 8), hi));
    }
}

USYS_AVX512_NO_TSAN void
sumRowsI32Avx512(i64 *out, const i32 *rows, const u32 *slots, int count,
                 int n)
{
    // No rows adds nothing (and `rows` may then be null).
    if (count == 0)
        return;
    // Tiles of 64 columns (four zmm) sweep every row once; the last
    // tile narrows to the vectors it needs and masks its final one.
    const std::size_t stride = std::size_t(n);
    int j = 0;
    for (; j + 64 <= n; j += 64)
        sumTileAvx512<4>(out + j, rows + j, slots, count, stride,
                         __mmask16(0xffff));
    const int rest = n - j;
    if (rest == 0)
        return;
    const int vecs = (rest + 15) / 16;
    const __mmask16 last = __mmask16(0xffffu >> (16 * vecs - rest));
    switch (vecs) {
      case 1:
        sumTileAvx512<1>(out + j, rows + j, slots, count, stride, last);
        break;
      case 2:
        sumTileAvx512<2>(out + j, rows + j, slots, count, stride, last);
        break;
      case 3:
        sumTileAvx512<3>(out + j, rows + j, slots, count, stride, last);
        break;
      default:
        sumTileAvx512<4>(out + j, rows + j, slots, count, stride, last);
        break;
    }
}

const SimdKernels kAvx512 = {
    SimdLevel::Avx512, popcountWordsAvx512, thresholdPackWordsAvx512,
    axpyF32Avx512,     gemmRowI32Avx512,    gatherU16Avx512,
    sumRowsI32Avx512,
};

} // namespace

namespace detail {

const SimdKernels *
avx512KernelsImpl()
{
    return &kAvx512;
}

} // namespace detail
} // namespace usys

#else // !USYS_HAVE_AVX512

namespace usys {
namespace detail {

const SimdKernels *
avx512KernelsImpl()
{
    return nullptr;
}

} // namespace detail
} // namespace usys

#endif // USYS_HAVE_AVX512
