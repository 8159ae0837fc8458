/**
 * @file
 * AVX2 implementations of the SimdKernels table.
 *
 * This translation unit — and only this one — is compiled with -mavx2
 * (see src/common/CMakeLists.txt); nothing here is reachable unless
 * runtime CPUID dispatch selected the table, so the default binary
 * still runs on baseline x86-64. Without compiler AVX2 support the
 * file degrades to a stub returning nullptr.
 *
 * Bit-exactness notes:
 *  - comparisons / vpmaddwd pair multiply-adds
 *    are exact integer operations; only the summation order differs,
 *    and integer sums are order-free.
 *  - the fp32 kernel issues exactly one vmulps and one vaddps per
 *    element (never an FMA; -ffp-contract=off on this TU), matching
 *    the generic loop's rounding per element.
 */

#include "common/simd.h"

#if defined(USYS_HAVE_AVX2)

#include <algorithm>
#include <immintrin.h>

namespace usys {
namespace {

void
axpyF32Avx2(float *c, const float *b, float a, int n)
{
    const __m256 va = _mm256_set1_ps(a);
    int j = 0;
    for (; j + 8 <= n; j += 8) {
        const __m256 vb = _mm256_loadu_ps(b + j);
        const __m256 vc = _mm256_loadu_ps(c + j);
        _mm256_storeu_ps(c + j,
                         _mm256_add_ps(vc, _mm256_mul_ps(va, vb)));
    }
    for (; j < n; ++j)
        c[j] += a * b[j];
}

/**
 * One register tile of gemmI16: R output rows x V vectors of 8 columns,
 * summed in ymm accumulators over the `cnt` staged k pairs and spilled
 * once (the last vector loaded under `last`, `width` columns in all). A
 * B vector is a panel load, or (Raw) two b rows interleaved into 16-bit
 * pairs, their codes biased by 2^14 and ORed into `range`; vpmaddwd
 * multiplies it by each row's broadcast pair.
 */
template <int R, int V, bool Raw>
inline void
pairTileAvx2(i64 *c, std::size_t n, const u32 *ap, const u32 *off0,
             const u32 *off1, int cnt, const i32 *b, const u32 *pairs,
             __m256i last, int width, __m256i &range)
{
    const auto load = [last](const void *p, bool full) {
        return full ? _mm256_loadu_si256(static_cast<const __m256i *>(p))
                    : _mm256_maskload_epi32(static_cast<const int *>(p),
                                            last);
    };
    const __m256i bias = _mm256_set1_epi32(kGemmI16Limit);
    __m256i any = range;
    __m256i acc[R][V];
    #pragma GCC unroll 4
    for (int r = 0; r < R; ++r)
        #pragma GCC unroll 4
        for (int v = 0; v < V; ++v)
            acc[r][v] = _mm256_setzero_si256();
    for (int q = 0; q < cnt; ++q) {
        __m256i bv[V];
        #pragma GCC unroll 4
        for (int v = 0; v < V; ++v) {
            if constexpr (Raw) {
                const __m256i x0 = load(b + off0[q] + 8 * v, v + 1 < V);
                const __m256i x1 = load(b + off1[q] + 8 * v, v + 1 < V);
                any = _mm256_or_si256(
                    any, _mm256_or_si256(_mm256_add_epi32(x0, bias),
                                         _mm256_add_epi32(x1, bias)));
                bv[v] = _mm256_blend_epi16(x0, _mm256_slli_epi32(x1, 16),
                                           0xaa);
            } else {
                bv[v] = load(pairs + off0[q] + 8 * v, v + 1 < V);
            }
        }
        #pragma GCC unroll 4
        for (int r = 0; r < R; ++r) {
            const __m256i av =
                _mm256_set1_epi32(i32(ap[r * detail::kPairStride + q]));
            #pragma GCC unroll 4
            for (int v = 0; v < V; ++v)
                acc[r][v] = _mm256_add_epi32(acc[r][v],
                                             _mm256_madd_epi16(bv[v], av));
        }
    }
    alignas(32) i32 sums[8 * V];
    #pragma GCC unroll 4
    for (int r = 0; r < R; ++r) {
        #pragma GCC unroll 4
        for (int v = 0; v < V; ++v)
            _mm256_store_si256(reinterpret_cast<__m256i *>(sums + 8 * v),
                               acc[r][v]);
        for (int j = 0; j < width; ++j)
            c[r * n + j] += sums[j];
    }
    range = any;
}

/** pairTileAvx2 for a tile of `rows` rows and `vecs` vectors. */
template <bool Raw>
void
pairTileDispatchAvx2(int rows, int vecs, i64 *c, std::size_t n,
                     const u32 *ap, const u32 *off0, const u32 *off1,
                     int cnt, const i32 *b, const u32 *pairs, __m256i last,
                     int width, __m256i &range)
{
#define USYS_PAIR_TILE(R, V)                                              \
    case (R - 1) * 2 + V - 1:                                             \
        pairTileAvx2<R, V, Raw>(c, n, ap, off0, off1, cnt, b, pairs, last, \
                                width, range);                            \
        return;
    switch ((rows - 1) * 2 + vecs - 1) {
        USYS_PAIR_TILE(1, 1) USYS_PAIR_TILE(1, 2)
        USYS_PAIR_TILE(2, 1) USYS_PAIR_TILE(2, 2)
        USYS_PAIR_TILE(3, 1) USYS_PAIR_TILE(3, 2)
        USYS_PAIR_TILE(4, 1) USYS_PAIR_TILE(4, 2)
    }
#undef USYS_PAIR_TILE
}

bool
gemmI16Avx2(i64 *c, const i32 *a, const i32 *b, const u32 *pairs, int m,
            int kd, int n, int kb)
{
    // Tiles of kPairTileRows rows x 16 columns (two ymm) sweep each
    // block's staged pairs once; the last column tile narrows to the
    // vectors it needs and masks its final one.
    constexpr int kRows = detail::kPairTileRows;
    alignas(32) u32 ap[kRows * detail::kPairStride];
    u32 off0[detail::kPairStride], off1[detail::kPairStride];
    const bool raw = pairs == nullptr;
    const int np = (kd + 1) / 2;
    const int block = std::min(kb, detail::kPairBlock);
    const std::size_t stride = std::size_t(n);
    const __m256i lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    __m256i range = _mm256_setzero_si256();
    for (int i0 = 0; i0 < m; i0 += kRows) {
        const int rows = std::min(kRows, m - i0);
        for (int p0 = 0; p0 < np; p0 += block) {
            const int cnt = detail::stagePairsI16(
                a + std::size_t(i0) * kd, kd, rows, p0,
                std::min(np, p0 + block), n, raw, ap, off0, off1);
            if (cnt == 0)
                continue;
            for (int j = 0; j < n; j += 16) {
                const int rest = std::min(16, n - j);
                const int vecs = (rest + 7) / 8;
                const __m256i last = _mm256_cmpgt_epi32(
                    _mm256_set1_epi32(rest - 8 * (vecs - 1)), lane);
                i64 *ct = c + std::size_t(i0) * stride + j;
                if (raw)
                    pairTileDispatchAvx2<true>(rows, vecs, ct, stride, ap,
                                               off0, off1, cnt, b + j,
                                               nullptr, last, rest, range);
                else
                    pairTileDispatchAvx2<false>(rows, vecs, ct, stride, ap,
                                                off0, off1, cnt, nullptr,
                                                pairs + j, last, rest,
                                                range);
            }
        }
    }
    // Every lane's OR is below 2^15 exactly when no bit from 15 up is set.
    return _mm256_testz_si256(range,
                              _mm256_set1_epi32(-2 * kGemmI16Limit)) != 0;
}

void
gatherU16Avx2(i16 *dst, const u16 *row, const u16 *idx, int n)
{
    // A 32-bit gather at scale 2 reads row[idx] and the u16 after it
    // (the caller keeps that one readable); the mask keeps the entry,
    // and vpackusdw narrows two gathers into one row of 16 (in-lane,
    // hence the qword permute).
    const __m256i low16 = _mm256_set1_epi32(0xffff);
    const int *base = reinterpret_cast<const int *>(row);
    int j = 0;
    for (; j + 16 <= n; j += 16) {
        const __m256i lo = _mm256_and_si256(
            _mm256_i32gather_epi32(
                base,
                _mm256_cvtepu16_epi32(_mm_loadu_si128(
                    reinterpret_cast<const __m128i *>(idx + j))),
                2),
            low16);
        const __m256i hi = _mm256_and_si256(
            _mm256_i32gather_epi32(
                base,
                _mm256_cvtepu16_epi32(_mm_loadu_si128(
                    reinterpret_cast<const __m128i *>(idx + j + 8))),
                2),
            low16);
        _mm256_storeu_si256(
            reinterpret_cast<__m256i *>(dst + j),
            _mm256_permute4x64_epi64(_mm256_packus_epi32(lo, hi), 0xd8));
    }
    for (; j < n; ++j)
        dst[j] = i16(row[idx[j]]);
}

/**
 * One column tile of walkRowsI16: V vectors of 16 columns, their keys
 * and counts (and, Signed, their +-1 steps) held in ymm registers
 * through the whole walk. Vector v covers columns 16v, except that the
 * last one moves back by `back` columns so that it ends at the row's
 * end: its columns overlap the vector before, which stores the same
 * values. Keys and thresholds are below 2^15, so key >= t is one signed
 * compare (key > t - 1), as is the down term's key < d. A true lane
 * reads -1: an unsigned walk subtracts it, a signed one adds it ANDed
 * with the step, and a down miss adds it as it is. Every loop over V is
 * unrolled so that GCC keeps the arrays in registers.
 */
template <int V, bool Signed, bool Down>
inline void
walkTileAvx2(i16 *rows, std::ptrdiff_t stride, const u16 *keys,
             const i16 *signs, const i16 *base, const u16 *up,
             const u16 *down, int count, int back)
{
    const auto at = [back](int v) { return 16 * v - (v + 1 < V ? 0 : back); };
    const auto load = [](const void *p) {
        return _mm256_loadu_si256(static_cast<const __m256i *>(p));
    };
    const __m256i one = _mm256_set1_epi16(1);
    __m256i key[V], step[Signed ? V : 1], acc[V];
    #pragma GCC unroll 4
    for (int v = 0; v < V; ++v) {
        key[v] = load(keys + at(v));
        acc[v] = base ? load(base + at(v)) : _mm256_setzero_si256();
        if constexpr (Signed) {
            // -1 where the sign is negative: 1 ^ -1 == -2, -2 + 1 == -1.
            const __m256i neg = _mm256_srai_epi16(load(signs + at(v)), 15);
            step[v] = _mm256_sub_epi16(_mm256_xor_si256(one, neg), neg);
        }
    }
    for (int i = 0;; ++i) {
        i16 *row = rows + i * stride;
        #pragma GCC unroll 4
        for (int v = 0; v < V; ++v)
            _mm256_storeu_si256(reinterpret_cast<__m256i *>(row + at(v)),
                                acc[v]);
        if (i + 1 == count)
            break;
        const __m256i t = _mm256_set1_epi16(i16(up[i] - 1));
        #pragma GCC unroll 4
        for (int v = 0; v < V; ++v) {
            const __m256i hit = _mm256_cmpgt_epi16(key[v], t);
            if constexpr (Signed)
                acc[v] = _mm256_add_epi16(acc[v],
                                          _mm256_and_si256(hit, step[v]));
            else
                acc[v] = _mm256_sub_epi16(acc[v], hit);
        }
        if constexpr (Down) {
            const __m256i d = _mm256_set1_epi16(i16(down[-i]));
            #pragma GCC unroll 4
            for (int v = 0; v < V; ++v)
                acc[v] = _mm256_add_epi16(acc[v],
                                          _mm256_cmpgt_epi16(d, key[v]));
        }
    }
}

/**
 * The walk's column tiles on one (Signed, Down) form: tiles of up to
 * four vectors, or three when a tile holds steps and two broadcasts
 * (Signed and Down), so that every form fits the 16 ymm registers.
 */
template <bool Signed, bool Down>
void
walkTilesAvx2(i16 *rows, std::ptrdiff_t stride, const u16 *keys,
              const i16 *signs, const i16 *base, const u16 *up,
              const u16 *down, int count, int n)
{
    constexpr int kVecs = Signed && Down ? 3 : 4;
    for (int j = 0; j < n; j += 16 * kVecs) {
        const int rest = std::min(16 * kVecs, n - j);
        const int vecs = (rest + 15) / 16;
        // A tile narrower than a vector ends on one moved back into the
        // tile before (n >= 16), whose columns it stores again.
        const int back = 16 * vecs - rest;
        const i16 *sg = Signed ? signs + j : nullptr;
        const i16 *bs = base ? base + j : nullptr;
#define USYS_WALK_TILE(V)                                                 \
    case V:                                                               \
        if constexpr (V <= kVecs)                                         \
            walkTileAvx2<V, Signed, Down>(rows + j, stride, keys + j, sg,   \
                                          bs, up, down, count, back);     \
        break;
        switch (vecs) {
            USYS_WALK_TILE(1) USYS_WALK_TILE(2) USYS_WALK_TILE(3)
            USYS_WALK_TILE(4)
        }
#undef USYS_WALK_TILE
    }
}

void
walkRowsI16Avx2(i16 *rows, std::ptrdiff_t stride, const u16 *keys,
                const i16 *signs, const i16 *base, const u16 *up,
                const u16 *down, int count, int n)
{
    // AVX2 has no 16-bit masked store, so a row narrower than one
    // vector takes the generic walk, and a wider one ends on a vector
    // moved back to the row's end.
    if (n < 16) {
        detail::walkRowsI16Generic(rows, stride, keys, signs, base, up,
                                   down, count, n);
        return;
    }
    if (count <= 0)
        return;
    if (signs && down)
        walkTilesAvx2<true, true>(rows, stride, keys, signs, base, up, down,
                                  count, n);
    else if (signs)
        walkTilesAvx2<true, false>(rows, stride, keys, signs, base, up,
                                   down, count, n);
    else if (down)
        walkTilesAvx2<false, true>(rows, stride, keys, signs, base, up,
                                   down, count, n);
    else
        walkTilesAvx2<false, false>(rows, stride, keys, signs, base, up,
                                    down, count, n);
}

/**
 * One register tile of sumRowsI16: V vectors of 8 columns held in ymm
 * accumulators across every selected row, each row's i16 entries
 * sign-extended into them (vpmovsxwd). Whole 8-entry groups are loaded,
 * so the last one may read past the row (into the slack the caller
 * keeps readable); only `width` columns are spilled. A negated row adds
 * v ^ -1 == -v - 1, and the count of negated rows is added back before
 * the spill. Every loop over V is unrolled so that the accumulators stay
 * in registers.
 */
template <int V>
inline void
sumTileAvx2(i64 *out, const i16 *rows, const u32 *slots, int count,
            std::size_t stride, int width)
{
    __m256i acc[V];
    #pragma GCC unroll 4
    for (int v = 0; v < V; ++v)
        acc[v] = _mm256_setzero_si256();
    u32 negated = 0;
    for (int i = 0; i < count; ++i) {
        const u32 s = slots[i];
        const __m256i mask = _mm256_set1_epi32(-i32(s & 1));
        negated += s & 1;
        const i16 *row = rows + std::size_t(s >> 1) * stride;
        #pragma GCC unroll 4
        for (int v = 0; v < V; ++v)
            acc[v] = _mm256_add_epi32(
                acc[v],
                _mm256_xor_si256(
                    _mm256_cvtepi16_epi32(_mm_loadu_si128(
                        reinterpret_cast<const __m128i *>(row + 8 * v))),
                    mask));
    }
    alignas(32) i32 sums[8 * V];
    const __m256i bias = _mm256_set1_epi32(i32(negated));
    #pragma GCC unroll 4
    for (int v = 0; v < V; ++v)
        _mm256_store_si256(reinterpret_cast<__m256i *>(sums + 8 * v),
                           _mm256_add_epi32(acc[v], bias));
    for (int j = 0; j < width; ++j)
        out[j] += sums[j];
}

void
sumRowsI16Avx2(i64 *out, const i16 *rows, const u32 *slots, int count,
               int n)
{
    // No rows adds nothing (and `rows` may then be null).
    if (count == 0)
        return;
    // Tiles of 32 columns (four ymm) sweep every row once; the last
    // tile narrows to the vectors it needs.
    const std::size_t stride = std::size_t(n);
    int j = 0;
    for (; j + 32 <= n; j += 32)
        sumTileAvx2<4>(out + j, rows + j, slots, count, stride, 32);
    const int rest = n - j;
    switch ((rest + 7) / 8) {
      case 1:
        sumTileAvx2<1>(out + j, rows + j, slots, count, stride, rest);
        break;
      case 2:
        sumTileAvx2<2>(out + j, rows + j, slots, count, stride, rest);
        break;
      case 3:
        sumTileAvx2<3>(out + j, rows + j, slots, count, stride, rest);
        break;
      case 4:
        sumTileAvx2<4>(out + j, rows + j, slots, count, stride, rest);
        break;
    }
}

const SimdKernels kAvx2 = {
    SimdLevel::Avx2, axpyF32Avx2,     gemmI16Avx2,
    gatherU16Avx2,   walkRowsI16Avx2, sumRowsI16Avx2,
};

} // namespace

namespace detail {

const SimdKernels *
avx2KernelsImpl()
{
    return &kAvx2;
}

} // namespace detail
} // namespace usys

#else // !USYS_HAVE_AVX2

namespace usys {
namespace detail {

const SimdKernels *
avx2KernelsImpl()
{
    return nullptr;
}

} // namespace detail
} // namespace usys

#endif // USYS_HAVE_AVX2
