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

/** Load a full vector, or (partial) the lanes of `last` and zero. */
inline __m256i
loadAvx2(const void *p, bool full, __m256i last)
{
    return full ? _mm256_loadu_si256(static_cast<const __m256i *>(p))
                : _mm256_maskload_epi32(static_cast<const int *>(p), last);
}

/** Add the first `width` i32 lanes of acc[0..V) into out[0..width). */
template <int V>
inline void
spillAvx2(i64 *out, const __m256i (&acc)[V], int width)
{
    alignas(32) i32 sums[8 * V];
    #pragma GCC unroll 4
    for (int v = 0; v < V; ++v)
        _mm256_store_si256(reinterpret_cast<__m256i *>(sums + 8 * v),
                           acc[v]);
    for (int j = 0; j < width; ++j)
        out[j] += sums[j];
}

/**
 * One panel tile of gemmI16: R output rows x V vectors of 8 columns,
 * summed in ymm accumulators over the `cnt` staged k pairs and spilled
 * once (the last vector loaded under `last`, `width` columns in all).
 * vpmaddwd multiplies each panel vector by each row's broadcast pair.
 */
template <int R, int V>
inline void
pairTileAvx2(i64 *c, std::size_t n, const u32 *ap, const u32 *off, int cnt,
             const u32 *pairs, __m256i last, int width)
{
    __m256i acc[R][V];
    #pragma GCC unroll 4
    for (int r = 0; r < R; ++r)
        #pragma GCC unroll 4
        for (int v = 0; v < V; ++v)
            acc[r][v] = _mm256_setzero_si256();
    for (int q = 0; q < cnt; ++q) {
        __m256i bv[V];
        #pragma GCC unroll 4
        for (int v = 0; v < V; ++v)
            bv[v] = loadAvx2(pairs + off[q] + 8 * v, v + 1 < V, last);
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
    #pragma GCC unroll 4
    for (int r = 0; r < R; ++r)
        spillAvx2<V>(c + r * n, acc[r], width);
}

/**
 * One row tile of gemmI16 on B's own rows: R output rows x V vectors of
 * 8 columns over `cnt` k values from b (row stride n) and a (row stride
 * kd), the k in ks[0, cnt) (liveKsI16). The tile takes them two at a
 * time: a code in range is its own low 16 bits, so one vpblendw of row
 * k0 and row k1 shifted up 16 bits is the pair (b(k0, j), b(k1, j)), and
 * vpmaddwd against the broadcast (a(r, k0), a(r, k1)) adds both products
 * in one instruction. An odd count's last k pairs with itself under a
 * zero activation. The tile ORs every code it reads, biased by 2^14,
 * into `range`. All, it reads every k in [0, cnt) instead and also
 * counts its zero codes into `zeros` (the last vector's masked-off lanes
 * load as zero and are masked out of the count).
 */
template <int R, int V, bool All>
inline void
rowTileAvx2(i64 *c, std::size_t n, const i32 *a, std::size_t kd,
            const i32 *b, const u32 *ks, int cnt, __m256i last, int width,
            __m256i &range, u64 &zeros)
{
    const __m256i bias = _mm256_set1_epi32(kGemmI16Limit);
    const __m256i zero = _mm256_setzero_si256();
    __m256i any = range, zc = zero;
    __m256i acc[R][V];
    #pragma GCC unroll 4
    for (int r = 0; r < R; ++r)
        #pragma GCC unroll 4
        for (int v = 0; v < V; ++v)
            acc[r][v] = zero;
    for (int q = 0; q < cnt; q += 2) {
        const bool pair = q + 1 < cnt;
        const std::size_t k0 = All ? std::size_t(q) : std::size_t(ks[q]);
        const std::size_t k1 =
            !pair ? k0 : All ? std::size_t(q + 1) : std::size_t(ks[q + 1]);
        __m256i bv[V];
        #pragma GCC unroll 4
        for (int v = 0; v < V; ++v) {
            const __m256i lo = loadAvx2(b + k0 * n + 8 * v, v + 1 < V, last);
            const __m256i hi = loadAvx2(b + k1 * n + 8 * v, v + 1 < V, last);
            any = _mm256_or_si256(
                any, _mm256_or_si256(_mm256_add_epi32(lo, bias),
                                     _mm256_add_epi32(hi, bias)));
            if constexpr (All) {
                // An odd count's repeated row is no code of b.
                __m256i eq = _mm256_sub_epi32(
                    _mm256_cmpeq_epi32(lo, zero),
                    _mm256_and_si256(_mm256_cmpeq_epi32(hi, zero),
                                     _mm256_set1_epi32(pair ? 1 : 0)));
                if (v + 1 == V)
                    eq = _mm256_and_si256(eq, last);
                zc = _mm256_sub_epi32(zc, eq);
            }
            bv[v] = _mm256_blend_epi16(lo, _mm256_slli_epi32(hi, 16), 0xaa);
        }
        #pragma GCC unroll 4
        for (int r = 0; r < R; ++r) {
            const i32 *ar = a + std::size_t(r) * kd;
            const u32 a1 = pair ? u32(ar[k1]) << 16 : 0u;
            const __m256i av =
                _mm256_set1_epi32(i32((u32(ar[k0]) & 0xffffu) | a1));
            #pragma GCC unroll 4
            for (int v = 0; v < V; ++v)
                acc[r][v] = _mm256_add_epi32(acc[r][v],
                                             _mm256_madd_epi16(bv[v], av));
        }
    }
    #pragma GCC unroll 4
    for (int r = 0; r < R; ++r)
        spillAvx2<V>(c + r * n, acc[r], width);
    range = any;
    if constexpr (All) {
        alignas(32) u32 lanes[8];
        _mm256_store_si256(reinterpret_cast<__m256i *>(lanes), zc);
        for (const u32 l : lanes)
            zeros += l;
    }
}

/** pairTileAvx2 for a tile of `rows` rows and `vecs` vectors. */
void
pairTileDispatchAvx2(int rows, int vecs, i64 *c, std::size_t n,
                     const u32 *ap, const u32 *off, int cnt,
                     const u32 *pairs, __m256i last, int width)
{
#define USYS_PAIR_TILE(R, V)                                              \
    case (R - 1) * 2 + V - 1:                                             \
        pairTileAvx2<R, V>(c, n, ap, off, cnt, pairs, last, width);       \
        return;
    switch ((rows - 1) * 2 + vecs - 1) {
        USYS_PAIR_TILE(1, 1) USYS_PAIR_TILE(1, 2)
        USYS_PAIR_TILE(2, 1) USYS_PAIR_TILE(2, 2)
        USYS_PAIR_TILE(3, 1) USYS_PAIR_TILE(3, 2)
        USYS_PAIR_TILE(4, 1) USYS_PAIR_TILE(4, 2)
    }
#undef USYS_PAIR_TILE
}

/** rowTileAvx2 for a tile of `rows` rows and `vecs` vectors. */
template <bool All>
void
rowTileDispatchAvx2(int rows, int vecs, i64 *c, std::size_t n,
                    const i32 *a, std::size_t kd, const i32 *b,
                    const u32 *ks, int cnt, __m256i last, int width,
                    __m256i &range, u64 &zeros)
{
#define USYS_ROW_TILE(R, V)                                               \
    case (R - 1) * 2 + V - 1:                                             \
        rowTileAvx2<R, V, All>(c, n, a, kd, b, ks, cnt, last, width,      \
                                 range, zeros);                           \
        return;
    switch ((rows - 1) * 2 + vecs - 1) {
        USYS_ROW_TILE(1, 1) USYS_ROW_TILE(1, 2)
        USYS_ROW_TILE(2, 1) USYS_ROW_TILE(2, 2)
        USYS_ROW_TILE(3, 1) USYS_ROW_TILE(3, 2)
        USYS_ROW_TILE(4, 1) USYS_ROW_TILE(4, 2)
    }
#undef USYS_ROW_TILE
}

bool
gemmI16Avx2(i64 *c, const i32 *a, const i32 *b, const u32 *pairs, int m,
            int kd, int n, int kb, u64 *zeros)
{
    // Tiles of kPairTileRows rows x 16 columns (two ymm) sweep each
    // block once; the last column tile narrows to the vectors it needs
    // and masks its final one.
    constexpr int kRows = detail::kPairTileRows;
    const std::size_t stride = std::size_t(n);
    const __m256i lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    const auto lastOf = [&lane](int rest, int vecs) {
        return _mm256_cmpgt_epi32(_mm256_set1_epi32(rest - 8 * (vecs - 1)),
                                  lane);
    };
    if (pairs) {
        alignas(32) u32 ap[kRows * detail::kPairStride];
        u32 off[detail::kPairStride];
        const int np = (kd + 1) / 2;
        const int block = std::min(kb, detail::kPairBlock);
        for (int i0 = 0; i0 < m; i0 += kRows) {
            const int rows = std::min(kRows, m - i0);
            for (int p0 = 0; p0 < np; p0 += block) {
                const int cnt = detail::stagePairsI16(
                    a + std::size_t(i0) * kd, kd, rows, p0,
                    std::min(np, p0 + block), n, ap, off);
                if (cnt == 0)
                    continue;
                for (int j = 0; j < n; j += 16) {
                    const int rest = std::min(16, n - j);
                    const int vecs = (rest + 7) / 8;
                    pairTileDispatchAvx2(
                        rows, vecs, c + std::size_t(i0) * stride + j, stride,
                        ap, off, cnt, pairs + j, lastOf(rest, vecs), rest);
                }
            }
        }
        return true;
    }
    // Row tiles read B's rows in place in blocks of at most 2 * kb (and
    // kRowBlock) k: each tile its live k, or, when zeros are asked for,
    // the first rows every k.
    const int block =
        int(std::min<i64>({kd, 2 * i64(kb), i64(detail::kRowBlock)}));
    u32 ks[detail::kRowBlock];
    __m256i range = _mm256_setzero_si256();
    u64 zc = 0;
    for (int i0 = 0; i0 < m; i0 += kRows) {
        const int rows = std::min(kRows, m - i0);
        const bool all = i0 == 0 && zeros;
        for (int k0 = 0; k0 < kd; k0 += block) {
            int cnt = std::min(block, kd - k0);
            const i32 *at = a + std::size_t(i0) * kd;
            if (!all) {
                cnt = detail::liveKsI16(at, kd, rows, k0, k0 + cnt, ks);
                if (cnt == 0)
                    continue;
            }
            for (int j = 0; j < n; j += 16) {
                const int rest = std::min(16, n - j);
                const int vecs = (rest + 7) / 8;
                i64 *ct = c + std::size_t(i0) * stride + j;
                const i32 *bt = b + std::size_t(k0) * stride + j;
                if (all)
                    rowTileDispatchAvx2<true>(rows, vecs, ct, stride,
                                              at + k0, std::size_t(kd), bt,
                                              nullptr, cnt,
                                              lastOf(rest, vecs), rest,
                                              range, zc);
                else
                    rowTileDispatchAvx2<false>(rows, vecs, ct, stride,
                                               at + k0, std::size_t(kd), bt,
                                               ks, cnt, lastOf(rest, vecs),
                                               rest, range, zc);
            }
        }
    }
    if (zeros)
        *zeros += zc;
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
 * One column tile of gatherSumU16: V vectors of 8 columns summed in ymm
 * accumulators over every k and spilled once, `width` columns in all
 * (the last vector loads under `last`; its other lanes read as code 0,
 * a valid key, and are masked out of the zero count). Each key (|w|, or
 * w + lim for Ug) is clamped to `top` before it indexes a table, and
 * the unclamped keys' running maximum is the range check. A 32-bit
 * gather at scale 2 reads the entry and the u16 after it: UR/UT keep
 * the entry and negate it as (g ^ s) - s, s the sign of w against the
 * activation's; UG subtracts the two gathers in 16-bit lanes and widens
 * the low halves with one vpmaddwd against (1, 0). Every loop over V is
 * unrolled so that the accumulators stay in registers.
 */
template <int V, bool Ug>
inline bool
gatherSumTileAvx2(i64 *out, const i32 *b, std::size_t n,
                  const GatherRow *rows, int kd, u32 lim, u32 bias,
                  __m256i last, int width, u64 &zeros)
{
    const __m256i zero = _mm256_setzero_si256();
    const __m256i one = _mm256_set1_epi32(1);
    const __m256i low = _mm256_set1_epi32(0xffff);
    const __m256i vlim = _mm256_set1_epi32(i32(lim));
    const __m256i top = _mm256_set1_epi32(i32(Ug ? 2 * lim : lim));
    __m256i acc[V];
    #pragma GCC unroll 4
    for (int v = 0; v < V; ++v)
        acc[v] = zero;
    __m256i widest = zero, zc = zero;
    // A code's zero count and key, and the key's share of the range check.
    const auto keyOf = [&](const __m256i w, int v) {
        __m256i eq = _mm256_cmpeq_epi32(w, zero);
        if (v + 1 == V)
            eq = _mm256_and_si256(eq, last);
        zc = _mm256_sub_epi32(zc, eq);
        const __m256i key =
            Ug ? _mm256_add_epi32(w, vlim) : _mm256_abs_epi32(w);
        widest = _mm256_max_epu32(widest, key);
        return key;
    };
    for (int k = 0; k < kd; ++k) {
        const i32 *bk = b + std::size_t(k) * n;
        const GatherRow &row = rows[k];
        if (!row.ones) {
            #pragma GCC unroll 4
            for (int v = 0; v < V; ++v)
                keyOf(loadAvx2(bk + 8 * v, v + 1 < V, last), v);
            continue;
        }
        const __m256i negate = _mm256_set1_epi32(row.negate);
        #pragma GCC unroll 4
        for (int v = 0; v < V; ++v) {
            const __m256i w = loadAvx2(bk + 8 * v, v + 1 < V, last);
            const __m256i at = _mm256_min_epu32(keyOf(w, v), top);
            const __m256i g1 = _mm256_i32gather_epi32(
                reinterpret_cast<const int *>(row.ones), at, 2);
            if constexpr (Ug) {
                const __m256i g0 = _mm256_i32gather_epi32(
                    reinterpret_cast<const int *>(row.zeros), at, 2);
                acc[v] = _mm256_add_epi32(
                    acc[v], _mm256_madd_epi16(_mm256_sub_epi16(g1, g0), one));
            } else {
                const __m256i s =
                    _mm256_srai_epi32(_mm256_xor_si256(w, negate), 31);
                acc[v] = _mm256_add_epi32(
                    acc[v],
                    _mm256_sub_epi32(
                        _mm256_xor_si256(_mm256_and_si256(g1, low), s), s));
            }
        }
    }
    const __m256i vbias = _mm256_set1_epi32(i32(bias));
    #pragma GCC unroll 4
    for (int v = 0; v < V; ++v)
        acc[v] = _mm256_add_epi32(acc[v], vbias);
    spillAvx2<V>(out, acc, width);
    alignas(32) u32 lanes[8];
    _mm256_store_si256(reinterpret_cast<__m256i *>(lanes), zc);
    for (const u32 l : lanes)
        zeros += l;
    // Some key lies above top exactly when max(widest, top) differs.
    return _mm256_testz_si256(
               _mm256_xor_si256(_mm256_max_epu32(widest, top), top),
               _mm256_set1_epi32(-1)) != 0;
}

bool
gatherSumU16Avx2(i64 *out, const i32 *b, const GatherRow *rows, int kd,
                 int n, i32 lim, bool ug, u32 bias, u64 *zeros)
{
    // Tiles of 32 columns (four ymm) sweep every k once; the last tile
    // narrows to the vectors it needs and masks its final one.
    const std::size_t stride = std::size_t(n);
    const __m256i lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    bool ok = true;
    u64 zc = 0;
    for (int j = 0; j < n; j += 32) {
        const int rest = std::min(32, n - j);
        const int vecs = (rest + 7) / 8;
        const __m256i last = _mm256_cmpgt_epi32(
            _mm256_set1_epi32(rest - 8 * (vecs - 1)), lane);
#define USYS_GATHER_TILE(V)                                               \
    case V:                                                               \
        ok &= ug ? gatherSumTileAvx2<V, true>(out + j, b + j, stride, rows, \
                                              kd, u32(lim), bias, last,   \
                                              rest, zc)                   \
                 : gatherSumTileAvx2<V, false>(out + j, b + j, stride,    \
                                               rows, kd, u32(lim), bias,  \
                                               last, rest, zc);           \
        break;
        switch (vecs) {
            USYS_GATHER_TILE(1) USYS_GATHER_TILE(2) USYS_GATHER_TILE(3)
            USYS_GATHER_TILE(4)
        }
#undef USYS_GATHER_TILE
    }
    if (zeros)
        *zeros += zc;
    return ok;
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
    const __m256i bias = _mm256_set1_epi32(i32(negated));
    #pragma GCC unroll 4
    for (int v = 0; v < V; ++v)
        acc[v] = _mm256_add_epi32(acc[v], bias);
    spillAvx2<V>(out, acc, width);
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
    SimdLevel::Avx2, axpyF32Avx2,      gemmI16Avx2,
    gatherU16Avx2,   gatherSumU16Avx2, walkRowsI16Avx2,
    sumRowsI16Avx2,
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
