/**
 * @file
 * AVX-512 implementations of the SimdKernels table.
 *
 * This translation unit — and only this one — is compiled with
 * -mavx512f -mavx512bw (see src/common/CMakeLists.txt);
 * nothing here is reachable unless runtime CPUID dispatch selected the
 * table, so the default binary still runs on baseline x86-64. Without
 * compiler AVX-512 support the file degrades to a stub returning
 * nullptr.
 *
 * Bit-exactness notes:
 *  - mask-register compares, vpmaddwd pair multiply-adds and the
 *    threshold walk's masked 16-bit adds are exact integer operations; only
 *    summation order differs from the generic loops, and integer sums
 *    are order-free.
 *  - the fp32 kernel issues exactly one vmulps and one vaddps per
 *    element (never an FMA; -ffp-contract=off on this TU), matching
 *    the generic loop's rounding per element.
 */

#include "common/simd.h"

#if defined(USYS_HAVE_AVX512)

#include <algorithm>
#include <bit>
#include <immintrin.h>

namespace usys {
namespace {

// GCC 12's TSan pass miscompiles these kernels at -O2: the inserted
// __tsan_read/__tsan_write calls force ZMM/mask-register spills, and
// reloaded __mmask16 values come back holding stack-address fragments
// (observed directly: an all-false compare's mask, packed into a word,
// read back with half a stack pointer in bits 16..47 — DESIGN.md §16).
// The kernels are synchronization-free leaf code over caller-owned
// buffers, so skipping instrumentation inside them costs no real race
// coverage: every buffer they touch is also read/written by
// instrumented caller code.
#if defined(__SANITIZE_THREAD__)
#define USYS_AVX512_NO_TSAN __attribute__((no_sanitize("thread")))
#else
#define USYS_AVX512_NO_TSAN
#endif

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

/** Add the 16 i32 lanes of `sum` under mask `m` into o[0..16) as i64. */
USYS_AVX512_NO_TSAN inline void
spillAvx512(i64 *o, __m512i sum, __mmask16 m)
{
    const __mmask8 mlo = __mmask8(m);
    const __mmask8 mhi = __mmask8(m >> 8);
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

/** The sum of the 16 u32 lanes of v. */
USYS_AVX512_NO_TSAN inline u64
laneSumAvx512(__m512i v)
{
    alignas(64) u32 lanes[16];
    _mm512_store_si512(lanes, v);
    u64 sum = 0;
    for (const u32 l : lanes)
        sum += l;
    return sum;
}

/**
 * One panel tile of gemmI16: R output rows x V vectors of 16 columns,
 * summed in zmm accumulators over the `cnt` staged k pairs and spilled
 * once. vpmaddwd multiplies each panel vector by each row's broadcast
 * pair.
 */
template <int R, int V>
USYS_AVX512_NO_TSAN inline void
pairTileAvx512(i64 *c, std::size_t n, const u32 *ap, const u32 *off,
               int cnt, const u32 *pairs, __mmask16 last)
{
    __m512i acc[R][V];
    #pragma GCC unroll 4
    for (int r = 0; r < R; ++r)
        #pragma GCC unroll 4
        for (int v = 0; v < V; ++v)
            acc[r][v] = _mm512_setzero_si512();
    for (int q = 0; q < cnt; ++q) {
        __m512i bv[V];
        #pragma GCC unroll 4
        for (int v = 0; v < V; ++v)
            bv[v] = _mm512_maskz_loadu_epi32(
                v + 1 < V ? __mmask16(0xffff) : last, pairs + off[q] + 16 * v);
        #pragma GCC unroll 4
        for (int r = 0; r < R; ++r) {
            const __m512i av =
                _mm512_set1_epi32(i32(ap[r * detail::kPairStride + q]));
            #pragma GCC unroll 4
            for (int v = 0; v < V; ++v)
                acc[r][v] = _mm512_add_epi32(acc[r][v],
                                             _mm512_madd_epi16(bv[v], av));
        }
    }
    #pragma GCC unroll 4
    for (int r = 0; r < R; ++r)
        #pragma GCC unroll 4
        for (int v = 0; v < V; ++v)
            spillAvx512(c + r * n + 16 * v, acc[r][v],
                        v + 1 < V ? __mmask16(0xffff) : last);
}

/**
 * One row tile of gemmI16 on B's own rows: R output rows x V vectors of
 * 16 columns over `cnt` k values from b (row stride n) and a (row stride
 * kd), the k in ks[0, cnt) (liveKsI16). The tile takes them two at a
 * time: a code in range is its own low 16 bits, so one vpblendmw of row
 * k0 and row k1 shifted up 16 bits is the pair (b(k0, j), b(k1, j)), and
 * vpmaddwd against the broadcast (a(r, k0), a(r, k1)) adds both products
 * in one instruction. An odd count's last k pairs with itself under a
 * zero activation. The last vector loads under `last`, its other lanes
 * zero. The tile ORs every code it reads, biased by 2^14, into `range`
 * (below 2^15 in every lane while the codes are in range). All, it reads
 * every k in [0, cnt) instead and also counts its zero codes into
 * `zeros`.
 */
template <int R, int V, bool All>
USYS_AVX512_NO_TSAN inline void
rowTileAvx512(i64 *c, std::size_t n, const i32 *a, std::size_t kd,
              const i32 *b, const u32 *ks, int cnt, __mmask16 last,
              __m512i &range, u64 &zeros)
{
    const __m512i bias = _mm512_set1_epi32(kGemmI16Limit);
    const __m512i one = _mm512_set1_epi32(1);
    const __m512i zero = _mm512_setzero_si512();
    __m512i any = range, zc = zero;
    __m512i acc[R][V];
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
        __m512i bv[V];
        #pragma GCC unroll 4
        for (int v = 0; v < V; ++v) {
            const __mmask16 m = v + 1 < V ? __mmask16(0xffff) : last;
            const __m512i lo =
                _mm512_maskz_loadu_epi32(m, b + k0 * n + 16 * v);
            const __m512i hi =
                _mm512_maskz_loadu_epi32(m, b + k1 * n + 16 * v);
            any = _mm512_ternarylogic_epi32(any, _mm512_add_epi32(lo, bias),
                                            _mm512_add_epi32(hi, bias), 0xfe);
            if constexpr (All) {
                // A masked-off lane is no code of b, nor is an odd
                // count's repeated row: the compares skip them.
                zc = _mm512_mask_add_epi32(
                    zc, _mm512_mask_cmpeq_epi32_mask(m, lo, zero), zc, one);
                zc = _mm512_mask_add_epi32(
                    zc,
                    _mm512_mask_cmpeq_epi32_mask(pair ? m : __mmask16(0), hi,
                                                 zero),
                    zc, one);
            }
            // Zero-masked form, as in spillAvx512.
            bv[v] = _mm512_mask_blend_epi16(
                0xaaaaaaaau, lo, _mm512_maskz_slli_epi32(0xffff, hi, 16));
        }
        #pragma GCC unroll 4
        for (int r = 0; r < R; ++r) {
            const i32 *ar = a + std::size_t(r) * kd;
            const u32 a1 = pair ? u32(ar[k1]) << 16 : 0u;
            const __m512i av =
                _mm512_set1_epi32(i32((u32(ar[k0]) & 0xffffu) | a1));
            #pragma GCC unroll 4
            for (int v = 0; v < V; ++v)
                acc[r][v] = _mm512_add_epi32(acc[r][v],
                                             _mm512_madd_epi16(bv[v], av));
        }
    }
    #pragma GCC unroll 4
    for (int r = 0; r < R; ++r)
        #pragma GCC unroll 4
        for (int v = 0; v < V; ++v)
            spillAvx512(c + r * n + 16 * v, acc[r][v],
                        v + 1 < V ? __mmask16(0xffff) : last);
    range = any;
    if constexpr (All)
        zeros += laneSumAvx512(zc);
}

/**
 * detail::stagePairsI16, 16 pairs a step: each row's 32 codes narrow to
 * 16 i16 pairs (vpmovdw), the rows' OR picks the pairs to keep, and
 * vpcompressd packs the kept pairs and their panel offsets. The scalar
 * staging's compaction chains every pair on the last, and at N = 8-24
 * it took two thirds of the kernel's time. Each full-width store may
 * run up to 15 words past the kept pairs, into the kPairStride slack.
 */
USYS_AVX512_NO_TSAN int
stagePairsAvx512(const i32 *a, int kd, int rows, int p0, int p1, int n,
                 u32 *ap, u32 *off)
{
    const __m512i lane = _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10,
                                           11, 12, 13, 14, 15);
    // The panel row (times n) of lane l's pair.
    const __m512i step = _mm512_mullo_epi32(lane, _mm512_set1_epi32(n));
    const std::size_t stride = std::size_t(kd);
    int q = 0;
    for (int p = p0; p < p1; p += 16) {
        // Codes [2p, 2p + 32) of each row, cut at the block's last pair
        // and at the row's end (the odd tail's second code reads 0).
        const int codes = std::min(2 * std::min(16, p1 - p), kd - 2 * p);
        const u32 live = codes >= 32 ? ~0u : (1u << codes) - 1;
        __m512i w[detail::kPairTileRows];
        __m512i any = _mm512_setzero_si512();
        for (int r = 0; r < rows; ++r) {
            const i32 *code = a + std::size_t(r) * stride + 2 * p;
            // Zero-masked forms, as in spillAvx512.
            const __m256i lo = _mm512_maskz_cvtepi32_epi16(
                0xffff, _mm512_maskz_loadu_epi32(__mmask16(live), code));
            const __m256i hi = _mm512_maskz_cvtepi32_epi16(
                0xffff,
                _mm512_maskz_loadu_epi32(__mmask16(live >> 16), code + 16));
            const __m512i zero = _mm512_setzero_si512();
            w[r] = _mm512_maskz_inserti64x4(
                0xff, _mm512_maskz_inserti64x4(0xff, zero, lo, 0), hi, 1);
            any = _mm512_or_si512(any, w[r]);
        }
        const __mmask16 keep = _mm512_test_epi32_mask(any, any);
        const __m512i r0 =
            _mm512_add_epi32(_mm512_set1_epi32(i32(u32(p) * u32(n))), step);
        for (int r = 0; r < rows; ++r)
            _mm512_storeu_si512(ap + r * detail::kPairStride + q,
                                _mm512_maskz_compress_epi32(keep, w[r]));
        _mm512_storeu_si512(off + q, _mm512_maskz_compress_epi32(keep, r0));
        q += std::popcount(u32(keep));
    }
    return q;
}

/**
 * detail::liveKsI16, 16 k a step: the rows' OR picks the live k, and
 * vpcompressd packs their offsets. Each full-width store may run up to 15
 * words past the live k, so ks needs kRowBlock + 16 words.
 */
USYS_AVX512_NO_TSAN int
liveKsAvx512(const i32 *a, int kd, int rows, int k0, int k1, u32 *ks)
{
    const __m512i lane = _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10,
                                           11, 12, 13, 14, 15);
    const std::size_t stride = std::size_t(kd);
    int q = 0;
    for (int k = k0; k < k1; k += 16) {
        const __mmask16 live = k1 - k >= 16
                                   ? __mmask16(0xffff)
                                   : __mmask16((1u << (k1 - k)) - 1);
        __m512i any = _mm512_setzero_si512();
        for (int r = 0; r < rows; ++r)
            any = _mm512_or_si512(
                any, _mm512_maskz_loadu_epi32(
                         live, a + std::size_t(r) * stride + std::size_t(k)));
        const __mmask16 keep = _mm512_test_epi32_mask(any, any);
        const __m512i at = _mm512_add_epi32(lane, _mm512_set1_epi32(k - k0));
        _mm512_storeu_si512(ks + q, _mm512_maskz_compress_epi32(keep, at));
        q += std::popcount(u32(keep));
    }
    return q;
}

/** pairTileAvx512 for a tile of `rows` rows and `vecs` vectors. */
USYS_AVX512_NO_TSAN void
pairTileDispatchAvx512(int rows, int vecs, i64 *c, std::size_t n,
                       const u32 *ap, const u32 *off, int cnt,
                       const u32 *pairs, __mmask16 last)
{
#define USYS_PAIR_TILE(R, V)                                              \
    case (R - 1) * 4 + V - 1:                                             \
        pairTileAvx512<R, V>(c, n, ap, off, cnt, pairs, last);            \
        return;
    switch ((rows - 1) * 4 + vecs - 1) {
        USYS_PAIR_TILE(1, 1) USYS_PAIR_TILE(1, 2)
        USYS_PAIR_TILE(1, 3) USYS_PAIR_TILE(1, 4)
        USYS_PAIR_TILE(2, 1) USYS_PAIR_TILE(2, 2)
        USYS_PAIR_TILE(2, 3) USYS_PAIR_TILE(2, 4)
        USYS_PAIR_TILE(3, 1) USYS_PAIR_TILE(3, 2)
        USYS_PAIR_TILE(3, 3) USYS_PAIR_TILE(3, 4)
        USYS_PAIR_TILE(4, 1) USYS_PAIR_TILE(4, 2)
        USYS_PAIR_TILE(4, 3) USYS_PAIR_TILE(4, 4)
    }
#undef USYS_PAIR_TILE
}

/** rowTileAvx512 for a tile of `rows` rows and `vecs` vectors. */
template <bool All>
USYS_AVX512_NO_TSAN void
rowTileDispatchAvx512(int rows, int vecs, i64 *c, std::size_t n,
                      const i32 *a, std::size_t kd, const i32 *b,
                      const u32 *ks, int cnt, __mmask16 last,
                      __m512i &range, u64 &zeros)
{
#define USYS_ROW_TILE(R, V)                                               \
    case (R - 1) * 4 + V - 1:                                             \
        rowTileAvx512<R, V, All>(c, n, a, kd, b, ks, cnt, last, range,    \
                                   zeros);                                \
        return;
    switch ((rows - 1) * 4 + vecs - 1) {
        USYS_ROW_TILE(1, 1) USYS_ROW_TILE(1, 2)
        USYS_ROW_TILE(1, 3) USYS_ROW_TILE(1, 4)
        USYS_ROW_TILE(2, 1) USYS_ROW_TILE(2, 2)
        USYS_ROW_TILE(2, 3) USYS_ROW_TILE(2, 4)
        USYS_ROW_TILE(3, 1) USYS_ROW_TILE(3, 2)
        USYS_ROW_TILE(3, 3) USYS_ROW_TILE(3, 4)
        USYS_ROW_TILE(4, 1) USYS_ROW_TILE(4, 2)
        USYS_ROW_TILE(4, 3) USYS_ROW_TILE(4, 4)
    }
#undef USYS_ROW_TILE
}

USYS_AVX512_NO_TSAN bool
gemmI16Avx512(i64 *c, const i32 *a, const i32 *b, const u32 *pairs, int m,
              int kd, int n, int kb, u64 *zeros)
{
    // Tiles of kPairTileRows rows x 64 columns (four zmm) sweep each
    // block once; the last column tile narrows to the vectors it needs
    // and masks its final one.
    constexpr int kRows = detail::kPairTileRows;
    const std::size_t stride = std::size_t(n);
    if (pairs) {
        alignas(64) u32 ap[kRows * detail::kPairStride];
        u32 off[detail::kPairStride];
        const int np = (kd + 1) / 2;
        const int block = std::min(kb, detail::kPairBlock);
        for (int i0 = 0; i0 < m; i0 += kRows) {
            const int rows = std::min(kRows, m - i0);
            for (int p0 = 0; p0 < np; p0 += block) {
                const int cnt = stagePairsAvx512(
                    a + std::size_t(i0) * kd, kd, rows, p0,
                    std::min(np, p0 + block), n, ap, off);
                if (cnt == 0)
                    continue;
                for (int j = 0; j < n; j += 64) {
                    const int rest = std::min(64, n - j);
                    const int vecs = (rest + 15) / 16;
                    pairTileDispatchAvx512(
                        rows, vecs, c + std::size_t(i0) * stride + j, stride,
                        ap, off, cnt, pairs + j,
                        __mmask16(0xffffu >> (16 * vecs - rest)));
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
    u32 ks[detail::kRowBlock + 16];
    __m512i range = _mm512_setzero_si512();
    u64 zc = 0;
    for (int i0 = 0; i0 < m; i0 += kRows) {
        const int rows = std::min(kRows, m - i0);
        const bool all = i0 == 0 && zeros;
        for (int k0 = 0; k0 < kd; k0 += block) {
            int cnt = std::min(block, kd - k0);
            const i32 *at = a + std::size_t(i0) * kd;
            if (!all) {
                cnt = liveKsAvx512(at, kd, rows, k0, k0 + cnt, ks);
                if (cnt == 0)
                    continue;
            }
            for (int j = 0; j < n; j += 64) {
                const int rest = std::min(64, n - j);
                const int vecs = (rest + 15) / 16;
                const __mmask16 last =
                    __mmask16(0xffffu >> (16 * vecs - rest));
                i64 *ct = c + std::size_t(i0) * stride + j;
                const i32 *bt = b + std::size_t(k0) * stride + j;
                if (all)
                    rowTileDispatchAvx512<true>(rows, vecs, ct, stride,
                                                at + k0, std::size_t(kd), bt,
                                                nullptr, cnt, last, range,
                                                zc);
                else
                    rowTileDispatchAvx512<false>(rows, vecs, ct, stride,
                                                 at + k0, std::size_t(kd),
                                                 bt, ks, cnt, last, range,
                                                 zc);
            }
        }
    }
    if (zeros)
        *zeros += zc;
    return _mm512_cmpge_epu32_mask(
               range, _mm512_set1_epi32(2 * kGemmI16Limit)) == 0;
}

USYS_AVX512_NO_TSAN void
gatherU16Avx512(i16 *dst, const u16 *row, const u16 *idx, int n)
{
    // A 32-bit gather at scale 2 reads row[idx] and the u16 after it
    // (the caller keeps that one readable); vpmovdw keeps the entry.
    const __m512i zero = _mm512_setzero_si512();
    int j = 0;
    for (; j + 16 <= n; j += 16) {
        const __m512i vi = _mm512_maskz_cvtepu16_epi32(
            0xffff, _mm256_loadu_si256(
                        reinterpret_cast<const __m256i *>(idx + j)));
        const __m512i g = _mm512_mask_i32gather_epi32(
            zero, __mmask16(0xffff), vi, row, 2);
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(dst + j),
                            _mm512_maskz_cvtepi32_epi16(0xffff, g));
    }
    if (j < n) {
        const __mmask16 m = __mmask16((1u << (n - j)) - 1);
        const __m512i vi = _mm512_maskz_cvtepu16_epi32(
            0xffff, _mm512_maskz_extracti64x4_epi64(
                        0xf, _mm512_maskz_loadu_epi16(__mmask32(m), idx + j),
                        0));
        const __m512i g =
            _mm512_mask_i32gather_epi32(zero, m, vi, row, 2);
        _mm512_mask_cvtepi32_storeu_epi16(dst + j, m, g);
    }
}

/**
 * One column tile of gatherSumU16: V vectors of 16 columns summed in zmm
 * accumulators over every k and spilled once, the last vector under
 * `last` (its other lanes load as code 0, a valid key, and are never
 * counted or spilled). Each code's key (|w|, or w + lim for Ug) is
 * clamped to `top` before it indexes a table, so an offending code reads
 * a valid entry; the unclamped keys' running maximum, compared with top
 * once, is the range check. A 32-bit gather at scale 2 reads the entry
 * and the u16 after it: UR/UT keep the entry (and) and add or subtract
 * it by the sign of w against the activation's, and UG subtracts the two
 * gathers in 16-bit lanes (the entries are below 2^15) and widens the
 * low halves with one vpmaddwd against (1, 0). Every loop over V is
 * unrolled so that the accumulators stay in registers.
 */
template <int V, bool Ug>
USYS_AVX512_NO_TSAN inline bool
gatherSumTileAvx512(i64 *out, const i32 *b, std::size_t n,
                    const GatherRow *rows, int kd, u32 lim, u32 bias,
                    __mmask16 last, u64 &zeros)
{
    const __m512i zero = _mm512_setzero_si512();
    const __m512i one = _mm512_set1_epi32(1);
    const __m512i low = _mm512_set1_epi32(0xffff);
    const __m512i vlim = _mm512_set1_epi32(i32(lim));
    const __m512i top = _mm512_set1_epi32(i32(Ug ? 2 * lim : lim));
    __m512i acc[V];
    #pragma GCC unroll 8
    for (int v = 0; v < V; ++v)
        acc[v] = zero;
    __m512i widest = zero, zc = zero;
    // A code's zero count and key, and the key's share of the range check.
    const auto keyOf = [&](const __m512i w, __mmask16 m) {
        zc = _mm512_mask_add_epi32(
            zc, _mm512_mask_cmpeq_epi32_mask(m, w, zero), zc, one);
        // Zero-masked forms, as in spillAvx512.
        const __m512i key = Ug ? _mm512_add_epi32(w, vlim)
                               : _mm512_maskz_abs_epi32(0xffff, w);
        widest = _mm512_maskz_max_epu32(0xffff, widest, key);
        return key;
    };
    for (int k = 0; k < kd; ++k) {
        const i32 *bk = b + std::size_t(k) * n;
        const GatherRow &row = rows[k];
        if (!row.ones) {
            #pragma GCC unroll 8
            for (int v = 0; v < V; ++v) {
                const __mmask16 m = v + 1 < V ? __mmask16(0xffff) : last;
                keyOf(_mm512_maskz_loadu_epi32(m, bk + 16 * v), m);
            }
            continue;
        }
        const __m512i negate = _mm512_set1_epi32(row.negate);
        #pragma GCC unroll 8
        for (int v = 0; v < V; ++v) {
            const __mmask16 m = v + 1 < V ? __mmask16(0xffff) : last;
            const __m512i w = _mm512_maskz_loadu_epi32(m, bk + 16 * v);
            const __m512i at = _mm512_maskz_min_epu32(0xffff, keyOf(w, m), top);
            const __m512i g1 =
                _mm512_mask_i32gather_epi32(zero, 0xffff, at, row.ones, 2);
            if constexpr (Ug) {
                const __m512i g0 = _mm512_mask_i32gather_epi32(
                    zero, 0xffff, at, row.zeros, 2);
                acc[v] = _mm512_add_epi32(
                    acc[v], _mm512_madd_epi16(_mm512_sub_epi16(g1, g0), one));
            } else {
                const __m512i g = _mm512_and_si512(g1, low);
                const __mmask16 neg = _mm512_cmplt_epi32_mask(
                    _mm512_xor_si512(w, negate), zero);
                acc[v] = _mm512_mask_sub_epi32(_mm512_add_epi32(acc[v], g),
                                               neg, acc[v], g);
            }
        }
    }
    const __m512i vbias = _mm512_set1_epi32(i32(bias));
    #pragma GCC unroll 8
    for (int v = 0; v < V; ++v)
        spillAvx512(out + 16 * v, _mm512_add_epi32(acc[v], vbias),
                    v + 1 < V ? __mmask16(0xffff) : last);
    zeros += laneSumAvx512(zc);
    return _mm512_cmpgt_epu32_mask(widest, top) == 0;
}

USYS_AVX512_NO_TSAN bool
gatherSumU16Avx512(i64 *out, const i32 *b, const GatherRow *rows, int kd,
                   int n, i32 lim, bool ug, u32 bias, u64 *zeros)
{
    // Tiles of up to 128 columns (eight zmm) sweep every k once; the
    // last tile narrows to the vectors it needs and masks its final one.
    const std::size_t stride = std::size_t(n);
    bool ok = true;
    u64 zc = 0;
    for (int j = 0; j < n; j += 128) {
        const int rest = std::min(128, n - j);
        const int vecs = (rest + 15) / 16;
        const __mmask16 last = __mmask16(0xffffu >> (16 * vecs - rest));
#define USYS_GATHER_TILE(V)                                               \
    case V:                                                               \
        ok &= ug ? gatherSumTileAvx512<V, true>(out + j, b + j, stride,   \
                                                rows, kd, u32(lim), bias, \
                                                last, zc)                 \
                 : gatherSumTileAvx512<V, false>(out + j, b + j, stride,  \
                                                 rows, kd, u32(lim),      \
                                                 bias, last, zc);         \
        break;
        switch (vecs) {
            USYS_GATHER_TILE(1) USYS_GATHER_TILE(2) USYS_GATHER_TILE(3)
            USYS_GATHER_TILE(4) USYS_GATHER_TILE(5) USYS_GATHER_TILE(6)
            USYS_GATHER_TILE(7) USYS_GATHER_TILE(8)
        }
#undef USYS_GATHER_TILE
    }
    if (zeros)
        *zeros += zc;
    return ok;
}

/**
 * One column tile of walkRowsI16: V vectors of 32 columns, their keys
 * and counts (and, Signed, their +-1 steps) held in zmm registers
 * through the whole walk, the last vector under `last`. Each row is
 * stored as the counts stand; each step broadcasts the up threshold,
 * compares into a mask and adds the step (or one) where it holds, and
 * (Down) broadcasts the down threshold and subtracts one where the key
 * misses it. Every loop over V is unrolled so that GCC keeps the arrays
 * in registers (without the pragma it keeps them on the stack and
 * reloads them every step).
 */
template <int V, bool Signed, bool Down>
USYS_AVX512_NO_TSAN inline void
walkTileAvx512(i16 *rows, std::ptrdiff_t stride, const u16 *keys,
               const i16 *signs, const i16 *base, const u16 *up,
               const u16 *down, int count, __mmask32 last)
{
    const __m512i one = _mm512_set1_epi16(1);
    __m512i key[V], step[Signed ? V : 1], acc[V];
    #pragma GCC unroll 8
    for (int v = 0; v < V; ++v) {
        const __mmask32 m = v + 1 < V ? __mmask32(~0u) : last;
        key[v] = _mm512_maskz_loadu_epi16(m, keys + 32 * v);
        acc[v] = base ? _mm512_maskz_loadu_epi16(m, base + 32 * v)
                      : _mm512_setzero_si512();
        if constexpr (Signed) {
            // -1 where the sign is negative: 1 ^ -1 == -2, -2 + 1 == -1.
            // The zero-masked shift, as in spillAvx512.
            const __m512i neg = _mm512_maskz_srai_epi16(
                ~__mmask32(0), _mm512_maskz_loadu_epi16(m, signs + 32 * v),
                15);
            step[v] = _mm512_sub_epi16(_mm512_xor_si512(one, neg), neg);
        }
    }
    for (int i = 0;; ++i) {
        i16 *row = rows + i * stride;
        #pragma GCC unroll 8
        for (int v = 0; v < V; ++v)
            _mm512_mask_storeu_epi16(row + 32 * v,
                                     v + 1 < V ? __mmask32(~0u) : last,
                                     acc[v]);
        if (i + 1 == count)
            break;
        const __m512i t = _mm512_set1_epi16(i16(up[i]));
        #pragma GCC unroll 8
        for (int v = 0; v < V; ++v) {
            const __mmask32 hit = _mm512_cmpge_epu16_mask(key[v], t);
            if constexpr (Signed)
                acc[v] = _mm512_mask_add_epi16(acc[v], hit, acc[v], step[v]);
            else
                acc[v] = _mm512_mask_add_epi16(acc[v], hit, acc[v], one);
        }
        if constexpr (Down) {
            const __m512i d = _mm512_set1_epi16(i16(down[-i]));
            #pragma GCC unroll 8
            for (int v = 0; v < V; ++v)
                acc[v] = _mm512_mask_sub_epi16(
                    acc[v], _mm512_cmplt_epu16_mask(key[v], d), acc[v], one);
        }
    }
}

/**
 * The walk's column tiles on one (Signed, Down) form: tiles of up to
 * eight vectors, or six when a tile holds steps and two broadcasts
 * (Signed and Down), so that every form fits the 32 zmm registers. The
 * last vector of a tile is masked.
 */
template <bool Signed, bool Down>
USYS_AVX512_NO_TSAN void
walkTilesAvx512(i16 *rows, std::ptrdiff_t stride, const u16 *keys,
                const i16 *signs, const i16 *base, const u16 *up,
                const u16 *down, int count, int n)
{
    constexpr int kVecs = Signed && Down ? 6 : 8;
    for (int j = 0; j < n; j += 32 * kVecs) {
        const int rest = std::min(32 * kVecs, n - j);
        const int vecs = (rest + 31) / 32;
        const __mmask32 last = __mmask32(~0u >> (32 * vecs - rest));
        const i16 *sg = Signed ? signs + j : nullptr;
        const i16 *bs = base ? base + j : nullptr;
#define USYS_WALK_TILE(V)                                                 \
    case V:                                                               \
        if constexpr (V <= kVecs)                                         \
            walkTileAvx512<V, Signed, Down>(rows + j, stride, keys + j, sg, \
                                            bs, up, down, count, last);   \
        break;
        switch (vecs) {
            USYS_WALK_TILE(1) USYS_WALK_TILE(2) USYS_WALK_TILE(3)
            USYS_WALK_TILE(4) USYS_WALK_TILE(5) USYS_WALK_TILE(6)
            USYS_WALK_TILE(7) USYS_WALK_TILE(8)
        }
#undef USYS_WALK_TILE
    }
}

USYS_AVX512_NO_TSAN void
walkRowsI16Avx512(i16 *rows, std::ptrdiff_t stride, const u16 *keys,
                  const i16 *signs, const i16 *base, const u16 *up,
                  const u16 *down, int count, int n)
{
    if (count <= 0)
        return;
    if (signs && down)
        walkTilesAvx512<true, true>(rows, stride, keys, signs, base, up,
                                    down, count, n);
    else if (signs)
        walkTilesAvx512<true, false>(rows, stride, keys, signs, base, up,
                                     down, count, n);
    else if (down)
        walkTilesAvx512<false, true>(rows, stride, keys, signs, base, up,
                                     down, count, n);
    else
        walkTilesAvx512<false, false>(rows, stride, keys, signs, base, up,
                                      down, count, n);
}

/**
 * One register tile of sumRowsI16: V vectors of 16 columns held in
 * zmm accumulators across every selected row, each row's i16 entries
 * sign-extended into them (vpmovsxwd), the last vector spilled under
 * `last`. A negated row adds v ^ -1 == -v - 1, and the count of negated
 * rows is added back once before the spill into i64. Every loop over V
 * is unrolled so that the accumulators stay in registers.
 */
template <int V>
USYS_AVX512_NO_TSAN inline void
sumTileAvx512(i64 *out, const i16 *rows, const u32 *slots, int count,
              std::size_t stride, __mmask16 last)
{
    __m512i acc[V];
    #pragma GCC unroll 8
    for (int v = 0; v < V; ++v)
        acc[v] = _mm512_setzero_si512();
    u32 negated = 0;
    for (int i = 0; i < count; ++i) {
        const u32 s = slots[i];
        const __m512i mask = _mm512_set1_epi32(-i32(s & 1));
        negated += s & 1;
        const i16 *row = rows + std::size_t(s >> 1) * stride;
        // Whole 16-entry loads: the last one may read into the slack
        // past the row, and its extra lanes are never spilled. The
        // zero-masked widening, as in spillAvx512.
        #pragma GCC unroll 8
        for (int v = 0; v < V; ++v)
            acc[v] = _mm512_add_epi32(
                acc[v],
                _mm512_xor_si512(
                    _mm512_maskz_cvtepi16_epi32(
                        0xffff, _mm256_loadu_si256(
                                    reinterpret_cast<const __m256i *>(
                                        row + 16 * v))),
                    mask));
    }
    const __m512i bias = _mm512_set1_epi32(i32(negated));
    #pragma GCC unroll 8
    for (int v = 0; v < V; ++v)
        spillAvx512(out + 16 * v, _mm512_add_epi32(acc[v], bias),
                    v + 1 < V ? __mmask16(0xffff) : last);
}

USYS_AVX512_NO_TSAN void
sumRowsI16Avx512(i64 *out, const i16 *rows, const u32 *slots, int count,
                 int n)
{
    // No rows adds nothing (and `rows` may then be null).
    if (count == 0)
        return;
    // Tiles of up to 128 columns (eight zmm) sweep every row once; the
    // last tile narrows to the vectors it needs and masks its final one.
    const std::size_t stride = std::size_t(n);
    for (int j = 0; j < n; j += 128) {
        const int rest = std::min(128, n - j);
        const int vecs = (rest + 15) / 16;
        const __mmask16 last = __mmask16(0xffffu >> (16 * vecs - rest));
#define USYS_SUM_TILE(V)                                                  \
    case V:                                                               \
        sumTileAvx512<V>(out + j, rows + j, slots, count, stride, last);  \
        break;
        switch (vecs) {
            USYS_SUM_TILE(1) USYS_SUM_TILE(2) USYS_SUM_TILE(3)
            USYS_SUM_TILE(4) USYS_SUM_TILE(5) USYS_SUM_TILE(6)
            USYS_SUM_TILE(7) USYS_SUM_TILE(8)
        }
#undef USYS_SUM_TILE
    }
}

const SimdKernels kAvx512 = {
    SimdLevel::Avx512,  axpyF32Avx512,     gemmI16Avx512,
    gatherU16Avx512,    gatherSumU16Avx512, walkRowsI16Avx512,
    sumRowsI16Avx512,
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
