/**
 * @file
 * Runtime-dispatched SIMD kernels behind the GEMM engines.
 *
 * The exact-product GEMMs (referenceGemm: BP, BS, tubGEMM, tuGEMM —
 * fault-free or folded — and the DNN's FXP modes) multiply 16-bit
 * codes, and the functional table kernel (DESIGN.md §17) gathers
 * product-table rows and sums them; on AVX2 hosts the same work runs
 * 8-16 lanes per instruction. This layer exposes the handful of
 * data-parallel inner loops as a function-pointer table:
 *
 *   axpyF32             fp32 GEMM row (one multiply, one add per element)
 *   gemmI16             exact GEMM rows from codes in [-2^14, 2^14):
 *                       k-pair multiply-adds into i32 register tiles
 *   gatherU16           product-table row gather, u16 -> i16
 *   walkRowsI16         dense product-table rows by a prefix walk over
 *                       one or two threshold sequences, 16-bit lanes,
 *                       column tile in registers
 *   sumRowsI16          signed sum of selected i16 rows in i32
 *                       registers, spilled to i64
 *
 * in four implementations:
 *
 *   generic  portable C++, compiled for baseline x86-64 (or any other
 *            target) — the continuously-tested fallback
 *   avx2     vectorized fp32 rows, vpmaddwd 4-row x 16-column pair
 *            tiles, vpgatherdd row gathers, 64-column register-tiled
 *            threshold walks and 32-column row sums; compiled in its
 *            own translation unit with -mavx2
 *            so the rest of the binary stays runnable on machines
 *            without AVX2
 *   avx512   16-lane fp32 rows, vpmaddwd 4-row x 64-column pair tiles
 *            with mask-register pair staging, 16-lane gathers,
 *            256-column threshold walks and 128-column register-tiled
 *            row sums; own translation unit with
 *            -mavx512{f,bw}, runtime CPUID-gated like the AVX2 tier
 *   neon     AArch64 ASIMD: the fp32 row only (the pair-GEMM, gather,
 *            walk and row-sum slots point at the generic kernels); own
 *            translation unit, available whenever the build targeted
 *            arm64 (ASIMD is architecturally mandatory there)
 *
 * Every kernel is BIT-EXACT against its generic counterpart — integer
 * kernels trivially, the fp32 kernel because both sides perform exactly
 * one multiply and one add per element in element order (the kernel
 * translation units are built with -ffp-contract=off so no path is
 * ever contracted into an FMA). Selection happens once at startup:
 * CPUID picks the best table, overridable with USYS_SIMD=auto|avx512|
 * avx2|neon|generic or the --simd flag (see DESIGN.md §11).
 */

#ifndef USYS_COMMON_SIMD_H
#define USYS_COMMON_SIMD_H

#include <cstddef>
#include <string>

#include "common/types.h"

namespace usys {

/**
 * Dispatch tiers, ordered worst to best within an ISA family; the x86
 * and arm tiers never coexist on one host, so cross-family order is
 * immaterial.
 */
enum class SimdLevel
{
    Generic = 0,
    Avx2 = 1,
    Avx512 = 2,
    Neon = 3,
};

/**
 * gemmI16 takes codes in [-2^14, 2^14), the 15-bit two's-complement
 * range: a k pair's two products then sum to at most 2^29 in i16 x i16
 * -> i32 multiply-adds. referenceGemm sends a call with any wider code
 * to its plain widening loop.
 */
constexpr i32 kGemmI16Limit = i32(1) << 14;

/** Human-readable tier name ("generic", "avx2", "avx512", "neon"). */
const char *simdLevelName(SimdLevel level);

/**
 * The dispatched kernel inventory. Each entry is a complete loop (tail
 * handling included), so callers never mix scalar and vector code.
 */
struct SimdKernels
{
    /** Tier this table implements (for logging / stats). */
    SimdLevel level;

    /**
     * Row-major fp32 GEMM inner loop: c[j] += a * b[j] for j in
     * [0, n), exactly one multiply and one add per element (never an
     * FMA), so results are bitwise identical across tiers.
     */
    void (*axpyF32)(float *c, const float *b, float a, int n);

    /**
     * Exact integer GEMM rows from codes in [-2^14, 2^14):
     * c[i * n + j] += sum over k in [0, kd) of a[i * kd + k] * B(k, j)
     * for i in [0, m), j in [0, n). B is read from `pairs` when it is
     * non-null (the k-pair panel packPairsI16 builds), else from the
     * row-major kd x n matrix b, whose codes the kernel then range-checks
     * as it reads them. Each output row sums its products in i32, a k
     * pair (a(i, 2p), a(i, 2p + 1)) at a time, over blocks of at most
     * `kb` pairs, and spills into c once per block: the caller sizes kb
     * so that 2 * kb * max|a| * 2^14 <= INT32_MAX. k pairs whose codes
     * are zero in every row of a register tile are skipped. Returns
     * false, leaving c unspecified, when b held a code outside the
     * range; with `pairs` it always returns true.
     */
    bool (*gemmI16)(i64 *c, const i32 *a, const i32 *b, const u32 *pairs,
                    int m, int kd, int n, int kb);

    /**
     * Product-table row gather: dst[j] = row[idx[j]] for j in [0, n).
     * Entries are below 2^15, so they fit i16 unchanged. The vector
     * tiers load 32 bits at &row[idx[j]], so the u16 after the largest
     * indexed entry must be readable (the product models pad their
     * tables by one u16).
     */
    void (*gatherU16)(i16 *dst, const u16 *row, const u16 *idx, int n);

    /**
     * Dense product-table rows by a prefix walk over one or two
     * threshold sequences. For column j in [0, n), h_0 = base[j] (0 when
     * base is null) and
     *
     *   h_(i+1) = h_i + s_j * [keys[j] >= up[i]] - [keys[j] < down[-i]]
     *
     * where s_j is -1 where signs[j] < 0 and +1 otherwise (signs may be
     * null), and the down term counts only when down is non-null: it is
     * read backward from down[0]. Row i at rows + i * stride receives
     * h_i for i in [0, count), so the walk takes count - 1 steps; stride
     * may be negative, and count 0 writes nothing. base may be row 0
     * itself (which receives h_0 = base). Keys and thresholds are below
     * 2^15, and every h_i fits in i16.
     */
    void (*walkRowsI16)(i16 *rows, std::ptrdiff_t stride, const u16 *keys,
                        const i16 *signs, const i16 *base, const u16 *up,
                        const u16 *down, int count, int n);

    /**
     * Signed sum of selected rows: out[j] += sum over i in [0, count)
     * of +-rows[(slots[i] >> 1) * n + j] for j in [0, n), negated when
     * bit 0 of slots[i] is set. The rows are widened and summed in i32
     * and spilled into out once, so the caller guarantees every
     * column's sum fits in i32. The vector tiers load whole groups of 8
     * (AVX2) or 16 (AVX-512) entries, so up to detail::kSumRowSlack i16
     * past the end of each selected row must be readable (their lanes
     * are dropped). With count 0, rows and slots may be null.
     */
    void (*sumRowsI16)(i64 *out, const i16 *rows, const u32 *slots,
                       int count, int n);
};

/**
 * Pack the row-major kd x n codes b into gemmI16's k-pair panel:
 * pairs[p * n + j] = u16(b(2p, j)) | u16(b(2p + 1, j)) << 16 for p in
 * [0, (kd + 1) / 2), the odd tail's second code 0. `pairs` holds
 * (kd + 1) / 2 * n words. Returns whether every code lies in
 * [-2^14, 2^14); if not, codes were packed truncated and the panel must
 * not be used.
 */
bool packPairsI16(const i32 *b, int kd, int n, u32 *pairs);

/** The portable fallback table (always available). */
const SimdKernels &genericKernels();

/**
 * The AVX2 table, or nullptr when unavailable — either the build
 * lacked -mavx2 support or the running CPU lacks the feature.
 */
const SimdKernels *avx2Kernels();

/**
 * The AVX-512 table, or nullptr when unavailable — the build lacked
 * -mavx512{f,bw} support or the running CPU lacks either feature.
 */
const SimdKernels *avx512Kernels();

/**
 * The NEON table, or nullptr when the build did not target AArch64.
 * No runtime probe: ASIMD is mandatory on every arm64 CPU.
 */
const SimdKernels *neonKernels();

/** Runtime CPU feature probe (independent of build support). */
bool cpuSupportsAvx2();

/** Runtime probe for AVX-512F + AVX-512BW together. */
bool cpuSupportsAvx512();

/**
 * The active kernel table. Resolved once on first use: USYS_SIMD env
 * ("auto" picks the best available tier; an unavailable or unknown
 * value warns and falls back) unless setSimdMode() overrode it.
 * Hot paths cache nothing — this is one atomic load.
 */
const SimdKernels &simdKernels();

/** Tier of the active table. */
SimdLevel simdLevel();

/**
 * Force a dispatch tier: "auto", "generic", "avx2", "avx512", or
 * "neon". Unlike the env path this is an explicit request (--simd flag,
 * tests), so an unknown mode or an unavailable tier is fatal(). Safe
 * to call at any time — every tier is bit-exact, so switching mid-run
 * cannot change results.
 */
void setSimdMode(const std::string &mode);

namespace detail {
/** Generic kernels the NEON table shares (defined in simd.cc). */
bool gemmI16Generic(i64 *c, const i32 *a, const i32 *b, const u32 *pairs,
                    int m, int kd, int n, int kb);
void gatherU16Generic(i16 *dst, const u16 *row, const u16 *idx, int n);
void walkRowsI16Generic(i16 *rows, std::ptrdiff_t stride, const u16 *keys,
                        const i16 *signs, const i16 *base, const u16 *up,
                        const u16 *down, int count, int n);
void sumRowsI16Generic(i64 *out, const i16 *rows, const u32 *slots,
                       int count, int n);
/** i16 entries sumRowsI16 may read past the end of a selected row. */
constexpr int kSumRowSlack = 15;
/** Most k pairs one gemmI16 block stages (the vector tiers' cap). */
constexpr int kPairBlock = 512;
/** Row stride of staged pairs: a block plus one vector of store slack. */
constexpr int kPairStride = kPairBlock + 16;
/** Rows the vector tiers' gemmI16 register tiles span. */
constexpr int kPairTileRows = 4;

/**
 * Stage the k pairs [p0, p1) of `rows` <= kPairTileRows consecutive rows
 * of a (row stride kd) for a gemmI16 register tile, dropping the pairs
 * whose codes are zero in every row. For the q-th kept pair p:
 * ap[r * kPairStride + q] = u16(a(r, 2p)) | u16(a(r, 2p + 1)) << 16 (the
 * odd tail's second code 0). When `raw` is false, off0[q] is the pair's
 * panel row (p * n). Otherwise off0[q] and off1[q] are the b rows of
 * codes 2p and 2p + 1 (times n), except that a code that is zero in
 * every row borrows its partner's row: its products are zero whatever
 * it reads, and the tile then reads one b row instead of two (the odd
 * tail always borrows). p1 - p0 <= kPairBlock. Returns the number kept.
 */
int stagePairsI16(const i32 *a, int kd, int rows, int p0, int p1, int n,
                  bool raw, u32 *ap, u32 *off0, u32 *off1);
/** Defined in simd_avx2.cc; null when built without AVX2 support. */
const SimdKernels *avx2KernelsImpl();
/** Defined in simd_avx512.cc; null when built without AVX-512. */
const SimdKernels *avx512KernelsImpl();
/** Defined in simd_neon.cc; null when not built for AArch64. */
const SimdKernels *neonKernelsImpl();
} // namespace detail

} // namespace usys

#endif // USYS_COMMON_SIMD_H
