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
 *                       multiply-adds into i32 register tiles, over a
 *                       packed k-pair panel or B's own i32 rows
 *   gatherU16           product-table row gather, u16 -> i16
 *   gatherSumU16        one output row of the table kernel's gather
 *                       branch: weight keys, range check, zero count,
 *                       table gathers and the signed sum in one pass
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
 *            and row tiles, vpgatherdd row gathers and fused
 *            gather-sums, 64-column register-tiled threshold walks and
 *            32-column row sums; compiled in its own translation unit
 *            with -mavx2
 *            so the rest of the binary stays runnable on machines
 *            without AVX2
 *   avx512   16-lane fp32 rows, vpmaddwd 4-row x 64-column pair tiles
 *            with mask-register pair staging and row tiles, 16-lane
 *            gathers and fused gather-sums, 256-column threshold walks
 *            and 128-column register-tiled row sums; own translation
 *            unit with
 *            -mavx512{f,bw}, runtime CPUID-gated like the AVX2 tier
 *   neon     AArch64 ASIMD: the fp32 row only (the pair-GEMM, gather,
 *            gather-sum, walk and row-sum slots point at the generic
 *            kernels); own
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

/**
 * One k's table rows for SimdKernels::gatherSumU16: the rows of the
 * k's activation in the product tables, indexed by a weight's key.
 */
struct GatherRow
{
    /** Entries added at each weight's key; null when the k adds nothing. */
    const u16 *ones;
    /** UG: entries subtracted at the key; null for UR/UT. */
    const u16 *zeros;
    /** UR/UT: -1 when the activation is negative, else 0. */
    i32 negate;
};

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
     * for i in [0, m), j in [0, n). Each output row sums its products in
     * i32 over blocks of at most `kb` k pairs (2 * kb codes of k) and
     * spills into c once per block: the caller sizes kb so that
     * 2 * kb * max|a| * 2^14 <= INT32_MAX.
     *
     * When `pairs` is non-null, B is read from that k-pair panel
     * (packPairsI16), a pair (a(i, 2p), a(i, 2p + 1)) per multiply-add,
     * and k pairs whose codes are zero in every row of a register tile
     * are skipped; the call returns true. Otherwise B is read in place
     * from the row-major kd x n matrix b: each i32 code is the 16-bit
     * pair (b, its sign extension), multiplied against (a(i, k), 0), one
     * k per multiply-add, and k whose codes of a are zero in every row of
     * a register tile are skipped (their products are zero, whatever b
     * holds there). The kernel range-checks every code of b it reads,
     * returning false (c unspecified) when one lies outside the range.
     * When m > 0 and `zeros` is non-null, the first rows read every code
     * of b instead and the kernel adds b's zero codes to *zeros. `zeros`
     * is unused with a panel.
     */
    bool (*gemmI16)(i64 *c, const i32 *a, const i32 *b, const u32 *pairs,
                    int m, int kd, int n, int kb, u64 *zeros);

    /**
     * Product-table row gather: dst[j] = row[idx[j]] for j in [0, n).
     * Entries are below 2^15, so they fit i16 unchanged. The vector
     * tiers load 32 bits at &row[idx[j]], so the u16 after the largest
     * indexed entry must be readable (the product models pad their
     * tables by one u16).
     */
    void (*gatherU16)(i16 *dst, const u16 *row, const u16 *idx, int n);

    /**
     * One output row of the table kernel's gather branch, fused into one
     * pass over the row-major kd x n weight codes b. For k in [0, kd)
     * and j in [0, n), the code w = b(k, j) has the key |w| (UR/UT) or
     * w + lim (UG, `ug` set), and lies in the tables when the key is at
     * most lim (UR/UT) or 2 * lim (UG). Where rows[k].ones is non-null,
     * the kernel adds to column j
     *
     *   UR/UT  rows[k].ones[|w|], negated where (w < 0) differs from
     *          (rows[k].negate < 0)
     *   UG     rows[k].ones[w + lim] - rows[k].zeros[w + lim]
     *
     * in wrapping 32-bit lanes, then out[j] += i32(sum + bias) once: the
     * caller guarantees every column's sum plus `bias` fits in i32. Every
     * code is range-checked and, when `zeros` is non-null, every zero
     * code counted into *zeros, whatever rows[k] holds. Returns false,
     * leaving out unspecified, when some code lies outside the tables; no
     * table is read at such a code's key. The vector tiers load 32 bits
     * at each entry, so the u16 after every indexed entry must be
     * readable (the product models pad their tables by one u16).
     */
    bool (*gatherSumU16)(i64 *out, const i32 *b, const GatherRow *rows,
                         int kd, int n, i32 lim, bool ug, u32 bias,
                         u64 *zeros);

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
                    int m, int kd, int n, int kb, u64 *zeros);
void gatherU16Generic(i16 *dst, const u16 *row, const u16 *idx, int n);
bool gatherSumU16Generic(i64 *out, const i32 *b, const GatherRow *rows,
                         int kd, int n, i32 lim, bool ug, u32 bias,
                         u64 *zeros);
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
 * of a (row stride kd) for a gemmI16 panel tile, dropping the pairs
 * whose codes are zero in every row. For the q-th kept pair p:
 * ap[r * kPairStride + q] = u16(a(r, 2p)) | u16(a(r, 2p + 1)) << 16 (the
 * odd tail's second code 0) and off[q] = p * n, the pair's panel row.
 * p1 - p0 <= kPairBlock. Returns the number kept.
 */
int stagePairsI16(const i32 *a, int kd, int rows, int p0, int p1, int n,
                  u32 *ap, u32 *off);
/** Most k values one gemmI16 row-tile block spans. */
constexpr int kRowBlock = 2 * kPairBlock;
/**
 * The k of [k0, k1) at which some of `rows` <= kPairTileRows consecutive
 * rows of a (row stride kd) holds a nonzero code, in order, as k - k0
 * into ks; k1 - k0 <= kRowBlock. Returns how many: the k a gemmI16 row
 * tile reads (but for the first rows of a call that counts b's zeros).
 */
int liveKsI16(const i32 *a, int kd, int rows, int k0, int k1, u32 *ks);
/** Defined in simd_avx2.cc; null when built without AVX2 support. */
const SimdKernels *avx2KernelsImpl();
/** Defined in simd_avx512.cc; null when built without AVX-512. */
const SimdKernels *avx512KernelsImpl();
/** Defined in simd_neon.cc; null when not built for AArch64. */
const SimdKernels *neonKernelsImpl();
} // namespace detail

} // namespace usys

#endif // USYS_COMMON_SIMD_H
