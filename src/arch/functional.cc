#include "arch/functional.h"

#include <algorithm>
#include <cstddef>
#include <limits>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/executor.h"
#include "common/fixed_point.h"
#include "common/simd.h"
#include "arch/pe.h"

namespace usys {

namespace {

// Bitwidths the per-thread memos below cover (a signed bitwidth beyond
// this falls back to the locked cache lookup, which stays correct).
constexpr int kModelMemoSlots = 32;

/**
 * The shared Model for a signed bitwidth, built once from
 * (signed_bits, args...). A per-thread memo sits in front of the
 * mutex-guarded cache: executor workers are persistent, so after one
 * warm lookup per bitwidth a sweep never touches the mutex again. The
 * cached models are immutable prefix tables, so sharing one instance
 * across threads is safe. Each Model type has its own memo and cache.
 */
template <typename Model, typename... Args>
const Model &
cachedModel(int signed_bits, Args... args)
{
    thread_local const Model *memo[kModelMemoSlots] = {};
    const bool memoable = signed_bits >= 0 && signed_bits < kModelMemoSlots;
    if (memoable && memo[signed_bits])
        return *memo[signed_bits];

    static std::mutex mutex;
    static std::map<int, std::unique_ptr<Model>> cache;
    const Model *model = nullptr;
    {
        std::lock_guard<std::mutex> lock(mutex);
        auto &slot = cache[signed_bits];
        if (!slot)
            slot = std::make_unique<Model>(signed_bits, args...);
        model = slot.get();
    }
    if (memoable)
        memo[signed_bits] = model;
    return *model;
}

} // namespace

const UnaryProductModel &
unaryModelFor(int signed_bits)
{
    return cachedModel<UnaryProductModel>(signed_bits, kWeightRngDim,
                                          kInputRngDim);
}

const BipolarProductModel &
bipolarModelFor(int signed_bits)
{
    return cachedModel<BipolarProductModel>(
        signed_bits, kWeightRngDim, kWeightRngDim + kWeightAltRngOffset);
}

namespace {

/** Chunk size for row-parallel GEMMs: keep ~4k MACs per chunk so small
 *  problems stay serial and large ones amortize the hand-off. */
u64
rowGrain(int k_dim, int n_dim)
{
    const u64 macs_per_row = u64(std::max(1, k_dim)) * std::max(1, n_dim);
    return std::max<u64>(1, 4096 / macs_per_row);
}

/** Bytes one k-block of the table kernel may stage at worst (its
 *  weight-side rows, keys, signs and walk base rows), so that the block
 *  stays cache-resident while every output row sweeps it. A 1 MiB budget
 *  measured no faster and raised peak RSS. */
constexpr std::size_t kBlockBudgetBytes = 256 * 1024;

/**
 * The walk/gather rule (DESIGN.md §17). A block walks when its dense rows
 * beyond one per k, plus kWalkBaseCost per k, number fewer than
 * kWalkRowCost times its M - 1 further output rows (twice that for UG,
 * whose gather-sum reads two tables per weight); else each output row
 * gathers and sums its entries in one fused pass. kWalkRowCost is the
 * walk steps one gathered table row is worth: a step is one
 * compare-and-add per column (32 lanes a zmm), a gathered entry one
 * table load. kWalkBaseCost is the steps' worth a walked k costs before
 * its first step: its keys and signs, its gathered base row and the
 * walk's call. Dense M = 128 slices walk and M = 1 slices gather; an
 * in-process sweep at M = 4-64 fitted both constants (DESIGN.md §17).
 */
constexpr u64 kWalkRowCost = 4;
constexpr u64 kWalkBaseCost = 16;

/** Columns of the UG polarity-0 gather staged on the stack at a time. */
constexpr int kGatherTile = 256;

/**
 * dst[j] = -dst[j] where neg[j] is -1 (a negative weight), for j in
 * [0, n). Fixed sixteen-lane groups let the compiler vectorize the body
 * at -O2.
 */
inline void
signByWeight(i16 *__restrict dst, const i16 *__restrict neg, std::size_t n)
{
    std::size_t j = 0;
    for (; j + 16 <= n; j += 16)
        for (std::size_t l = 0; l < 16; ++l)
            dst[j + l] = i16((dst[j + l] ^ neg[j + l]) - neg[j + l]);
    for (; j < n; ++j)
        dst[j] = i16((dst[j] ^ neg[j]) - neg[j]);
}

/** dst[j] += bias - p0[j] for j in [0, n), in sixteen-lane groups. */
inline void
subtractBiased(i16 *__restrict dst, const i16 *__restrict p0, i16 bias,
               std::size_t n)
{
    std::size_t j = 0;
    for (; j + 16 <= n; j += 16)
        for (std::size_t l = 0; l < 16; ++l)
            dst[j + l] = i16(dst[j + l] + bias - p0[j + l]);
    for (; j < n; ++j)
        dst[j] = i16(dst[j] + bias - p0[j]);
}

/**
 * Walk keys (and gather indices) of n weight codes, range-checked in the
 * same pass: key[j] = |w[j]| for UR/UT, with neg[j] = -1 where w[j] < 0
 * (else 0), and w[j] + 2^(N-1) for UG (neg unused). Returns false when
 * some code lies outside [-lim, lim]. Each lane ORs a u32 whose top bit
 * is set exactly for an offending code (lim - |w| for UR/UT; t and
 * 2·lim - t for UG's t = w + lim, which wraps below zero), so the pass
 * has no branch and runs in fixed eight-lane groups the compiler
 * vectorizes at -O2. It stays out of line: inlined into run(), its loops
 * lost the __restrict promises, went unvectorized for want of an alias
 * check, and took about 4x as long (GCC 12).
 */
[[gnu::noinline]] bool
weightKeys(u16 *__restrict key, i16 *__restrict neg,
           const i32 *__restrict w, std::size_t n, i32 lim, bool ug)
{
    const u32 ulim = u32(lim);
    u32 bad[8] = {};
    const std::size_t groups = n / 8 * 8;
    if (ug) {
        for (std::size_t j = 0; j < groups; j += 8)
            for (std::size_t l = 0; l < 8; ++l) {
                const u32 t = u32(w[j + l]) + ulim;
                key[j + l] = u16(t);
                bad[l] |= t | (2 * ulim - t);
            }
        for (std::size_t j = groups; j < n; ++j) {
            const u32 t = u32(w[j]) + ulim;
            key[j] = u16(t);
            bad[0] |= t | (2 * ulim - t);
        }
    } else {
        for (std::size_t j = 0; j < groups; j += 8)
            for (std::size_t l = 0; l < 8; ++l) {
                const i32 s = w[j + l] >> 31;
                const u32 mag = u32(w[j + l] ^ s) - u32(s);
                key[j + l] = u16(mag);
                neg[j + l] = i16(s);
                bad[l] |= ulim - mag;
            }
        for (std::size_t j = groups; j < n; ++j) {
            const i32 s = w[j] >> 31;
            const u32 mag = u32(w[j] ^ s) - u32(s);
            key[j] = u16(mag);
            neg[j] = i16(s);
            bad[0] |= ulim - mag;
        }
    }
    u32 all = 0;
    for (const u32 f : bad)
        all |= f;
    return (all >> 31) == 0;
}

/**
 * Widen each column's key range by one row of n activation codes:
 * hi[j] = max(hi[j], key), and lo[j] = min(lo[j], key) for UG but
 * min(lo[j], key - 1) for UR/UT, so that a zero key (row 0, which adds
 * nothing) wraps past every other. The key is |c| for UR/UT and
 * c + 2^(N-1) for UG. Fixed eight-lane groups let the compiler
 * vectorize the body at -O2.
 */
inline void
widenKeyRange(u32 *__restrict lo, u32 *__restrict hi,
              const i32 *__restrict codes, std::size_t n, i32 lim, bool ug)
{
    const u32 keep = ug ? 0u : ~0u; // UR/UT: fold the sign
    const u32 offset = ug ? u32(lim) : 0u;
    const u32 dec = ug ? 0u : 1u;
    std::size_t j = 0;
    for (; j + 8 <= n; j += 8)
        for (std::size_t l = 0; l < 8; ++l) {
            const u32 s = u32(codes[j + l] >> 31) & keep;
            const u32 key = ((u32(codes[j + l]) ^ s) - s) + offset;
            const u32 low = key - dec;
            lo[j + l] = low < lo[j + l] ? low : lo[j + l];
            hi[j + l] = key > hi[j + l] ? key : hi[j + l];
        }
    for (; j < n; ++j) {
        const u32 s = u32(codes[j] >> 31) & keep;
        const u32 key = ((u32(codes[j]) ^ s) - s) + offset;
        lo[j] = std::min(lo[j], key - dec);
        hi[j] = std::max(hi[j], key);
    }
}

/**
 * Report the first code outside [-lim, lim] of the rows x cols block at
 * `codes` (row stride `stride`) as the `operand`'s.
 */
[[noreturn, gnu::cold]] void
codeOutsideTable(const char *operand, const i32 *codes, int rows, int cols,
                 std::size_t stride, i32 lim, int bits)
{
    for (int r = 0; r < rows; ++r)
        for (int c = 0; c < cols; ++c) {
            const i32 code = codes[std::size_t(r) * stride + std::size_t(c)];
            if (code < -lim || code > lim)
                fatal(std::string("GemmExecutor: ") + operand + " code " +
                      std::to_string(code) + " outside the " +
                      std::to_string(bits) + "-bit product table");
        }
    panic("codeOutsideTable: every code is in range");
}

} // namespace

GemmExecutor::GemmExecutor(const KernelConfig &cfg)
    : cfg_(cfg)
{
    cfg_.check();
    switch (cfg_.scheme) {
      case Scheme::USystolicRate:
      case Scheme::USystolicTemporal:
        unary_ = &unaryModelFor(cfg_.bits);
        break;
      case Scheme::UgemmHybrid:
        bipolar_ = &bipolarModelFor(cfg_.bits);
        break;
      default:
        return;
    }
    // A code's table row, with its sign in bit 0, as the table kernel's
    // slot lists take it: for UR/UT the ones-count |a| delivers within
    // the MAC's cycles (|a| itself over a whole period), for UG the
    // offset code a + 2^(N-1), never negated.
    const i32 lim = i32(1) << (cfg_.bits - 1);
    const u16 *ones = unary_ ? unary_->onesWithin(cfg_.mulCycles()) : nullptr;
    code_rows_.resize(2 * std::size_t(lim) + 1);
    for (i32 c = -lim; c <= lim; ++c)
        code_rows_[std::size_t(c + lim)] =
            ones ? u32(ones[c < 0 ? -c : c]) << 1 | u32(c < 0)
                 : u32(c + lim) << 1;
}

i64
GemmExecutor::singleProduct(i32 a, i32 b) const
{
    switch (cfg_.scheme) {
      case Scheme::BinaryParallel:
      case Scheme::BinarySerial:
      case Scheme::TubGemm:
      case Scheme::TuGemm:
        // The temporal-unary schemes are exact: the staircase stream
        // asserts exactly |a| bits and each contributes the full signed
        // weight (tubGEMM) or |w| of the held cycles (tuGEMM).
        return i64(a) * b;
      case Scheme::USystolicRate: {
        const SignMag sa = toSignMag(a);
        const SignMag sb = toSignMag(b);
        const u32 cycles = cfg_.mulCycles();
        const int shift = cfg_.et_bits > 0 ? cfg_.bits - cfg_.et_bits : 0;
        const i64 count =
            unary_->rateProduct(sa.magnitude, sb.magnitude, cycles);
        const i64 mag = count << shift;
        return (sa.negative != sb.negative) ? -mag : mag;
      }
      case Scheme::USystolicTemporal: {
        const SignMag sa = toSignMag(a);
        const SignMag sb = toSignMag(b);
        const i64 count = unary_->fullProduct(sa.magnitude, sb.magnitude);
        return (sa.negative != sb.negative) ? -count : count;
      }
      case Scheme::UgemmHybrid:
        return bipolar_->scaledProduct(a, b);
    }
    return 0;
}

Matrix<i64>
GemmExecutor::run(const Matrix<i32> &a, const Matrix<i32> &b,
                  OperandZeros *zeros) const
{
    fatalIf(a.cols() != b.rows(), "GemmExecutor: shape mismatch");
    const int m_rows = a.rows();
    const int k_dim = a.cols();
    const int n_dim = b.cols();

    // Exact-product schemes: a plain integer GEMM, row-parallel on the
    // 16-bit pair kernel (gemmI16).
    if (cfg_.scheme == Scheme::BinaryParallel ||
        cfg_.scheme == Scheme::BinarySerial ||
        cfg_.scheme == Scheme::TubGemm ||
        cfg_.scheme == Scheme::TuGemm)
        return referenceGemm(a, b, zeros);

    // Table schemes (UR, UT, UG). Every code the tables cover lies in
    // [-lim, lim]: |code| <= 2^(N-1) delivered ones for UR/UT, and
    // code + 2^(N-1) in [0, 2^N] for UG's bipolar offset. A code outside
    // would read past the tables, so it is fatal: the activations are
    // checked in the pass that takes each k's key range, and each block
    // checks its weights in the pass that reads them (so an M = 0 call
    // still checks every weight). When B's zeros are asked for, a
    // gathering block counts them in its first row's pass and a walking
    // one in a pass of its own.
    Matrix<i64> out(m_rows, n_dim, 0);
    const bool ug = cfg_.scheme == Scheme::UgemmHybrid;
    const i32 lim = i32(1) << (cfg_.bits - 1);
    if (k_dim == 0 || n_dim == 0) {
        if (zeros)
            *zeros = {countZeros(a), countZeros(b)};
        return out;
    }
    u64 zeros_b = 0;

    // An activation's key is |a| for UR/UT (with its sign) and the
    // offset code a + 2^(N-1) for UG. Its table row (code_row, with the
    // sign in bit 0) is the delivered ones-count for UR/UT (the rate
    // stream's prefix count under early termination; over a whole period
    // the key itself) and the key for UG. Row 0 of UR/UT adds nothing
    // and is skipped; UG skips nothing (a zero activation still adds the
    // bipolar bias). Either way the row never falls as the key grows.
    const int shift = (cfg_.scheme == Scheme::USystolicRate &&
                       cfg_.et_bits > 0)
                          ? cfg_.bits - cfg_.et_bits
                          : 0;
    const u32 *code_row = code_rows_.data() + lim;
    const u32 adds_from = ug ? 0 : 2; // the least code_row entry that adds
    const u32 max_key = ug ? 2 * u32(lim) : u32(lim);
    const u32 period = ug ? bipolar_->period() : unary_->period();
    const u16 *up =
        ug ? bipolar_->onesThresholds() : unary_->weightThresholds();

    // Each k's dense rows: one pass over A takes every k's largest key
    // and its smallest (for UR/UT the smallest nonzero one, kept as
    // key - 1 so that a zero key wraps past every other). The largest
    // key also range-checks the column. Rows lo[k]..hi[k] of k are then
    // all stored, UR/UT's row 0 left out.
    std::vector<u32> lo(static_cast<std::size_t>(k_dim), ~u32(0));
    std::vector<u32> hi(static_cast<std::size_t>(k_dim), 0);
    for (int m = 0; m < m_rows; ++m)
        widenKeyRange(lo.data(), hi.data(), &a(m, 0), std::size_t(k_dim), lim,
                      ug);
    u32 widest = 0;
    for (std::size_t k = 0; m_rows > 0 && k < std::size_t(k_dim); ++k) {
        if (hi[k] > max_key) [[unlikely]]
            codeOutsideTable("activation", &a(0, 0), m_rows, k_dim,
                             std::size_t(k_dim), lim, cfg_.bits);
        lo[k] = ug ? lo[k] : std::max<u32>(1, code_row[lo[k] + 1] >> 1);
        hi[k] = ug ? hi[k] : code_row[hi[k]] >> 1;
        widest = std::max(widest, hi[k] + 1 - std::min(lo[k], hi[k] + 1));
    }

    // Every entry is bounded by 2^(N-1) in magnitude: a UR/UT count
    // never exceeds the ones delivered (at most 2^(et-1) before the
    // 2^(N-et) shift-back, or 2^(N-1) untruncated), and a UG count lies
    // in [0, 2^N] around its 2^(N-1) bias. Rows are therefore i16, and a
    // block of at most INT32_MAX / 2^(N-1) k values sums in i32 without
    // overflow. A call with one output row never walks, and its gather
    // blocks stage nothing, so it takes the largest such block. Otherwise
    // the block is sized so its worst case fits the cache budget: per k,
    // its dense rows and two more (keys and signs). A k has at most
    // `widest` rows, and a walking block holds fewer than
    // row_cost · (M - 1) + 1 rows per k on average. A k takes at
    // least 6 bytes, so the budget caps a block at 43690 k values, below
    // the INT32_MAX / 2^(N-1) >= 2^19 - 1 of every table bitwidth
    // (N <= 13): the byte budget is what binds, and the clamp only backs
    // it up.
    const std::size_t n = std::size_t(n_dim);
    const u64 further = u64(std::max(m_rows, 1) - 1);
    const std::size_t max_block_k =
        std::min(std::size_t(k_dim),
                 std::size_t(std::numeric_limits<i32>::max() / lim));
    const u64 row_cost = ug ? 2 * kWalkRowCost : kWalkRowCost;
    const std::size_t worst_rows =
        std::min<u64>(widest, row_cost * further + 1);
    const std::size_t bytes_per_k = (worst_rows + 2) * n * sizeof(i16);
    const int block_k =
        m_rows == 1 ? int(max_block_k)
                    : int(std::clamp<std::size_t>(
                          kBlockBudgetBytes / bytes_per_k, 1, max_block_k));

    // Per walking block: the weights' keys (|b| or b + 2^(N-1)) and, for
    // UR/UT, their signs; per k of the block, the first slot first[kl] of
    // its rows, so that row r of k sits at slot first[kl] - lo[k] + r,
    // and a code's slot-list entry is origin[kl] + code_row[code] with
    // origin[kl] = that slot offset << 1.
    std::vector<u16> keys;
    std::vector<i16> signs, rows;
    std::vector<u32> first(std::size_t(block_k) + 1);
    std::vector<u32> origin(static_cast<std::size_t>(block_k));
    const SimdKernels &simd = simdKernels();

    // The weight-side row of table row `row` at k (block-local kl): the
    // scheme's signed product of the row with every b(k, n), before the
    // early-termination shift-back, gathered from the product tables.
    // UR/UT gather the count at |b| and sign it by the weight; UG
    // gathers p1 at `row` ones and p0 at zeros = 2^N - row and stores
    // p1 + zeros - p0 - 2^(N-1).
    const auto gatherRow = [&](i16 *dst, u32 row, std::size_t kl) {
        const u16 *key = &keys[kl * n];
        if (!ug) {
            simd.gatherU16(dst, unary_->countsAfterOnes(row), key, n_dim);
            signByWeight(dst, &signs[kl * n], n);
            return;
        }
        const u32 zero_bits = period - row;
        const i16 bias = i16(i32(zero_bits) - lim);
        simd.gatherU16(dst, bipolar_->hitsAfterOnes(row), key, n_dim);
        i16 p0[kGatherTile];
        for (int c0 = 0; c0 < n_dim; c0 += kGatherTile) {
            const int cw = std::min(kGatherTile, n_dim - c0);
            simd.gatherU16(p0, bipolar_->hitsAfterZeros(zero_bits),
                           key + c0, cw);
            subtractBiased(dst + c0, p0, bias, std::size_t(cw));
        }
    };

    for (int k0 = 0; k0 < k_dim; k0 += block_k) {
        const int kb = std::min(block_k, k_dim - k0);
        const std::size_t kbn = std::size_t(kb) * n;

        // The block's slots; its rows past one per k decide walk against
        // gather.
        const u32 *r0 = &lo[std::size_t(k0)];
        const u32 *r1 = &hi[std::size_t(k0)];
        u32 total = 0;
        u64 extra = 0;
        for (std::size_t k = 0; k < std::size_t(kb); ++k) {
            const u32 count = r1[k] >= r0[k] ? r1[k] - r0[k] + 1 : 0;
            first[k] = total;
            origin[k] = (total - r0[k]) << 1;
            total += count;
            extra += count - (count > 0);
        }
        first[std::size_t(kb)] = total;

        // A block with few output rows against its rows gathers: each
        // output row lists its k's table rows (a UR/UT code on row 0
        // lists none) and sums the gathered entries at every weight of
        // the block in one pass over B (SimdKernels::gatherSumU16), which
        // also checks the weights and, in the first row's pass, counts
        // their zeros. UG's bias terms zeros - 2^(N-1) are added once per
        // column.
        const bool walk =
            extra + kWalkBaseCost * u64(kb) < row_cost * further * u64(kb);
        if (m_rows > 0 && !walk) {
            const u64 grain = rowGrain(kb, n_dim);
            const u64 chunks = (u64(m_rows) + grain - 1) / grain;
            std::vector<u8> in_range(chunks, 1);
            parallelFor(0, chunks, [&, kb, k0](u64 chunk) {
                std::vector<GatherRow> list(static_cast<std::size_t>(kb));
                const int m_end =
                    int(std::min(u64(m_rows), (chunk + 1) * grain));
                for (int m = int(chunk * grain); m < m_end; ++m) {
                    const i32 *arow = &a(m, k0);
                    u32 bias = 0;
                    for (int kl = 0; kl < kb; ++kl) {
                        const u32 cs = code_row[arow[kl]];
                        const u32 row = cs >> 1;
                        if (ug) {
                            const u32 zero_bits = period - row;
                            list[std::size_t(kl)] = {
                                bipolar_->hitsAfterOnes(row),
                                bipolar_->hitsAfterZeros(zero_bits), 0};
                            bias += zero_bits - u32(lim);
                        } else {
                            list[std::size_t(kl)] = {
                                cs >= adds_from
                                    ? unary_->countsAfterOnes(row)
                                    : nullptr,
                                nullptr, -i32(cs & 1)};
                        }
                    }
                    in_range[chunk] &= u8(simd.gatherSumU16(
                        &out(m, 0), &b(k0, 0), list.data(), kb, n_dim, lim,
                        ug, bias, m == 0 && zeros ? &zeros_b : nullptr));
                }
            });
            if (std::find(in_range.begin(), in_range.end(), 0) !=
                in_range.end()) [[unlikely]]
                codeOutsideTable("weight", &b(k0, 0), kb, n_dim, n, lim,
                                 cfg_.bits);
            continue;
        }

        keys.resize(kbn);
        signs.resize(ug ? 0 : kbn);
        if (!weightKeys(keys.data(), signs.data(), &b(k0, 0), kbn, lim, ug))
            [[unlikely]]
            codeOutsideTable("weight", &b(k0, 0), kb, n_dim, n, lim,
                             cfg_.bits);
        if (zeros)
            zeros_b += countZeros(&b(k0, 0), kbn);
        if (m_rows == 0)
            continue;

        // A walking block has many output rows against its rows: each k
        // gathers its row lo into its first slot and builds rows
        // lo + 1..hi from it in one walk over the sequence thresholds.
        // UR/UT step by the weight's sign where |b| >= S[r] + 1. UG steps
        // its polarity-1 hits up from lo ones and its polarity-0 misses
        // down from 2^N - lo zeros, so one walk moves both terms of
        // p1 + zeros - p0.
        rows.resize(std::size_t(total) * n + detail::kSumRowSlack);
        const u64 rows_per_k = std::max<u64>(1, total / u64(kb));
        parallelFor(
            0, u64(kb),
            [&](u64 k) {
                const int count = int(first[k + 1] - first[k]);
                if (count == 0)
                    return;
                const u32 low = r0[k];
                i16 *dst = &rows[std::size_t(first[k]) * n];
                gatherRow(dst, low, k);
                simd.walkRowsI16(
                    dst, std::ptrdiff_t(n), &keys[k * n],
                    ug ? nullptr : &signs[k * n], dst, up + low,
                    ug ? bipolar_->zerosThresholds() + (period - 1 - low)
                       : nullptr,
                    count, n_dim);
            },
            std::max<u64>(1, 4096 / (rows_per_k * n)));

        // Each output row lists the slots its activations select (a
        // UR/UT code on row 0 drops out, without a branch) and sums those
        // rows in i32 registers, spilled into the i64 output once per
        // block.
        const u64 grain = rowGrain(kb, n_dim);
        parallelFor(0, (u64(m_rows) + grain - 1) / grain,
                    [&, kb, k0](u64 chunk) {
            std::vector<u32> list(static_cast<std::size_t>(kb));
            const int m_end = int(std::min(u64(m_rows), (chunk + 1) * grain));
            for (int m = int(chunk * grain); m < m_end; ++m) {
                const i32 *arow = &a(m, k0);
                int count = 0;
                for (int kl = 0; kl < kb; ++kl) {
                    const u32 cs = code_row[arow[kl]];
                    list[std::size_t(count)] = origin[std::size_t(kl)] + cs;
                    count += int(cs >= adds_from);
                }
                simd.sumRowsI16(&out(m, 0), rows.data(), list.data(), count,
                                n_dim);
            }
        });
    }
    // Rows hold counts before the early-termination shift-back, which
    // distributes over the sums.
    if (shift > 0)
        for (i64 &v : out.data())
            v *= i64(1) << shift;
    // A's zeros take a pass of their own: counted inside widenKeyRange
    // they slowed the 128 x 576 x 112 UR-8 (ebt 6) call by about 60%
    // in-process, where this pass costs a few microseconds.
    if (zeros)
        *zeros = {countZeros(a), zeros_b};
    return out;
}

double
GemmExecutor::resultScale() const
{
    // Only the comparator/RNG weight schemes accumulate rate counts
    // that need the 2^(N-1) rescale; tubGEMM/tuGEMM are exact.
    return hasWeightBsg(cfg_.scheme) ? double(u64(1) << (cfg_.bits - 1))
                                     : 1.0;
}

} // namespace usys
