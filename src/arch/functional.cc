#include "arch/functional.h"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <limits>
#include <map>
#include <mutex>
#include <string>
#include <utility>
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

/** Bytes one k-block of the table kernel may stage at worst (its code
 *  maps, gather indices and one weight-side row per distinct activation),
 *  so that the block stays cache-resident while every output row sweeps
 *  it. A 1 MiB budget measured no faster and raised peak RSS. */
constexpr std::size_t kBlockBudgetBytes = 256 * 1024;

/** Code-map entry of a code that adds nothing; staged codes map to
 *  (slot << 1 | negative). */
constexpr u32 kSkip = ~u32(0) - 1;

/** A row no code stages: where a UG k's slot assignment starts. */
constexpr u32 kNoRow = ~u32(0);

/**
 * Walk steps one gathered table row is worth. A k builds its rows by a
 * threshold walk when its gathers (one per row for UR/UT, two for UG)
 * times this reach the walk's length (both UG passes counted), else it
 * gathers them. A step is one compare-and-add per column and a gathered
 * entry one table load, so dense M = 128 slices walk and M = 1 slices
 * gather; 3-6 measured alike on AlexNet and AlexLite shapes (DESIGN.md
 * §17).
 */
constexpr u64 kWalkRowCost = 4;

/** Columns of the UG polarity-0 gather staged on the stack at a time. */
constexpr int kGatherTile = 256;

/**
 * dst[j] = -dst[j] where the weight w[j] is negative, for j in [0, n).
 * Fixed eight-lane groups let the compiler vectorize the body at -O2.
 */
inline void
signByWeight(i32 *__restrict dst, const i32 *__restrict w, std::size_t n)
{
    std::size_t j = 0;
    for (; j + 8 <= n; j += 8)
        for (std::size_t l = 0; l < 8; ++l) {
            const i32 neg = w[j + l] >> 31;
            dst[j + l] = (dst[j + l] ^ neg) - neg;
        }
    for (; j < n; ++j) {
        const i32 neg = w[j] >> 31;
        dst[j] = (dst[j] ^ neg) - neg;
    }
}

/** dst[j] += bias - p0[j] for j in [0, n), in eight-lane groups. */
inline void
subtractBiased(i32 *__restrict dst, const i32 *__restrict p0, i32 bias,
               std::size_t n)
{
    std::size_t j = 0;
    for (; j + 8 <= n; j += 8)
        for (std::size_t l = 0; l < 8; ++l)
            dst[j + l] += bias - p0[j + l];
    for (; j < n; ++j)
        dst[j] += bias - p0[j];
}

[[noreturn, gnu::cold]] void
codeOutsideTable(const char *operand, i32 code, int bits)
{
    fatal(std::string("GemmExecutor: ") + operand + " code " +
          std::to_string(code) + " outside the " + std::to_string(bits) +
          "-bit product table");
}

/**
 * Gather indices of n weight codes, range-checked in the same pass:
 * idx[j] = |w[j]| for UR/UT, w[j] + 2^(N-1) for UG. Returns false when
 * some code lies outside [-lim, lim]. Each lane ORs a u32 whose top bit
 * is set exactly for an offending code (lim - |w| for UR/UT; t and
 * 2·lim - t for UG's t = w + lim, which wraps below zero), so the pass
 * has no branch and runs in fixed eight-lane groups the compiler
 * vectorizes at -O2.
 */
bool
weightIndices(u32 *__restrict idx, const i32 *__restrict w, std::size_t n,
              i32 lim, bool ug)
{
    const u32 ulim = u32(lim);
    u32 bad[8] = {};
    const std::size_t groups = n / 8 * 8;
    if (ug) {
        for (std::size_t j = 0; j < groups; j += 8)
            for (std::size_t l = 0; l < 8; ++l) {
                const u32 t = u32(w[j + l]) + ulim;
                idx[j + l] = t;
                bad[l] |= t | (2 * ulim - t);
            }
        for (std::size_t j = groups; j < n; ++j) {
            const u32 t = u32(w[j]) + ulim;
            idx[j] = t;
            bad[0] |= t | (2 * ulim - t);
        }
    } else {
        for (std::size_t j = 0; j < groups; j += 8)
            for (std::size_t l = 0; l < 8; ++l) {
                const i32 s = w[j + l] >> 31;
                const u32 mag = u32(w[j + l] ^ s) - u32(s);
                idx[j + l] = mag;
                bad[l] |= ulim - mag;
            }
        for (std::size_t j = groups; j < n; ++j) {
            const i32 s = w[j] >> 31;
            const u32 mag = u32(w[j] ^ s) - u32(s);
            idx[j] = mag;
            bad[0] |= ulim - mag;
        }
    }
    u32 all = 0;
    for (const u32 f : bad)
        all |= f;
    return (all >> 31) == 0;
}

/** Report the first of n weight codes outside [-lim, lim]. */
[[noreturn, gnu::cold]] void
weightOutsideTable(const i32 *w, std::size_t n, i32 lim, int bits)
{
    for (std::size_t j = 0; j < n; ++j)
        if (w[j] < -lim || w[j] > lim)
            codeOutsideTable("weight", w[j], bits);
    panic("weightOutsideTable: every code is in range");
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
        break;
    }
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
GemmExecutor::run(const Matrix<i32> &a, const Matrix<i32> &b) const
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
        return referenceGemm(a, b);

    // Table schemes (UR, UT, UG). Every code the tables cover lies in
    // [-lim, lim]: |code| <= 2^(N-1) delivered ones for UR/UT, and
    // code + 2^(N-1) in [0, 2^N] for UG's bipolar offset. A code outside
    // would read past the tables, so it is fatal: each block checks its
    // weights as it builds their gather indices (so an M = 0 call still
    // checks every weight), and activations as the staging pass meets
    // them.
    Matrix<i64> out(m_rows, n_dim, 0);
    const bool ug = cfg_.scheme == Scheme::UgemmHybrid;
    const i32 lim = i32(1) << (cfg_.bits - 1);
    if (k_dim == 0 || n_dim == 0)
        return out;

    // An activation stages as a table row and a sign, both from its key.
    // UR/UT keys are |a|, and rows the delivered ones-count (the rate
    // stream's prefix count under early termination); row 0 adds
    // nothing, so it is skipped. UG keys and rows are the offset code
    // a + 2^(N-1), with no sign; a zero activation still adds the
    // bipolar bias, so nothing is skipped. Either way the row never
    // falls as the key grows (rateOnes grows with |a|).
    const bool rate = cfg_.scheme == Scheme::USystolicRate;
    const u32 cycles = cfg_.mulCycles();
    const bool truncated = rate && cycles < unary_->period();
    const int shift =
        (rate && cfg_.et_bits > 0) ? cfg_.bits - cfg_.et_bits : 0;
    const auto rowOfKey = [&](u32 key) {
        return truncated ? unary_->rateOnes(key, cycles) : key;
    };
    // The largest row a code can stage.
    const u32 max_row = ug ? 2 * u32(lim) : rowOfKey(u32(lim));
    const u32 period = ug ? bipolar_->period() : unary_->period();

    // Every entry is bounded by 2^(N-1) in magnitude: a UR/UT count
    // never exceeds the ones delivered (at most 2^(et-1) before the
    // 2^(N-et) shift-back, or 2^(N-1) untruncated), and a UG count lies
    // in [0, 2^N] around its 2^(N-1) bias. A block of at most
    // INT32_MAX / 2^(N-1) k values therefore sums in i32 without
    // overflow. Within that bound, the block is sized so its worst-case
    // staging fits the cache budget: per k, its code map, a gather-index
    // row, and a weight-side row per distinct table row. A k takes at
    // least 16 bytes (a code map of 3 codes, one index), so the budget
    // caps a block at 16384 k values, below the INT32_MAX / 2^(N-1)
    // >= 2^19 - 1 of every table bitwidth (N <= 13): the byte budget is
    // what binds, and the clamp only backs it up.
    const std::size_t n = std::size_t(n_dim);
    const std::size_t codes = 2 * std::size_t(lim) + 1;
    const std::size_t worst_rows =
        std::min<std::size_t>(max_row + 1, std::size_t(m_rows));
    const std::size_t bytes_per_k =
        (codes + n) * sizeof(u32) + worst_rows * n * sizeof(i32);
    const std::size_t max_block_k =
        std::min(std::size_t(k_dim),
                 std::size_t(std::numeric_limits<i32>::max() / lim));
    const int block_k = int(std::clamp<std::size_t>(
        kBlockBudgetBytes / bytes_per_k, 1, max_block_k));

    // Per block: code_slot[kl * codes + code + 2^(N-1)] holds the code's
    // slot (j << 1 | negative) or kSkip, and slot j's weight-side row
    // sits at rows[j * N]. The slots of k are first[kl] ..
    // first[kl + 1), in ascending row order: slot_row holds their table
    // rows (one spare entry past the last), and for UG slot_zeros holds
    // the k's zeros per period 2^N - row in ascending order, the rows
    // reversed. A code_slot entry is written for every code its k stages
    // before the sum reads it, so the maps need no reset between blocks.
    std::vector<u32> code_slot(std::size_t(block_k) * codes);
    std::vector<u64> marks((codes + 63) / 64, 0); // the k's keys
    std::vector<u32> first(std::size_t(block_k) + 1);
    std::vector<u32> slot_row, slot_zeros;
    std::vector<u32> b_idx; // gather indices (walk keys) of the block
    std::vector<i32> rows;
    const SimdKernels &simd = simdKernels();
    for (int k0 = 0; k0 < k_dim; k0 += block_k) {
        const int kb = std::min(block_k, k_dim - k0);
        // Gather indices of the block's weights: |b| for UR/UT (the sign
        // is applied after the gather, from b itself), the offset code
        // b + 2^(N-1) for UG.
        b_idx.resize(std::size_t(kb) * n);
        if (!weightIndices(b_idx.data(), &b(k0, 0), b_idx.size(), lim, ug))
            [[unlikely]]
            weightOutsideTable(&b(k0, 0), b_idx.size(), lim, cfg_.bits);

        // Stage one k at a time: mark the keys of column k in a bitmap,
        // then give slots in one ascending pass over its set bits, so
        // keys sharing a table row (+-a share a key; several keys share
        // a row under early termination) share a slot, and the slots
        // come out in ascending row order. Giving slots takes no branch
        // on a code.
        slot_row.resize(std::size_t(kb) * worst_rows + 1);
        u32 j = 0; // slots given so far in the block
        for (int kl = 0; kl < kb; ++kl) {
            first[std::size_t(kl)] = j;
            // The marked words span [lo, hi]; only they are scanned (and
            // cleared for the next k), so a short column scans one word.
            u32 lo = ~u32(0), hi = 0;
            for (int m = 0; m < m_rows; ++m) {
                const i32 code = a(m, k0 + kl);
                if (code < -lim || code > lim) [[unlikely]]
                    codeOutsideTable("activation", code, cfg_.bits);
                const u32 key =
                    ug ? u32(code + lim) : u32(code < 0 ? -code : code);
                marks[key >> 6] |= u64(1) << (key & 63);
                lo = std::min(lo, key >> 6);
                hi = std::max(hi, key >> 6);
            }
            // A fresh row takes slot j; a repeat of the last row writes
            // the spare entry and keeps its slot. UR/UT start from row
            // 0, so row 0 never takes a slot and its codes are skipped.
            u32 *const map = &code_slot[std::size_t(kl) * codes + lim];
            u32 prev = ug ? kNoRow : 0;
            for (u32 w = lo; w <= hi; ++w) {
                u64 bits = marks[w];
                marks[w] = 0;
                for (; bits != 0; bits &= bits - 1) {
                    const u32 key = w * 64 + u32(std::countr_zero(bits));
                    const u32 row = ug ? key : rowOfKey(key);
                    slot_row[j] = row;
                    j += u32(row != prev);
                    prev = row;
                    const u32 slot = (j - 1) << 1;
                    if (ug) {
                        map[std::ptrdiff_t(key) - lim] = slot;
                    } else {
                        const bool skip = row == 0;
                        map[key] = skip ? kSkip : slot;
                        map[-std::ptrdiff_t(key)] = skip ? kSkip : slot | 1;
                    }
                }
            }
        }
        first[std::size_t(kb)] = j;
        if (ug) {
            slot_zeros.resize(j);
            for (int kl = 0; kl < kb; ++kl) {
                const u32 s0 = first[std::size_t(kl)];
                const u32 s1 = first[std::size_t(kl) + 1];
                for (u32 i = s0; i < s1; ++i)
                    slot_zeros[i] = period - slot_row[s0 + s1 - 1 - i];
            }
        }

        // Weight-side rows of k for positive activations on its table
        // rows: the scheme's signed product with every b(k, n), before
        // the early-termination shift-back. A k whose rows are many
        // against the walk's length builds them all in one walk over the
        // sequence thresholds; otherwise each row is gathered from the
        // product tables.
        rows.resize(std::size_t(j) * n);
        const u64 rows_per_k = std::max<u64>(1, j / u64(kb));
        parallelFor(
            0, u64(kb),
            [&, k0](u64 kl) {
                const u32 s0 = first[kl];
                const int count = int(first[kl + 1] - s0);
                if (count == 0)
                    return;
                const u32 *idx = &b_idx[kl * n];
                const u32 *row_of = &slot_row[s0];
                const i32 *w = &b(k0 + int(kl), 0);
                i32 *dst = &rows[s0 * n];
                const u32 steps = row_of[count - 1] +
                                  (ug ? period - row_of[0] : 0);
                if (u64(count) * (ug ? 2 : 1) * kWalkRowCost >= steps) {
                    if (!ug) {
                        simd.walkRowsI32(dst, std::ptrdiff_t(n), idx, w,
                                         unary_->weightThresholds(), row_of,
                                         count, n_dim, 0, false);
                        return;
                    }
                    // UG: p1 - 2^(N-1) after `row` ones, then plus the
                    // polarity-0 misses after `zeros` zeros, which are
                    // zeros - p0; the rows in reverse take ascending
                    // zeros.
                    simd.walkRowsI32(dst, std::ptrdiff_t(n), idx, nullptr,
                                     bipolar_->onesThresholds(), row_of,
                                     count, n_dim, -lim, false);
                    simd.walkRowsI32(dst + std::size_t(count - 1) * n,
                                     -std::ptrdiff_t(n), idx, nullptr,
                                     bipolar_->zerosThresholds(),
                                     &slot_zeros[s0], count, n_dim, 0,
                                     true);
                    return;
                }
                for (int i = 0; i < count; ++i, dst += n) {
                    const u32 row = row_of[i];
                    if (!ug) {
                        simd.gatherU16(dst, unary_->countsAfterOnes(row),
                                       idx, n_dim);
                        signByWeight(dst, w, n);
                        continue;
                    }
                    // UG: p1 + zeros - p0 - 2^(N-1) for the input's
                    // `row` ones and `zeros` zeros per period.
                    const u32 zeros = period - row;
                    const i32 bias = i32(zeros) - lim;
                    simd.gatherU16(dst, bipolar_->hitsAfterOnes(row), idx,
                                   n_dim);
                    i32 p0[kGatherTile];
                    for (int c0 = 0; c0 < n_dim; c0 += kGatherTile) {
                        const int cw = std::min(kGatherTile, n_dim - c0);
                        simd.gatherU16(p0, bipolar_->hitsAfterZeros(zeros),
                                       idx + c0, cw);
                        subtractBiased(dst + c0, p0, bias, std::size_t(cw));
                    }
                }
            },
            std::max<u64>(1, 4096 / (rows_per_k * n)));

        // Each output row lists the slots its activations selected (a
        // code that adds nothing drops out) and sums those rows in i32
        // registers, spilled into the i64 output once per block.
        const u64 grain = rowGrain(kb, n_dim);
        parallelFor(
            0, (u64(m_rows) + grain - 1) / grain,
            [&, kb, k0](u64 chunk) {
                const std::ptrdiff_t stride = std::ptrdiff_t(codes);
                const u32 *slot_of = code_slot.data() + lim;
                std::vector<u32> list(std::size_t(kb), 0);
                const int m_end =
                    int(std::min(u64(m_rows), (chunk + 1) * grain));
                for (int m = int(chunk * grain); m < m_end; ++m) {
                    const i32 *arow = &a(m, k0);
                    int count = 0;
                    for (int kl = 0; kl < kb; ++kl) {
                        const u32 cs = slot_of[kl * stride + arow[kl]];
                        list[std::size_t(count)] = cs;
                        count += int(cs != kSkip);
                    }
                    simd.sumRowsI32(&out(m, 0), rows.data(), list.data(),
                                    count, n_dim);
                }
            });

    }
    // Rows hold counts before the early-termination shift-back, which
    // distributes over the sums.
    if (shift > 0)
        for (i64 &v : out.data())
            v *= i64(1) << shift;
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
