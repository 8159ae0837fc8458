#include "arch/functional.h"

#include <algorithm>
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

} // namespace

const UnaryProductModel &
unaryModelFor(int signed_bits)
{
    // Per-thread memo in front of the shared cache: executor workers are
    // persistent, so after one warm lookup per bitwidth a sweep never
    // touches the mutex again. The cached models are immutable prefix
    // tables, so sharing one instance across threads is safe.
    thread_local const UnaryProductModel *memo[kModelMemoSlots] = {};
    const bool memoable = signed_bits >= 0 && signed_bits < kModelMemoSlots;
    if (memoable && memo[signed_bits])
        return *memo[signed_bits];

    static std::mutex mutex;
    static std::map<int, std::unique_ptr<UnaryProductModel>> cache;
    const UnaryProductModel *model = nullptr;
    {
        std::lock_guard<std::mutex> lock(mutex);
        auto &slot = cache[signed_bits];
        if (!slot) {
            slot = std::make_unique<UnaryProductModel>(
                signed_bits, kWeightRngDim, kInputRngDim);
        }
        model = slot.get();
    }
    if (memoable)
        memo[signed_bits] = model;
    return *model;
}

const BipolarProductModel &
bipolarModelFor(int signed_bits)
{
    thread_local const BipolarProductModel *memo[kModelMemoSlots] = {};
    const bool memoable = signed_bits >= 0 && signed_bits < kModelMemoSlots;
    if (memoable && memo[signed_bits])
        return *memo[signed_bits];

    static std::mutex mutex;
    static std::map<int, std::unique_ptr<BipolarProductModel>> cache;
    const BipolarProductModel *model = nullptr;
    {
        std::lock_guard<std::mutex> lock(mutex);
        auto &slot = cache[signed_bits];
        if (!slot) {
            slot = std::make_unique<BipolarProductModel>(
                signed_bits, kWeightRngDim,
                kWeightRngDim + kWeightAltRngOffset);
        }
        model = slot.get();
    }
    if (memoable)
        memo[signed_bits] = model;
    return *model;
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

/** Code-map sentinels: a code not staged for this k yet, and one that
 *  adds nothing. Staged codes map to (slot << 1 | negative). */
constexpr u32 kUnseen = ~u32(0);
constexpr u32 kSkip = ~u32(0) - 1;

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
    Matrix<i64> out(m_rows, n_dim, 0);

    if (cfg_.scheme == Scheme::BinaryParallel ||
        cfg_.scheme == Scheme::BinarySerial ||
        cfg_.scheme == Scheme::TubGemm ||
        cfg_.scheme == Scheme::TuGemm) {
        // Exact-product schemes: a plain integer GEMM (referenceGemm
        // already zero-skips per element and runs row-parallel). An
        // empty operand has no row for it to point into.
        if (k_dim == 0 || n_dim == 0)
            return out;
        return referenceGemm(a, b);
    }

    // Table schemes (UR, UT, UG). Every code the tables cover lies in
    // [-lim, lim]: |code| <= 2^(N-1) delivered ones for UR/UT, and
    // code + 2^(N-1) in [0, 2^N] for UG's bipolar offset. A code outside
    // would read past the tables, so it is fatal: weights are checked
    // here, activations as the staging pass meets them.
    const bool ug = cfg_.scheme == Scheme::UgemmHybrid;
    const i32 lim = i32(1) << (cfg_.bits - 1);
    for (const i32 code : b.data())
        if (code < -lim || code > lim) [[unlikely]]
            codeOutsideTable("weight", code, cfg_.bits);
    if (m_rows == 0 || k_dim == 0 || n_dim == 0)
        return out;

    // An activation stages as a table row and a sign. UR/UT rows are
    // the delivered ones-count (the rate stream's prefix count under
    // early termination); row 0 adds nothing, so it is skipped. UG rows
    // are the offset code a + 2^(N-1) and carry no sign; a zero
    // activation still adds the bipolar bias, so nothing is skipped.
    const bool rate = cfg_.scheme == Scheme::USystolicRate;
    const u32 cycles = cfg_.mulCycles();
    const bool truncated = rate && cycles < unary_->period();
    const int shift =
        (rate && cfg_.et_bits > 0) ? cfg_.bits - cfg_.et_bits : 0;
    const auto rowOf = [&](i32 code) {
        if (ug)
            return u32(code + lim);
        const u32 mag = u32(code < 0 ? -code : code);
        return truncated ? unary_->rateOnes(mag, cycles) : mag;
    };
    // The largest row a code can stage (rateOnes grows with |a|).
    const u32 max_row = rowOf(lim);

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
    // slot (j << 1 | negative) or kSkip, row_slot shares slot j among the
    // codes of one k on one table row, and slot j's weight-side row sits
    // at rows[j * N]. Both maps hold kUnseen outside the k being staged.
    std::vector<u32> code_slot(std::size_t(block_k) * codes, kUnseen);
    std::vector<u32> row_slot(std::size_t(max_row) + 1, kUnseen);
    std::vector<std::size_t> seen;         // code_slot entries set
    std::vector<std::pair<int, u32>> used; // (kl, row) of slot j
    std::vector<u32> b_idx; // gather indices of the block's weights
    std::vector<i32> rows;
    const SimdKernels &simd = simdKernels();
    for (int k0 = 0; k0 < k_dim; k0 += block_k) {
        const int kb = std::min(block_k, k_dim - k0);
        // Stage one k at a time: each code of column k gets its slot in
        // the k's code map, and codes sharing a table row (+-a, or
        // several codes under early termination) share one.
        used.clear();
        for (int kl = 0; kl < kb; ++kl) {
            const std::size_t first = used.size();
            const std::size_t map = std::size_t(kl) * codes;
            for (int m = 0; m < m_rows; ++m) {
                const i32 code = a(m, k0 + kl);
                if (code < -lim || code > lim) [[unlikely]]
                    codeOutsideTable("activation", code, cfg_.bits);
                const std::size_t ci = map + std::size_t(code + lim);
                if (code_slot[ci] != kUnseen)
                    continue;
                seen.push_back(ci);
                const u32 row = rowOf(code);
                if (row == 0 && !ug) {
                    code_slot[ci] = kSkip;
                    continue;
                }
                u32 &j = row_slot[row];
                if (j == kUnseen) {
                    j = u32(used.size());
                    used.emplace_back(kl, row);
                }
                code_slot[ci] = j << 1 | u32(!ug && code < 0);
            }
            for (std::size_t j = first; j < used.size(); ++j)
                row_slot[used[j].second] = kUnseen;
        }

        // Gather indices of the block's weights: |b| for UR/UT (the sign
        // is applied after the gather, from b itself), the offset code
        // b + 2^(N-1) for UG.
        b_idx.resize(std::size_t(kb) * n);
        const i32 *bw = &b(k0, 0);
        for (std::size_t i = 0; i < b_idx.size(); ++i)
            b_idx[i] = ug ? u32(bw[i] + lim)
                          : u32(bw[i] < 0 ? -bw[i] : bw[i]);

        // Weight-side row of k for a positive activation on table row
        // `row`: the scheme's signed product with every b(k, n), before
        // the early-termination shift-back, from gathered table entries.
        rows.resize(used.size() * n);
        parallelFor(
            0, used.size(),
            [&, k0](u64 j) {
                const auto [kl, row] = used[j];
                const u32 *idx = &b_idx[std::size_t(kl) * n];
                i32 *dst = &rows[j * n];
                if (!ug) {
                    simd.gatherU16(dst, unary_->countsAfterOnes(row), idx,
                                   n_dim);
                    signByWeight(dst, &b(k0 + kl, 0), n);
                    return;
                }
                // UG: p1 + zeros - p0 - 2^(N-1) for the input's `row`
                // ones and `zeros` zeros per period.
                const u32 zeros = bipolar_->period() - row;
                const i32 bias = i32(zeros) - lim;
                simd.gatherU16(dst, bipolar_->hitsAfterOnes(row), idx,
                               n_dim);
                i32 p0[kGatherTile];
                for (int c0 = 0; c0 < n_dim; c0 += kGatherTile) {
                    const int w = std::min(kGatherTile, n_dim - c0);
                    simd.gatherU16(p0, bipolar_->hitsAfterZeros(zeros),
                                   idx + c0, w);
                    subtractBiased(dst + c0, p0, bias, std::size_t(w));
                }
            },
            std::max<u64>(1, 4096 / u64(n_dim)));

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

        for (const std::size_t ci : seen)
            code_slot[ci] = kUnseen;
        seen.clear();
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
