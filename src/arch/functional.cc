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
#include "arch/pe.h"
#include "mem/dram_faults.h"

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

/** Bytes one k-block of the table kernel may stage at worst (its slot
 *  maps plus one weight-side row per distinct activation), so that the
 *  block stays cache-resident while every output row sweeps it. */
constexpr std::size_t kBlockBudgetBytes = 256 * 1024;

/** Slot-map sentinels: a code adds nothing, or has not been staged. */
constexpr u32 kSkip = ~u32(0) - 1;
constexpr u32 kUnseen = ~u32(0);

[[noreturn, gnu::cold]] void
codeOutsideTable(const char *operand, i32 code, int bits)
{
    fatal(std::string("GemmExecutor: ") + operand + " code " +
          std::to_string(code) + " outside the " + std::to_string(bits) +
          "-bit product table");
}

/**
 * acc[j] += row[j], or acc[j] -= row[j] when `negate`, for j in [0, n).
 * Fixed eight-lane groups let the compiler vectorize the body at -O2.
 */
inline void
addRow(i32 *__restrict acc, const i32 *__restrict row, std::size_t n,
       bool negate)
{
    std::size_t j = 0;
    if (negate) {
        for (; j + 8 <= n; j += 8)
            for (std::size_t l = 0; l < 8; ++l)
                acc[j + l] -= row[j + l];
        for (; j < n; ++j)
            acc[j] -= row[j];
    } else {
        for (; j + 8 <= n; j += 8)
            for (std::size_t l = 0; l < 8; ++l)
                acc[j + l] += row[j + l];
        for (; j < n; ++j)
            acc[j] += row[j];
    }
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
        // already zero-skips per element and runs row-parallel).
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

    // An activation stages as (table row << 1 | negative). UR/UT rows
    // are the delivered ones-count (the rate stream's prefix count under
    // early termination); row 0 adds nothing, so it is skipped. UG rows
    // are the offset code a + 2^(N-1) and carry no sign; a zero
    // activation still adds the bipolar bias, so nothing is skipped.
    const bool rate = cfg_.scheme == Scheme::USystolicRate;
    const u32 cycles = cfg_.mulCycles();
    const int shift =
        (rate && cfg_.et_bits > 0) ? cfg_.bits - cfg_.et_bits : 0;
    const auto stageCode = [&](i32 code) {
        if (ug)
            return u32(code + lim) << 1;
        const SignMag sa = toSignMag(code);
        const u32 ones = (rate && cycles < unary_->period())
                             ? unary_->rateOnes(sa.magnitude, cycles)
                             : sa.magnitude;
        return ones == 0 ? kSkip : (ones << 1 | u32(sa.negative));
    };

    // Weight-side row of k for a positive activation on table row `row`:
    // the scheme's exact signed product with every b(k, n).
    const auto fillRow = [&](u32 row, int k, i32 *dst) {
        if (ug) {
            const i32 x = i32(row) - lim;
            for (int n = 0; n < n_dim; ++n)
                dst[n] = bipolar_->scaledProduct(x, b(k, n));
            return;
        }
        for (int n = 0; n < n_dim; ++n) {
            const SignMag sb = toSignMag(b(k, n));
            const i32 count =
                i32(unary_->countAfterOnes(row, sb.magnitude)) << shift;
            dst[n] = sb.negative ? -count : count;
        }
    };

    // Every entry is bounded by 2^(N-1) in magnitude: a UR/UT count
    // never exceeds the ones delivered (at most 2^(et-1) before the
    // 2^(N-et) shift-back, or 2^(N-1) untruncated), and a UG count lies
    // in [0, 2^N] around its 2^(N-1) bias. A block of at most
    // INT32_MAX / 2^(N-1) k values therefore sums in i32 without
    // overflow. Within that bound, the block is sized so its worst-case
    // staging (slot maps plus one row per distinct activation) fits the
    // cache budget.
    const std::size_t codes = 2 * std::size_t(lim) + 1;
    const std::size_t table_rows = ug ? codes : std::size_t(lim) + 1;
    const std::size_t worst_rows =
        std::min(table_rows, std::size_t(m_rows));
    const std::size_t bytes_per_k =
        (codes + table_rows + worst_rows * std::size_t(n_dim)) *
        sizeof(u32);
    const std::size_t max_block_k =
        std::min(std::size_t(k_dim),
                 std::size_t(std::numeric_limits<i32>::max() / lim));
    const int block_k = int(std::clamp<std::size_t>(
        kBlockBudgetBytes / bytes_per_k, 1, max_block_k));

    // Per block: code_slot[kl][code] holds a code's staged slot
    // (j << 1 | negative) or kSkip, row_slot[kl][row] shares slot j among
    // the codes on one table row, and row j's entries sit at rows[j * N].
    std::vector<u32> code_slot(std::size_t(block_k) * codes, kUnseen);
    std::vector<u32> row_slot(std::size_t(block_k) * table_rows, kUnseen);
    std::vector<std::size_t> seen;         // code_slot entries set
    std::vector<std::pair<int, u32>> used; // (kl, row) of slot j
    std::vector<i32> rows;
    for (int k0 = 0; k0 < k_dim; k0 += block_k) {
        const int kb = std::min(block_k, k_dim - k0);
        for (int m = 0; m < m_rows; ++m) {
            const i32 *arow = &a(m, k0);
            for (int kl = 0; kl < kb; ++kl) {
                const i32 code = arow[kl];
                if (code < -lim || code > lim) [[unlikely]]
                    codeOutsideTable("activation", code, cfg_.bits);
                const std::size_t ci =
                    std::size_t(kl) * codes + std::size_t(code + lim);
                if (code_slot[ci] != kUnseen)
                    continue;
                seen.push_back(ci);
                const u32 s = stageCode(code);
                if (s == kSkip) {
                    code_slot[ci] = kSkip;
                    continue;
                }
                u32 &j = row_slot[std::size_t(kl) * table_rows + (s >> 1)];
                if (j == kUnseen) {
                    j = u32(used.size());
                    used.emplace_back(kl, s >> 1);
                }
                code_slot[ci] = j << 1 | (s & 1);
            }
        }
        rows.resize(used.size() * std::size_t(n_dim));
        parallelFor(
            0, used.size(),
            [&](u64 j) {
                fillRow(used[j].second, k0 + used[j].first,
                        &rows[j * std::size_t(n_dim)]);
            },
            std::max<u64>(1, 4096 / u64(n_dim)));

        // Each output row sums its selected weight-side rows in i32 and
        // spills into the i64 output once per block.
        const u64 grain = rowGrain(kb, n_dim);
        parallelFor(
            0, (u64(m_rows) + grain - 1) / grain,
            [&, kb, k0](u64 chunk) {
                const std::size_t n = std::size_t(n_dim);
                const std::ptrdiff_t slot_stride = std::ptrdiff_t(codes);
                const u32 *slot_of = code_slot.data() + lim;
                const i32 *block_rows = rows.data();
                std::vector<i32> acc(n, 0);
                const int m_end =
                    int(std::min(u64(m_rows), (chunk + 1) * grain));
                for (int m = int(chunk * grain); m < m_end; ++m) {
                    const i32 *arow = &a(m, k0);
                    for (int kl = 0; kl < kb; ++kl) {
                        const u32 cs =
                            slot_of[kl * slot_stride + arow[kl]];
                        if (cs == kSkip)
                            continue;
                        addRow(acc.data(), block_rows + (cs >> 1) * n, n,
                               cs & 1);
                    }
                    i64 *orow = &out(m, 0);
                    for (std::size_t c = 0; c < n; ++c) {
                        orow[c] += acc[c];
                        acc[c] = 0;
                    }
                }
            });

        for (const std::size_t ci : seen)
            code_slot[ci] = kUnseen;
        for (const auto &[kl, row] : used)
            row_slot[std::size_t(kl) * table_rows + row] = kUnseen;
        seen.clear();
        used.clear();
    }
    return out;
}

Matrix<i64>
GemmExecutor::run(const Matrix<i32> &a, const Matrix<i32> &b,
                  const FaultPlan &plan) const
{
    if (!plan.enabled() || plan.rates.dram_word <= 0.0)
        return run(a, b);
    // Corrupt operand copies exactly as SystolicGemm does at entry.
    Matrix<i32> af = a;
    Matrix<i32> bf = b;
    applyDramFaults(plan, af, kDramOperandA, cfg_.bits);
    applyDramFaults(plan, bf, kDramOperandB, cfg_.bits);
    return run(af, bf);
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
