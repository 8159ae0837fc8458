#include "arch/packed_array.h"

#include <algorithm>
#include <string>
#include <vector>

#include "common/fixed_point.h"
#include "common/profiler.h"
#include "arch/functional.h"
#include "arch/pe.h"
#include "arch/sparsity.h"
#include "unary/bitstream.h"

namespace usys {

namespace {

/**
 * Per-worker fold scratch. The executor's workers are persistent, so
 * the buffers keep their capacity across folds; entirely thread-local,
 * so parallel tile shards never share scratch.
 */
struct FoldScratch
{
    std::vector<u32> wkey;  // per (r, c) product-table column of the weight
    std::vector<i64> wneg;  // per (r, c) weight sign, 0 or -1
    std::vector<u32> nz;    // per input row, the indices of nonzero codes
};

FoldScratch &
foldScratch()
{
    thread_local FoldScratch scratch;
    return scratch;
}

/**
 * Indices of the nonzero codes of row[0..n) into idx, returning their
 * count. Branch-free: post-ReLU zeros fall at random, and a skip branch
 * per code made a 60%-zero 128-row fold over 2x slower.
 */
u32
nonzeroIndices(const i32 *row, int n, u32 *idx)
{
    u32 cnt = 0;
    for (int r = 0; r < n; ++r) {
        idx[cnt] = u32(r);
        cnt += row[r] != 0;
    }
    return cnt;
}

[[noreturn, gnu::cold]] void
codeOutsideTable(i32 code, int bits)
{
    fatal("PackedArray: code " + std::to_string(code) + " outside the " +
          std::to_string(bits) + "-bit product table");
}

} // namespace

namespace detail {

u32
faultedOnes(Scheme scheme, i32 code, int rng_bits, u32 window,
            const Fault &f)
{
    const auto count = [&](auto &&gen) {
        u32 ones = 0;
        for (u32 t = 0; t < window; ++t) {
            bool bit = gen.nextBit();
            if (f.covers(t))
                bit = f.corruptBit(bit, t);
            ones += u32(bit);
        }
        return ones;
    };
    const u32 iabs = toSignMag(code).magnitude;
    switch (scheme) {
      case Scheme::USystolicRate:
        return count(RateBsg(iabs, kInputRngDim, rng_bits));
      case Scheme::UgemmHybrid:
        return count(BipolarRateBsg(code, kInputRngDim, rng_bits));
      default:
        return count(TemporalBsg(iabs, rng_bits));
    }
}

} // namespace detail

PackedArray::PackedArray(const ArrayConfig &cfg)
    : cfg_(cfg)
{
    cfg_.check();
    fatalIf(!hasSmallProductTables(cfg_.kernel),
            "PackedArray: " + cfg_.kernel.name() +
                " has no small product table; run it on SystolicArray");
}

SystolicArray::FoldResult
PackedArray::runFold(const Matrix<i32> &input, const Matrix<i32> &weights,
                     FoldStatsDelta *stats, u64 tile,
                     const SparsityPlan *) const
{
    USYS_PROF_SCOPE("fold.packed");
    const int rows = cfg_.rows;
    const int cols = cfg_.cols;
    fatalIf(input.cols() != rows, "runFold: input width != array rows");
    fatalIf(weights.rows() != rows || weights.cols() != cols,
            "runFold: weight tile does not match array shape");

    const int m_rows = input.rows();
    const KernelConfig &kern = cfg_.kernel;
    const u32 mul = kern.mulCycles();
    const u32 mac = kern.macCycles();

    // Identical closed-form schedule to SystolicArray: the packed model
    // changes how fast the host evaluates a MAC interval, never how many
    // simulated cycles it takes.
    Cycles cycles = Cycles(rows);
    cycles += (u64(m_rows) + rows - 1) * mac + u64(cols - 1);
    const u32 trace_len = (kern.scheme == Scheme::BinaryParallel) ? 1 : mul;

    FoldStatsDelta local;
    FoldStatsDelta &delta = stats ? *stats : local;
    delta.add(m_rows, rows, cols, cycles, trace_len);
    delta.addSparsity(foldSparsityCensus(kern, input, weights));

    // Fault plan: the census is analytic (coordinate enumeration), so
    // it matches SystolicArray's by construction; the event *effects*
    // are applied below at the packed formulation's equivalent points.
    const FaultPlan *plan = cfg_.faults.enabled() ? &cfg_.faults : nullptr;
    if (plan)
        delta.addFaults(countFoldFaults(*plan, kern, tile, m_rows, rows,
                                        cols));
    const bool fw = plan && plan->rates.weight_reg > 0.0;
    const bool fa = plan && plan->rates.activation_stream > 0.0;
    const bool fs = plan && plan->rates.weight_stream > 0.0;
    const bool fo = plan && plan->rates.accumulator > 0.0;
    const u32 acc_width = accumulatorWidth(kern);

    // WeightReg site: stationary weights corrupt once at preload, so a
    // corrupted copy up front is exactly the scalar engine's behavior.
    const Matrix<i32> *wp = &weights;
    Matrix<i32> wfaulted;
    if (fw) {
        wfaulted = weights;
        for (int r = 0; r < rows; ++r)
            for (int c = 0; c < cols; ++c)
                if (const auto f = plan->weightReg(tile, r, c,
                                                   u32(kern.bits)))
                    wfaulted(r, c) =
                        corruptCode(*f, wfaulted(r, c), kern.bits);
        wp = &wfaulted;
    }

    const int shift =
        (kern.scheme == Scheme::USystolicRate && kern.et_bits > 0)
            ? kern.bits - kern.et_bits
            : 0;

    Matrix<i64> out(m_rows, cols, 0);
    FoldScratch &scratch = foldScratch();
    std::vector<u32> &nz = scratch.nz;
    nz.resize(std::size_t(rows));

    switch (kern.scheme) {
      case Scheme::BinaryParallel:
      case Scheme::BinarySerial:
      case Scheme::TubGemm:
      case Scheme::TuGemm: {
        // All four kernels compute an exact integer product per MAC, so
        // the fold is a plain integer GEMM over a staged signed operand
        // matrix. Binary parallel multiplies in one cycle; binary serial
        // accumulates wabs << phase over the input magnitude bits (=
        // wabs * iabs) and sign-corrects at M-end. The temporal-unary
        // staircase stream of |a| asserts exactly |a| of its window
        // bits; tubGEMM adds the binary weight per asserted bit and
        // tuGEMM ANDs in the weight staircase, which matches |w| of the
        // held cycles per asserted bit — either way (+/- ones) * w. No
        // stream words are ever materialized, so fault-free staging is
        // the identity: the operands are the input codes.
        //
        // ActivationStream site: for the binary schemes the stream *is*
        // the code bits, so corruption lands on the codes themselves;
        // for the temporal schemes it lands on the delivered ones-count.
        const Matrix<i32> *ap = &input;
        Matrix<i32> astaged;
        if (fa) {
            const u32 awin = activationWindow(kern);
            const bool temporal = isUnary(kern.scheme);
            astaged = input;
            for (int m = 0; m < m_rows; ++m)
                for (int r = 0; r < rows; ++r)
                    if (const auto f =
                            plan->activationStream(tile, m, r, awin)) {
                        const i32 code = input(m, r);
                        if (temporal) {
                            const i32 ones = i32(detail::faultedOnes(
                                kern.scheme, code, kern.bits - 1, awin, *f));
                            astaged(m, r) = code < 0 ? -ones : ones;
                        } else {
                            astaged(m, r) =
                                corruptActivationCode(*f, code, kern);
                        }
                    }
            ap = &astaged;
        }
        const Matrix<i32> &a = *ap;

        if (!fo) {
            // No per-MAC fault hook: the fold is one exact GEMM over the
            // staged codes (weight-register and DRAM faults already
            // corrupted them), on the same kernel as a fault-free one.
            USYS_PROF_SCOPE("fold.packed.mac");
            out = referenceGemm(a, *wp);
            break;
        }

        for (int m = 0; m < m_rows; ++m) {
            for (int r = 0; r < rows; ++r) {
                const i64 av = a(m, r);
                for (int c = 0; c < cols; ++c) {
                    i64 contrib = av * i64((*wp)(r, c));
                    // Accumulator site: each PE's signed per-interval
                    // product before the partial-sum merge — same point
                    // as PeCore::finishMac.
                    if (const auto f =
                            plan->accumulator(tile, m, r, c, acc_width))
                        contrib = f->applyToInt(contrib, acc_width);
                    out(m, c) += contrib;
                }
            }
        }
        break;
      }

      case Scheme::USystolicRate:
      case Scheme::USystolicTemporal:
      case Scheme::UgemmHybrid: {
        // Every unary MAC is one lookup into the shared product-model
        // tables (DESIGN.md §8): the C-BSG advances only on input 1-bits,
        // so a PE whose input delivered `ones` 1-bits has counted
        // countAfterOnes(ones, |w|) product 1s, and uGEMM-H adds its
        // polarity-0 lane over the `mul - ones` input 0-cycles
        // (countAfter(ones, zeros, w + bias)). Weight-register and DRAM
        // faults already corrupted the codes above; the other three
        // sites hook individual MACs.
        const bool bipolar = kern.scheme == Scheme::UgemmHybrid;
        const UnaryProductModel *um =
            bipolar ? nullptr : &unaryModelFor(kern.bits);
        const BipolarProductModel *bm =
            bipolar ? &bipolarModelFor(kern.bits) : nullptr;
        const u32 period = bipolar ? bm->period() : um->period();
        const int rng_bits = bipolar ? kern.bits : kern.bits - 1;
        const i64 bias = bipolar ? i64(1) << (kern.bits - 1) : 0;
        // Table column of a code: |code| for the sign-magnitude streams,
        // the offset code + bias for uGEMM-H's offset-binary streams.
        auto table_key = [&](i32 code) {
            const u32 key = bipolar ? u32(i64(code) + bias)
                                    : toSignMag(code).magnitude;
            if (key > period) [[unlikely]]
                codeOutsideTable(code, kern.bits);
            return key;
        };
        // Input 1-bits the stream of input(m, r) delivers in the `mul`
        // window: a closed form fault-free (the rate prefix for UR, all
        // |a| staircase bits for UT, the offset code for uGEMM-H), or the
        // count of the faulted stream under an activation-stream fault.
        auto ones_of = [&](int m, int r) -> u32 {
            const i32 code = input(m, r);
            if (fa)
                if (const auto f = plan->activationStream(tile, m, r, mul))
                    return detail::faultedOnes(kern.scheme, code, rng_bits,
                                                 mul, *f);
            const u32 key = table_key(code);
            return kern.scheme == Scheme::USystolicRate
                       ? um->rateOnes(key, mul)
                       : key;
        };

        // Weight side: table column and sign per PE, row-major.
        std::vector<u32> &wkey = scratch.wkey;
        std::vector<i64> &wneg = scratch.wneg;
        {
            USYS_PROF_SCOPE("fold.packed.stage");
            wkey.resize(std::size_t(rows) * cols);
            wneg.resize(std::size_t(rows) * cols);
            for (int r = 0; r < rows; ++r)
                for (int c = 0; c < cols; ++c) {
                    const i32 w = (*wp)(r, c);
                    wkey[std::size_t(r) * cols + c] = table_key(w);
                    wneg[std::size_t(r) * cols + c] = w < 0 ? -1 : 0;
                }
        }

        USYS_PROF_SCOPE("fold.packed.mac");
        if (!bipolar && !fa && !fs && !fo) {
            // Fault-free uSystolic: per nonzero input code (a zero
            // magnitude delivers no 1-bits), one table lookup per MAC
            // with the sign applied branchless.
            for (int m = 0; m < m_rows; ++m) {
                i64 *out_row = &out(m, 0);
                const i32 *irow = &input(m, 0);
                const u32 cnt = nonzeroIndices(irow, rows, nz.data());
                for (u32 i = 0; i < cnt; ++i) {
                    const int r = int(nz[i]);
                    const u32 ones = ones_of(m, r);
                    // An early-terminated window can deliver zero 1s
                    // even for a nonzero magnitude.
                    if (ones == 0)
                        continue;
                    const i64 nin = irow[r] < 0 ? -1 : 0;
                    const u16 *counts = um->countsAfterOnes(ones);
                    const u32 *krow = &wkey[std::size_t(r) * cols];
                    const i64 *nrow = &wneg[std::size_t(r) * cols];
                    for (int c = 0; c < cols; ++c) {
                        const i64 v = counts[krow[c]];
                        const i64 ng = nrow[c] ^ nin; // 0 or -1
                        out_row[c] += (v ^ ng) - ng;
                    }
                }
            }
            break;
        }

        // Per-MAC loop: uGEMM-H (whose bias makes even zero operands
        // contribute, so it never skips), and every fold with an
        // activation-stream, weight-stream or accumulator fault.
        for (int m = 0; m < m_rows; ++m) {
            for (int r = 0; r < rows; ++r) {
                const u32 ones = ones_of(m, r);
                // Zero delivered ones: every count is 0 and weight-stream
                // faults only cover indices below the ones-count, so the
                // row contributes exactly nothing — unless an accumulator
                // fault could still fire on it.
                if (!bipolar && !fo && ones == 0)
                    continue;
                const u32 zeros = mul - ones;
                const i64 nin = input(m, r) < 0 ? -1 : 0;
                const u32 *krow = &wkey[std::size_t(r) * cols];
                const i64 *nrow = &wneg[std::size_t(r) * cols];
                for (int c = 0; c < cols; ++c) {
                    const u32 key = krow[c];
                    i64 count = bipolar ? bm->countAfter(ones, zeros, key)
                                        : um->countAfterOnes(ones, key);
                    // WeightStream site: re-derive each covered comparison
                    // bit b_k of the C-BSG (polarity-1) lane as the table
                    // step count(k + 1) - count(k) and swap it for its
                    // corrupted value — only indices below the delivered
                    // ones-count ever reach a comparator.
                    if (fs)
                        if (const auto f =
                                plan->weightStream(tile, m, r, c, mul)) {
                            auto lane1 = [&](u32 k) -> i64 {
                                return bipolar ? bm->countAfter(k, 0, key)
                                               : um->countAfterOnes(k, key);
                            };
                            const u64 hi =
                                std::min<u64>(u64(f->first) + f->len, ones);
                            for (u64 k = f->first; k < hi; ++k) {
                                const i64 b = lane1(u32(k) + 1) - lane1(u32(k));
                                count += i64(f->corruptBit(b != 0, u32(k))) - b;
                            }
                        }
                    // Sign-magnitude product, or finishMac's bipolar
                    // count -> signed product offset.
                    const i64 ng = nrow[c] ^ nin; // 0 or -1
                    i64 contrib = bipolar ? count - bias : (count ^ ng) - ng;
                    // Accumulator site: per-MAC signed OREG contribution,
                    // pre-merge, pre-shift — same point as
                    // PeCore::finishMac.
                    if (fo)
                        if (const auto f =
                                plan->accumulator(tile, m, r, c, acc_width))
                            contrib = f->applyToInt(contrib, acc_width);
                    out(m, c) += contrib;
                }
            }
        }
        break;
      }
    }

    if (shift) {
        for (int m = 0; m < m_rows; ++m)
            for (int c = 0; c < cols; ++c)
                out(m, c) *= i64(1) << shift;
    }

    if (!stats)
        local.flush(kern);
    return SystolicArray::FoldResult{std::move(out), cycles};
}

} // namespace usys
