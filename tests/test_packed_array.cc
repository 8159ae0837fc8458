/**
 * @file
 * Packed-engine cross-validation: the word-packed PackedArray must
 * reproduce SystolicArray and RtlArray bit-for-bit and cycle-for-cycle
 * on every scheme, bitwidth, early-termination point, and array shape —
 * including the masked-final-word boundary (UR EBT windows shorter than
 * one 64-bit word) — and commit byte-identical stats-registry deltas,
 * so flipping the engine (or running tiles in parallel) can never
 * change a result or a dump.
 */

#include <tuple>

#include <gtest/gtest.h>

#include "common/cli.h"
#include "common/executor.h"
#include "common/fixed_point.h"
#include "common/prng.h"
#include "common/stats_registry.h"
#include "arch/packed_array.h"
#include "arch/rtl_array.h"
#include "arch/sparsity.h"

namespace usys {
namespace {

Matrix<i32>
randomMatrix(int rows, int cols, int bits, Prng &prng)
{
    const i32 max_mag = maxMagnitude(bits);
    Matrix<i32> m(rows, cols);
    for (int r = 0; r < rows; ++r)
        for (int c = 0; c < cols; ++c)
            m(r, c) = i32(prng.below(2 * u64(max_mag) + 1)) - max_mag;
    return m;
}

using PackedCase = std::tuple<Scheme, int, int, int, int>;
// scheme, bits, et_bits, rows, cols

class PackedVsScalar : public ::testing::TestWithParam<PackedCase>
{};

TEST_P(PackedVsScalar, BitCycleAndStatsExactAgreement)
{
    const auto [scheme, bits, et_bits, rows, cols] = GetParam();
    ArrayConfig cfg;
    cfg.rows = rows;
    cfg.cols = cols;
    cfg.kernel = {scheme, bits, et_bits};

    // Several random tiles per configuration, including one all-zeros
    // and one full-scale tile via the magnitude extremes of the PRNG.
    for (u64 trial = 0; trial < 4; ++trial) {
        Prng prng(u64(int(scheme)) * 7919 + u64(bits) * 131 +
                  u64(et_bits) * 13 + u64(rows) * 17 + u64(cols) +
                  trial * 104729);
        const int m_rows = 5;
        auto input = randomMatrix(m_rows, rows, bits, prng);
        auto weights = randomMatrix(rows, cols, bits, prng);
        if (trial == 1) {
            // Magnitude extremes: zeros and +/- full scale.
            const i32 mm = maxMagnitude(bits);
            input(0, 0) = 0;
            weights(0, 0) = 0;
            input(m_rows - 1, rows - 1) = mm;
            weights(rows - 1, cols - 1) = -mm;
        }

        statsRegistry().reset();
        const auto scalar = SystolicArray(cfg).runFold(input, weights);
        const std::string scalar_dump = statsRegistry().dumpText();

        statsRegistry().reset();
        const auto packed = PackedArray(cfg).runFold(input, weights);
        const std::string packed_dump = statsRegistry().dumpText();

        EXPECT_EQ(packed.output, scalar.output)
            << cfg.kernel.name() << " trial " << trial;
        EXPECT_EQ(packed.cycles, scalar.cycles) << cfg.kernel.name();
        EXPECT_EQ(packed_dump, scalar_dump) << cfg.kernel.name();
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemesAndEbt, PackedVsScalar,
    ::testing::Values(
        PackedCase{Scheme::BinaryParallel, 8, 0, 4, 4},
        PackedCase{Scheme::BinaryParallel, 16, 0, 3, 6},
        PackedCase{Scheme::BinarySerial, 8, 0, 4, 4},
        PackedCase{Scheme::BinarySerial, 12, 0, 5, 3},
        PackedCase{Scheme::USystolicRate, 8, 0, 4, 4},
        // EBT 6: a 32-cycle window — the masked-final-word boundary.
        PackedCase{Scheme::USystolicRate, 8, 6, 4, 5},
        PackedCase{Scheme::USystolicRate, 8, 7, 2, 7},
        PackedCase{Scheme::USystolicRate, 8, 8, 3, 3},
        PackedCase{Scheme::USystolicRate, 10, 6, 3, 3},
        PackedCase{Scheme::USystolicRate, 10, 8, 3, 3},
        // 4-bit: the whole 8-cycle period fits in a fraction of a word.
        PackedCase{Scheme::USystolicRate, 4, 0, 4, 4},
        PackedCase{Scheme::USystolicTemporal, 8, 0, 4, 4},
        PackedCase{Scheme::USystolicTemporal, 7, 0, 6, 2},
        PackedCase{Scheme::USystolicTemporal, 4, 0, 3, 5},
        PackedCase{Scheme::UgemmHybrid, 7, 0, 4, 4},
        PackedCase{Scheme::UgemmHybrid, 8, 0, 2, 3},
        PackedCase{Scheme::UgemmHybrid, 4, 0, 4, 4},
        PackedCase{Scheme::TubGemm, 8, 0, 4, 4},
        PackedCase{Scheme::TubGemm, 4, 0, 3, 5},
        // tuGEMM at small bits: the scalar referee walks the full
        // 2^(2(N-1))-cycle square period per MAC.
        PackedCase{Scheme::TuGemm, 4, 0, 4, 4},
        PackedCase{Scheme::TuGemm, 5, 0, 3, 3}));

TEST(PackedArray, MatchesRtlRefereeAcrossEbt)
{
    // Direct referee check against the two-phase clocked RtlArray for
    // every unary scheme and EBT point the paper evaluates.
    const PackedCase cases[] = {
        {Scheme::USystolicRate, 8, 6, 4, 4},
        {Scheme::USystolicRate, 8, 7, 4, 4},
        {Scheme::USystolicRate, 8, 8, 4, 4},
        {Scheme::USystolicTemporal, 8, 0, 4, 4},
        {Scheme::UgemmHybrid, 8, 0, 4, 4},
        {Scheme::BinarySerial, 8, 0, 4, 4},
        {Scheme::BinaryParallel, 8, 0, 4, 4},
        {Scheme::TubGemm, 8, 0, 4, 4},
        {Scheme::TuGemm, 4, 0, 4, 4},
    };
    for (const auto &[scheme, bits, et_bits, rows, cols] : cases) {
        ArrayConfig cfg;
        cfg.rows = rows;
        cfg.cols = cols;
        cfg.kernel = {scheme, bits, et_bits};
        Prng prng(u64(int(scheme)) * 31 + u64(et_bits));
        const auto input = randomMatrix(6, rows, bits, prng);
        const auto weights = randomMatrix(rows, cols, bits, prng);
        const auto rtl = RtlArray(cfg).runFold(input, weights);
        const auto packed = PackedArray(cfg).runFold(input, weights);
        EXPECT_EQ(packed.output, rtl.output) << cfg.kernel.name();
        EXPECT_EQ(packed.cycles, rtl.cycles) << cfg.kernel.name();
    }
}

TEST(PackedArray, DegenerateShapes)
{
    for (auto [rows, cols] : {std::pair{1, 5}, std::pair{5, 1},
                              std::pair{1, 1}}) {
        ArrayConfig cfg;
        cfg.rows = rows;
        cfg.cols = cols;
        cfg.kernel = {Scheme::USystolicRate, 8, 6};
        Prng prng(u64(rows) * 100 + u64(cols));
        const auto input = randomMatrix(4, rows, 8, prng);
        const auto weights = randomMatrix(rows, cols, 8, prng);
        const auto ref = SystolicArray(cfg).runFold(input, weights);
        const auto packed = PackedArray(cfg).runFold(input, weights);
        EXPECT_EQ(packed.output, ref.output) << rows << "x" << cols;
        EXPECT_EQ(packed.cycles, ref.cycles) << rows << "x" << cols;
    }
}

TEST(PackedArray, FoldStatsDeltaFlushEqualsInlineCommit)
{
    ArrayConfig cfg;
    cfg.rows = 3;
    cfg.cols = 4;
    cfg.kernel = {Scheme::USystolicRate, 8, 6};
    Prng prng(42);
    const auto input = randomMatrix(5, cfg.rows, 8, prng);
    const auto weights = randomMatrix(cfg.rows, cfg.cols, 8, prng);

    statsRegistry().reset();
    PackedArray(cfg).runFold(input, weights);
    PackedArray(cfg).runFold(input, weights);
    const std::string inline_dump = statsRegistry().dumpText();

    statsRegistry().reset();
    FoldStatsDelta delta;
    PackedArray(cfg).runFold(input, weights, &delta);
    PackedArray(cfg).runFold(input, weights, &delta);
    delta.flush(cfg.kernel);
    const std::string deferred_dump = statsRegistry().dumpText();

    EXPECT_EQ(deferred_dump, inline_dump);
}

class PackedFlagGuard
{
  public:
    PackedFlagGuard() : saved_(packedEngineEnabled()) {}
    ~PackedFlagGuard() { setPackedEngineEnabled(saved_); }

  private:
    bool saved_;
};

/** Saves and restores the packed-engine gate and resets the panel
 * budget override to 0 = probed, the process-start state. */
class PanelFlagsGuard
{
  public:
    PanelFlagsGuard() : packed_(packedEngineEnabled()) {}
    ~PanelFlagsGuard()
    {
        setPackedEngineEnabled(packed_);
        setPanelBudgetKb(0);
    }

  private:
    bool packed_;
};

TEST(SystolicGemm, PackedAndScalarEnginesAgreeIncludingStats)
{
    PackedFlagGuard guard;
    ArrayConfig cfg;
    cfg.rows = 4;
    cfg.cols = 4;
    // Ragged shapes: K and N not multiples of the array dims, so padded
    // edge tiles are exercised in both engines.
    for (const KernelConfig kern :
         {KernelConfig{Scheme::USystolicRate, 8, 6},
          KernelConfig{Scheme::USystolicTemporal, 8, 0},
          KernelConfig{Scheme::UgemmHybrid, 7, 0},
          KernelConfig{Scheme::BinarySerial, 8, 0}}) {
        cfg.kernel = kern;
        Prng prng(u64(int(kern.scheme)) + 1000);
        const auto a = randomMatrix(6, 10, kern.bits, prng);
        const auto b = randomMatrix(10, 9, kern.bits, prng);

        setPackedEngineEnabled(false);
        statsRegistry().reset();
        const auto scalar = SystolicGemm(cfg).run(a, b);
        const std::string scalar_dump = statsRegistry().dumpText();

        setPackedEngineEnabled(true);
        statsRegistry().reset();
        const auto packed = SystolicGemm(cfg).run(a, b);
        const std::string packed_dump = statsRegistry().dumpText();

        EXPECT_EQ(packed.acc, scalar.acc) << kern.name();
        EXPECT_EQ(packed.cycles, scalar.cycles) << kern.name();
        EXPECT_EQ(packed.folds, scalar.folds) << kern.name();
        EXPECT_EQ(packed_dump, scalar_dump) << kern.name();
    }
}

/** One SystolicGemm run: its result and its flushed stats dump. */
struct GemmRun
{
    SystolicGemm::RunResult res;
    FoldStatsDelta delta;
    std::string dump;
};

GemmRun
runGemm(const ArrayConfig &cfg, const Matrix<i32> &a, const Matrix<i32> &b)
{
    GemmRun run;
    run.res = SystolicGemm(cfg).run(a, b, &run.delta);
    statsRegistry().reset();
    run.delta.flush(cfg.kernel);
    run.dump = statsRegistry().dumpText();
    return run;
}

TEST(SystolicGemm, PackedMatchesScalarRandomizedDifferential)
{
    // The packed engine has one fault-free path per scheme (the
    // plan-driven integer GEMM for BP/BS/TUB/TU, the count-table panels
    // for UR/UT/UG) plus one per-MAC fault path. Every path must match
    // the scalar referee on random ragged GEMMs — outputs, cycles, the
    // stats dump, and the fault census — at any thread count, whatever
    // the share of zero operands.
    PanelFlagsGuard guard;
    // 16 KiB on an 8 x 12 array: an 8-bit UR column pins up to eight
    // 516-byte count tables, so each fold splits into several column
    // panels and the arena evicts between folds.
    setPanelBudgetKb(16);
    Executor &ex = Executor::global();
    const unsigned saved_threads = ex.threads();

    const KernelConfig kernels[] = {
        {Scheme::BinaryParallel, 8, 0}, {Scheme::BinarySerial, 8, 0},
        {Scheme::USystolicRate, 8, 0},  {Scheme::USystolicRate, 8, 6},
        {Scheme::USystolicTemporal, 8, 0}, {Scheme::UgemmHybrid, 7, 0},
        {Scheme::TubGemm, 8, 0},        {Scheme::TuGemm, 4, 0},
    };
    // weight_reg + dram_word pre-corrupt the codes, so the fault-free
    // path stays eligible; activation_stream makes the integer-GEMM
    // schemes build their own plan over the staged operands; an
    // accumulator fault forces the per-MAC loop.
    struct FaultCase
    {
        const char *name;
        FaultRates rates;
    };
    FaultCase faults[4] = {{"none", {}},
                           {"weight_reg+dram_word", {}},
                           {"activation_stream", {}},
                           {"accumulator", {}}};
    faults[1].rates.weight_reg = 0.3;
    faults[1].rates.dram_word = 0.2;
    faults[2].rates.activation_stream = 0.3;
    faults[3].rates.accumulator = 0.3;

    ArrayConfig cfg;
    cfg.rows = 8;
    cfg.cols = 12;
    auto check = [&](const KernelConfig &kern, u64 zero_pct,
                     const FaultCase &fc, u64 seed) {
        Prng prng(seed * 7919 + 17);
        // Ragged in every dimension: K and N never fill their last
        // tile, and N always spans >= 2 column shards.
        const int m = 1 + int(prng.below(5));
        const int k = cfg.rows * int(prng.below(3)) + 1 +
                      int(prng.below(u64(cfg.rows - 1)));
        const int n = cfg.cols * (1 + int(prng.below(2))) + 1 +
                      int(prng.below(u64(cfg.cols - 1)));
        SCOPED_TRACE(::testing::Message()
                     << "seed " << seed << " " << kern.name() << " zeros "
                     << zero_pct << "% faults " << fc.name << " M/K/N "
                     << m << "/" << k << "/" << n);
        auto a = randomMatrix(m, k, kern.bits, prng);
        auto b = randomMatrix(k, n, kern.bits, prng);
        for (i32 &v : a.data())
            if (prng.below(100) < zero_pct)
                v = 0;
            else if (v == 0)
                v = 1; // 0% means no zero activation at all
        for (i32 &v : b.data())
            if (prng.below(4) == 0)
                v = 0;
        cfg.kernel = kern;
        cfg.faults = FaultPlan{};
        cfg.faults.seed = seed;
        cfg.faults.rates = fc.rates;

        setPackedEngineEnabled(false);
        const GemmRun scalar = runGemm(cfg, a, b);
        EXPECT_EQ(scalar.delta.faultTotal() > 0, fc.rates.any());

        setPackedEngineEnabled(true);
        for (const unsigned nthreads : {1u, 3u}) {
            ex.setThreads(nthreads);
            const GemmRun packed = runGemm(cfg, a, b);
            EXPECT_EQ(packed.res.acc, scalar.res.acc) << "t" << nthreads;
            EXPECT_EQ(packed.res.cycles, scalar.res.cycles)
                << "t" << nthreads;
            EXPECT_EQ(packed.res.folds, scalar.res.folds) << "t" << nthreads;
            EXPECT_EQ(packed.dump, scalar.dump) << "t" << nthreads;
            EXPECT_EQ(packed.delta.faultTotal(), scalar.delta.faultTotal())
                << "t" << nthreads;
        }
    };
    u64 seed = 0;
    for (const KernelConfig &kern : kernels)
        for (const u64 zero_pct : {0u, 60u, 100u})
            for (const FaultCase &fc : faults)
                for (int trial = 0; trial < 3; ++trial)
                    check(kern, zero_pct, fc, ++seed);
    ex.setThreads(saved_threads);
}

// Large enough that every column of a tile fits one panel.
constexpr u32 kOnePanelBudgetKb = 1u << 20;
// Panel budgets that split an 8 x 12 fold into several column panels:
// 2 KiB holds about one column of 8-bit count tables for every scheme,
// 16 KiB splits UT and UG but can hold a whole UR tile under EBT.
constexpr u32 kSplitBudgetsKb[] = {2, 16};

TEST(SystolicGemm, PanelBlockedMatchesUnblockedAcrossThreads)
{
    // Column-panel blocking is a cache lever only: a GEMM whose folds
    // split into several panels must match the same GEMM with one panel
    // per fold, at any thread count.
    PanelFlagsGuard guard;
    setPackedEngineEnabled(true);
    Executor &ex = Executor::global();
    const unsigned saved_threads = ex.threads();

    ArrayConfig cfg;
    cfg.rows = 8;
    cfg.cols = 12;
    for (const KernelConfig kern :
         {KernelConfig{Scheme::USystolicRate, 8, 6},
          KernelConfig{Scheme::USystolicTemporal, 8, 0},
          KernelConfig{Scheme::UgemmHybrid, 7, 0},
          KernelConfig{Scheme::BinarySerial, 8, 0},
          KernelConfig{Scheme::BinaryParallel, 8, 0}}) {
        cfg.kernel = kern;
        Prng prng(u64(int(kern.scheme)) + 2000);
        const auto a = randomMatrix(6, 20, kern.bits, prng);
        const auto b = randomMatrix(20, 30, kern.bits, prng);

        setPanelBudgetKb(kOnePanelBudgetKb);
        ex.setThreads(1);
        statsRegistry().reset();
        const auto unblocked = SystolicGemm(cfg).run(a, b);
        const std::string unblocked_dump = statsRegistry().dumpText();

        for (const u32 budget_kb : kSplitBudgetsKb) {
            setPanelBudgetKb(budget_kb);
            for (unsigned nthreads : {1u, 3u}) {
                SCOPED_TRACE(::testing::Message()
                             << kern.name() << " " << budget_kb
                             << " KiB t" << nthreads);
                ex.setThreads(nthreads);
                statsRegistry().reset();
                const auto blocked = SystolicGemm(cfg).run(a, b);
                const std::string blocked_dump = statsRegistry().dumpText();
                EXPECT_EQ(blocked.acc, unblocked.acc);
                EXPECT_EQ(blocked.cycles, unblocked.cycles);
                EXPECT_EQ(blocked_dump, unblocked_dump);
            }
        }
    }
    ex.setThreads(saved_threads);
}

/** Expect two folds to agree on outputs, cycles and the fault census. */
void
expectSameFoldAndCensus(const SystolicArray::FoldResult &out,
                        const FoldStatsDelta &delta,
                        const SystolicArray::FoldResult &ref,
                        const FoldStatsDelta &ref_delta)
{
    EXPECT_EQ(out.output, ref.output);
    EXPECT_EQ(out.cycles, ref.cycles);
    EXPECT_EQ(delta.faults_weight_reg, ref_delta.faults_weight_reg);
    EXPECT_EQ(delta.faults_dram, ref_delta.faults_dram);
    EXPECT_EQ(delta.faultTotal(), ref_delta.faultTotal());
}

TEST(PackedArray, SparsePlansPreserveFaultCensus)
{
    // Plan-compacted folds must report the exact fault census and
    // outputs of the scalar fold, which visits every MAC, for the
    // schemes that consume plans and for UG (which must never consume
    // them — its bipolar encoding gives zero-valued operands
    // half-density streams). Both the fold's own plan and a plan built
    // by the caller are checked.
    for (const Scheme scheme :
         {Scheme::USystolicRate, Scheme::UgemmHybrid, Scheme::TubGemm}) {
        SCOPED_TRACE(schemeTag(scheme));
        ArrayConfig cfg;
        cfg.rows = 4;
        cfg.cols = 4;
        cfg.kernel = {scheme, scheme == Scheme::UgemmHybrid ? 7 : 8, 0};
        cfg.faults.seed = 77;
        cfg.faults.rates.weight_reg = 0.3;
        cfg.faults.rates.dram_word = 0.2;
        Prng prng(u64(int(scheme)) + 7000);
        auto input = randomMatrix(6, cfg.rows, cfg.kernel.bits, prng);
        auto weights =
            randomMatrix(cfg.rows, cfg.cols, cfg.kernel.bits, prng);
        for (int r = 0; r < input.rows(); ++r)
            input(r, r % cfg.rows) = 0;

        FoldStatsDelta ref_delta;
        const auto ref =
            SystolicArray(cfg).runFold(input, weights, &ref_delta);
        ASSERT_GT(ref_delta.faultTotal(), 0u);

        FoldStatsDelta own_delta;
        const auto own = PackedArray(cfg).runFold(input, weights, &own_delta);
        expectSameFoldAndCensus(own, own_delta, ref, ref_delta);

        SparsityPlan plan;
        plan.build(input);
        FoldStatsDelta shared_delta;
        const auto shared = PackedArray(cfg).runFold(input, weights,
                                                     &shared_delta, 0, &plan);
        expectSameFoldAndCensus(shared, shared_delta, ref, ref_delta);
    }
}

TEST(PackedArray, PanelAndZeroSkipPreserveFaultCensus)
{
    // Weight-register and DRAM faults pre-corrupt the staged codes, so
    // the panel fast path stays eligible; the census and outputs must
    // match the scalar fold whether the fold splits into several column
    // panels or runs as one, with zero operands skipped.
    PanelFlagsGuard guard;
    ArrayConfig cfg;
    cfg.rows = 8;
    cfg.cols = 12;
    cfg.kernel = {Scheme::USystolicRate, 8, 6};
    cfg.faults.seed = 99;
    cfg.faults.rates.weight_reg = 0.3;
    cfg.faults.rates.dram_word = 0.2;
    Prng prng(4000);
    auto input = randomMatrix(5, cfg.rows, 8, prng);
    auto weights = randomMatrix(cfg.rows, cfg.cols, 8, prng);
    input(0, 1) = 0;
    input(3, 6) = 0;
    weights(1, 2) = 0;
    weights(5, 9) = 0;

    FoldStatsDelta ref_delta;
    const auto ref = SystolicArray(cfg).runFold(input, weights, &ref_delta);
    ASSERT_GT(ref_delta.faultTotal(), 0u);

    for (const u32 budget_kb :
         {kSplitBudgetsKb[0], kSplitBudgetsKb[1], kOnePanelBudgetKb}) {
        SCOPED_TRACE(::testing::Message() << budget_kb << " KiB");
        setPanelBudgetKb(budget_kb);
        FoldStatsDelta delta;
        const auto out = PackedArray(cfg).runFold(input, weights, &delta);
        expectSameFoldAndCensus(out, delta, ref, ref_delta);
    }
}

TEST(SystolicGemm, ParallelRunsAreDeterministic)
{
    PackedFlagGuard guard;
    setPackedEngineEnabled(true);
    ArrayConfig cfg;
    cfg.rows = 4;
    cfg.cols = 4;
    cfg.kernel = {Scheme::USystolicRate, 8, 7};
    Prng prng(7);
    const auto a = randomMatrix(5, 12, 8, prng);
    const auto b = randomMatrix(12, 20, 8, prng); // 5 column tiles

    statsRegistry().reset();
    const auto first = SystolicGemm(cfg).run(a, b);
    const std::string first_dump = statsRegistry().dumpText();

    statsRegistry().reset();
    const auto second = SystolicGemm(cfg).run(a, b);
    const std::string second_dump = statsRegistry().dumpText();

    EXPECT_EQ(first.acc, second.acc);
    EXPECT_EQ(first.cycles, second.cycles);
    EXPECT_EQ(first_dump, second_dump);
}

} // namespace
} // namespace usys
