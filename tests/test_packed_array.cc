/**
 * @file
 * Packed-engine cross-validation: PackedArray, whose unary MACs are
 * lookups into the shared product-model tables, must reproduce
 * SystolicArray and RtlArray bit-for-bit and cycle-for-cycle on every
 * scheme, bitwidth, early-termination point (UR EBT windows far shorter
 * than the period), and array shape, and commit byte-identical
 * stats-registry deltas, so flipping the engine (or running tiles in
 * parallel) can never change a result or a dump.
 */

#include <optional>
#include <tuple>

#include <gtest/gtest.h>

#include "common/cli.h"
#include "common/executor.h"
#include "common/fixed_point.h"
#include "common/prng.h"
#include "common/stats_registry.h"
#include "arch/functional.h"
#include "arch/packed_array.h"
#include "arch/rtl_array.h"

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
        // EBT 6: a 32-cycle window, a quarter of the 128-cycle period.
        PackedCase{Scheme::USystolicRate, 8, 6, 4, 5},
        PackedCase{Scheme::USystolicRate, 8, 7, 2, 7},
        PackedCase{Scheme::USystolicRate, 8, 8, 3, 3},
        PackedCase{Scheme::USystolicRate, 10, 6, 3, 3},
        PackedCase{Scheme::USystolicRate, 10, 8, 3, 3},
        // 4-bit: an 8-cycle period, the smallest tables.
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

/** Expect two GEMM stats deltas to agree field by field. */
void
expectSameDelta(const FoldStatsDelta &got, const FoldStatsDelta &want)
{
    EXPECT_EQ(got.folds, want.folds);
    EXPECT_EQ(got.mac_slots, want.mac_slots);
    EXPECT_EQ(got.fold_cycles, want.fold_cycles);
    EXPECT_EQ(got.bitstream_cycles, want.bitstream_cycles);
    EXPECT_EQ(got.m_rows_samples, want.m_rows_samples);
    EXPECT_EQ(got.faults_weight_reg, want.faults_weight_reg);
    EXPECT_EQ(got.faults_activation, want.faults_activation);
    EXPECT_EQ(got.faults_weight_stream, want.faults_weight_stream);
    EXPECT_EQ(got.faults_accumulator, want.faults_accumulator);
    EXPECT_EQ(got.faults_dram, want.faults_dram);
    EXPECT_EQ(got.sparsity_zero_acts, want.sparsity_zero_acts);
    EXPECT_EQ(got.sparsity_zero_weights, want.sparsity_zero_weights);
    EXPECT_EQ(got.sparsity_skippable_macs, want.sparsity_skippable_macs);
}

TEST(SystolicGemm, PackedMatchesScalarRandomizedDifferential)
{
    // The packed engine runs a GEMM with no per-fold fault site in
    // closed form (one table-row kernel call plus analytic bookkeeping);
    // every other GEMM runs PackedArray folds: the zero-skipping integer
    // GEMM for BP/BS/TUB/TU, the zero-skipping table loop for fault-free
    // UR/UT, and the per-MAC table loop for UG and every per-MAC fault
    // site. Every path must match the scalar referee on random ragged
    // GEMMs — outputs, cycles, the stats dump, and the fault census — at
    // any thread count, whatever the share of zero operands.
    PackedFlagGuard guard;
    Executor &ex = Executor::global();
    const unsigned saved_threads = ex.threads();

    const KernelConfig kernels[] = {
        {Scheme::BinaryParallel, 8, 0}, {Scheme::BinarySerial, 8, 0},
        {Scheme::USystolicRate, 8, 0},  {Scheme::USystolicRate, 8, 6},
        {Scheme::USystolicTemporal, 8, 0}, {Scheme::UgemmHybrid, 7, 0},
        {Scheme::TubGemm, 8, 0},        {Scheme::TuGemm, 4, 0},
    };
    // "none" and dram_word alone take the closed form (DRAM faults
    // corrupt the operands before it). weight_reg + dram_word
    // pre-corrupt the codes, so the folds keep the fault-free path;
    // activation_stream makes the integer-GEMM schemes multiply the
    // faulted codes instead of the input; an accumulator fault forces the
    // per-MAC loop; a weight-stream fault alone takes the per-MAC loop
    // with its zero-ones skip still armed.
    struct FaultCase
    {
        const char *name;
        FaultRates rates;
    };
    FaultCase faults[6] = {{"none", {}},
                           {"weight_reg+dram_word", {}},
                           {"activation_stream", {}},
                           {"accumulator", {}},
                           {"weight_stream", {}},
                           {"dram_word", {}}};
    faults[1].rates.weight_reg = 0.3;
    faults[1].rates.dram_word = 0.2;
    faults[2].rates.activation_stream = 0.3;
    faults[3].rates.accumulator = 0.3;
    faults[4].rates.weight_stream = 0.3;
    // High enough that even the smallest GEMM (>= 14 operand words)
    // draws an event.
    faults[5].rates.dram_word = 0.5;

    ArrayConfig cfg;
    cfg.rows = 8;
    cfg.cols = 12;
    struct Shape
    {
        int m, k, n;
    };
    auto check = [&](const KernelConfig &kern, u64 zero_pct,
                     const FaultCase &fc, u64 seed,
                     std::optional<Shape> fixed = std::nullopt) {
        Prng prng(seed * 7919 + 17);
        // Ragged in every dimension: K and N never fill their last
        // tile, and N always spans >= 2 column shards.
        int m = 1 + int(prng.below(5));
        int k = cfg.rows * int(prng.below(3)) + 1 +
                int(prng.below(u64(cfg.rows - 1)));
        int n = cfg.cols * (1 + int(prng.below(2))) + 1 +
                int(prng.below(u64(cfg.cols - 1)));
        if (fixed)
            std::tie(m, k, n) = std::tuple(fixed->m, fixed->k, fixed->n);
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
        // The weight-stream site exists only behind a C-BSG weight
        // comparator (UR/UT/UG); elsewhere that plan injects nothing.
        const bool sited =
            fc.rates.weight_stream == 0.0 || hasWeightBsg(kern.scheme);
        EXPECT_EQ(scalar.delta.faultTotal() > 0, fc.rates.any() && sited);

        setPackedEngineEnabled(true);
        for (const unsigned nthreads : {1u, 3u}) {
            ex.setThreads(nthreads);
            const GemmRun packed = runGemm(cfg, a, b);
            EXPECT_EQ(packed.res.acc, scalar.res.acc) << "t" << nthreads;
            EXPECT_EQ(packed.res.cycles, scalar.res.cycles)
                << "t" << nthreads;
            EXPECT_EQ(packed.res.folds, scalar.res.folds) << "t" << nthreads;
            EXPECT_EQ(packed.dump, scalar.dump) << "t" << nthreads;
            expectSameDelta(packed.delta, scalar.delta);
        }
    };
    u64 seed = 0;
    for (const KernelConfig &kern : kernels)
        for (const u64 zero_pct : {0u, 60u, 100u})
            for (const FaultCase &fc : faults)
                for (int trial = 0; trial < 3; ++trial)
                    check(kern, zero_pct, fc, ++seed);

    // A 16-bit UR or UG product table would be gigabytes, so the
    // table-size gate must send these kernels to the scalar engine
    // (PackedArray refuses them): one tiny ragged GEMM that finishes
    // inside the test timeout and matches is the check, fault-free (the
    // closed-form gate) and under weight_reg + dram_word (the fold path).
    for (const KernelConfig kern : {KernelConfig{Scheme::USystolicRate, 16, 0},
                                    KernelConfig{Scheme::UgemmHybrid, 16, 0}}) {
        EXPECT_FALSE(hasSmallProductTables(kern));
        check(kern, 60, faults[0], ++seed, Shape{1, 3, 2});
        check(kern, 60, faults[1], ++seed, Shape{1, 3, 2});
    }
    ex.setThreads(saved_threads);
}

TEST(SystolicGemm, ClosedFormMatchesScalarOnPaperKernels)
{
    // The closed form books cycles, folds, per-fold stats and the
    // sparsity census analytically. On the eight paper kernels (BP, BS,
    // UR at 6/7/8 effective bits, UG, TUB, TU at 8 bits) plus UT, with
    // and without DRAM faults, every booked field must equal the scalar
    // engine's fold-by-fold count — padding zeros included, so K and N
    // are ragged and a quarter of the activations are zero.
    PackedFlagGuard guard;
    Executor &ex = Executor::global();
    const unsigned saved_threads = ex.threads();

    ArrayConfig cfg;
    cfg.rows = 4;
    cfg.cols = 5;
    u64 seed = 0;
    for (const KernelConfig kern :
         {KernelConfig{Scheme::BinaryParallel, 8, 0},
          KernelConfig{Scheme::BinarySerial, 8, 0},
          KernelConfig{Scheme::USystolicRate, 8, 6},
          KernelConfig{Scheme::USystolicRate, 8, 7},
          KernelConfig{Scheme::USystolicRate, 8, 8},
          KernelConfig{Scheme::UgemmHybrid, 8, 0},
          KernelConfig{Scheme::TubGemm, 8, 0},
          KernelConfig{Scheme::TuGemm, 8, 0},
          KernelConfig{Scheme::USystolicTemporal, 8, 0}}) {
        ASSERT_TRUE(hasSmallProductTables(kern));
        for (const double dram : {0.0, 0.3}) {
            SCOPED_TRACE(::testing::Message()
                         << kern.name() << " dram_word " << dram);
            cfg.kernel = kern;
            cfg.faults = FaultPlan{};
            cfg.faults.seed = ++seed;
            cfg.faults.rates.dram_word = dram;
            Prng prng(seed + 9000);
            auto a = randomMatrix(3, 10, kern.bits, prng);
            const auto b = randomMatrix(10, 7, kern.bits, prng);
            for (i32 &v : a.data())
                if (prng.below(4) == 0)
                    v = 0;

            setPackedEngineEnabled(false);
            const GemmRun scalar = runGemm(cfg, a, b);
            EXPECT_EQ(scalar.delta.faults_dram > 0, dram > 0.0);
            setPackedEngineEnabled(true);
            for (const unsigned nthreads : {1u, 3u}) {
                SCOPED_TRACE(::testing::Message() << "t" << nthreads);
                ex.setThreads(nthreads);
                const GemmRun packed = runGemm(cfg, a, b);
                EXPECT_EQ(packed.res.acc, scalar.res.acc);
                EXPECT_EQ(packed.res.cycles, scalar.res.cycles);
                EXPECT_EQ(packed.res.folds, scalar.res.folds);
                expectSameDelta(packed.delta, scalar.delta);
                EXPECT_EQ(packed.dump, scalar.dump);
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
    // Folds over sparse inputs skip zero operands (UR and TUB), so they
    // must still report the exact fault census and outputs of the
    // scalar fold, which visits every MAC. UG must never skip: its
    // bipolar encoding gives zero-valued operands half-density streams.
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

        FoldStatsDelta delta;
        const auto out = PackedArray(cfg).runFold(input, weights, &delta);
        expectSameFoldAndCensus(out, delta, ref, ref_delta);
    }
}

TEST(PackedArray, PanelAndZeroSkipPreserveFaultCensus)
{
    // Weight-register and DRAM faults pre-corrupt the staged codes, so
    // fault-free UR/UT keep the zero-skipping table loop and TUB its
    // integer GEMM; activation-stream faults stage faulted codes (TUB
    // still takes the integer GEMM); weight-stream and accumulator
    // faults take the per-MAC loop. UG never skips a zero operand: its
    // bipolar encoding gives zero-valued operands half-density streams.
    // Whatever the path, the census and outputs must match the scalar
    // fold, which visits every MAC.
    ArrayConfig cfg;
    cfg.rows = 8;
    cfg.cols = 12;
    struct FaultCase
    {
        const char *name;
        FaultRates rates;
    };
    FaultCase plans[4] = {{"weight_reg+dram_word", {}},
                          {"activation_stream", {}},
                          {"weight_stream", {}},
                          {"accumulator", {}}};
    plans[0].rates.weight_reg = 0.3;
    plans[0].rates.dram_word = 0.2;
    plans[1].rates.activation_stream = 0.3;
    plans[2].rates.weight_stream = 0.3;
    plans[3].rates.accumulator = 0.3;

    for (const KernelConfig kern :
         {KernelConfig{Scheme::USystolicRate, 8, 6},
          KernelConfig{Scheme::USystolicRate, 8, 0},
          KernelConfig{Scheme::USystolicTemporal, 8, 0},
          KernelConfig{Scheme::UgemmHybrid, 7, 0},
          KernelConfig{Scheme::TubGemm, 8, 0}}) {
        cfg.kernel = kern;
        Prng prng(4000);
        auto input = randomMatrix(5, cfg.rows, kern.bits, prng);
        auto weights = randomMatrix(cfg.rows, cfg.cols, kern.bits, prng);
        input(0, 1) = 0;
        input(3, 6) = 0;
        weights(1, 2) = 0;
        weights(5, 9) = 0;

        for (const FaultCase &fc : plans) {
            SCOPED_TRACE(::testing::Message()
                         << kern.name() << " faults " << fc.name);
            cfg.faults = FaultPlan{};
            cfg.faults.seed = 99;
            cfg.faults.rates = fc.rates;
            FoldStatsDelta ref_delta;
            const auto ref =
                SystolicArray(cfg).runFold(input, weights, &ref_delta);
            // TUB has no C-BSG weight comparator, so no weight-stream
            // site: that plan injects nothing there.
            const bool sited = fc.rates.weight_stream == 0.0 ||
                               hasWeightBsg(kern.scheme);
            ASSERT_EQ(ref_delta.faultTotal() > 0, sited);

            FoldStatsDelta delta;
            const auto out = PackedArray(cfg).runFold(input, weights, &delta);
            expectSameFoldAndCensus(out, delta, ref, ref_delta);
        }
    }
}

TEST(PackedArray, RefusesKernelsWithoutSmallProductTables)
{
    // UR/UT above 12 bits and UG above 11 have no small product table:
    // PackedArray refuses them, and SystolicGemm runs them on the scalar
    // engine instead. The widest admitted kernels still construct.
    testing::FLAGS_gtest_death_test_style = "threadsafe";
    ArrayConfig cfg;
    cfg.rows = 2;
    cfg.cols = 2;
    cfg.kernel = {Scheme::USystolicRate, 13, 0};
    EXPECT_EXIT(PackedArray{cfg}, ::testing::ExitedWithCode(1),
                "no small product table");
    cfg.kernel = {Scheme::UgemmHybrid, 12, 0};
    EXPECT_EXIT(PackedArray{cfg}, ::testing::ExitedWithCode(1),
                "no small product table");
    for (const KernelConfig kern : {KernelConfig{Scheme::USystolicRate, 12, 0},
                                    KernelConfig{Scheme::UgemmHybrid, 11, 0}}) {
        cfg.kernel = kern;
        EXPECT_EQ(PackedArray(cfg).config().kernel.bits, kern.bits);
    }
}

TEST(PackedArray, CodesOutsideTheTableAreFatal)
{
    // The tables cover |code| <= 2^(bits-1); one past either edge, on
    // either operand, would read past them.
    testing::FLAGS_gtest_death_test_style = "threadsafe";
    ArrayConfig cfg;
    cfg.rows = 2;
    cfg.cols = 2;
    const Matrix<i32> ok(2, 2, 1);
    for (const Scheme scheme :
         {Scheme::USystolicRate, Scheme::USystolicTemporal,
          Scheme::UgemmHybrid}) {
        cfg.kernel = {scheme, 8, 0};
        const PackedArray array(cfg);
        Matrix<i32> high(2, 2, 1), low(2, 2, 1);
        high(1, 0) = 129;
        low(0, 1) = -129;
        EXPECT_EXIT(array.runFold(high, ok), ::testing::ExitedWithCode(1),
                    "code 129 outside the 8-bit product table");
        EXPECT_EXIT(array.runFold(ok, low), ::testing::ExitedWithCode(1),
                    "code -129 outside");
        // The table edge itself is in range and matches the referee.
        Matrix<i32> edge(2, 2, 128);
        edge(0, 0) = -128;
        EXPECT_EQ(array.runFold(edge, edge).output,
                  SystolicArray(cfg).runFold(edge, edge).output)
            << cfg.kernel.name();
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
