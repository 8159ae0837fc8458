/**
 * @file
 * Tests for the PE models, the cycle-level systolic array, and the fast
 * functional GEMM engines. The load-bearing invariant: for every scheme,
 * bitwidth, and early-termination point, the cycle-level array produces
 * exactly the same accumulations as the table-driven functional
 * executor, which in turn matches the per-MAC referee (singleProduct),
 * and exact results for the binary schemes.
 */

#include <algorithm>
#include <limits>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/cli.h"
#include "common/executor.h"
#include "common/matrix.h"
#include "common/prng.h"
#include "common/simd.h"
#include "common/stats.h"
#include "common/stats_registry.h"
#include "arch/array.h"
#include "arch/functional.h"
#include "arch/pe.h"
#include "gemm_shrink.h"

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

TEST(KernelConfig, MacCycles)
{
    KernelConfig bp{Scheme::BinaryParallel, 8, 0};
    EXPECT_EQ(bp.macCycles(), 1u);

    KernelConfig bs{Scheme::BinarySerial, 8, 0};
    EXPECT_EQ(bs.macCycles(), 9u);

    KernelConfig ur{Scheme::USystolicRate, 8, 0};
    EXPECT_EQ(ur.mulCycles(), 128u);
    EXPECT_EQ(ur.macCycles(), 129u);

    KernelConfig ur6{Scheme::USystolicRate, 8, 6};
    EXPECT_EQ(ur6.mulCycles(), 32u);
    EXPECT_EQ(ur6.macCycles(), 33u);

    KernelConfig ut{Scheme::USystolicTemporal, 8, 0};
    EXPECT_EQ(ut.macCycles(), 129u);

    KernelConfig ug{Scheme::UgemmHybrid, 8, 0};
    EXPECT_EQ(ug.mulCycles(), 256u);
    EXPECT_EQ(ug.macCycles(), 257u);
}

TEST(KernelConfig, Names)
{
    KernelConfig ur6{Scheme::USystolicRate, 8, 6};
    EXPECT_EQ(ur6.name(), "UR-8b(ebt6)");
    KernelConfig bp{Scheme::BinaryParallel, 16, 0};
    EXPECT_EQ(bp.name(), "BP-16b");
}

/** Single PE (front end + core) must reproduce the product tables. */
TEST(Pe, SingleMacMatchesProductTable)
{
    KernelConfig cfg{Scheme::USystolicRate, 8, 0};
    GemmExecutor exec(cfg);
    RowFrontEnd fe(cfg);
    PeCore core(cfg);

    Prng prng(7);
    for (int trial = 0; trial < 200; ++trial) {
        const i32 a = i32(prng.below(255)) - 127;
        const i32 b = i32(prng.below(255)) - 127;
        fe.loadInput(a);
        core.loadWeight(b);
        for (u32 p = 0; p < cfg.mulCycles(); ++p)
            core.stepMul(fe.step(p), p);
        fe.endMac();
        EXPECT_EQ(core.finishMac(0, a < 0), exec.singleProduct(a, b))
            << "a " << a << " b " << b;
    }
}

TEST(Pe, BinarySerialExact)
{
    KernelConfig cfg{Scheme::BinarySerial, 8, 0};
    RowFrontEnd fe(cfg);
    PeCore core(cfg);
    Prng prng(11);
    for (int trial = 0; trial < 200; ++trial) {
        const i32 a = i32(prng.below(255)) - 127;
        const i32 b = i32(prng.below(255)) - 127;
        fe.loadInput(a);
        core.loadWeight(b);
        for (u32 p = 0; p < cfg.mulCycles(); ++p)
            core.stepMul(fe.step(p), p);
        fe.endMac();
        EXPECT_EQ(core.finishMac(0, a < 0), i64(a) * b);
    }
}

TEST(Array, FoldLatencyBinaryParallelMatchesScaleSim)
{
    // SCALE-Sim weight-stationary fold latency: 2R + C + M - 2.
    ArrayConfig cfg;
    cfg.rows = 12;
    cfg.cols = 14;
    cfg.kernel = {Scheme::BinaryParallel, 8, 0};
    SystolicArray array(cfg);
    EXPECT_EQ(array.foldLatency(20), u64(2 * 12 + 14 + 20 - 2));
}

TEST(Array, FoldLatencyScalesWithMacCycles)
{
    ArrayConfig cfg;
    cfg.rows = 4;
    cfg.cols = 4;
    cfg.kernel = {Scheme::USystolicRate, 8, 6}; // 33-cycle MAC
    SystolicArray array(cfg);
    EXPECT_EQ(array.foldLatency(10), u64(4 + (10 + 3) * 33 + 3));
}

using SchemeCase = std::tuple<Scheme, int, int>; // scheme, bits, et_bits

class ArrayVsFunctional : public ::testing::TestWithParam<SchemeCase>
{};

/**
 * Property: the cycle-level array and the functional executor agree
 * exactly, fold latency matches the closed form, and binary schemes are
 * exact against the reference GEMM.
 */
TEST_P(ArrayVsFunctional, ExactAgreement)
{
    const auto [scheme, bits, et_bits] = GetParam();
    ArrayConfig cfg;
    cfg.rows = 4;
    cfg.cols = 5;
    cfg.kernel = {scheme, bits, et_bits};

    Prng prng(u64(int(scheme)) * 1000 + u64(bits) * 10 + u64(et_bits));
    const int m_rows = 6;
    auto input = randomMatrix(m_rows, cfg.rows, bits, prng);
    auto weights = randomMatrix(cfg.rows, cfg.cols, bits, prng);

    SystolicArray array(cfg);
    auto fold = array.runFold(input, weights);
    EXPECT_EQ(fold.cycles, array.foldLatency(m_rows));

    GemmExecutor exec(cfg.kernel);
    auto expected = exec.run(input, weights);
    EXPECT_EQ(fold.output, expected) << cfg.kernel.name();

    if (scheme == Scheme::BinaryParallel ||
        scheme == Scheme::BinarySerial) {
        EXPECT_EQ(fold.output, referenceGemm(input, weights));
    }
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, ArrayVsFunctional,
    ::testing::Values(
        SchemeCase{Scheme::BinaryParallel, 8, 0},
        SchemeCase{Scheme::BinaryParallel, 16, 0},
        SchemeCase{Scheme::BinarySerial, 8, 0},
        SchemeCase{Scheme::BinarySerial, 16, 0},
        SchemeCase{Scheme::USystolicRate, 8, 0},
        SchemeCase{Scheme::USystolicRate, 8, 6},
        SchemeCase{Scheme::USystolicRate, 8, 7},
        SchemeCase{Scheme::USystolicRate, 10, 8},
        SchemeCase{Scheme::USystolicTemporal, 8, 0},
        SchemeCase{Scheme::USystolicTemporal, 6, 0},
        SchemeCase{Scheme::UgemmHybrid, 8, 0},
        SchemeCase{Scheme::UgemmHybrid, 6, 0}));

/** Randomized shape sweep: decomposed array == functional everywhere. */
class RandomShapes : public ::testing::TestWithParam<int>
{};

TEST_P(RandomShapes, ArrayMatchesFunctional)
{
    Prng prng(u64(GetParam()) * 101 + 13);
    ArrayConfig cfg;
    cfg.rows = 1 + int(prng.below(7));
    cfg.cols = 1 + int(prng.below(7));
    const Scheme schemes[] = {Scheme::BinaryParallel,
                              Scheme::BinarySerial,
                              Scheme::USystolicRate,
                              Scheme::USystolicTemporal,
                              Scheme::UgemmHybrid};
    const Scheme scheme = schemes[prng.below(5)];
    const int bits = 6 + int(prng.below(3));
    int et = 0;
    if (scheme == Scheme::USystolicRate && prng.below(2))
        et = 4 + int(prng.below(u64(bits - 4) + 1));
    cfg.kernel = {scheme, bits, et};

    const int m_rows = 1 + int(prng.below(6));
    auto input = randomMatrix(m_rows, cfg.rows, bits, prng);
    auto weights = randomMatrix(cfg.rows, cfg.cols, bits, prng);
    const auto fold = SystolicArray(cfg).runFold(input, weights);
    const auto expected = GemmExecutor(cfg.kernel).run(input, weights);
    EXPECT_EQ(fold.output, expected) << cfg.kernel.name() << " "
                                     << cfg.rows << "x" << cfg.cols;
    EXPECT_EQ(fold.cycles, SystolicArray(cfg).foldLatency(m_rows));
}

INSTANTIATE_TEST_SUITE_P(Sweep, RandomShapes, ::testing::Range(0, 20));

/** Restores the packed-engine switch on scope exit. */
class EngineGuard
{
  public:
    EngineGuard() : saved_(packedEngineEnabled()) {}
    ~EngineGuard() { setPackedEngineEnabled(saved_); }

  private:
    bool saved_;
};

/** The setSimdMode names of every SIMD tier this host runs. */
std::vector<std::string>
simdTiers()
{
    std::vector<std::string> tiers = {"generic"};
    if (avx2Kernels())
        tiers.push_back("avx2");
    if (avx512Kernels())
        tiers.push_back("avx512");
    if (neonKernels())
        tiers.push_back("neon");
    return tiers;
}

TEST(SystolicGemm, TiledBinaryExactAcrossRaggedShapes)
{
    ArrayConfig cfg;
    cfg.rows = 4;
    cfg.cols = 4;
    cfg.kernel = {Scheme::BinaryParallel, 8, 0};
    SystolicGemm gemm(cfg);
    Prng prng(3);
    // Deliberately ragged K and N to exercise zero padding.
    auto a = randomMatrix(5, 10, 8, prng);
    auto b = randomMatrix(10, 7, 8, prng);
    auto result = gemm.run(a, b);
    EXPECT_EQ(result.acc, referenceGemm(a, b));
    EXPECT_EQ(result.folds, u64(3 * 2)); // ceil(10/4) * ceil(7/4)
    EXPECT_GT(result.cycles, 0u);
}

TEST(SystolicGemm, TiledUnaryMatchesFunctionalTiled)
{
    ArrayConfig cfg;
    cfg.rows = 4;
    cfg.cols = 4;
    cfg.kernel = {Scheme::USystolicRate, 8, 0};
    SystolicGemm gemm(cfg);
    Prng prng(5);
    auto a = randomMatrix(3, 9, 8, prng);
    auto b = randomMatrix(9, 6, 8, prng);

    // The packed engine computes a fault-free GEMM with GemmExecutor
    // itself, so the tiled array under test is the scalar engine
    // (--no-packed), which simulates every padded fold.
    EngineGuard guard;
    setPackedEngineEnabled(false);
    const auto tiled = gemm.run(a, b);
    setPackedEngineEnabled(true);
    const auto closed = gemm.run(a, b);

    // Functional equivalent with identical zero padding: padding with
    // zero codes adds exactly zero in the unipolar scheme.
    GemmExecutor exec(cfg.kernel);
    EXPECT_EQ(tiled.acc, exec.run(a, b));
    EXPECT_EQ(closed.acc, tiled.acc);
    EXPECT_EQ(closed.cycles, tiled.cycles);
    EXPECT_EQ(closed.folds, tiled.folds);
}

TEST(SystolicGemm, ExactClosedFormMatchesScalarEngineRandomized)
{
    // A fault-free BP/BS/TUB/TU GEMM is one referenceGemm call on the
    // 16-bit pair kernel; the scalar engine (--no-packed) simulates every
    // padded fold PE by PE, so it referees the kernel independently. M = 1
    // takes the kernel's raw-b path and M >= 16 the packed panel; K and N
    // are never multiples of the array.
    EngineGuard guard;
    const Scheme schemes[] = {Scheme::BinaryParallel, Scheme::BinarySerial,
                              Scheme::TubGemm, Scheme::TuGemm};
    Prng prng(29);
    for (int trial = 0; trial < 16; ++trial) {
        ArrayConfig cfg;
        cfg.rows = 3 + int(prng.below(4));
        cfg.cols = 3 + int(prng.below(4));
        cfg.kernel = {schemes[trial % 4], 4 + 2 * int(prng.below(3)), 0};
        const int m = trial % 2 == 0 ? 1 : 16 + int(prng.below(8));
        const int k = cfg.rows * (1 + int(prng.below(4))) + 1 +
                      int(prng.below(u64(cfg.rows - 1)));
        const int n = cfg.cols * (1 + int(prng.below(3))) + 1 +
                      int(prng.below(u64(cfg.cols - 1)));
        auto a = randomMatrix(m, k, cfg.kernel.bits, prng);
        const auto b = randomMatrix(k, n, cfg.kernel.bits, prng);
        for (i32 &v : a.data())
            if (prng.below(3) == 0)
                v = 0;
        SCOPED_TRACE(::testing::Message()
                     << cfg.kernel.name() << " " << cfg.rows << "x"
                     << cfg.cols << " M/K/N " << m << "/" << k << "/" << n);

        setPackedEngineEnabled(false);
        const auto scalar = SystolicGemm(cfg).run(a, b);
        setPackedEngineEnabled(true);
        const auto closed = SystolicGemm(cfg).run(a, b);
        EXPECT_EQ(closed.acc, scalar.acc);
        EXPECT_EQ(closed.cycles, scalar.cycles);
        EXPECT_EQ(closed.folds, scalar.folds);
    }
}

/**
 * The closed form's sparsity census against the per-fold one: the
 * scalar engine (--no-packed) counts every staged tile's zeros, the
 * closed form takes the operands' zeros from its kernel call (B's from
 * a single-row pass over B where the call makes one) and adds the
 * padding. B's zeros sit in its last columns (a masked tail
 * vector of every SIMD tier at N = 17 and 33) and in its last K rows
 * (the panel's odd tail pair at odd K, and padded array rows after
 * them), and A's in its last columns. Every engine path books them:
 * the row tiles (M < 16) and the panel (M >= 16) of the exact schemes,
 * and the table kernel's fused gather (M = 1) and walk (M = 20).
 */
TEST(SystolicGemm, ClosedFormCensusMatchesTheFolds)
{
    EngineGuard guard;
    const std::string before = simdLevelName(simdLevel());
    ArrayConfig cfg;
    cfg.rows = 4;
    cfg.cols = 4;
    const Scheme schemes[] = {Scheme::BinaryParallel,    Scheme::BinarySerial,
                              Scheme::USystolicRate,     Scheme::USystolicTemporal,
                              Scheme::UgemmHybrid,       Scheme::TubGemm,
                              Scheme::TuGemm};
    Prng prng(31);
    for (const std::string &tier : simdTiers()) {
        setSimdMode(tier);
        for (const Scheme scheme : schemes)
            for (const int m : {1, 3, 20})
                for (const int k : {7, 9})
                    for (const int n : {17, 33}) {
                        cfg.kernel = {scheme, 4, 0};
                        auto a = randomMatrix(m, k, 4, prng);
                        auto b = randomMatrix(k, n, 4, prng);
                        for (i32 &v : a.data())
                            v = v == 0 ? 1 : v;
                        for (i32 &v : b.data())
                            v = v == 0 ? 1 : v;
                        for (int r = 0; r < m; ++r)
                            a(r, k - 1) = 0;
                        for (int r = 0; r < k; ++r)
                            b(r, n - 1) = 0;
                        for (int c = 0; c < n; c += 3)
                            b(k - 1, c) = 0;
                        SCOPED_TRACE(::testing::Message()
                                     << tier << " " << cfg.kernel.name()
                                     << " M/K/N " << m << "/" << k << "/"
                                     << n);
                        setPackedEngineEnabled(false);
                        statsRegistry().reset();
                        SystolicGemm(cfg).run(a, b);
                        const std::string folds = statsRegistry().dumpText();
                        setPackedEngineEnabled(true);
                        statsRegistry().reset();
                        SystolicGemm(cfg).run(a, b);
                        EXPECT_EQ(statsRegistry().dumpText(), folds);
                        EXPECT_NE(folds.find("sparsity_zero_weights"),
                                  std::string::npos);
                    }
    }
    setSimdMode(before);
}

TEST(SystolicGemm, EmptyGemmsAgreeAcrossEngines)
{
    // M, K or N = 0 is a well-defined GEMM on every path: an M x N zero
    // result, K-tiles x N-tiles folds, and the same stats dump. UR-8
    // runs in closed form; UR-16 (tables too large) and a weight_reg
    // plan (a per-fold site) take the packed fold path.
    EngineGuard guard;
    ArrayConfig cfg;
    cfg.rows = 4;
    cfg.cols = 4;
    struct Case
    {
        KernelConfig kern;
        FaultRates rates;
    };
    FaultRates dram, weight_reg;
    dram.dram_word = 0.5;
    weight_reg.weight_reg = 0.5;
    const Case cases[] = {{{Scheme::USystolicRate, 8, 0}, {}},
                          {{Scheme::USystolicRate, 8, 0}, dram},
                          {{Scheme::USystolicRate, 8, 0}, weight_reg},
                          {{Scheme::USystolicRate, 16, 0}, {}},
                          {{Scheme::BinaryParallel, 8, 0}, dram}};
    const int shapes[][3] = {{0, 8, 5}, {2, 0, 5}, {2, 8, 0}, {0, 0, 0}};
    Prng prng(11);
    for (const Case &c : cases) {
        for (const auto &shape : shapes) {
            const auto [m, k, n] = std::tuple(shape[0], shape[1], shape[2]);
            SCOPED_TRACE(::testing::Message()
                         << c.kern.name() << " dram " << c.rates.dram_word
                         << " M/K/N " << m << "/" << k << "/" << n);
            cfg.kernel = c.kern;
            cfg.faults = FaultPlan{};
            cfg.faults.seed = 5;
            cfg.faults.rates = c.rates;
            const auto a = randomMatrix(m, k, c.kern.bits, prng);
            const auto b = randomMatrix(k, n, c.kern.bits, prng);

            setPackedEngineEnabled(false);
            statsRegistry().reset();
            const auto scalar = SystolicGemm(cfg).run(a, b);
            const std::string scalar_dump = statsRegistry().dumpText();
            setPackedEngineEnabled(true);
            statsRegistry().reset();
            const auto packed = SystolicGemm(cfg).run(a, b);
            const std::string packed_dump = statsRegistry().dumpText();

            EXPECT_EQ(packed.acc.rows(), m);
            EXPECT_EQ(packed.acc.cols(), n);
            EXPECT_EQ(packed.acc, scalar.acc);
            EXPECT_EQ(packed.cycles, scalar.cycles);
            EXPECT_EQ(packed.folds, scalar.folds);
            EXPECT_EQ(packed.folds, u64((k + 3) / 4) * u64((n + 3) / 4));
            EXPECT_EQ(packed_dump, scalar_dump);
        }
    }
}

TEST(Functional, SmallProductTablesGate)
{
    // The footprint gate of the closed-form GEMM: exact schemes build no
    // table; UR/UT fit through 12 bits and UG through 11 (about 16 MiB
    // each); one more bit quadruples past the limit.
    for (const Scheme s : {Scheme::BinaryParallel, Scheme::BinarySerial,
                           Scheme::TubGemm, Scheme::TuGemm})
        EXPECT_TRUE(hasSmallProductTables({s, 16, 0}));
    EXPECT_TRUE(hasSmallProductTables({Scheme::USystolicRate, 12, 6}));
    EXPECT_TRUE(hasSmallProductTables({Scheme::USystolicTemporal, 12, 0}));
    EXPECT_FALSE(hasSmallProductTables({Scheme::USystolicRate, 13, 0}));
    EXPECT_FALSE(hasSmallProductTables({Scheme::USystolicRate, 16, 8}));
    EXPECT_TRUE(hasSmallProductTables({Scheme::UgemmHybrid, 11, 0}));
    EXPECT_FALSE(hasSmallProductTables({Scheme::UgemmHybrid, 12, 0}));
    EXPECT_FALSE(hasSmallProductTables({Scheme::UgemmHybrid, 31, 0}));
}

TEST(Functional, UnaryAccuracyImprovesWithBits)
{
    Prng prng(17);
    double prev_rmse = 1e18;
    for (int bits : {6, 8, 10}) {
        KernelConfig cfg{Scheme::USystolicRate, bits, 0};
        GemmExecutor exec(cfg);
        auto a = randomMatrix(8, 16, bits, prng);
        auto b = randomMatrix(16, 8, bits, prng);
        auto acc = exec.run(a, b);
        auto exact = referenceGemm(a, b);
        RmseTracker rmse;
        for (int m = 0; m < 8; ++m) {
            for (int n = 0; n < 8; ++n) {
                rmse.add(double(exact(m, n)),
                         double(acc(m, n)) * exec.resultScale());
            }
        }
        EXPECT_LT(rmse.normalizedRmse(), prev_rmse) << "bits " << bits;
        prev_rmse = rmse.normalizedRmse();
    }
}

TEST(Functional, EarlyTerminationDegradesGracefullyForRate)
{
    Prng prng(23);
    const int bits = 8;
    auto a = randomMatrix(8, 16, bits, prng);
    auto b = randomMatrix(16, 8, bits, prng);
    auto exact = referenceGemm(a, b);

    double prev = 1e18;
    for (int ebt : {8, 7, 6, 5}) {
        KernelConfig cfg{Scheme::USystolicRate, bits, ebt};
        GemmExecutor exec(cfg);
        auto acc = exec.run(a, b);
        RmseTracker rmse;
        for (int m = 0; m < 8; ++m)
            for (int n = 0; n < 8; ++n)
                rmse.add(double(exact(m, n)),
                         double(acc(m, n)) * exec.resultScale());
        // Error grows as EBT shrinks but stays bounded (graceful).
        if (ebt < 8) {
            EXPECT_GE(prev * 1.5 + 0.01, 0.0);
        }
        EXPECT_LT(rmse.normalizedRmse(), 0.2) << "ebt " << ebt;
        prev = rmse.normalizedRmse();
    }
}

TEST(Functional, ResultScale)
{
    EXPECT_EQ(GemmExecutor({Scheme::BinaryParallel, 8, 0}).resultScale(),
              1.0);
    EXPECT_EQ(GemmExecutor({Scheme::USystolicRate, 8, 0}).resultScale(),
              128.0);
    EXPECT_EQ(GemmExecutor({Scheme::UgemmHybrid, 8, 0}).resultScale(),
              128.0);
}

// --- EBT boundaries ---------------------------------------------------

TEST(Ebt, DegenerateAndFullPointsValidate)
{
    // EBT=1 would leave a single unary cycle and no shift-back headroom;
    // the config layer rejects it (0 or [2, bits] only).
    KernelConfig ebt1{Scheme::USystolicRate, 8, 1};
    EXPECT_EXIT(ebt1.check(), ::testing::ExitedWithCode(1), "et_bits");
    KernelConfig ebt_over{Scheme::USystolicRate, 8, 9};
    EXPECT_EXIT(ebt_over.check(), ::testing::ExitedWithCode(1),
                "et_bits");
    KernelConfig ebt_bs{Scheme::BinarySerial, 8, 4};
    EXPECT_EXIT(ebt_bs.check(), ::testing::ExitedWithCode(1),
                "rate coding");

    // EBT=2 is the shortest legal window (2 unary cycles).
    KernelConfig ebt2{Scheme::USystolicRate, 8, 2};
    ebt2.check();
    EXPECT_EQ(ebt2.mulCycles(), 2u);
}

TEST(Ebt, FullWidthPointEqualsNoTermination)
{
    // EBT=N runs the full 2^(N-1) period: bit-exact against EBT=0 on
    // every output, and the same fold latency.
    const int bits = 6;
    ArrayConfig full, ebt;
    full.rows = ebt.rows = 4;
    full.cols = ebt.cols = 4;
    full.kernel = {Scheme::USystolicRate, bits, 0};
    ebt.kernel = {Scheme::USystolicRate, bits, bits};
    EXPECT_EQ(ebt.kernel.mulCycles(), full.kernel.mulCycles());

    Prng prng(0xEB7ull);
    const auto input = randomMatrix(5, 4, bits, prng);
    const auto weights = randomMatrix(4, 4, bits, prng);
    const auto a = SystolicArray(full).runFold(input, weights);
    const auto b = SystolicArray(ebt).runFold(input, weights);
    EXPECT_EQ(a.output, b.output);
    EXPECT_EQ(a.cycles, b.cycles);
}

TEST(Ebt, ZeroMagnitudeOperandsSurviveEveryScheme)
{
    // All-zero tiles exercise the zero-magnitude BSG paths (no 1-bits
    // ever emitted, bipolar bias-only lanes) at full and minimum EBT.
    const int bits = 6;
    const std::tuple<Scheme, int> cases[] = {
        {Scheme::BinaryParallel, 0}, {Scheme::BinarySerial, 0},
        {Scheme::USystolicRate, 0},  {Scheme::USystolicRate, 2},
        {Scheme::USystolicTemporal, 0}, {Scheme::UgemmHybrid, 0}};
    for (const auto &[scheme, et] : cases) {
        ArrayConfig cfg;
        cfg.rows = 3;
        cfg.cols = 3;
        cfg.kernel = {scheme, bits, et};
        Matrix<i32> zeros_in(4, 3), zeros_w(3, 3);
        Prng prng(u64(int(scheme)) + 1);
        const auto rand_w = randomMatrix(3, 3, bits, prng);

        const auto zz = SystolicArray(cfg).runFold(zeros_in, zeros_w);
        const auto zw = SystolicArray(cfg).runFold(zeros_in, rand_w);
        const auto fz = GemmExecutor(cfg.kernel).run(zeros_in, zeros_w);
        const auto fw = GemmExecutor(cfg.kernel).run(zeros_in, rand_w);
        EXPECT_EQ(zz.output, fz) << cfg.kernel.name();
        EXPECT_EQ(zw.output, fw) << cfg.kernel.name();
        // Zero x zero must accumulate to exactly zero for the exact
        // schemes (unary bipolar has a bias term, so only check BP/BS).
        if (!isUnary(scheme)) {
            for (int m = 0; m < 4; ++m)
                for (int c = 0; c < 3; ++c)
                    EXPECT_EQ(zz.output(m, c), 0);
        }
    }
}

// --- Table kernel vs the per-MAC referee -------------------------------

/** The per-MAC referee: out(m, n) = sum over k of singleProduct. */
Matrix<i64>
refereeGemm(const GemmExecutor &exec, const Matrix<i32> &a,
            const Matrix<i32> &b)
{
    Matrix<i64> out(a.rows(), b.cols(), 0);
    for (int m = 0; m < a.rows(); ++m)
        for (int k = 0; k < a.cols(); ++k)
            for (int n = 0; n < b.cols(); ++n)
                out(m, n) += exec.singleProduct(a(m, k), b(k, n));
    return out;
}

/** Codes over the whole table range [-2^(bits-1), 2^(bits-1)], with a
 *  random share of zeros and some all-zero rows. */
Matrix<i32>
tableCodes(int rows, int cols, int bits, Prng &prng)
{
    const i32 lim = i32(1) << (bits - 1);
    const u64 zero_pct = prng.below(4) * 30; // 0, 30, 60 or 90%
    Matrix<i32> m(rows, cols, 0);
    for (int r = 0; r < rows; ++r) {
        if (prng.below(8) == 0)
            continue;
        for (int c = 0; c < cols; ++c)
            if (prng.below(100) >= zero_pct)
                m(r, c) = i32(prng.below(2 * u64(lim) + 1)) - lim;
    }
    return m;
}

/** Set the executor's thread count for one scope. */
struct ThreadGuard
{
    explicit ThreadGuard(unsigned n) { Executor::global().setThreads(n); }
    ~ThreadGuard() { Executor::global().setThreads(0); }
};

/** Report the first entry where run() and the referee disagree. */
::testing::AssertionResult
sameAccumulations(const Matrix<i64> &got, const Matrix<i64> &want)
{
    if (got.rows() != want.rows() || got.cols() != want.cols())
        return ::testing::AssertionFailure() << "shape differs";
    for (int m = 0; m < got.rows(); ++m)
        for (int n = 0; n < got.cols(); ++n)
            if (got(m, n) != want(m, n))
                return ::testing::AssertionFailure()
                       << "out(" << m << ", " << n << ") = " << got(m, n)
                       << ", referee " << want(m, n);
    return ::testing::AssertionSuccess();
}

/** Whether run() disagrees with the referee on (a, b). */
bool
mismatches(const GemmExecutor &exec, const Matrix<i32> &a,
           const Matrix<i32> &b)
{
    return !sameAccumulations(exec.run(a, b), refereeGemm(exec, a, b));
}

/** A table-kernel configuration the differential tests sweep. */
struct TableConfig
{
    Scheme scheme;
    int bits;
    bool et;
};

/** UR (with and without early termination) and UT at 2-13 bits, UG at
 *  2-12: every bitwidth the tables support. */
std::vector<TableConfig>
tableConfigs()
{
    std::vector<TableConfig> configs;
    for (int bits = 2; bits <= 13; ++bits) {
        configs.push_back({Scheme::USystolicRate, bits, false});
        configs.push_back({Scheme::USystolicRate, bits, true});
        configs.push_back({Scheme::USystolicTemporal, bits, false});
        if (bits <= 12)
            configs.push_back({Scheme::UgemmHybrid, bits, false});
    }
    return configs;
}

/**
 * Check run() against the referee on (a, b) at one and three threads;
 * a failure names `what` and the smallest failing sub-problem.
 */
void
expectMatchesReferee(const GemmExecutor &exec, const Matrix<i32> &a,
                     const Matrix<i32> &b, const std::string &what)
{
    const auto want = refereeGemm(exec, a, b);
    for (unsigned threads : {1u, 3u}) {
        ThreadGuard guard(threads);
        if (sameAccumulations(exec.run(a, b), want))
            continue;
        ADD_FAILURE() << what << ": " << exec.config().name() << " "
                      << a.rows() << "x" << a.cols() << "x" << b.cols()
                      << " at " << threads
                      << " threads disagrees with the referee; "
                      << "smallest failing shape "
                      << shrinkGemm(a, b, [&](const Matrix<i32> &sa,
                                              const Matrix<i32> &sb) {
                             return mismatches(exec, sa, sb);
                         });
    }
}

/**
 * Randomized differential test: GemmExecutor::run against the sum of
 * singleProduct over UR (with and without early termination), UT and UG
 * at every bitwidth the tables support, on random shapes (N past 64
 * included), negative codes, zero-heavy and all-zero rows and columns,
 * at one and three threads. A failure names the seed that reproduces it
 * and the smallest M x K x N sub-problem that still fails.
 */
TEST(Functional, TableKernelMatchesPerMacReferee)
{
    u64 seed = 0;
    for (const TableConfig &c : tableConfigs()) {
        for (int trial = 0; trial < 3; ++trial, ++seed) {
            Prng prng(0xd1ffu + seed);
            const int et =
                c.et ? 2 + int(prng.below(u64(c.bits) - 1)) : 0;
            const KernelConfig kernel{c.scheme, c.bits, et};
            const int m_rows = 1 + int(prng.below(24));
            const int k_dim = 1 + int(prng.below(64));
            const int n_dim = 1 + int(prng.below(trial == 2 ? 100 : 40));
            const auto a = tableCodes(m_rows, k_dim, c.bits, prng);
            auto b = tableCodes(k_dim, n_dim, c.bits, prng);
            if (prng.below(4) == 0) {
                const int zero_col = int(prng.below(u64(n_dim)));
                for (int k = 0; k < k_dim; ++k)
                    b(k, zero_col) = 0;
            }
            expectMatchesReferee(GemmExecutor(kernel), a, b,
                                 "seed " + std::to_string(seed));
        }
    }

    // Output rows across the walk/gather decision (a block walks when
    // its dense rows beyond one per k, plus 16, number fewer than
    // 4 (M - 1) per k, 8 (M - 1) for UG): 1 and 2 gather, 128 walks, and
    // 36-38 straddle the line at 8 bits, where a full-range column spans
    // about 128 rows (UR/UT) or 256 (UG).
    for (const TableConfig &c : tableConfigs()) {
        for (const int m_rows : {1, 2, 36, 37, 38, 128}) {
            Prng prng(0xd1ffu + seed);
            const int et =
                c.et ? 2 + int(prng.below(u64(c.bits) - 1)) : 0;
            const KernelConfig kernel{c.scheme, c.bits, et};
            const int k_dim = 1 + int(prng.below(24));
            const int n_dim = 1 + int(prng.below(40));
            const auto a = tableCodes(m_rows, k_dim, c.bits, prng);
            const auto b = tableCodes(k_dim, n_dim, c.bits, prng);
            expectMatchesReferee(GemmExecutor(kernel), a, b,
                                 "seed " + std::to_string(seed++) +
                                     ", M sweep");
        }
    }

    // Blocks whose codes occupy a narrow range: one distinct code per
    // column (a single dense row per k, anywhere in the table), and
    // post-ReLU codes in [0, 2^(N-1)], whose UG rows all lie in the
    // table's upper half (every walk starts from a base row past 0).
    for (const TableConfig &c : tableConfigs()) {
        const i32 lim = i32(1) << (c.bits - 1);
        for (const bool relu : {false, true}) {
            Prng prng(0xd1ffu + seed);
            const int et =
                c.et ? 2 + int(prng.below(u64(c.bits) - 1)) : 0;
            const KernelConfig kernel{c.scheme, c.bits, et};
            const int m_rows = 1 + int(prng.below(64));
            const int k_dim = 1 + int(prng.below(24));
            const int n_dim = 1 + int(prng.below(40));
            Matrix<i32> a(m_rows, k_dim);
            for (int k = 0; k < k_dim; ++k) {
                const i32 one = i32(prng.below(2 * u64(lim) + 1)) - lim;
                for (int m = 0; m < m_rows; ++m)
                    a(m, k) = relu ? i32(prng.below(u64(lim) + 1)) : one;
            }
            const auto b = tableCodes(k_dim, n_dim, c.bits, prng);
            expectMatchesReferee(GemmExecutor(kernel), a, b,
                                 "seed " + std::to_string(seed++) +
                                     (relu ? ", post-ReLU codes"
                                           : ", one code per column"));
        }
    }
}

/**
 * The table kernel's 16-bit lanes: at every supported bitwidth, every
 * weight-side row entry lies within +-2^(N-1) (UR/UT counts at any
 * delivered ones-count, UG's combined p1 + zeros - p0 - 2^(N-1) at any
 * offset code), every key, threshold and walk count stays below 2^15,
 * and a whole period delivers every one (onesWithin(period) is the
 * identity the kernel maps untruncated keys through).
 */
TEST(Functional, TableEntriesFitInt16)
{
    constexpr u32 kI16 = u32(1) << 15;
    for (int bits = 2; bits <= 13; ++bits) {
        const UnaryProductModel &model = unaryModelFor(bits);
        const u32 period = model.period(); // 2^(N-1): the largest key
        ASSERT_LT(period, kI16);
        u32 worst = 0;
        for (u32 r = 0; r <= period; ++r) {
            const u16 *row = model.countsAfterOnes(r);
            for (u32 w = 0; w <= period; ++w)
                worst = std::max<u32>(worst, row[w]);
            EXPECT_EQ(model.onesWithin(period)[r], r) << bits << " bits";
        }
        EXPECT_LE(worst, period) << "UR/UT " << bits << " bits";
        for (u32 j = 0; j < period; ++j)
            ASSERT_LE(model.weightThresholds()[j], period)
                << "UR/UT " << bits << " bits";
    }
    for (int bits = 2; bits <= 12; ++bits) {
        const BipolarProductModel &model = bipolarModelFor(bits);
        const u32 period = model.period(); // 2^N: the largest key
        const i32 lim = i32(period / 2);
        ASSERT_LT(period, kI16);
        i32 lo = 0, hi = 0;
        for (u32 r = 0; r <= period; ++r) {
            const u16 *p1 = model.hitsAfterOnes(r);
            const u16 *p0 = model.hitsAfterZeros(period - r);
            for (u32 w = 0; w <= period; ++w) {
                const i32 v = i32(p1[w]) + i32(period - r) - i32(p0[w]) - lim;
                lo = std::min(lo, v);
                hi = std::max(hi, v);
            }
        }
        EXPECT_GE(lo, -lim) << "UG " << bits << " bits";
        EXPECT_LE(hi, lim) << "UG " << bits << " bits";
        for (u32 j = 0; j < period; ++j) {
            ASSERT_LE(model.onesThresholds()[j], period) << bits << " bits";
            ASSERT_LE(model.zerosThresholds()[j], period) << bits << " bits";
        }
    }
}

/**
 * Every column of A holds every code in [-2^(N-1), 2^(N-1)] at least
 * once (in at least 16 rows, so that even 2-bit tables walk), in
 * a random order, so every k stages every table row and builds its
 * weight-side rows in one threshold walk (both UG passes included):
 * UR with and without early termination, UT and UG at every bitwidth,
 * with N = 17, 65 and 129 (a sub-vector tail, one past a 64-column
 * tile, one past a 128-column walk tile).
 */
TEST(Functional, TableKernelWalksWhenAColumnHoldsEveryCode)
{
    u64 seed = 0;
    for (const TableConfig &c : tableConfigs()) {
        const i32 lim = i32(1) << (c.bits - 1);
        const int et = c.et ? std::max(2, c.bits / 2 + 1) : 0;
        const GemmExecutor exec({c.scheme, c.bits, et});
        for (const int n_dim : {17, 65, 129}) {
            Prng prng(0x3a1cu + seed++);
            const int m_rows = std::max(2 * lim + 1, 16);
            const int k_dim = 3;
            Matrix<i32> a(m_rows, k_dim);
            for (int k = 0; k < k_dim; ++k) {
                for (int m = 0; m < m_rows; ++m)
                    a(m, k) = m % (2 * lim + 1) - lim;
                for (int m = m_rows - 1; m > 0; --m)
                    std::swap(a(m, k), a(int(prng.below(u64(m) + 1)), k));
            }
            const auto b = tableCodes(k_dim, n_dim, c.bits, prng);
            expectMatchesReferee(exec, a, b,
                                 "every code, N=" + std::to_string(n_dim));
        }
    }
}

/**
 * One to three output rows, which never walk (a walked k costs 16 steps'
 * worth before its rows, against 4 (M - 1) steps a gathered row saves,
 * 8 (M - 1) for UG), so a block gathers each (m, k)'s row at every
 * weight in one fused pass (gatherSumU16). Activations are negative,
 * zero or positive (a zero UR/UT code adds nothing; a zero UG code adds
 * the bipolar bias), N covers one column, both sides of a 16-lane
 * vector, the benchmark's 112 and both sides of the vector tiers' 64-
 * and 128-column tiles, K runs up to 200, and every SIMD tier runs: UR
 * and UT at every bitwidth (UR with and without early termination, UR-8
 * at the benchmark's ebt 6 and 7) and UG at 2-12 bits.
 */
TEST(Functional, TableKernelGathersAtOneOutputRow)
{
    std::vector<TableConfig> configs = tableConfigs();
    configs.push_back({Scheme::USystolicRate, 8, true});
    u64 seed = 0;
    const std::string before = simdLevelName(simdLevel());
    for (const std::string &tier : simdTiers()) {
        setSimdMode(tier);
        for (const TableConfig &c : configs) {
            const i32 lim = i32(1) << (c.bits - 1);
            for (const int m_rows : {1, 2, 3}) {
                const int et = !c.et ? 0
                               : c.bits == 8 ? 6 + int(seed % 2)
                                             : std::max(2, c.bits - 1);
                const GemmExecutor exec({c.scheme, c.bits, et});
                for (const int n_dim : {1, 15, 16, 17, 65, 112, 129}) {
                    Prng prng(0x6a7eu + seed++);
                    const int k_dim = 1 + int(prng.below(200));
                    Matrix<i32> a(m_rows, k_dim);
                    for (int m = 0; m < m_rows; ++m)
                        for (int k = 0; k < k_dim; ++k) {
                            // Row 0 low, the others high: wide row spans.
                            const i32 mag =
                                m == 0 ? i32(prng.below(u64(lim / 4) + 1))
                                       : lim / 2 + i32(prng.below(
                                                       u64(lim / 2) + 1));
                            a(m, k) = prng.below(2) ? -mag : mag;
                        }
                    const auto b = tableCodes(k_dim, n_dim, c.bits, prng);
                    expectMatchesReferee(exec, a, b,
                                         tier + " M=" +
                                             std::to_string(m_rows) +
                                             " N=" + std::to_string(n_dim));
                }
            }
        }
    }
    setSimdMode(before);
}

/**
 * The fused gather pass checks every weight, also at a k whose UR/UT
 * activation is zero (its row adds nothing and is never gathered) and
 * in the last lane of a masked tail vector, on every SIMD tier.
 */
TEST(Functional, GatherBranchChecksWeightsAtSkippedK)
{
    const std::string before = simdLevelName(simdLevel());
    for (const std::string &tier : simdTiers()) {
        setSimdMode(tier);
        for (const Scheme scheme :
             {Scheme::USystolicRate, Scheme::USystolicTemporal}) {
            const GemmExecutor exec({scheme, 8, 0});
            for (const int n_dim : {17, 112}) {
                Matrix<i32> a(1, 9, 5), b(9, n_dim, 7);
                a(0, 4) = 0;
                b(4, n_dim - 1) = 129;
                EXPECT_EXIT(exec.run(a, b), ::testing::ExitedWithCode(1),
                            "weight code 129 outside the 8-bit product table")
                    << tier << " N=" << n_dim;
            }
        }
    }
    setSimdMode(before);
}

/**
 * Sums past INT32_MAX: the table kernel accumulates a block of k in i32
 * and spills into the i64 output, so a K whose full-scale products
 * overflow i32 must still match the referee exactly, at the widest
 * bitwidth of each table. Output rows of alternating sign and N = 17
 * and 65 put every column past INT32_MAX or INT32_MIN, so every register
 * tile of every tier spills, a masked tail tile included: two rows take
 * the fused gather-sum, and 13 rows (at N = 17) the walk and row sums.
 */
TEST(Functional, TableKernelSpillsPastInt32)
{
    for (const KernelConfig kernel :
         {KernelConfig{Scheme::USystolicRate, 13, 0},
          KernelConfig{Scheme::UgemmHybrid, 12, 0}}) {
        const i32 lim = i32(1) << (kernel.bits - 1);
        // Each full-scale product is +-2^(bits-1); K of them pass i32.
        const int k_dim = int(std::numeric_limits<i32>::max() / lim) + 3;
        Matrix<i32> a(2, k_dim, lim);
        for (int k = 0; k < k_dim; ++k)
            a(1, k) = -lim;
        const GemmExecutor exec(kernel);
        for (const int n_dim : {17, 65}) {
            Matrix<i32> b(k_dim, n_dim, lim);
            for (int k = 0; k < k_dim; ++k)
                for (int n = 1; n < n_dim; n += 2)
                    b(k, n) = -lim;
            const auto got = exec.run(a, b);
            EXPECT_TRUE(sameAccumulations(got, refereeGemm(exec, a, b)))
                << kernel.name() << " N=" << n_dim;
            for (int m = 0; m < 2; ++m)
                for (int n = 0; n < n_dim; ++n) {
                    const i64 v = got(m, n);
                    EXPECT_TRUE(v > i64(std::numeric_limits<i32>::max()) ||
                                v < i64(std::numeric_limits<i32>::min()))
                        << kernel.name() << " out(" << m << ", " << n
                        << ") = " << v;
                }
        }
        // 13 equal rows walk (one dense row per k). Every MAC of a column
        // is the same, so the referee's sum is K times one product.
        const Matrix<i32> rows13(13, k_dim, lim);
        Matrix<i32> b(k_dim, 17, lim);
        for (int k = 0; k < k_dim; ++k)
            for (int n = 1; n < 17; n += 2)
                b(k, n) = -lim;
        const auto got = exec.run(rows13, b);
        for (int m = 0; m < 13; ++m)
            for (int n = 0; n < 17; ++n)
                ASSERT_EQ(got(m, n),
                          i64(k_dim) * exec.singleProduct(lim, b(0, n)))
                    << kernel.name() << " walked out(" << m << ", " << n
                    << ")";
    }
}

TEST(Functional, CodesOutsideTheTableAreFatal)
{
    // The tables cover |code| <= 2^(bits-1); one past either edge would
    // read past them.
    const Matrix<i32> ok(2, 2, 1);
    for (const Scheme scheme :
         {Scheme::USystolicRate, Scheme::USystolicTemporal,
          Scheme::UgemmHybrid}) {
        const GemmExecutor exec({scheme, 8, 0});
        Matrix<i32> high(2, 2, 1), low(2, 2, 1);
        high(1, 0) = 129;
        low(0, 1) = -129;
        EXPECT_EXIT(exec.run(high, ok), ::testing::ExitedWithCode(1),
                    "activation code 129 outside the 8-bit product table");
        EXPECT_EXIT(exec.run(low, ok), ::testing::ExitedWithCode(1),
                    "activation code -129");
        EXPECT_EXIT(exec.run(ok, high), ::testing::ExitedWithCode(1),
                    "weight code 129");
        EXPECT_EXIT(exec.run(ok, low), ::testing::ExitedWithCode(1),
                    "weight code -129");
        // The table edge itself is in range.
        Matrix<i32> edge(2, 2, 128);
        edge(0, 0) = -128;
        EXPECT_TRUE(sameAccumulations(exec.run(edge, edge),
                                      refereeGemm(exec, edge, edge)));
    }
}

TEST(Functional, WeightCheckNamesTheFirstCodeOutsideTheTable)
{
    // The weight pass checks a block's codes while it builds their
    // gather indices (M = 3, whose blocks walk) or sums their gathered
    // entries (M = 1); the message still names the first offending code
    // in row-major order, extremes included, and an M = 0 GEMM still
    // checks every weight.
    const Matrix<i32> a(3, 40, 1), one(1, 40, 1), none(0, 40);
    for (const Scheme scheme :
         {Scheme::USystolicRate, Scheme::UgemmHybrid}) {
        const GemmExecutor exec({scheme, 8, 0});
        for (const i32 bad : {std::numeric_limits<i32>::min(),
                              std::numeric_limits<i32>::max(), -129, 129,
                              1 << 20}) {
            Matrix<i32> b(40, 37, -128);
            b(17, 20) = bad;
            b(30, 3) = 200; // a later offender that must not be named
            const std::string want = "weight code " + std::to_string(bad) +
                                     " outside the 8-bit product table";
            EXPECT_EXIT(exec.run(a, b), ::testing::ExitedWithCode(1), want);
            EXPECT_EXIT(exec.run(one, b), ::testing::ExitedWithCode(1),
                        want);
            EXPECT_EXIT(exec.run(none, b), ::testing::ExitedWithCode(1),
                        want);
        }
    }
}

TEST(Functional, UgemmAccuracyComparableToUSystolic)
{
    // uGEMM-H merely changes the hardware cost, not the resolution
    // (Section V-A): its GEMM error should be in the same ballpark.
    Prng prng(29);
    const int bits = 8;
    auto a = randomMatrix(8, 12, bits, prng);
    auto b = randomMatrix(12, 8, bits, prng);
    auto exact = referenceGemm(a, b);

    auto nrmse = [&](Scheme s) {
        KernelConfig cfg{s, bits, 0};
        GemmExecutor exec(cfg);
        auto acc = exec.run(a, b);
        RmseTracker rmse;
        for (int m = 0; m < 8; ++m)
            for (int n = 0; n < 8; ++n)
                rmse.add(double(exact(m, n)),
                         double(acc(m, n)) * exec.resultScale());
        return rmse.normalizedRmse();
    };

    const double ur = nrmse(Scheme::USystolicRate);
    const double ug = nrmse(Scheme::UgemmHybrid);
    EXPECT_LT(ur, 0.1);
    EXPECT_LT(ug, 0.15);
    EXPECT_LT(ug, ur * 6 + 0.02);
}


// --- Shared product-model cache -------------------------------------

TEST(ModelCache, OneModelPerBitwidthAndType)
{
    const UnaryProductModel &u6 = unaryModelFor(6);
    EXPECT_EQ(&unaryModelFor(6), &u6);
    EXPECT_NE(&unaryModelFor(7), &u6);
    EXPECT_EQ(u6.period(), 32u);
    EXPECT_EQ(unaryModelFor(7).period(), 64u);

    // Same bitwidth, other model type: its own cache entry.
    const BipolarProductModel &b6 = bipolarModelFor(6);
    EXPECT_EQ(&bipolarModelFor(6), &b6);
    EXPECT_NE(&bipolarModelFor(5), &b6);
    EXPECT_EQ(b6.period(), 64u);
    EXPECT_EQ(bipolarModelFor(5).period(), 32u);
}

/**
 * Threads that race to a bitwidth no one has asked for yet all get the
 * one shared model, and their later (memoized) lookups stay on it.
 */
TEST(ModelCache, RacingThreadsShareOneModel)
{
    constexpr int kThreads = 4;
    std::vector<const UnaryProductModel *> unary(kThreads);
    std::vector<const BipolarProductModel *> bipolar(kThreads);
    std::vector<int> memo_hits(kThreads, 0);
    std::vector<std::thread> pool;
    for (int t = 0; t < kThreads; ++t)
        pool.emplace_back([&, t] {
            unary[t] = &unaryModelFor(9);
            bipolar[t] = &bipolarModelFor(8);
            memo_hits[t] = int(&unaryModelFor(9) == unary[t]) +
                           int(&bipolarModelFor(8) == bipolar[t]);
        });
    for (auto &th : pool)
        th.join();
    for (int t = 0; t < kThreads; ++t) {
        EXPECT_EQ(unary[t], &unaryModelFor(9)) << "thread " << t;
        EXPECT_EQ(bipolar[t], &bipolarModelFor(8)) << "thread " << t;
        EXPECT_EQ(memo_hits[t], 2) << "thread " << t;
    }
}

/**
 * The cached models are built on the PE's RNG dimensions: the weight
 * and input dimensions for the unipolar model, and the two weight lanes
 * (kWeightRngDim and kWeightRngDim + kWeightAltRngOffset) for uGEMM-H —
 * not BipolarProductModel's default second dimension.
 */
TEST(ModelCache, ModelsAreBuiltOnThePeRngDimensions)
{
    const int bits = 6;
    const UnaryProductModel &u = unaryModelFor(bits);
    const UnaryProductModel fresh_u(bits, kWeightRngDim, kInputRngDim);
    for (u32 ones = 0; ones <= u.period(); ++ones) {
        for (u32 w = 0; w <= u.period(); ++w)
            ASSERT_EQ(u.countAfterOnes(ones, w),
                      fresh_u.countAfterOnes(ones, w))
                << "ones " << ones << " w " << w;
        for (u32 cycles : {u32(1), u.period() / 2, u.period()})
            ASSERT_EQ(u.rateOnes(ones, cycles),
                      fresh_u.rateOnes(ones, cycles))
                << "iabs " << ones << " cycles " << cycles;
    }

    const BipolarProductModel &b = bipolarModelFor(bits);
    const BipolarProductModel fresh_b(bits, kWeightRngDim,
                                      kWeightRngDim + kWeightAltRngOffset);
    const BipolarProductModel default_dims(bits);
    bool differs_from_default = false;
    for (u32 ones = 0; ones <= b.period(); ++ones)
        for (u32 zeros = 0; ones + zeros <= b.period(); ++zeros)
            for (u32 w = 0; w <= b.period(); ++w) {
                const u32 got = b.countAfter(ones, zeros, w);
                ASSERT_EQ(got, fresh_b.countAfter(ones, zeros, w))
                    << "ones " << ones << " zeros " << zeros << " w " << w;
                differs_from_default |=
                    got != default_dims.countAfter(ones, zeros, w);
            }
    EXPECT_TRUE(differs_from_default);
}

} // namespace
} // namespace usys
