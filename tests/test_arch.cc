/**
 * @file
 * Tests for the PE models, the cycle-level systolic array, and the fast
 * functional GEMM engines. The load-bearing invariant: for every scheme,
 * bitwidth, and early-termination point, the cycle-level array produces
 * exactly the same accumulations as the table-driven functional
 * executor, which in turn matches the per-MAC referee (singleProduct),
 * and exact results for the binary schemes.
 */

#include <limits>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/executor.h"
#include "common/matrix.h"
#include "common/prng.h"
#include "common/stats.h"
#include "arch/array.h"
#include "arch/functional.h"
#include "arch/pe.h"

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
    auto result = gemm.run(a, b);

    // Functional equivalent with identical zero padding: padding with
    // zero codes adds exactly zero in the unipolar scheme.
    GemmExecutor exec(cfg.kernel);
    auto expected = exec.run(a, b);
    EXPECT_EQ(result.acc, expected);
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

/**
 * Randomized differential test: GemmExecutor::run against the sum of
 * singleProduct over UR (with and without early termination), UT and UG
 * at every bitwidth the tables support, on random shapes (N past 64
 * included), negative codes, zero-heavy and all-zero rows and columns,
 * at one and three threads. A failure names the seed that reproduces it.
 */
TEST(Functional, TableKernelMatchesPerMacReferee)
{
    struct Config
    {
        Scheme scheme;
        int bits;
        bool et;
    };
    std::vector<Config> configs;
    for (int bits = 2; bits <= 13; ++bits) {
        configs.push_back({Scheme::USystolicRate, bits, false});
        configs.push_back({Scheme::USystolicRate, bits, true});
        configs.push_back({Scheme::USystolicTemporal, bits, false});
        if (bits <= 12)
            configs.push_back({Scheme::UgemmHybrid, bits, false});
    }
    u64 seed = 0;
    for (const Config &c : configs) {
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
            const GemmExecutor exec(kernel);
            const auto want = refereeGemm(exec, a, b);
            for (unsigned threads : {1u, 3u}) {
                ThreadGuard guard(threads);
                EXPECT_TRUE(sameAccumulations(exec.run(a, b), want))
                    << "seed " << seed << ": " << kernel.name() << " "
                    << m_rows << "x" << k_dim << "x" << n_dim << " at "
                    << threads << " threads";
            }
        }
    }
}

/**
 * Sums past INT32_MAX: the table kernel accumulates a block of k in i32
 * and spills into the i64 output, so a K whose full-scale products
 * overflow i32 must still match the referee exactly, at the widest
 * bitwidth of each table.
 */
TEST(Functional, TableKernelSpillsPastInt32)
{
    for (const KernelConfig kernel :
         {KernelConfig{Scheme::USystolicRate, 13, 0},
          KernelConfig{Scheme::UgemmHybrid, 12, 0}}) {
        const i32 lim = i32(1) << (kernel.bits - 1);
        // Each full-scale product is +-2^(bits-1); K of them pass i32.
        const int k_dim = int(std::numeric_limits<i32>::max() / lim) + 3;
        Matrix<i32> a(1, k_dim, lim);
        Matrix<i32> b(k_dim, 2, lim);
        for (int k = 0; k < k_dim; ++k)
            b(k, 1) = -lim;
        const GemmExecutor exec(kernel);
        const auto got = exec.run(a, b);
        EXPECT_TRUE(sameAccumulations(got, refereeGemm(exec, a, b)))
            << kernel.name();
        EXPECT_GT(got(0, 0), i64(std::numeric_limits<i32>::max()))
            << kernel.name();
        EXPECT_LT(got(0, 1), i64(std::numeric_limits<i32>::min()))
            << kernel.name();
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

} // namespace
} // namespace usys
