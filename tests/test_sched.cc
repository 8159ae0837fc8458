/**
 * @file
 * Tests for the GEMM layer parameterization (Table II), weight-stationary
 * tiling, and the performance simulator. The key cross-validation: the
 * analytic tiling timing equals the bit-level SystolicArray's measured
 * fold latency, and a full tiled GEMM on the cycle-level array takes
 * exactly the simulator's contention-free cycle count.
 */

#include <limits>

#include <gtest/gtest.h>

#include "common/prng.h"
#include "arch/array.h"
#include "sched/simulator.h"
#include "sched/tiling.h"
#include "workloads/systems.h"

namespace usys {
namespace {

TEST(GemmLayer, ConvolutionShapes)
{
    const auto l = GemmLayer::conv("c", 31, 31, 96, 5, 5, 1, 256);
    EXPECT_EQ(l.oh(), 27);
    EXPECT_EQ(l.ow(), 27);
    EXPECT_EQ(l.m(), 729);
    EXPECT_EQ(l.k(), 2400);
    EXPECT_EQ(l.n(), 256);
    EXPECT_EQ(l.macs(), 729LL * 2400 * 256);
    EXPECT_EQ(l.ifmElems(), 31LL * 31 * 96);
    EXPECT_EQ(l.weightElems(), 2400LL * 256);
    EXPECT_EQ(l.ofmElems(), 729LL * 256);
}

TEST(GemmLayer, StridedConvolution)
{
    const auto l = GemmLayer::conv("c", 227, 227, 3, 11, 11, 4, 96);
    EXPECT_EQ(l.oh(), 55);
    EXPECT_EQ(l.ow(), 55);
}

TEST(GemmLayer, MatmulEncoding)
{
    const auto l = GemmLayer::matmul("m", 256, 512, 1024);
    EXPECT_EQ(l.m(), 256);
    EXPECT_EQ(l.k(), 512);
    EXPECT_EQ(l.n(), 1024);
    EXPECT_EQ(l.type, GemmType::MatMul);
    // Single-sample FC: M = 1.
    const auto fc = GemmLayer::matmul("fc", 1, 9216, 4096);
    EXPECT_EQ(fc.m(), 1);
    EXPECT_EQ(fc.k(), 9216);
}

TEST(GemmLayer, CheckRejectsOutOfRangeAndNanSparsity)
{
    auto l = GemmLayer::matmul("m", 8, 16, 4);
    l.act_sparsity = 1.0;
    l.check();
    for (const double bad :
         {-0.1, 1.5, std::numeric_limits<double>::quiet_NaN()}) {
        l.act_sparsity = bad;
        EXPECT_EXIT(l.check(), ::testing::ExitedWithCode(1),
                    "act_sparsity")
            << bad;
    }
}

TEST(Tiling, FoldCountsAndUtilization)
{
    ArrayConfig array{12, 14, {Scheme::BinaryParallel, 8, 0}, {}};
    const auto l = GemmLayer::matmul("m", 10, 24, 28);
    const auto t = tileLayer(array, l);
    EXPECT_EQ(t.folds_k, 2);
    EXPECT_EQ(t.folds_n, 2);
    EXPECT_EQ(t.folds, 4);
    EXPECT_DOUBLE_EQ(t.utilization, 1.0); // 24 = 2*12, 28 = 2*14

    const auto ragged = GemmLayer::matmul("r", 10, 13, 15);
    const auto tr = tileLayer(array, ragged);
    EXPECT_EQ(tr.folds, 4);
    EXPECT_LT(tr.utilization, 0.5);
}

TEST(Tiling, MatchesCycleLevelArray)
{
    // The tiling's per-fold latency must equal the bit-level simulator's
    // measured fold cycles for every scheme.
    for (Scheme scheme : {Scheme::BinaryParallel, Scheme::BinarySerial,
                          Scheme::USystolicRate, Scheme::UgemmHybrid}) {
        ArrayConfig array{4, 5, {scheme, 8, 0}, {}};
        const auto layer = GemmLayer::matmul("m", 6, 4, 5);
        const auto t = tileLayer(array, layer);

        Prng prng(9);
        Matrix<i32> a(6, 4), b(4, 5);
        for (auto &v : a.data())
            v = i32(prng.below(200)) - 100;
        for (auto &v : b.data())
            v = i32(prng.below(200)) - 100;
        const auto run = SystolicGemm(array).run(a, b);
        EXPECT_EQ(run.cycles, t.compute_cycles) << schemeTag(scheme);
        EXPECT_EQ(u64(t.folds), run.folds);
    }
}

TEST(Tiling, TiledGemmMatchesSimulatorCycles)
{
    ArrayConfig array{4, 4, {Scheme::USystolicRate, 8, 6}, {}};
    const auto layer = GemmLayer::matmul("m", 5, 9, 7); // ragged tiles
    const auto t = tileLayer(array, layer);

    Prng prng(11);
    Matrix<i32> a(5, 9), b(9, 7);
    for (auto &v : a.data())
        v = i32(prng.below(200)) - 100;
    for (auto &v : b.data())
        v = i32(prng.below(200)) - 100;
    const auto run = SystolicGemm(array).run(a, b);
    EXPECT_EQ(run.cycles, t.compute_cycles);
}

TEST(Tiling, PipelinedPreloadSavesAtMostFoldsTimesRows)
{
    ArrayConfig array{12, 14, {Scheme::BinaryParallel, 8, 0}, {}};
    const auto layer = GemmLayer::conv("c", 31, 31, 96, 5, 5, 1, 256);
    const auto t = tileLayer(array, layer);
    EXPECT_EQ(t.compute_cycles - t.pipelined_compute_cycles,
              u64(t.folds - 1) * 12);
    EXPECT_LT(t.pipelined_compute_cycles, t.compute_cycles);
    // The relative saving shrinks as MAC cycles grow.
    ArrayConfig unary{12, 14, {Scheme::USystolicRate, 8, 6}, {}};
    const auto tu = tileLayer(unary, layer);
    const double bin_save = 1.0 - double(t.pipelined_compute_cycles) /
                                      double(t.compute_cycles);
    const double una_save = 1.0 -
                            double(tu.pipelined_compute_cycles) /
                                double(tu.compute_cycles);
    EXPECT_GT(bin_save, 5.0 * una_save);
}

TEST(Simulator, UnaryCrawlsDramBandwidth)
{
    const auto layer = GemmLayer::conv("c", 31, 31, 96, 5, 5, 1, 256);
    const auto bp = simulateLayer(
        edgeSystem({Scheme::BinaryParallel, 8, 0}, false), layer);
    const auto ur = simulateLayer(
        edgeSystem({Scheme::USystolicRate, 8, 8}, false), layer);
    // Byte-crawling: two orders of magnitude lower DRAM bandwidth.
    EXPECT_LT(ur.dram_bw_gbps * 50.0, bp.dram_bw_gbps);
    EXPECT_LT(ur.dram_bw_gbps, 0.5);
}

TEST(Simulator, SparsityDeratesExactlyTheZeroSkippingSchemes)
{
    // Zero-magnitude unary streams assert no bits, so every unary
    // scheme but uGEMM-H (whose bipolar bias streams zeros at full
    // length) derates by act_sparsity; binary schemes never do.
    auto layer = GemmLayer::conv("c", 15, 15, 64, 3, 3, 1, 64);
    layer.act_sparsity = 0.5;
    for (const Scheme sch :
         {Scheme::BinaryParallel, Scheme::BinarySerial,
          Scheme::USystolicRate, Scheme::USystolicTemporal,
          Scheme::UgemmHybrid, Scheme::TubGemm, Scheme::TuGemm}) {
        const auto stats =
            simulateLayer(edgeSystem({sch, 8, 0}, false), layer);
        const bool skips = isUnary(sch) && sch != Scheme::UgemmHybrid;
        EXPECT_EQ(stats.sparsity_frac, skips ? 0.5 : 0.0)
            << schemeTag(sch);
    }
}

TEST(Simulator, EarlyTerminationScalesRuntime)
{
    const auto layer = GemmLayer::conv("c", 15, 15, 256, 3, 3, 1, 384);
    double prev = 0.0;
    for (int ebt : {6, 7, 8}) {
        const auto stats = simulateLayer(
            edgeSystem({Scheme::USystolicRate, 8, ebt}, false), layer);
        EXPECT_GT(stats.runtime_s, prev * 1.8) << "ebt " << ebt;
        prev = stats.runtime_s;
    }
}

TEST(Simulator, SramRemovalShiftsTrafficToDram)
{
    const auto layer = GemmLayer::conv("c", 31, 31, 96, 5, 5, 1, 256);
    const KernelConfig kern{Scheme::BinaryParallel, 8, 0};
    const auto with = simulateLayer(edgeSystem(kern, true), layer);
    const auto without = simulateLayer(edgeSystem(kern, false), layer);
    EXPECT_GT(with.sram_total_bytes, 0u);
    EXPECT_EQ(without.sram_total_bytes, 0u);
    EXPECT_GT(without.dram_total_bytes, 4 * with.dram_total_bytes);
}

TEST(Simulator, OverheadNonNegativeAndBounded)
{
    for (bool edge : {true, false}) {
        for (const auto &scheme :
             {Scheme::BinaryParallel, Scheme::USystolicRate}) {
            const auto layer =
                GemmLayer::conv("c", 15, 15, 256, 3, 3, 1, 384);
            const auto stats = simulateLayer(
                edge ? edgeSystem({scheme, 8, 0}, true)
                     : cloudSystem({scheme, 8, 0}, true),
                layer);
            EXPECT_GE(stats.overhead_pct, -1e-9);
            EXPECT_EQ(stats.total_cycles >= stats.compute_cycles, true);
        }
    }
}

TEST(Simulator, CloudContentionHitsBinaryHardest)
{
    const auto layer = GemmLayer::conv("c", 15, 15, 256, 3, 3, 1, 384);
    const auto bp = simulateLayer(
        cloudSystem({Scheme::BinaryParallel, 8, 0}, true), layer);
    const auto ur = simulateLayer(
        cloudSystem({Scheme::USystolicRate, 8, 6}, false), layer);
    EXPECT_GT(bp.overhead_pct, 50.0);
    EXPECT_LT(ur.overhead_pct, bp.overhead_pct / 2.0);
}

TEST(Simulator, OutputBytesReflectReducedResolution)
{
    SystemConfig bin = edgeSystem({Scheme::BinaryParallel, 8, 0}, true);
    SystemConfig una = edgeSystem({Scheme::USystolicRate, 8, 0}, false);
    EXPECT_EQ(bin.outBytes(), 2);
    EXPECT_EQ(una.outBytes(), 1); // Section III-A
    SystemConfig b16 = edgeSystem({Scheme::BinaryParallel, 16, 0}, true);
    EXPECT_EQ(b16.elemBytes(), 2);
    EXPECT_EQ(b16.outBytes(), 4);
}

TEST(Simulator, SixteenBitDoublesSram)
{
    const auto s8 = edgeSystem({Scheme::BinaryParallel, 8, 0}, true);
    const auto s16 = edgeSystem({Scheme::BinaryParallel, 16, 0}, true);
    EXPECT_EQ(s16.sram.bytes, 2 * s8.sram.bytes);
}

/** Property sweep: runtime ordering by MAC cycles holds on all layers. */
class RuntimeOrdering : public ::testing::TestWithParam<int>
{};

TEST_P(RuntimeOrdering, MoreMacCyclesNeverFaster)
{
    const int idx = GetParam();
    const std::vector<GemmLayer> layers = {
        GemmLayer::conv("a", 227, 227, 3, 11, 11, 4, 96),
        GemmLayer::conv("b", 15, 15, 384, 3, 3, 1, 384),
        GemmLayer::matmul("c", 1, 4096, 4096),
        GemmLayer::matmul("d", 256, 512, 512),
    };
    const auto &layer = layers[idx];
    Cycles prev = 0;
    for (int ebt : {6, 7, 8}) {
        const auto stats = simulateLayer(
            edgeSystem({Scheme::USystolicRate, 8, ebt}, false), layer);
        EXPECT_GT(stats.compute_cycles, prev);
        prev = stats.compute_cycles;
    }
}

INSTANTIATE_TEST_SUITE_P(Layers, RuntimeOrdering, ::testing::Range(0, 4));

} // namespace
} // namespace usys
