/**
 * @file
 * Quantifies Table I: accuracy / power efficiency / scalability /
 * generalizability of B-Systolic (BP), FSU (uGEMM-class), HUB (uGEMM-H)
 * and uSystolic, using the library's own measurements:
 *
 *  - accuracy: GEMM NRMSE of each scheme at 8-bit (functional models);
 *  - power efficiency: mean on-chip P ratio vs BP on 8-bit AlexNet edge;
 *  - scalability: per-PE area inflation from the edge to the cloud array
 *    (routing congestion), plus FSU's flip-flop weight storage;
 *  - generalizability: one instance's mean MAC utilization across the
 *    MLPerf-like suite vs the number of FSU instances required.
 */

#include <cmath>
#include <cstdio>

#include "common/cli.h"
#include "common/event_trace.h"
#include "common/logging.h"
#include "common/prng.h"
#include "common/stats.h"
#include "common/table.h"
#include "arch/fsu_gemm.h"
#include "arch/functional.h"
#include "eval/experiments.h"
#include "hw/fsu_cost.h"
#include "workloads/alexnet.h"
#include "workloads/mlperf.h"

using namespace usys;

namespace {

double
gemmNrmse(Scheme scheme, int bits)
{
    Prng prng(77);
    const i32 max_mag = (1 << (bits - 1)) - 1;
    Matrix<i32> a(16, 64), b(64, 16);
    for (auto &v : a.data())
        v = i32(prng.below(2 * u64(max_mag) + 1)) - max_mag;
    for (auto &v : b.data())
        v = i32(prng.below(2 * u64(max_mag) + 1)) - max_mag;
    const auto exact = referenceGemm(a, b);
    GemmExecutor exec({scheme, bits, 0});
    const auto acc = exec.run(a, b);
    RmseTracker rmse;
    for (int m = 0; m < 16; ++m)
        for (int n = 0; n < 16; ++n)
            rmse.add(double(exact(m, n)),
                     double(acc(m, n)) * exec.resultScale());
    return rmse.normalizedRmse();
}

double
fsuNrmse(int bits)
{
    // Stream-level FSU pipeline with unary-domain accumulation — the
    // Table I "Low-High" accuracy column, measured.
    Prng prng(77);
    const i32 max_mag = (1 << (bits - 1)) - 1;
    Matrix<i32> a(8, 32), b(32, 8);
    for (auto &v : a.data())
        v = i32(prng.below(2 * u64(max_mag) + 1)) - max_mag;
    for (auto &v : b.data())
        v = i32(prng.below(2 * u64(max_mag) + 1)) - max_mag;
    const auto exact = referenceGemm(a, b);
    FsuGemmExecutor fsu(bits);
    const auto got = fsu.run(a, b);
    RmseTracker rmse;
    for (int m = 0; m < 8; ++m)
        for (int n = 0; n < 8; ++n)
            rmse.add(double(exact(m, n)),
                     got(m, n) * fsu.resultScale());
    return rmse.normalizedRmse();
}

double
perPeInflation(Scheme scheme)
{
    const double edge =
        arrayCost(ArrayConfig{12, 14, {scheme, 8, 0}, {}}).area_mm2.total() /
        168.0;
    const double cloud =
        arrayCost(ArrayConfig{256, 256, {scheme, 8, 0}, {}})
            .area_mm2.total() /
        65536.0;
    return cloud / edge;
}

void
runTable1()
{
    std::printf("=== Table I quantified ===\n\n");

    std::printf("accuracy (8-bit GEMM NRMSE; lower is better):\n");
    std::printf("  B-Systolic (BP) %.4f   uSystolic (UR) %.4f   "
                "uGEMM-H (UG) %.4f\n  FSU w/ scaled-adder accumulation %.4f "
                "(the Low end of Table I's Low-High range)\n\n",
                gemmNrmse(Scheme::BinaryParallel, 8),
                gemmNrmse(Scheme::USystolicRate, 8),
                gemmNrmse(Scheme::UgemmHybrid, 8), fsuNrmse(8));

    const auto eff = fig14Efficiency(true, 8, alexnetLayers());
    for (const auto &row : eff) {
        if (row.candidate == "Unary-32c" &&
            row.baseline == "Binary Parallel") {
            std::printf("power efficiency: uSystolic (Unary-32c) "
                        "delivers %.0fx the on-chip power efficiency of "
                        "B-Systolic on 8-bit AlexNet (edge)\n\n",
                        row.power_eff_x);
        }
    }

    std::printf("scalability (per-PE area inflation, 168 -> 65536 "
                "PEs):\n");
    std::printf("  BP %.2fx   BS %.2fx   UG %.2fx   UR %.2fx\n\n",
                perPeInflation(Scheme::BinaryParallel),
                perPeInflation(Scheme::BinarySerial),
                perPeInflation(Scheme::UgemmHybrid),
                perPeInflation(Scheme::USystolicRate));

    std::printf("generalizability:\n");
    const auto suite = mlperfSuite();
    const auto all = mlperfLayers();
    std::printf("  uSystolic: ONE 12x14 instance runs all %zu GEMM "
                "layers at %.1f%% mean utilization\n",
                all.size(), 100.0 * meanUtilization(true, 8, all));

    TablePrinter fsu({"FSU instance for", "weights (M)", "DFF storage",
                      "area mm2", "leakage W"});
    for (const auto &model : suite) {
        const auto cost = fsuInstanceCost(model.layers, 8);
        fsu.addRow({model.name,
                    TablePrinter::num(double(cost.weights) * 1e-6, 1),
                    TablePrinter::num(cost.storage_mb, 1) + " MB",
                    TablePrinter::num(cost.total_area_mm2, 1),
                    TablePrinter::num(cost.leak_w, 2)});
    }
    fsu.print();
    const auto alexnet_fsu = fsuInstanceCost(alexnetLayers(), 8);
    std::printf("\n  footnote 2 check: FSU-AlexNet needs %.1f MB of "
                "flip-flop weight storage (paper: 61.1 MB) — %.1fx the "
                "24 MB cloud-TPU SRAM, one instance PER model.\n",
                alexnet_fsu.storage_mb, alexnet_fsu.storage_mb / 24.0);
}

} // namespace

int
main(int argc, char **argv)
{
    const BenchOptions opts =
        parseBenchArgs(&argc, argv, "table1_comparison");
    if (argc > 1)
        fatal(std::string("table1_comparison: unknown argument: ") + argv[1]);
    {
        ScopedTimer timer("table1", "bench");
        runTable1();
    }
    finalizeBench(opts);
    return 0;
}
