/**
 * @file
 * Regenerates Figure 14: mean on-chip energy- and power-efficiency
 * improvements (E.E.I. / P.E.I.) of the unary designs over the binary
 * parallel and serial baselines, on 8-bit AlexNet and the MLPerf-like
 * suite, edge and cloud.
 *
 * Paper shape to reproduce: early termination monotonically increases
 * both efficiencies; MLPerf's diverse GEMMs lower the gains versus
 * AlexNet via reduced MAC utilization (97.1% -> 69.6% edge, 81.6% ->
 * 37.2% cloud).
 */

#include <cstdio>

#include "common/cli.h"
#include "common/event_trace.h"
#include "common/logging.h"
#include "common/table.h"
#include "eval/experiments.h"
#include "workloads/alexnet.h"
#include "workloads/mlperf.h"

using namespace usys;

namespace {

void
printWorkload(const char *name, const std::vector<GemmLayer> &layers)
{
    for (bool edge : {true, false}) {
        std::printf("\n=== Figure 14: %s, %s ===\n", name,
                    edge ? "edge" : "cloud");
        const auto rows = fig14Efficiency(edge, 8, layers);
        TablePrinter table({"design", "baseline", "E.E.I. (x)",
                            "P.E.I. (x)"});
        for (const auto &row : rows) {
            table.addRow({row.candidate, row.baseline,
                          TablePrinter::num(row.energy_eff_x, 2),
                          TablePrinter::num(row.power_eff_x, 2)});
        }
        table.print();
        std::printf("mean MAC utilization: %.1f%%\n",
                    100.0 * meanUtilization(edge, 8, layers));
    }
}

} // namespace

int
main(int argc, char **argv)
{
    const BenchOptions opts =
        parseBenchArgs(&argc, argv, "fig14_efficiency");
    if (argc > 1)
        fatal(std::string("fig14_efficiency: unknown argument: ") + argv[1]);
    {
        ScopedTimer timer("fig14 alexnet", "bench");
        printWorkload("AlexNet", alexnetLayers());
    }
    const auto mlperf = mlperfLayers();
    std::printf("\nMLPerf-like suite: %zu GEMM layers across 8 models "
                "(paper: 1094)\n", mlperf.size());
    {
        ScopedTimer timer("fig14 mlperf", "bench");
        printWorkload("MLPerf", mlperf);
    }
    std::printf("\n(paper utilization: AlexNet 97.1%% edge / 81.6%% cloud;"
                " MLPerf 69.6%% edge / 37.2%% cloud)\n");
    finalizeBench(opts);
    return 0;
}
