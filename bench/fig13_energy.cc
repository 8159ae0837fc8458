/**
 * @file
 * Regenerates Figure 13 (layerwise energy, on-chip and total) and the
 * Section V-F power discussion for 8-bit AlexNet.
 *
 * Paper shape to reproduce: SRAM leakage dominates binary on-chip energy;
 * uSystolic cuts on-chip energy (mean ~83.5% vs BP on the edge) and
 * on-chip power (~98.4%), but the DRAM-dominated *total* energy can get
 * worse for convolutions because SRAM-less uSystolic re-streams the
 * im2col-expanded IFM from DRAM (Section V-E).
 */

#include <cstdio>

#include "common/cli.h"
#include "common/event_trace.h"
#include "common/logging.h"
#include "common/stats.h"
#include "common/table.h"
#include "eval/experiments.h"

using namespace usys;

namespace {

void
printConfig(bool edge)
{
    std::printf("\n=== Figure 13: %s, 8-bit AlexNet ===\n",
                edge ? "edge (12x14)" : "cloud (256x256)");
    const auto rows = sweepAlexnet(edge, paperCandidates(8));
    TablePrinter table({"layer", "design", "SA dyn uJ", "SA leak uJ",
                        "SRAM dyn uJ", "SRAM leak uJ", "on-chip uJ",
                        "DRAM uJ", "total uJ", "on-chip mW", "total mW"});
    for (const auto &row : rows) {
        const auto &e = row.energy;
        table.addRow({row.layer, row.candidate,
                      TablePrinter::num(e.array_dyn_uj, 2),
                      TablePrinter::num(e.array_leak_uj, 2),
                      TablePrinter::num(e.sram_dyn_uj, 2),
                      TablePrinter::num(e.sram_leak_uj, 2),
                      TablePrinter::num(e.onchip_uj(), 2),
                      TablePrinter::num(e.dram_uj, 2),
                      TablePrinter::num(e.total_uj(), 2),
                      TablePrinter::num(e.onchip_power_mw(), 3),
                      TablePrinter::num(e.total_power_mw(), 3)});
    }
    table.print();

    // Reduction statistics vs the binary baselines (Sections V-E/V-F).
    for (const char *base : {"Binary Parallel", "Binary Serial"}) {
        OnlineStats onchip_e, total_e, onchip_p, total_p, edp;
        for (const auto &row : rows) {
            if (row.candidate.rfind("Unary", 0) != 0)
                continue;
            for (const auto &b : rows) {
                if (b.layer != row.layer || b.candidate != base)
                    continue;
                onchip_e.add(pctReduction(b.energy.onchip_uj(),
                                          row.energy.onchip_uj()));
                total_e.add(pctReduction(b.energy.total_uj(),
                                         row.energy.total_uj()));
                onchip_p.add(pctReduction(b.energy.onchip_power_mw(),
                                          row.energy.onchip_power_mw()));
                total_p.add(pctReduction(b.energy.total_power_mw(),
                                         row.energy.total_power_mw()));
                edp.add(pctReduction(b.energy.edp_onchip(),
                                     row.energy.edp_onchip()));
            }
        }
        std::printf("uSystolic vs %s: on-chip energy red [%.1f, %.1f] "
                    "mean %.1f %%; total energy red [%.1f, %.1f] mean "
                    "%.1f %%; on-chip power red mean %.1f %%; total power "
                    "red mean %.1f %%; on-chip EDP red mean %.1f %%\n",
                    base, onchip_e.min(), onchip_e.max(), onchip_e.mean(),
                    total_e.min(), total_e.max(), total_e.mean(),
                    onchip_p.mean(), total_p.mean(), edp.mean());
    }
    if (edge) {
        std::printf("(paper edge: on-chip energy red [50.0, 99.1] mean "
                    "83.5 vs BP; total energy red mean -754.0; on-chip "
                    "power red mean 98.4)\n");
    } else {
        std::printf("(paper cloud: on-chip energy red mean 47.6 vs BP; "
                    "total energy red mean 18.1; on-chip power red mean "
                    "66.4)\n");
    }
}

} // namespace

int
main(int argc, char **argv)
{
    const BenchOptions opts = parseBenchArgs(&argc, argv, "fig13_energy");
    if (argc > 1)
        fatal(std::string("fig13_energy: unknown argument: ") + argv[1]);
    {
        ScopedTimer timer("fig13 edge", "bench");
        printConfig(true);
    }
    {
        ScopedTimer timer("fig13 cloud", "bench");
        printConfig(false);
    }
    finalizeBench(opts);
    return 0;
}
