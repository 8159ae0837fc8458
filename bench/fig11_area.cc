/**
 * @file
 * Regenerates Figure 11: systolic-array area breakdown (IREG / WREG /
 * MUL / ACC) plus SRAM for 8- and 16-bit designs, edge and cloud.
 *
 * Paper shape to reproduce: BP > BS > UG > UR > UT in array area
 * (reductions vs BP of 30.9 / 50.9 / 59.0 / 62.5 % for the 8-bit edge),
 * UR's MUL ~58% smaller than uGEMM-H's bipolar MUL, and on-chip SRAM
 * dominating total area (91.3% total reduction when eliminated).
 */

#include <cstdio>

#include "common/cli.h"
#include "common/event_trace.h"
#include "common/logging.h"
#include "common/stats.h"
#include "common/stats_registry.h"
#include "common/table.h"
#include "eval/experiments.h"

using namespace usys;

namespace {

void
printConfig(bool edge, int bits)
{
    std::printf("\n=== Figure 11%s: %s, %d-bit ===\n", edge ? "a" : "b",
                edge ? "edge (12x14)" : "cloud (256x256)", bits);
    const auto rows = fig11Area(edge, bits);
    TablePrinter table({"design", "IREG", "WREG", "MUL", "ACC",
                        "array mm2", "SRAM mm2", "total mm2",
                        "array red %", "total red %"});
    const AreaRow &bp = rows.front();
    for (const auto &row : rows) {
        table.addRow(
            {row.label, TablePrinter::num(row.blocks_mm2.ireg, 4),
             TablePrinter::num(row.blocks_mm2.wreg, 4),
             TablePrinter::num(row.blocks_mm2.mul, 4),
             TablePrinter::num(row.blocks_mm2.acc, 4),
             TablePrinter::num(row.array_mm2, 4),
             TablePrinter::num(row.sram_mm2, 3),
             TablePrinter::num(row.total_mm2, 3),
             TablePrinter::num(pctReduction(bp.array_mm2, row.array_mm2),
                               1),
             TablePrinter::num(pctReduction(bp.total_mm2, row.total_mm2),
                               1)});
    }
    table.print();

    if (edge && bits == 8) {
        const AreaRow *ug = nullptr, *ur = nullptr;
        for (const auto &row : rows) {
            if (row.label.rfind("UG", 0) == 0)
                ug = &row;
            if (row.label.rfind("UR", 0) == 0)
                ur = &row;
        }
        std::printf("UR MUL vs UG MUL: %.1f%% smaller (paper 58.2%%); "
                    "UR total vs UG total: %.1f%% smaller (paper 16.5%%)\n",
                    pctReduction(ug->blocks_mm2.mul, ur->blocks_mm2.mul),
                    pctReduction(ug->array_mm2, ur->array_mm2));
        std::printf("paper array reductions vs BP: BS 30.9, UG 50.9, "
                    "UR 59.0, UT 62.5 %%\n");
    }
}

} // namespace

int
main(int argc, char **argv)
{
    const BenchOptions opts = parseBenchArgs(&argc, argv, "fig11_area");
    if (argc > 1)
        fatal(std::string("fig11_area: unknown argument: ") + argv[1]);
    for (bool edge : {true, false}) {
        for (int bits : {8, 16}) {
            ScopedTimer timer(std::string("fig11 ") +
                                  (edge ? "edge" : "cloud") +
                                  std::to_string(bits) + "b",
                              "bench");
            printConfig(edge, bits);
            // Record the per-design totals for the JSON artifact.
            StatsRegistry &reg = statsRegistry();
            const std::string cfg =
                std::string(edge ? "edge" : "cloud") +
                std::to_string(bits) + "b";
            for (const auto &row : fig11Area(edge, bits)) {
                const std::string base = "hw.area." + cfg + "." +
                                         sanitizeStatName(row.label);
                reg.scalar(base + ".array_mm2", "array area")
                    .set(row.array_mm2);
                reg.scalar(base + ".sram_mm2", "SRAM area")
                    .set(row.sram_mm2);
                reg.scalar(base + ".total_mm2", "on-chip area")
                    .set(row.total_mm2);
            }
        }
    }
    finalizeBench(opts);
    return 0;
}
