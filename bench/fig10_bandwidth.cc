/**
 * @file
 * Regenerates Figure 10: layerwise SRAM and DRAM bandwidth of 8-bit
 * AlexNet on the edge and cloud configurations, for every computing
 * scheme, with and without on-chip SRAM.
 *
 * Paper shape to reproduce: binary designs demand GB/s-scale DRAM
 * bandwidth once SRAM is removed, while uSystolic stays at crawling-byte
 * levels (tenths of GB/s), enabling SRAM elimination (Section V-B).
 */

#include <cstdio>

#include "common/cli.h"
#include "common/event_trace.h"
#include "common/logging.h"
#include "common/table.h"
#include "eval/experiments.h"

using namespace usys;

namespace {

void
printConfig(bool edge)
{
    std::printf("\n=== Figure 10%s: %s configuration, 8-bit AlexNet ===\n",
                edge ? "a" : "b", edge ? "edge (12x14)" : "cloud (256x256)");
    const auto rows = sweepAlexnet(edge, bandwidthCandidates(8));

    TablePrinter table({"layer", "design", "SRAM", "DRAM GB/s",
                        "SRAM GB/s", "overhead %"});
    for (const auto &row : rows) {
        const bool has_sram = row.stats.sram_total_bytes > 0;
        table.addRow({row.layer, row.candidate, has_sram ? "yes" : "no",
                      TablePrinter::num(row.stats.dram_bw_gbps, 3),
                      TablePrinter::num(row.stats.sram_bw_gbps, 3),
                      TablePrinter::num(row.stats.overhead_pct, 1)});
    }
    table.print();

    // Section V-B summary lines.
    double max_bp = 0, max_ur = 0, max_ur_fc = 0, min_ur = 1e18,
           min_ur_fc = 1e18;
    for (const auto &row : rows) {
        if (row.candidate == "Binary Parallel (no SRAM)")
            max_bp = std::max(max_bp, row.stats.dram_bw_gbps);
        if (row.candidate.rfind("Unary", 0) == 0) {
            const bool fc = row.layer.rfind("FC", 0) == 0;
            if (fc) {
                max_ur_fc = std::max(max_ur_fc, row.stats.dram_bw_gbps);
                min_ur_fc = std::min(min_ur_fc, row.stats.dram_bw_gbps);
            } else {
                max_ur = std::max(max_ur, row.stats.dram_bw_gbps);
                min_ur = std::min(min_ur, row.stats.dram_bw_gbps);
            }
        }
    }
    std::printf("summary (%s): BP-noSRAM max DRAM %.2f GB/s (paper 10.49);"
                " uSystolic Conv [%.2f, %.2f] (paper [0.11, 0.47]);"
                " FC [%.2f, %.2f] (paper [0.46, 1.08])\n",
                edge ? "edge" : "cloud", max_bp, min_ur, max_ur, min_ur_fc,
                max_ur_fc);
}

} // namespace

int
main(int argc, char **argv)
{
    const BenchOptions opts =
        parseBenchArgs(&argc, argv, "fig10_bandwidth");
    if (argc > 1)
        fatal(std::string("fig10_bandwidth: unknown argument: ") + argv[1]);
    {
        ScopedTimer timer("fig10 edge", "bench");
        printConfig(true);
    }
    {
        ScopedTimer timer("fig10 cloud", "bench");
        printConfig(false);
    }
    finalizeBench(opts);
    return 0;
}
