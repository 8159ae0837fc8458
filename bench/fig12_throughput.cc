/**
 * @file
 * Regenerates Figure 12: layerwise throughput (GEMM executions per
 * second) of 8-bit AlexNet for every computing scheme.
 *
 * Paper shape to reproduce: on the edge, throughput degrades almost
 * linearly with the MAC cycle count (low contention); on the cloud,
 * binary parallel loses a large share of its nominal advantage to memory
 * contention, narrowing the gap (Section V-D).
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
    std::printf("\n=== Figure 12%s: %s, 8-bit AlexNet ===\n",
                edge ? "a" : "b", edge ? "edge (12x14)" : "cloud (256x256)");
    const auto rows = sweepAlexnet(edge, paperCandidates(8));
    TablePrinter table({"layer", "design", "GEMM/s", "GMAC/s",
                        "runtime ms", "overhead %"});
    for (const auto &row : rows) {
        table.addRow({row.layer, row.candidate,
                      TablePrinter::num(row.stats.gemm_per_s, 2),
                      TablePrinter::num(row.stats.throughput_gmacs, 2),
                      TablePrinter::num(row.stats.runtime_s * 1e3, 3),
                      TablePrinter::num(row.stats.overhead_pct, 1)});
    }
    table.print();

    // Average Conv-layer contention overheads (Section V-D).
    std::printf("avg Conv overhead:");
    for (const auto &cand : paperCandidates(8)) {
        double sum = 0;
        int n = 0;
        for (const auto &row : rows) {
            if (row.candidate == cand.label &&
                row.layer.rfind("Conv", 0) == 0) {
                sum += row.stats.overhead_pct;
                ++n;
            }
        }
        std::printf(" %s %.1f%%", cand.label.c_str(), sum / n);
    }
    std::printf("\n(paper cloud: BP 161.8, BS 105.2, U32 47.5, U64 25.7, "
                "U128 13.4, UG 6.9 %%)\n");
}

} // namespace

int
main(int argc, char **argv)
{
    const BenchOptions opts =
        parseBenchArgs(&argc, argv, "fig12_throughput");
    if (argc > 1)
        fatal(std::string("fig12_throughput: unknown argument: ") + argv[1]);
    {
        ScopedTimer timer("fig12 edge", "bench");
        printConfig(true);
    }
    {
        ScopedTimer timer("fig12 cloud", "bench");
        printConfig(false);
    }
    finalizeBench(opts);
    return 0;
}
