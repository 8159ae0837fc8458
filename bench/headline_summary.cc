/**
 * @file
 * Regenerates the paper's abstract headline claims for the edge
 * configuration running 8-bit AlexNet: rate-coded uSystolic vs the
 * binary parallel design.
 */

#include <cstdio>

#include "common/cli.h"
#include "common/event_trace.h"
#include "common/logging.h"
#include "eval/experiments.h"

using namespace usys;

int
main(int argc, char **argv)
{
    const BenchOptions opts =
        parseBenchArgs(&argc, argv, "headline_summary");
    if (argc > 1)
        fatal(std::string("headline_summary: unknown argument: ") + argv[1]);

    Headline h;
    {
        ScopedTimer timer("headline_summary", "bench");
        h = headlineSummary();
        // Machine-readable per-layer stats for all five schemes.
        recordInstrumentedSweep(true, 8);
    }
    std::printf("=== Headline summary: 8-bit AlexNet, edge ===\n");
    std::printf("%-44s measured %8.1f   paper %8.1f\n",
                "systolic array area reduction (%)",
                h.array_area_reduction_pct, 59.0);
    std::printf("%-44s measured %8.1f   paper %8.1f\n",
                "total on-chip area reduction (%)",
                h.onchip_area_reduction_pct, 91.3);
    std::printf("%-44s measured %8.1f   paper %8.1f\n",
                "max on-chip energy efficiency gain (x)",
                h.max_energy_eff_x, 112.2);
    std::printf("%-44s measured %8.1f   paper %8.1f\n",
                "max on-chip power efficiency gain (x)",
                h.max_power_eff_x, 44.8);
    std::printf("%-44s measured %8.1f   paper %8.1f\n",
                "mean on-chip energy reduction (%)",
                h.mean_onchip_energy_red_pct, 83.5);
    std::printf("%-44s measured %8.1f   paper %8.1f\n",
                "mean on-chip power reduction (%)",
                h.mean_onchip_power_red_pct, 98.4);
    finalizeBench(opts);
    return 0;
}
