/**
 * @file
 * Ablations of uSystolic's three design pillars:
 *
 *  1. spatial-temporal bitstream reuse — rebuild the array with a full
 *     BSG/RNG stack in *every* PE (uGEMM-style duplication) and measure
 *     the area/energy this would cost;
 *  2. on-chip SRAM elimination — sweep a small SRAM back in and trace the
 *     on-chip vs total energy trade-off the paper's Section V-G mentions;
 *  3. RNG quality — replace the Sobol sequence with a maximal-length LFSR
 *     and measure the unary product error inflation.
 */

#include <cmath>
#include <cstdio>

#include "common/cli.h"
#include "common/event_trace.h"
#include "common/logging.h"
#include "common/stats.h"
#include "common/table.h"
#include "arch/fifo.h"
#include "hw/energy.h"
#include "unary/lfsr.h"
#include "unary/sobol.h"
#include "sched/tiling.h"
#include "workloads/alexnet.h"
#include "workloads/systems.h"

using namespace usys;

namespace {

void
ablateBitstreamReuse()
{
    std::printf("=== Ablation 1: spatial-temporal bitstream reuse ===\n");
    const KernelConfig kern{Scheme::USystolicRate, 8, 0};
    struct Shape
    {
        int rows, cols;
        const char *tag;
    };
    for (const Shape &shape : {Shape{12, 14, "edge"},
                               Shape{256, 256, "cloud"}}) {
        const auto [rows, cols, tag] = shape;
        const ArrayConfig cfg{rows, cols, kern, {}};
        const auto with = arrayCost(cfg);

        // Without reuse every PE carries the leftmost column's BSGs —
        // modeled as a single-column array of the same PE count (every
        // PE of a one-column array is a "leftmost" PE), which keeps the
        // congestion model identical.
        const ArrayConfig no_reuse{rows * cols, 1, kern, {}};
        const auto without = arrayCost(no_reuse);
        const double without_mm2 = without.area_mm2.total();
        const double without_e = without.e_per_mac_slot_pj;

        std::printf("%s %dx%d: array %.3f -> %.3f mm2 (+%.1f%%), "
                    "MAC energy %.3f -> %.3f pJ (+%.1f%%)\n",
                    tag, rows, cols, with.area_mm2.total(), without_mm2,
                    100 * (without_mm2 / with.area_mm2.total() - 1),
                    with.e_per_mac_slot_pj, without_e,
                    100 * (without_e / with.e_per_mac_slot_pj - 1));
    }
    std::printf("\n");
}

void
ablateSramSize()
{
    std::printf("=== Ablation 2: adding a small SRAM back (Unary-32c, "
                "8-bit AlexNet, edge) ===\n");
    TablePrinter table({"SRAM/variable", "on-chip uJ", "DRAM uJ",
                        "total uJ", "on-chip area mm2"});
    for (u64 kib : {u64(0), u64(4), u64(16), u64(64), u64(256)}) {
        SystemConfig sys =
            edgeSystem({Scheme::USystolicRate, 8, 6}, kib > 0);
        if (kib > 0)
            sys.sram.bytes = kib * 1024;
        double onchip = 0, dram = 0;
        for (const auto &layer : alexnetLayers()) {
            const auto e = layerEnergy(sys, simulateLayer(sys, layer));
            onchip += e.onchip_uj();
            dram += e.dram_uj;
        }
        table.addRow({kib ? std::to_string(kib) + " KiB" : "none",
                      TablePrinter::num(onchip, 1),
                      TablePrinter::num(dram, 1),
                      TablePrinter::num(onchip + dram, 1),
                      TablePrinter::num(onchipAreaMm2(sys), 3)});
    }
    table.print();
    std::printf("(Section V-G: a small SRAM trades on-chip cost for "
                "off-chip DRAM energy)\n\n");
}

void
ablateRngQuality()
{
    std::printf("=== Ablation 3: Sobol vs LFSR weight RNG ===\n");
    const int mag_bits = 7;
    const u32 period = u32(1) << mag_bits;

    RmseTracker sobol_err, lfsr_err;
    SobolSequence sobol(0, mag_bits);
    for (u32 iabs = 4; iabs < period; iabs += 7) {
        for (u32 wabs = 4; wabs < period; wabs += 11) {
            const double expect =
                double(iabs) * wabs / double(period);
            // C-BSG consumes exactly `iabs` samples per full period.
            u32 ones_sobol = 0;
            sobol.reset();
            for (u32 j = 0; j < iabs; ++j)
                ones_sobol += sobol.next() < wabs;
            sobol_err.add(expect, ones_sobol);

            Lfsr lfsr(mag_bits);
            u32 ones_lfsr = 0;
            for (u32 j = 0; j < iabs; ++j)
                ones_lfsr += lfsr.next() < wabs;
            lfsr_err.add(expect, ones_lfsr);
        }
    }
    std::printf("product RMSE over operand sweep: Sobol %.3f LSB, LFSR "
                "%.3f LSB (%.1fx worse)\n",
                sobol_err.rmse(), lfsr_err.rmse(),
                lfsr_err.rmse() / sobol_err.rmse());
    std::printf("(why uSystolic configures the high-quality Sobol RNG, "
                "Section III-B)\n");
}

void
ablateFifoDepth()
{
    std::printf("\n=== Ablation 4: FIFO depth vs MAC interval (12-cycle "
                "DRAM jitter) ===\n");
    TablePrinter table({"design", "MAC cycles", "stall rate @ depth 1",
                        "stall-free depth"});
    struct Row
    {
        const char *tag;
        u32 mac;
    };
    for (const Row &row : {Row{"Binary Parallel", 1},
                           Row{"Binary Serial", 9},
                           Row{"Unary-32c", 33}, Row{"Unary-128c", 129}}) {
        const auto jt = analyzeJitterTolerance(row.mac, 12.0, 2048);
        table.addRow({row.tag, std::to_string(row.mac),
                      TablePrinter::num(jt.stall_rate_depth1, 4),
                      std::to_string(jt.required_depth)});
    }
    table.print();
    std::printf("(Section III-A: long MAC cycles hide memory timing "
                "fluctuation, enabling SRAM-less operation)\n");
}

void
ablatePreloadOverlap()
{
    std::printf("\n=== Ablation 5: double-buffered weight preload "
                "(8-bit AlexNet, edge) ===\n");
    TablePrinter table({"design", "serial Mcycles", "pipelined Mcycles",
                        "saved %"});
    for (Scheme s : {Scheme::BinaryParallel, Scheme::USystolicRate}) {
        const int ebt = s == Scheme::USystolicRate ? 6 : 0;
        const ArrayConfig array{12, 14, {s, 8, ebt}, {}};
        u64 serial = 0, pipelined = 0;
        for (const auto &layer : alexnetLayers()) {
            const auto t = tileLayer(array, layer);
            serial += t.compute_cycles;
            pipelined += t.pipelined_compute_cycles;
        }
        table.addRow({array.kernel.name(),
                      TablePrinter::num(double(serial) * 1e-6, 1),
                      TablePrinter::num(double(pipelined) * 1e-6, 1),
                      TablePrinter::num(
                          100.0 * (1.0 - double(pipelined) /
                                             double(serial)),
                          1)});
    }
    table.print();
    std::printf("(long unary MAC intervals amortize the preload anyway, "
                "so the optimization matters most for binary designs)\n");
}

} // namespace

int
main(int argc, char **argv)
{
    const BenchOptions opts =
        parseBenchArgs(&argc, argv, "ablation_reuse_sram");
    if (argc > 1)
        fatal(std::string("ablation_reuse_sram: unknown argument: ") +
              argv[1]);
    {
        ScopedTimer timer("ablation suite", "bench");
        ablateBitstreamReuse();
        ablateSramSize();
        ablateRngQuality();
        ablateFifoDepth();
        ablatePreloadOverlap();
    }
    finalizeBench(opts);
    return 0;
}
