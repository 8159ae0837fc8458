/**
 * @file
 * Scalar-vs-packed kernel microbenchmark with a machine-readable
 * artifact (BENCH_kernels.json by default).
 *
 * Times SystolicArray::runFold (the scalar reference engine) against
 * PackedArray::runFold on one 8-bit 16x16 weight-stationary tile per
 * scheme, asserts the outputs agree, records per-fold latencies and
 * speedups in the stats registry under kernel.<tag>.*, and writes the
 * standard stats artifact (schema: tools/bench_kernels_schema.json).
 *
 * With --min-speedup X the binary exits nonzero if the full-period UR
 * speedup falls short — the hook the perf ctest uses to enforce the
 * packed engine's >= 10x floor. Timings use the median of several
 * trials so a loaded CI host doesn't flake the check.
 *
 * A second section times each dispatched SIMD kernel (common/simd.h)
 * generic-vs-best-available (AVX-512 when the host has it, else AVX2)
 * and records simd.<tag>.* stats plus the per-tier availability flags.
 * The SIMD gates self-skip per tier: --min-simd-speedup X (bulk
 * popcount) and --min-gemm-row-speedup X (widening GEMM row) are
 * enforced only when some vector tier is available — on generic-only
 * hosts the ratio is 1 by construction and the gates print a skip
 * note instead of failing.
 *
 * A third section records the absolute time of one 64x64 8-bit UR fold
 * (one product-table lookup per MAC, DESIGN.md §13) as
 * panel.gemm.fold_us.
 *
 * A fourth section times the sparsity subsystem (DESIGN.md §16): the
 * same 256x64x64 8-bit UR fold over inputs with 0/50/90% zero
 * activations, recorded as sparsity.s{0,50,90}.fold_us plus the
 * s0-over-sN ratios sparsity.s{50,90}.speedup_x. --min-sparse-speedup
 * X gates the 90% ratio; the gate self-skips when the fold is too fast
 * to time reliably on a starved host.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/cli.h"
#include "common/event_trace.h"
#include "common/logging.h"
#include "common/prng.h"
#include "common/profiler.h"
#include "common/simd.h"
#include "common/stats_registry.h"
#include "arch/packed_array.h"

namespace usys {
namespace {

Matrix<i32>
randomCodes(int rows, int cols, Prng &prng)
{
    Matrix<i32> m(rows, cols);
    for (int r = 0; r < rows; ++r)
        for (int c = 0; c < cols; ++c)
            m(r, c) = i32(prng.below(255)) - 127;
    return m;
}

/** Median per-fold wall time in microseconds over `trials` timed runs. */
template <typename Fn>
double
medianUsPerFold(Fn &&fold, int reps, int trials)
{
    std::vector<double> samples;
    fold(); // warm caches before timing
    for (int t = 0; t < trials; ++t) {
        const auto start = std::chrono::steady_clock::now();
        for (int r = 0; r < reps; ++r)
            fold();
        const auto stop = std::chrono::steady_clock::now();
        const double us =
            std::chrono::duration<double, std::micro>(stop - start)
                .count();
        samples.push_back(us / double(reps));
    }
    std::sort(samples.begin(), samples.end());
    return samples[samples.size() / 2];
}

/** One timed chunk: `reps` calls, reported as us per call. */
template <typename Fn>
double
chunkUs(Fn &&fold, int reps)
{
    const auto start = std::chrono::steady_clock::now();
    for (int r = 0; r < reps; ++r)
        fold();
    const auto stop = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::micro>(stop - start)
               .count() /
           double(reps);
}

struct KernelPoint
{
    const char *tag; // stat slug under kernel.<tag>.*
    KernelConfig kern;
    int scalar_reps;
};

} // namespace
} // namespace usys

int
main(int argc, char **argv)
{
    using namespace usys;

    BenchOptions opts = parseBenchArgs(&argc, argv, "perf_smoke");
    if (opts.stats_json.empty())
        opts.stats_json = "BENCH_kernels.json";

    double min_speedup = 0.0, min_simd_speedup = 0.0;
    double min_gemm_row_speedup = 0.0;
    double min_sparse_speedup = 0.0;
    double max_profile_overhead_pct = 0.0;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--min-speedup") == 0) {
            fatalIf(i + 1 >= argc, "--min-speedup requires a value");
            min_speedup = parseDoubleFlag("--min-speedup", argv[++i],
                                          0.0, 1e6);
        } else if (std::strcmp(argv[i], "--min-simd-speedup") == 0) {
            fatalIf(i + 1 >= argc, "--min-simd-speedup requires a value");
            min_simd_speedup = parseDoubleFlag("--min-simd-speedup",
                                               argv[++i], 0.0, 1e6);
        } else if (std::strcmp(argv[i], "--min-gemm-row-speedup") == 0) {
            fatalIf(i + 1 >= argc,
                    "--min-gemm-row-speedup requires a value");
            min_gemm_row_speedup = parseDoubleFlag(
                "--min-gemm-row-speedup", argv[++i], 0.0, 1e6);
        } else if (std::strcmp(argv[i], "--min-sparse-speedup") == 0) {
            fatalIf(i + 1 >= argc,
                    "--min-sparse-speedup requires a value");
            min_sparse_speedup = parseDoubleFlag("--min-sparse-speedup",
                                                 argv[++i], 0.0, 1e6);
        } else if (std::strcmp(argv[i], "--max-profile-overhead-pct") ==
                   0) {
            fatalIf(i + 1 >= argc,
                    "--max-profile-overhead-pct requires a value");
            max_profile_overhead_pct = parseDoubleFlag(
                "--max-profile-overhead-pct", argv[++i], 0.0, 1e6);
        } else {
            fatal(std::string("perf_smoke: unknown argument: ") + argv[i]);
        }
    }

    const int bits = 8;
    const int dim = 16; // 16x16 tile, 16 input rows
    ArrayConfig cfg;
    cfg.rows = dim;
    cfg.cols = dim;

    // Full-period UR is the headline kernel (the acceptance floor);
    // the rest give every unary scheme a perf trajectory.
    const KernelPoint points[] = {
        {"ur", {Scheme::USystolicRate, bits, 0}, 5},
        {"ur_ebt6", {Scheme::USystolicRate, bits, 6}, 10},
        {"ut", {Scheme::USystolicTemporal, bits, 0}, 5},
        {"ug", {Scheme::UgemmHybrid, bits, 0}, 3},
        {"bs", {Scheme::BinarySerial, bits, 0}, 20},
        {"tub", {Scheme::TubGemm, bits, 0}, 5},
        // tuGEMM's scalar engine walks 2^(2(N-1)) cycles per fold — a
        // single rep keeps the bench's wall time sane.
        {"tu", {Scheme::TuGemm, bits, 0}, 1},
    };

    StatsRegistry &reg = statsRegistry();
    reg.counter("kernel.tile.rows", "benchmark tile rows").set(u64(dim));
    reg.counter("kernel.tile.cols", "benchmark tile cols").set(u64(dim));
    reg.counter("kernel.tile.m", "input rows per fold").set(u64(dim));
    reg.counter("kernel.tile.bits", "data bitwidth").set(u64(bits));

    double ur_speedup = 0.0;
    {
        ScopedTimer timer("perf_smoke", "bench");
        USYS_PROF_SCOPE("perf.kernels");
        Prng prng(17);
        const auto input = randomCodes(dim, dim, prng);
        const auto weights = randomCodes(dim, dim, prng);

        std::printf("%-10s %14s %14s %10s\n", "kernel", "scalar us/fold",
                    "packed us/fold", "speedup");
        for (const auto &p : points) {
            cfg.kernel = p.kern;
            const SystolicArray scalar(cfg);
            const PackedArray packed(cfg);

            // Equivalence sanity: a perf number for a wrong kernel is
            // worse than no number.
            FoldStatsDelta scratch;
            const auto ref = scalar.runFold(input, weights, &scratch);
            const auto got = packed.runFold(input, weights, &scratch);
            fatalIf(!(ref.output == got.output) || ref.cycles != got.cycles,
                    std::string("packed/scalar mismatch for ") +
                        p.kern.name());

            const double scalar_us = medianUsPerFold(
                [&] { scalar.runFold(input, weights, &scratch); },
                p.scalar_reps, 3);
            const double packed_us = medianUsPerFold(
                [&] { packed.runFold(input, weights, &scratch); },
                p.scalar_reps * 20, 3);
            const double speedup = scalar_us / packed_us;
            if (std::strcmp(p.tag, "ur") == 0)
                ur_speedup = speedup;

            const std::string slug = std::string("kernel.") + p.tag;
            reg.scalar(slug + ".scalar_us", "scalar reference us per fold")
                .set(scalar_us);
            reg.scalar(slug + ".packed_us", "packed engine us per fold")
                .set(packed_us);
            reg.scalar(slug + ".speedup_x", "scalar/packed fold-time ratio")
                .set(speedup);
            std::printf("%-10s %14.2f %14.2f %9.1fx\n", p.kern.name().c_str(),
                        scalar_us, packed_us, speedup);
        }
    }

    // ---- Profiling overhead guard -------------------------------------
    // The profiler's disabled path must be invisible in the headline
    // packed UR kernel: compare two identical profiling-off measurements
    // (an A/A run — the scopes compiled in both times, recording in
    // neither) and require them within --max-profile-overhead-pct. The
    // enabled-scopes delta is recorded for trend-watching but not gated:
    // it prices the scopes themselves, which are opt-in.
    double profile_off_delta_pct = 0.0;
    {
        Profiler &prof = Profiler::global();
        const bool was_profiling = prof.enabled();
        Prng prng(17);
        const auto input = randomCodes(dim, dim, prng);
        const auto weights = randomCodes(dim, dim, prng);
        cfg.kernel = {Scheme::USystolicRate, bits, 0};
        const PackedArray packed(cfg);
        FoldStatsDelta scratch;
        auto fold = [&] { packed.runFold(input, weights, &scratch); };

        // Interleave the A / B / scopes-on trials and take the minimum
        // of each: sequential blocks see monotonic frequency drift
        // (turbo decay under sustained load) as a fake A-vs-B delta,
        // while interleaved chunks expose all three measurements to
        // the same drift. Min-of-trials then squeezes out scheduler
        // noise — what an A/A comparison at a 2% tolerance needs.
        double baseline_us = 1e300, off_us = 1e300, on_us = 1e300;
        prof.setEnabled(false);
        fold(); // warm caches and arenas before timing
        for (int t = 0; t < 9; ++t) {
            baseline_us = std::min(baseline_us, chunkUs(fold, 200));
            off_us = std::min(off_us, chunkUs(fold, 200));
            prof.setEnabled(true);
            on_us = std::min(on_us, chunkUs(fold, 200));
            prof.setEnabled(false);
        }
        prof.setEnabled(was_profiling);

        profile_off_delta_pct =
            100.0 * std::abs(off_us - baseline_us) / baseline_us;
        const double on_delta_pct =
            100.0 * (on_us - baseline_us) / baseline_us;
        reg.scalar("kernel.profile_overhead.baseline_us",
                   "packed UR fold, profiling disabled (pass A)")
            .set(baseline_us);
        reg.scalar("kernel.profile_overhead.off_us",
                   "packed UR fold, profiling disabled (pass B)")
            .set(off_us);
        reg.scalar("kernel.profile_overhead.on_us",
                   "packed UR fold, scopes recording")
            .set(on_us);
        reg.scalar("kernel.profile_overhead.off_delta_pct",
                   "|A - B| / A of the disabled-profiling passes")
            .set(profile_off_delta_pct);
        std::printf("\nprofile overhead: off %.2f/%.2f us (%.2f%% A/A), "
                    "on %.2f us (%+.2f%%)\n",
                    baseline_us, off_us, profile_off_delta_pct, on_us,
                    on_delta_pct);
    }

    // ---- SIMD kernel tier: generic vs best-available ------------------
    // "Best" is the highest tier the host supports (AVX-512 over AVX2);
    // each tier's availability is recorded so downstream comparisons
    // (bench_kernels_regress) can exempt host-dependent sections.
    const SimdKernels &gen = genericKernels();
    const SimdKernels *best = avx512Kernels();
    if (!best)
        best = avx2Kernels();
    if (!best)
        best = neonKernels();
    const bool have_simd = best != nullptr;
    reg.counter("simd.avx2_available",
                "1 when the AVX2 kernel table is usable on this host")
        .set(u64(avx2Kernels() != nullptr));
    reg.counter("simd.avx512_available",
                "1 when the AVX-512 kernel table is usable on this host")
        .set(u64(avx512Kernels() != nullptr));
    reg.counter("simd.neon_available",
                "1 when the NEON kernel table is usable on this host")
        .set(u64(neonKernels() != nullptr));
    reg.counter("simd.active_level",
                "dispatched SIMD tier (0 generic, 1 avx2, 2 avx512, "
                "3 neon)")
        .set(u64(simdLevel()));

    double popcount_speedup = 1.0;
    double gemm_row_speedup = 1.0;
    {
        ScopedTimer timer("perf_smoke_simd", "bench");
        USYS_PROF_SCOPE("perf.simd");
        Prng prng(29);
        const std::size_t nwords = std::size_t(1) << 15; // 2 Mbit
        std::vector<u64> words(nwords);
        for (auto &w : words)
            w = prng.next();
        const u32 nvals = u32(1) << 16;
        std::vector<u32> vals(nvals);
        for (auto &v : vals)
            v = u32(prng.below(257));
        std::vector<u64> pack_a(nvals / 64), pack_b(nvals / 64);
        const int vn = 4096;
        // The i64 output row spills L1 at vn (32 KiB of c alone), which
        // would measure DRAM bandwidth instead of the kernel — keep the
        // integer GEMM row L1-resident (b + both c copies = 40 KiB)
        // while amortizing per-call dispatch overhead.
        const int gn = 2048;
        std::vector<float> fb(vn), fc_a(vn), fc_b(vn);
        std::vector<i32> ib(gn);
        std::vector<i64> ic_a(gn, 0), ic_b(gn, 0);
        for (int j = 0; j < vn; ++j) {
            fb[j] = float(prng.uniform(-1.0, 1.0));
            fc_a[j] = fc_b[j] = float(prng.uniform(-1.0, 1.0));
        }
        for (int j = 0; j < gn; ++j)
            ib[j] = i32(prng.next());

        // Parity before timing: a fast wrong kernel must fail here, not
        // ship a perf number.
        const SimdKernels &chk = have_simd ? *best : gen;
        fatalIf(gen.popcountWords(words.data(), nwords) !=
                    chk.popcountWords(words.data(), nwords),
                "simd popcount parity failure");
        gen.thresholdPackWords(vals.data(), nvals, 128, pack_a.data());
        chk.thresholdPackWords(vals.data(), nvals, 128, pack_b.data());
        fatalIf(pack_a != pack_b, "simd threshold-pack parity failure");
        gen.axpyF32(fc_a.data(), fb.data(), 0.25f, vn);
        chk.axpyF32(fc_b.data(), fb.data(), 0.25f, vn);
        fatalIf(std::memcmp(fc_a.data(), fc_b.data(),
                            std::size_t(vn) * sizeof(float)) != 0,
                "simd axpy parity failure");
        gen.gemmRowI32(ic_a.data(), ib.data(), -12345, gn);
        chk.gemmRowI32(ic_b.data(), ib.data(), -12345, gn);
        fatalIf(ic_a != ic_b, "simd gemm-row parity failure");

        std::printf("\n%-16s %14s %14s %10s   (active: %s)\n",
                    "simd kernel", "generic us", "simd us", "speedup",
                    simdLevelName(simdLevel()));
        volatile u64 sink = 0;
        auto record = [&](const char *tag, auto &&gen_fn, auto &&best_fn,
                          int reps) {
            // Interleaved min-of-chunks, same trick as the profiler
            // overhead guard: both kernels sample every point of the
            // turbo-frequency decay, so the ratio reflects the kernels
            // rather than which one was timed first.
            gen_fn();
            best_fn(); // warm caches before timing
            double gen_us = 1e300, best_us = 1e300;
            for (int t = 0; t < 7; ++t) {
                gen_us = std::min(gen_us, chunkUs(gen_fn, reps));
                best_us = std::min(best_us, chunkUs(best_fn, reps));
            }
            const double speedup = gen_us / best_us;
            const std::string slug = std::string("simd.") + tag;
            reg.scalar(slug + ".generic_us",
                       "portable kernel us per call")
                .set(gen_us);
            reg.scalar(slug + ".simd_us",
                       "best-available kernel us per call")
                .set(best_us);
            reg.scalar(slug + ".speedup_x",
                       "generic/simd kernel-time ratio")
                .set(speedup);
            std::printf("%-16s %14.3f %14.3f %9.1fx\n", tag, gen_us,
                        best_us, speedup);
            return speedup;
        };

        popcount_speedup = record(
            "popcount",
            [&] { sink = sink + gen.popcountWords(words.data(), nwords); },
            [&] { sink = sink + chk.popcountWords(words.data(), nwords); },
            50);
        record(
            "threshold_pack",
            [&] {
                gen.thresholdPackWords(vals.data(), nvals, 128,
                                       pack_a.data());
            },
            [&] {
                chk.thresholdPackWords(vals.data(), nvals, 128,
                                       pack_b.data());
            },
            50);
        record(
            "axpy_f32",
            [&] { gen.axpyF32(fc_a.data(), fb.data(), 1.0f, vn); },
            [&] { chk.axpyF32(fc_b.data(), fb.data(), 1.0f, vn); }, 500);
        gemm_row_speedup = record(
            "gemm_row_i32",
            [&] { gen.gemmRowI32(ic_a.data(), ib.data(), 7, gn); },
            [&] { chk.gemmRowI32(ic_b.data(), ib.data(), 7, gn); },
            2000);
    }

    // ---- 64x64 fold, absolute time ------------------------------------
    // A 64x64 8-bit UR tile with 64 input rows, large enough that the
    // table-lookup MAC loop dominates the per-fold weight staging.
    {
        ScopedTimer timer("perf_smoke_panel", "bench");
        USYS_PROF_SCOPE("perf.panel");
        const int pdim = 64;
        Prng prng(43);
        const auto input = randomCodes(pdim, pdim, prng);
        const auto weights = randomCodes(pdim, pdim, prng);
        ArrayConfig pcfg;
        pcfg.rows = pdim;
        pcfg.cols = pdim;
        pcfg.kernel = {Scheme::USystolicRate, bits, 0};
        const PackedArray packed(pcfg);
        FoldStatsDelta scratch;
        const double fold_us = medianUsPerFold(
            [&] { packed.runFold(input, weights, &scratch); }, 3, 3);

        reg.scalar("panel.gemm.fold_us", "64x64 8-bit UR fold")
            .set(fold_us);
        std::printf("\npanel gemm (%dx%d ur%d): %.2f us/fold\n", pdim, pdim,
                    bits, fold_us);
    }

    // ---- Sparsity: zero-heavy inputs vs a dense input ----------------
    // Activation sparsity is what the packed fold skips (weights stay
    // dense, mirroring ReLU-fed layers). Zero skipping is how the one
    // packed path works, so the baseline is the same fold over an
    // input with no zeros to skip.
    double sparse_speedup_90 = 1.0;
    double dense_us = 0.0;
    {
        ScopedTimer timer("perf_smoke_sparsity", "bench");
        USYS_PROF_SCOPE("perf.sparsity");
        // Tall fold (256 input rows on a 64x64 tile): the MAC loop that
        // zero skipping shortens dominates the activation-independent
        // weight staging, as in real im2col layers where M >> R.
        const int sdim = 64;
        const int srows = 256;
        Prng prng(57);
        const auto weights = randomCodes(sdim, sdim, prng);
        ArrayConfig scfg;
        scfg.rows = sdim;
        scfg.cols = sdim;
        scfg.kernel = {Scheme::USystolicRate, bits, 0};
        const PackedArray packed(scfg);
        FoldStatsDelta scratch;

        const struct
        {
            const char *tag;
            u64 pct;
        } levels[] = {{"s0", 0}, {"s50", 50}, {"s90", 90}};
        std::vector<Matrix<i32>> inputs;
        for (const auto &lv : levels) {
            auto input = randomCodes(srows, sdim, prng);
            for (int r = 0; r < srows; ++r)
                for (int c = 0; c < sdim; ++c)
                    if (prng.below(100) < lv.pct)
                        input(r, c) = 0;
            inputs.push_back(std::move(input));
        }

        // Interleaved min-of-chunks (see the profiler guard): every
        // level samples every point of the turbo decay.
        std::vector<double> us(inputs.size(), 1e300);
        for (int t = 0; t < 7; ++t)
            for (std::size_t i = 0; i < inputs.size(); ++i) {
                const auto fold = [&] {
                    packed.runFold(inputs[i], weights, &scratch);
                };
                us[i] = std::min(us[i], chunkUs(fold, 3));
            }
        dense_us = us[0];

        std::printf("\n%-16s %14s %10s\n", "sparsity", "us/fold",
                    "speedup");
        for (std::size_t i = 0; i < inputs.size(); ++i) {
            const std::string slug =
                std::string("sparsity.") + levels[i].tag;
            reg.scalar(slug + ".fold_us",
                       "256x64x64 8-bit UR fold at this activation "
                       "sparsity")
                .set(us[i]);
            if (i == 0) {
                std::printf("%-16s %14.2f\n", levels[i].tag, us[i]);
                continue;
            }
            const double speedup = dense_us / us[i];
            if (std::strcmp(levels[i].tag, "s90") == 0)
                sparse_speedup_90 = speedup;
            reg.scalar(slug + ".speedup_x",
                       "s0/this fold-time ratio (dense over sparse input)")
                .set(speedup);
            std::printf("%-16s %14.2f %9.1fx\n", levels[i].tag, us[i],
                        speedup);
        }
    }

    finalizeBench(opts);

    if (min_sparse_speedup > 0.0) {
        // A starved/overloaded host can squeeze the 64x64 fold below
        // reliable timer resolution; the gate self-skips there the way
        // the SIMD gates skip on generic-only hosts.
        if (dense_us < 5.0) {
            std::printf("perf_smoke: sparse speedup gate skipped — "
                        "dense fold too fast to time reliably "
                        "(%.2f us)\n",
                        dense_us);
        } else if (sparse_speedup_90 < min_sparse_speedup) {
            std::fprintf(stderr,
                         "perf_smoke: 90%% sparse speedup %.1fx below "
                         "required %.1fx\n",
                         sparse_speedup_90, min_sparse_speedup);
            return 1;
        }
    }

    if (min_simd_speedup > 0.0) {
        if (!have_simd) {
            std::printf("perf_smoke: SIMD speedup gate skipped — no "
                        "vector tier available on this host/build\n");
        } else if (popcount_speedup < min_simd_speedup) {
            std::fprintf(stderr,
                         "perf_smoke: SIMD popcount speedup %.1fx below "
                         "required %.1fx\n",
                         popcount_speedup, min_simd_speedup);
            return 1;
        }
    }

    if (min_gemm_row_speedup > 0.0) {
        if (!have_simd) {
            std::printf("perf_smoke: GEMM-row speedup gate skipped — no "
                        "vector tier available on this host/build\n");
        } else if (gemm_row_speedup < min_gemm_row_speedup) {
            std::fprintf(stderr,
                         "perf_smoke: SIMD gemm_row_i32 speedup %.1fx "
                         "below required %.1fx\n",
                         gemm_row_speedup, min_gemm_row_speedup);
            return 1;
        }
    }

    if (min_speedup > 0.0 && ur_speedup < min_speedup) {
        std::fprintf(stderr,
                     "perf_smoke: UR speedup %.1fx below required %.1fx\n",
                     ur_speedup, min_speedup);
        return 1;
    }

    if (max_profile_overhead_pct > 0.0 &&
        profile_off_delta_pct > max_profile_overhead_pct) {
        std::fprintf(stderr,
                     "perf_smoke: profiling-disabled A/A delta %.2f%% "
                     "exceeds %.2f%%\n",
                     profile_off_delta_pct, max_profile_overhead_pct);
        return 1;
    }
    return 0;
}
