/**
 * @file
 * google-benchmark microbenchmarks of the library's hot kernels: Sobol
 * generation, cycle-level uMUL stepping, the O(1) product tables, the
 * functional GEMM engines, and the bit-level systolic array.
 */

#include <benchmark/benchmark.h>

#include "common/cli.h"
#include "common/event_trace.h"
#include "common/matrix.h"
#include "common/prng.h"
#include "common/simd.h"
#include "arch/array.h"
#include "arch/rtl_array.h"
#include "mem/dram_timing.h"
#include "arch/functional.h"
#include "unary/bitstream.h"
#include "unary/product_table.h"
#include "unary/sobol.h"
#include "unary/umul.h"

namespace usys {
namespace {

void
BM_SobolNext(benchmark::State &state)
{
    SobolSequence seq(1, int(state.range(0)));
    for (auto _ : state)
        benchmark::DoNotOptimize(seq.next());
}
BENCHMARK(BM_SobolNext)->Arg(7)->Arg(11);

void
BM_CbsgUmulFullPeriod(benchmark::State &state)
{
    const int mag_bits = int(state.range(0));
    const u32 period = u32(1) << mag_bits;
    for (auto _ : state) {
        RateBsg input(period / 3, 1, mag_bits);
        CbsgUmul mul(period / 2, mag_bits, 0);
        u32 ones = 0;
        for (u32 t = 0; t < period; ++t)
            ones += mul.step(input.nextBit());
        benchmark::DoNotOptimize(ones);
    }
    state.SetItemsProcessed(state.iterations() * period);
}
BENCHMARK(BM_CbsgUmulFullPeriod)->Arg(7)->Arg(9);

void
BM_ProductTableMac(benchmark::State &state)
{
    const UnaryProductModel &model = unaryModelFor(8);
    Prng prng(1);
    u32 i = 0;
    for (auto _ : state) {
        i = (i + 37) & 127;
        benchmark::DoNotOptimize(model.fullProduct(i, (i * 11) & 127));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ProductTableMac);

Matrix<i32>
randomCodes(int rows, int cols, Prng &prng)
{
    Matrix<i32> m(rows, cols);
    for (int r = 0; r < rows; ++r)
        for (int c = 0; c < cols; ++c)
            m(r, c) = i32(prng.below(255)) - 127;
    return m;
}

void
BM_CycleLevelArrayFold(benchmark::State &state)
{
    ArrayConfig cfg;
    cfg.rows = 8;
    cfg.cols = 8;
    cfg.kernel = {Scheme(state.range(0)), 8, 0};
    SystolicArray array(cfg);
    Prng prng(3);
    auto input = randomCodes(16, 8, prng);
    auto weights = randomCodes(8, 8, prng);
    for (auto _ : state)
        benchmark::DoNotOptimize(array.runFold(input, weights));
}
BENCHMARK(BM_CycleLevelArrayFold)
    ->Arg(int(Scheme::BinaryParallel))
    ->Arg(int(Scheme::USystolicRate));

void
BM_RtlArrayFold(benchmark::State &state)
{
    ArrayConfig cfg;
    cfg.rows = 8;
    cfg.cols = 8;
    cfg.kernel = {Scheme::USystolicRate, 8, 6};
    RtlArray array(cfg);
    Prng prng(4);
    auto input = randomCodes(8, 8, prng);
    auto weights = randomCodes(8, 8, prng);
    for (auto _ : state)
        benchmark::DoNotOptimize(array.runFold(input, weights));
}
BENCHMARK(BM_RtlArrayFold);

// SIMD kernel tiers: argument `arg` = 0 generic, 1 avx2, 2 avx512
// (tiers absent on this host/build skip with an error).
const SimdKernels *
tierForArg(benchmark::State &state, int arg = 0)
{
    if (state.range(arg) == 0)
        return &genericKernels();
    if (state.range(arg) == 2) {
        const SimdKernels *avx512 = avx512Kernels();
        if (!avx512)
            state.SkipWithError("AVX-512 unavailable on this host/build");
        return avx512;
    }
    const SimdKernels *avx2 = avx2Kernels();
    if (!avx2)
        state.SkipWithError("AVX2 unavailable on this host/build");
    return avx2;
}

void
BM_SimdAxpyF32(benchmark::State &state)
{
    const SimdKernels *k = tierForArg(state);
    if (!k)
        return;
    Prng prng(8);
    const int n = 4096;
    std::vector<float> c(n), b(n);
    for (int j = 0; j < n; ++j) {
        c[j] = float(prng.uniform(-1.0, 1.0));
        b[j] = float(prng.uniform(-1.0, 1.0));
    }
    for (auto _ : state) {
        k->axpyF32(c.data(), b.data(), 1e-6f, n);
        benchmark::DoNotOptimize(c.data());
    }
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_SimdAxpyF32)->Arg(0)->Arg(1)->Arg(2);

/**
 * The functional GEMM at the repository benchmark's conv-slice shape,
 * 128 x 576 x 112 with activation codes 1-127 (gemm_dense's) and
 * weights in [-127, 127], on one scheme (first argument) and SIMD tier
 * (second). The executor dispatches through simdKernels(), so the tier
 * is pinned for the run and restored after it.
 */
void
BM_FunctionalGemm(benchmark::State &state)
{
    const SimdKernels *k = tierForArg(state, 1);
    if (!k)
        return;
    const SimdLevel before = simdLevel();
    setSimdMode(simdLevelName(k->level));
    const Scheme scheme = Scheme(state.range(0));
    GemmExecutor exec({scheme, 8, 0});
    Prng prng(2);
    Matrix<i32> a(128, 576), b(576, 112);
    for (i32 &v : a.data())
        v = i32(1 + prng.below(127));
    for (i32 &v : b.data())
        v = i32(prng.below(255)) - 127;
    for (auto _ : state)
        benchmark::DoNotOptimize(exec.run(a, b));
    state.SetItemsProcessed(state.iterations() * 128 * 576 * 112);
    setSimdMode(simdLevelName(before));
}
BENCHMARK(BM_FunctionalGemm)->Apply([](benchmark::internal::Benchmark *b) {
    for (const Scheme s : {Scheme::BinaryParallel, Scheme::USystolicRate,
                           Scheme::UgemmHybrid})
        for (int tier : {0, 1, 2})
            b->Args({int(s), tier});
});

void
BM_DramDeviceStream(benchmark::State &state)
{
    DramDevice dram(ddr3Chip(), 0.4);
    for (auto _ : state) {
        dram.reset();
        Cycles t = 0;
        for (u64 addr = 0; addr < (u64(1) << 16); addr += 64)
            t = dram.access(addr, 64, t);
        benchmark::DoNotOptimize(t);
    }
    state.SetBytesProcessed(state.iterations() * (u64(1) << 16));
}
BENCHMARK(BM_DramDeviceStream);

} // namespace
} // namespace usys

int
main(int argc, char **argv)
{
    // Strip the shared observability flags before google-benchmark's own
    // argument parser sees the command line.
    const usys::BenchOptions opts =
        usys::parseBenchArgs(&argc, argv, "micro_kernels");
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    {
        usys::ScopedTimer timer("micro_kernels", "bench");
        benchmark::RunSpecifiedBenchmarks();
    }
    benchmark::Shutdown();
    usys::finalizeBench(opts);
    return 0;
}
