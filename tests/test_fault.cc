/**
 * @file
 * Fault-injection subsystem tests: corruption-operator semantics, the
 * determinism contract of counter-based site resolution, cross-engine
 * parity with injection enabled (scalar vs packed vs RTL vs functional,
 * at multiple thread counts), checkpoint round-trips, and resilience
 * shard reproducibility. The parity suites are the load-bearing ones —
 * the fault model is only usable because every engine resolves and
 * applies the same plan bit-exactly.
 */

#include <cstdio>
#include <cstring>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/checkpoint.h"
#include "common/cli.h"
#include "common/executor.h"
#include "common/fixed_point.h"
#include "common/json.h"
#include "common/prng.h"
#include "common/stats_registry.h"
#include "arch/array.h"
#include "arch/functional.h"
#include "arch/packed_array.h"
#include "arch/rtl_array.h"
#include "eval/resilience.h"
#include "fault/fault.h"
#include "mem/dram_faults.h"
#include "unary/bitstream.h"

namespace usys {
namespace {

constexpr FaultKind kKinds[] = {FaultKind::BitFlip, FaultKind::StuckAt0,
                               FaultKind::StuckAt1, FaultKind::Burst};

Matrix<i32>
randomMatrix(int rows, int cols, int bits, Prng &prng)
{
    const i32 max_mag = maxMagnitude(bits);
    Matrix<i32> m(rows, cols);
    for (int r = 0; r < rows; ++r)
        for (int c = 0; c < cols; ++c)
            m(r, c) = i32(prng.below(2 * u64(max_mag) + 1)) - max_mag;
    return m;
}

FaultPlan
allSitePlan(u64 seed, FaultKind kind, double rate)
{
    FaultPlan plan;
    plan.seed = seed;
    plan.kind = kind;
    plan.burst_len = 3;
    plan.rates.weight_reg = rate;
    plan.rates.activation_stream = rate;
    plan.rates.weight_stream = rate;
    plan.rates.accumulator = rate;
    plan.rates.dram_word = rate;
    return plan;
}

// --- Corruption-operator semantics ----------------------------------

TEST(FaultOps, WordAndBitCorruptionAgree)
{
    Prng prng(0xFA17ull);
    for (FaultKind kind : kKinds) {
        for (int trial = 0; trial < 16; ++trial) {
            Fault f;
            f.kind = kind;
            f.first = u32(prng.below(90));
            f.len = kind == FaultKind::Burst ? 1 + u32(prng.below(8)) : 1;
            const u64 word = prng.next();
            for (u64 base : {u64(0), u64(64)}) {
                const u64 corrupted = f.applyToWord(word, base);
                for (u32 i = 0; i < 64; ++i) {
                    const bool in = (word >> i) & 1;
                    const bool out = (corrupted >> i) & 1;
                    const u32 k = u32(base) + i;
                    if (f.covers(k))
                        EXPECT_EQ(out, f.corruptBit(in, k))
                            << faultKindName(kind) << " bit " << k;
                    else
                        EXPECT_EQ(out, in)
                            << faultKindName(kind) << " bit " << k;
                }
            }
        }
    }
}

TEST(FaultOps, ApplyToWordOutsideWindowIsIdentity)
{
    Fault f;
    f.kind = FaultKind::BitFlip;
    f.first = 70;
    f.len = 1;
    EXPECT_EQ(f.applyToWord(0xDEADBEEFull, 0), 0xDEADBEEFull);
    EXPECT_NE(f.applyToWord(0xDEADBEEFull, 64), 0xDEADBEEFull);
}

TEST(FaultOps, ApplyToIntSignExtends)
{
    Fault msb;
    msb.kind = FaultKind::BitFlip;
    msb.first = 7;
    msb.len = 1;
    // Flipping the sign bit of an 8-bit value moves it by -+128.
    EXPECT_EQ(msb.applyToInt(3, 8), 3 - 128);
    EXPECT_EQ(msb.applyToInt(-5, 8), -5 + 128);

    Fault sa0;
    sa0.kind = FaultKind::StuckAt0;
    sa0.first = 7;
    sa0.len = 1;
    EXPECT_EQ(sa0.applyToInt(-1, 8), 127); // 0xFF -> 0x7F
    EXPECT_EQ(sa0.applyToInt(5, 8), 5);    // sign bit already 0
}

TEST(FaultOps, CorruptCodeStaysInQuantizerRange)
{
    const int bits = 6;
    const i32 mm = maxMagnitude(bits);
    Prng prng(0xC0DEull);
    for (FaultKind kind : kKinds) {
        for (int trial = 0; trial < 200; ++trial) {
            Fault f;
            f.kind = kind;
            f.first = u32(prng.below(u64(bits)));
            f.len = kind == FaultKind::Burst ? 1 + u32(prng.below(4)) : 1;
            const i32 code = i32(prng.below(2 * u64(mm) + 1)) - mm;
            const i32 out = corruptCode(f, code, bits);
            EXPECT_GE(out, -mm);
            EXPECT_LE(out, mm);
        }
    }
}

TEST(FaultOps, CorruptMagnitudePreservesSign)
{
    const int bits = 6;
    const i32 mm = maxMagnitude(bits);
    Prng prng(0x516ull);
    for (FaultKind kind : kKinds) {
        for (int trial = 0; trial < 200; ++trial) {
            Fault f;
            f.kind = kind;
            f.first = u32(prng.below(u64(bits - 1)));
            f.len = kind == FaultKind::Burst ? 1 + u32(prng.below(4)) : 1;
            const i32 code = i32(prng.below(2 * u64(mm) + 1)) - mm;
            const i32 out = corruptMagnitude(f, code, bits);
            EXPECT_GE(out, -mm);
            EXPECT_LE(out, mm);
            if (code > 0) {
                EXPECT_GE(out, 0) << "positive sign lost";
            }
            if (code < 0) {
                EXPECT_LE(out, 0) << "negative sign lost";
            }
        }
    }
}

TEST(FaultOps, KindNamesRoundTrip)
{
    for (FaultKind kind : kKinds)
        EXPECT_EQ(parseFaultKind(faultKindName(kind)), kind);
    EXPECT_EXIT(parseFaultKind("bogus"),
                ::testing::ExitedWithCode(1), "fault kind");
}

// --- Corrupted stream counting (packed vs scalar form) ---------------

TEST(FaultOps, OnesInWindowMatchesScalarCorruption)
{
    const int bits = 6;
    for (FaultKind kind : kKinds) {
        for (u32 src : {u32(0), u32(13), u32(40), u32(1) << bits}) {
            for (u32 window : {u32(1), u32(37), u32(64), u32(129)}) {
                Fault f;
                f.kind = kind;
                f.first = window > 3 ? window - 3 : 0;
                f.len = kind == FaultKind::Burst ? 5 : 1;

                RateBsg packed_gen(src, 2, bits);
                const u64 packed =
                    onesInWindow(packed_gen, window, &f);

                RateBsg scalar_gen(src, 2, bits);
                u64 scalar = 0;
                for (u32 t = 0; t < window; ++t) {
                    bool bit = scalar_gen.nextBit();
                    if (f.covers(t))
                        bit = f.corruptBit(bit, t);
                    scalar += u64(bit);
                }
                EXPECT_EQ(packed, scalar)
                    << faultKindName(kind) << " src " << src
                    << " window " << window;
            }
        }
    }
}

// --- Determinism of site resolution ----------------------------------

TEST(FaultPlanResolve, PureAndSeedSensitive)
{
    FaultPlan plan = allSitePlan(0xAB5EEDull, FaultKind::BitFlip, 0.3);
    FaultPlan other = plan;
    other.seed = 0xAB5EEEull;

    u64 events = 0, moved = 0;
    for (u64 tile = 0; tile < 4; ++tile) {
        for (int m = 0; m < 6; ++m) {
            for (int r = 0; r < 6; ++r) {
                const auto a = plan.activationStream(tile, m, r, 64);
                const auto b = plan.activationStream(tile, m, r, 64);
                ASSERT_EQ(a.has_value(), b.has_value());
                if (a) {
                    ++events;
                    EXPECT_EQ(a->first, b->first);
                    EXPECT_EQ(a->kind, b->kind);
                    EXPECT_LT(a->first, 64u);
                }
                const auto c = other.activationStream(tile, m, r, 64);
                if (a.has_value() != c.has_value() ||
                    (a && c && a->first != c->first))
                    ++moved;
            }
        }
    }
    // At rate 0.3 over 144 instances both counts are overwhelmingly
    // nonzero; zero would mean the hash ignores the rate or the seed.
    EXPECT_GT(events, 0u);
    EXPECT_GT(moved, 0u);
}

TEST(FaultPlanResolve, RateExtremes)
{
    FaultPlan never = allSitePlan(7, FaultKind::BitFlip, 0.0);
    FaultPlan always = allSitePlan(7, FaultKind::BitFlip, 1.0);
    for (int r = 0; r < 8; ++r) {
        for (int c = 0; c < 8; ++c) {
            EXPECT_FALSE(never.weightReg(0, r, c, 8).has_value());
            EXPECT_TRUE(always.weightReg(0, r, c, 8).has_value());
            EXPECT_FALSE(never.accumulator(0, 1, r, c, 12).has_value());
            EXPECT_TRUE(always.accumulator(0, 1, r, c, 12).has_value());
        }
    }
}

TEST(FaultPlanResolve, SitesAreIndependent)
{
    // Same coordinates, different site: the resolved positions must not
    // be systematically identical (the site id must enter the hash).
    FaultPlan plan = allSitePlan(99, FaultKind::BitFlip, 1.0);
    u64 differing = 0;
    for (int m = 0; m < 16; ++m) {
        const auto a = plan.weightStream(0, m, 1, 2, 64);
        const auto b = plan.accumulator(0, m, 1, 2, 64);
        ASSERT_TRUE(a && b);
        if (a->first != b->first)
            ++differing;
    }
    EXPECT_GT(differing, 0u);
}

TEST(FaultPlanResolve, CountFoldFaultsMatchesResolution)
{
    KernelConfig kern{Scheme::USystolicRate, 6, 0};
    FaultPlan plan = allSitePlan(0x77ull, FaultKind::BitFlip, 0.25);
    const int m_rows = 5, rows = 4, cols = 3;
    const FoldFaultCounts counts =
        countFoldFaults(plan, kern, 2, m_rows, rows, cols);

    u64 wr = 0, act = 0, ws = 0, acc = 0;
    const u32 awin = activationWindow(kern);
    const u32 mul = kern.mulCycles();
    const u32 accw = accumulatorWidth(kern);
    for (int r = 0; r < rows; ++r)
        for (int c = 0; c < cols; ++c)
            wr += plan.weightReg(2, r, c, u32(kern.bits)).has_value();
    for (int m = 0; m < m_rows; ++m)
        for (int r = 0; r < rows; ++r)
            act += plan.activationStream(2, m, r, awin).has_value();
    for (int m = 0; m < m_rows; ++m)
        for (int r = 0; r < rows; ++r)
            for (int c = 0; c < cols; ++c) {
                ws += plan.weightStream(2, m, r, c, mul).has_value();
                acc += plan.accumulator(2, m, r, c, accw).has_value();
            }
    EXPECT_EQ(counts.weight_reg, wr);
    EXPECT_EQ(counts.activation, act);
    EXPECT_EQ(counts.weight_stream, ws);
    EXPECT_EQ(counts.accumulator, acc);
    EXPECT_EQ(counts.total(), wr + act + ws + acc);
}

TEST(FaultPlanResolve, PlanCheckRejectsBadRates)
{
    FaultPlan plan;
    plan.rates.weight_reg = 1.5;
    EXPECT_EXIT(plan.check(), ::testing::ExitedWithCode(1),
                "rate outside");
    FaultPlan burst;
    burst.kind = FaultKind::Burst;
    burst.burst_len = 0;
    EXPECT_EXIT(burst.check(), ::testing::ExitedWithCode(1),
                "burst_len");
}

// --- Cross-engine parity with injection enabled ----------------------

using FaultCase = std::tuple<Scheme, FaultKind>;

class FaultedPackedVsScalar : public ::testing::TestWithParam<FaultCase>
{};

TEST_P(FaultedPackedVsScalar, FoldBitExactWithStats)
{
    const auto [scheme, kind] = GetParam();
    ArrayConfig cfg;
    cfg.rows = 6;
    cfg.cols = 5;
    cfg.kernel = {scheme, 6, scheme == Scheme::USystolicRate ? 4 : 0};
    // DRAM faults live above runFold (SystolicGemm entry), so the fold
    // parity suite drives the four per-fold sites only.
    cfg.faults = allSitePlan(0x1234ull + u64(int(kind)), kind, 0.2);
    cfg.faults.rates.dram_word = 0.0;

    for (u64 tile : {u64(0), u64(3)}) {
        Prng prng(u64(int(scheme)) * 31 + u64(int(kind)) * 7 + tile);
        const auto input = randomMatrix(4, cfg.rows, cfg.kernel.bits,
                                        prng);
        const auto weights = randomMatrix(cfg.rows, cfg.cols,
                                          cfg.kernel.bits, prng);

        FoldStatsDelta sd, pd;
        const auto scalar =
            SystolicArray(cfg).runFold(input, weights, &sd, tile);
        const auto packed =
            PackedArray(cfg).runFold(input, weights, &pd, tile);

        EXPECT_EQ(packed.output, scalar.output)
            << cfg.kernel.name() << " " << faultKindName(kind)
            << " tile " << tile;
        EXPECT_EQ(packed.cycles, scalar.cycles);
        EXPECT_EQ(pd.faults_weight_reg, sd.faults_weight_reg);
        EXPECT_EQ(pd.faults_activation, sd.faults_activation);
        EXPECT_EQ(pd.faults_weight_stream, sd.faults_weight_stream);
        EXPECT_EQ(pd.faults_accumulator, sd.faults_accumulator);
        EXPECT_GT(sd.faultTotal(), 0u)
            << "rate 0.2 plan injected nothing — vacuous parity";
    }
}

TEST_P(FaultedPackedVsScalar, RtlRefereeAgrees)
{
    const auto [scheme, kind] = GetParam();
    ArrayConfig cfg;
    cfg.rows = 4;
    cfg.cols = 4;
    cfg.kernel = {scheme, 5, 0};
    cfg.faults = allSitePlan(0xBEEFull + u64(int(kind)), kind, 0.25);
    cfg.faults.rates.dram_word = 0.0;

    Prng prng(u64(int(scheme)) * 131 + u64(int(kind)));
    const auto input = randomMatrix(3, cfg.rows, cfg.kernel.bits, prng);
    const auto weights =
        randomMatrix(cfg.rows, cfg.cols, cfg.kernel.bits, prng);

    statsRegistry().reset();
    const auto scalar = SystolicArray(cfg).runFold(input, weights);
    statsRegistry().reset();
    const auto rtl = RtlArray(cfg).runFold(input, weights);
    statsRegistry().reset();

    EXPECT_EQ(rtl.output, scalar.output)
        << cfg.kernel.name() << " " << faultKindName(kind);
    EXPECT_EQ(rtl.cycles, scalar.cycles);
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemesAllKinds, FaultedPackedVsScalar,
    ::testing::Combine(
        ::testing::Values(Scheme::BinaryParallel, Scheme::BinarySerial,
                          Scheme::USystolicRate, Scheme::USystolicTemporal,
                          Scheme::UgemmHybrid, Scheme::TubGemm,
                          Scheme::TuGemm),
        ::testing::ValuesIn(kKinds)));

class EngineToggleGuard
{
  public:
    EngineToggleGuard() : was_(packedEngineEnabled()) {}
    ~EngineToggleGuard() { setPackedEngineEnabled(was_); }

  private:
    bool was_;
};

class ThreadGuard
{
  public:
    explicit ThreadGuard(unsigned n) { Executor::global().setThreads(n); }
    ~ThreadGuard() { Executor::global().setThreads(0); }
};

TEST(FaultedGemm, EngineAndThreadCountInvariant)
{
    EngineToggleGuard engine_guard;
    ArrayConfig cfg;
    cfg.rows = 5;
    cfg.cols = 4;
    cfg.kernel = {Scheme::USystolicRate, 6, 0};
    cfg.faults = allSitePlan(0xD15EA5Eull, FaultKind::BitFlip, 0.1);

    Prng prng(42);
    const auto a = randomMatrix(6, 14, cfg.kernel.bits, prng);
    const auto b = randomMatrix(14, 9, cfg.kernel.bits, prng);

    setPackedEngineEnabled(false);
    statsRegistry().reset();
    const auto scalar = SystolicGemm(cfg).run(a, b);
    const std::string scalar_dump = statsRegistry().dumpText();

    setPackedEngineEnabled(true);
    for (unsigned threads : {1u, 3u}) {
        ThreadGuard thread_guard(threads);
        statsRegistry().reset();
        const auto packed = SystolicGemm(cfg).run(a, b);
        const std::string packed_dump = statsRegistry().dumpText();
        EXPECT_EQ(packed.acc, scalar.acc) << threads << " threads";
        EXPECT_EQ(packed.cycles, scalar.cycles);
        EXPECT_EQ(packed_dump, scalar_dump) << threads << " threads";
    }
    statsRegistry().reset();
}

TEST(FaultedGemm, FaultFreeDumpHasNoFaultCounters)
{
    // Registered counters survive registry reset()s, so use a kernel
    // name no other test runs faulted (UR-7b) and scope the search.
    ArrayConfig cfg;
    cfg.rows = 4;
    cfg.cols = 4;
    cfg.kernel = {Scheme::USystolicRate, 7, 0};
    Prng prng(7);
    const auto a = randomMatrix(3, 8, cfg.kernel.bits, prng);
    const auto b = randomMatrix(8, 4, cfg.kernel.bits, prng);
    const std::string tag =
        "arch." + sanitizeStatName(cfg.kernel.name()) + ".faults_";

    statsRegistry().reset();
    SystolicGemm(cfg).run(a, b);
    EXPECT_EQ(statsRegistry().dumpText().find(tag), std::string::npos)
        << "fault counters leaked into a fault-free dump";

    cfg.faults = allSitePlan(1, FaultKind::BitFlip, 0.5);
    statsRegistry().reset();
    SystolicGemm(cfg).run(a, b);
    EXPECT_NE(statsRegistry().dumpText().find(tag), std::string::npos);
    statsRegistry().reset();
}

TEST(FaultedGemm, FunctionalMatchesCycleEngineDramOnly)
{
    // DRAM faults corrupt the operands before tiling, so the functional
    // model fed the same corrupted reads must equal the scalar cycle
    // engine, which simulates every fold.
    EngineToggleGuard engine_guard;
    ArrayConfig cfg;
    cfg.rows = 5;
    cfg.cols = 5;
    cfg.kernel = {Scheme::USystolicRate, 6, 0};
    cfg.faults.seed = 0xD7A3ull;
    cfg.faults.rates.dram_word = 0.3;

    Prng prng(0xF00Dull);
    const auto a = randomMatrix(4, 10, cfg.kernel.bits, prng);
    const auto b = randomMatrix(10, 7, cfg.kernel.bits, prng);

    setPackedEngineEnabled(false);
    statsRegistry().reset();
    const auto cyc = SystolicGemm(cfg).run(a, b);
    statsRegistry().reset();

    auto a_faulted = a;
    auto b_faulted = b;
    const u64 events =
        applyDramFaults(cfg.faults, a_faulted, kDramOperandA,
                        cfg.kernel.bits) +
        applyDramFaults(cfg.faults, b_faulted, kDramOperandB,
                        cfg.kernel.bits);
    ASSERT_GT(events, 0u);
    EXPECT_EQ(GemmExecutor(cfg.kernel).run(a_faulted, b_faulted), cyc.acc);
}

TEST(FaultedGemm, DramCorruptionIsDeterministicPerOperand)
{
    FaultPlan plan;
    plan.seed = 0x44ull;
    plan.rates.dram_word = 0.4;
    Prng prng(5);
    const auto orig = randomMatrix(6, 6, 6, prng);

    Matrix<i32> m1 = orig, m2 = orig;
    const u64 e1 = applyDramFaults(plan, m1, kDramOperandA, 6);
    const u64 e2 = applyDramFaults(plan, m2, kDramOperandA, 6);
    EXPECT_EQ(m1, m2);
    EXPECT_EQ(e1, e2);
    EXPECT_GT(e1, 0u);

    Matrix<i32> mb = orig;
    applyDramFaults(plan, mb, kDramOperandB, 6);
    EXPECT_FALSE(mb == m1) << "operand id ignored by the site hash";
}

// --- Checkpoint round-trips ------------------------------------------

std::string
tempPath(const std::string &stem)
{
    return ::testing::TempDir() + stem;
}

bool
fileExists(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (f)
        std::fclose(f);
    return f != nullptr;
}

TEST(Checkpoint, PackedFieldsRoundTripExactly)
{
    const double doubles[] = {0.0, -0.0, 1.0, -1.5, 0.1, 1e300,
                              5e-324, 3.14159265358979};
    for (double v : doubles) {
        const std::string s = ShardCheckpoint::packDouble(v);
        EXPECT_EQ(s.size(), 16u);
        const double back = ShardCheckpoint::unpackDouble(s);
        EXPECT_EQ(std::memcmp(&back, &v, sizeof v), 0)
            << "bit pattern drifted for " << v;
    }
    for (u64 v : {u64(0), u64(1), ~u64(0), u64(0x0123456789ABCDEF)})
        EXPECT_EQ(ShardCheckpoint::unpackU64(ShardCheckpoint::packU64(v)),
                  v);
    EXPECT_EXIT(ShardCheckpoint::unpackU64("zz"),
                ::testing::ExitedWithCode(1), "");
}

TEST(Checkpoint, RecordLoadRoundTrip)
{
    const std::string path = tempPath("ckpt_roundtrip");
    std::remove(path.c_str());

    ShardCheckpoint writer(path);
    writer.load(); // missing file = fresh start
    EXPECT_EQ(writer.size(), 0u);
    writer.record("ur-r1", "payload one");
    writer.record("bp-r0", "payload two");
    writer.record("ur-r1", "payload one v2"); // overwrite

    ShardCheckpoint reader(path);
    reader.load();
    EXPECT_EQ(reader.size(), 2u);
    EXPECT_TRUE(reader.has("ur-r1"));
    EXPECT_TRUE(reader.has("bp-r0"));
    EXPECT_FALSE(reader.has("missing"));
    EXPECT_EQ(reader.find("ur-r1"), "payload one v2");
    EXPECT_EQ(reader.find("bp-r0"), "payload two");
    EXPECT_EQ(reader.find("missing"), "");
    std::remove(path.c_str());
}

TEST(Checkpoint, DisabledIsInert)
{
    ShardCheckpoint off("");
    EXPECT_FALSE(off.enabled());
    off.load();
    off.record("k", "v"); // full no-op: no store entry, no filesystem
    EXPECT_EQ(off.size(), 0u);
    EXPECT_FALSE(off.has("k"));
}

TEST(Checkpoint, InvalidKeysAreFatal)
{
    ShardCheckpoint c(tempPath("ckpt_key"));
    EXPECT_EXIT(c.record("bad\tkey", "v"),
                ::testing::ExitedWithCode(1), "");
}

/**
 * Corrupt `path` must quarantine, not kill: load() moves the file to
 * `<path>.corrupt`, starts cold, and the checkpoint stays usable.
 */
void
expectQuarantine(const std::string &path)
{
    const std::string corrupt = path + ".corrupt";
    std::remove(corrupt.c_str());

    ShardCheckpoint ckpt(path);
    ckpt.load();
    EXPECT_TRUE(ckpt.quarantined()) << path;
    EXPECT_EQ(ckpt.size(), 0u);
    EXPECT_FALSE(fileExists(path)) << "corrupt file left in place";
    EXPECT_TRUE(fileExists(corrupt)) << "no quarantine file";

    // Cold-start recovery: the same instance records and persists.
    ckpt.record("fresh", "after recovery");
    ShardCheckpoint reader(path);
    reader.load();
    EXPECT_FALSE(reader.quarantined());
    EXPECT_EQ(reader.find("fresh"), "after recovery");

    std::remove(path.c_str());
    std::remove(corrupt.c_str());
}

/** A valid v2 checkpoint file's raw bytes, for targeted corruption. */
std::string
validCheckpointBytes(const std::string &path)
{
    std::remove(path.c_str());
    ShardCheckpoint writer(path);
    writer.load();
    writer.record("ur-r1", "payload one");
    writer.record("bp-r0", "payload two");
    std::FILE *f = std::fopen(path.c_str(), "rb");
    EXPECT_NE(f, nullptr);
    std::string bytes;
    char buf[4096];
    std::size_t got;
    while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0)
        bytes.append(buf, got);
    std::fclose(f);
    EXPECT_GT(bytes.size(), 32u);
    return bytes;
}

TEST(Checkpoint, CorruptFilesAreQuarantinedNotFatal)
{
    const std::string path = tempPath("ckpt_corrupt");
    const std::string good = validCheckpointBytes(path);
    const std::size_t header_end = good.find('\n') + 1;
    ASSERT_GT(header_end, 1u);

    // Wrong magic.
    ASSERT_TRUE(writeTextFile(path, "not-a-checkpoint v2\n"));
    expectQuarantine(path);

    // Old (pre-CRC) version header.
    ASSERT_TRUE(writeTextFile(path,
                              "usys-checkpoint v1\nur-r1\tpayload\n"));
    expectQuarantine(path);

    // Malformed header: no crc/bytes fields.
    ASSERT_TRUE(writeTextFile(path, "usys-checkpoint v2\nk\tv\n"));
    expectQuarantine(path);

    // Truncation: body shorter than the header's byte count.
    ASSERT_TRUE(writeTextFile(
        path, good.substr(0, header_end + (good.size() - header_end) / 2)));
    expectQuarantine(path);

    // Single bit flip in the body: caught by the CRC.
    std::string flipped = good;
    flipped[header_end + (flipped.size() - header_end) / 2] ^= 0x01;
    ASSERT_TRUE(writeTextFile(path, flipped));
    expectQuarantine(path);

    // And the pristine bytes still load — the checks above were not
    // rejecting everything indiscriminately.
    ASSERT_TRUE(writeTextFile(path, good));
    ShardCheckpoint ok(path);
    ok.load();
    EXPECT_FALSE(ok.quarantined());
    EXPECT_EQ(ok.size(), 2u);
    EXPECT_EQ(ok.find("ur-r1"), "payload one");
    std::remove(path.c_str());
}

// --- Resilience shards -----------------------------------------------

TEST(Resilience, DeterministicAndZeroAtRateZero)
{
    ResilienceSpec spec;
    spec.kern = {Scheme::USystolicRate, 6, 0};
    spec.rows = 4;
    spec.cols = 4;
    spec.m = 4;
    spec.k = 12;
    spec.n = 4;
    spec.trials = 2;

    const ResilienceResult clean = runResilienceShard(spec);
    EXPECT_EQ(clean.fault_events, 0u);
    EXPECT_EQ(clean.sum_sq_err, 0.0);
    EXPECT_EQ(clean.nrmse(), 0.0);
    EXPECT_GT(clean.samples, 0u);
    EXPECT_GT(clean.sum_sq_ref, 0.0);

    spec.rates.activation_stream = 0.05;
    spec.rates.accumulator = 0.05;
    const ResilienceResult r1 = runResilienceShard(spec);
    const ResilienceResult r2 = runResilienceShard(spec);
    EXPECT_EQ(r1.samples, r2.samples);
    EXPECT_EQ(r1.fault_events, r2.fault_events);
    EXPECT_EQ(r1.sum_sq_err, r2.sum_sq_err);
    EXPECT_EQ(r1.sum_sq_ref, r2.sum_sq_ref);
    EXPECT_EQ(r1.sum_abs_err, r2.sum_abs_err);
    EXPECT_GT(r1.fault_events, 0u);
}

TEST(Resilience, EngineInvariant)
{
    EngineToggleGuard engine_guard;
    ResilienceSpec spec;
    spec.kern = {Scheme::UgemmHybrid, 6, 0};
    spec.rows = 4;
    spec.cols = 4;
    spec.m = 4;
    spec.k = 8;
    spec.n = 4;
    spec.trials = 1;
    spec.rates.weight_stream = 0.1;
    spec.rates.weight_reg = 0.1;

    setPackedEngineEnabled(true);
    const ResilienceResult packed = runResilienceShard(spec);
    setPackedEngineEnabled(false);
    const ResilienceResult scalar = runResilienceShard(spec);
    EXPECT_EQ(packed.sum_sq_err, scalar.sum_sq_err);
    EXPECT_EQ(packed.sum_sq_ref, scalar.sum_sq_ref);
    EXPECT_EQ(packed.fault_events, scalar.fault_events);
}

TEST(Resilience, SerializeRoundTripsBitExactly)
{
    ResilienceResult r;
    r.samples = 123;
    r.fault_events = 45;
    r.sum_sq_err = 0.1 + 0.2; // deliberately non-representable
    r.sum_sq_ref = 1e18;
    r.sum_abs_err = 5e-324;

    const ResilienceResult back =
        ResilienceResult::deserialize(r.serialize());
    EXPECT_EQ(back.samples, r.samples);
    EXPECT_EQ(back.fault_events, r.fault_events);
    EXPECT_EQ(std::memcmp(&back.sum_sq_err, &r.sum_sq_err, 8), 0);
    EXPECT_EQ(std::memcmp(&back.sum_sq_ref, &r.sum_sq_ref, 8), 0);
    EXPECT_EQ(std::memcmp(&back.sum_abs_err, &r.sum_abs_err, 8), 0);
    EXPECT_EXIT(ResilienceResult::deserialize("1 2 3"),
                ::testing::ExitedWithCode(1), "");
}

} // namespace
} // namespace usys
