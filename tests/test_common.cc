/**
 * @file
 * Unit tests for the common utilities: fixed-point helpers, PRNG,
 * matrices, streaming statistics, parallel loops, and table formatting.
 */

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <set>

#include <gtest/gtest.h>

#include "common/cli.h"
#include "common/fixed_point.h"
#include "common/hash.h"
#include "common/logging.h"
#include "common/matrix.h"
#include "common/executor.h"
#include "common/prng.h"
#include "common/stats.h"
#include "common/table.h"

namespace usys {
namespace {

TEST(FixedPoint, SignMagnitudeRoundtrip)
{
    for (i32 v : {-127, -1, 0, 1, 99, 127}) {
        const SignMag sm = toSignMag(v);
        EXPECT_EQ(sm.toSigned(), v);
        EXPECT_EQ(sm.negative, v < 0);
    }
    EXPECT_EQ(toSignMag(-5).magnitude, 5u);
}

TEST(FixedPoint, QuantizeClampsToMagnitudeRange)
{
    EXPECT_EQ(maxMagnitude(8), 127);
    EXPECT_EQ(quantize(1000.0, 1.0, 8), 127);
    EXPECT_EQ(quantize(-1000.0, 1.0, 8), -127);
    EXPECT_EQ(quantize(0.4, 1.0, 8), 0);
    EXPECT_EQ(quantize(0.6, 1.0, 8), 1);
    EXPECT_DOUBLE_EQ(dequantize(quantize(5.0, 0.5, 8), 0.5), 5.0);
}

TEST(FixedPoint, QuantizeSaturatesBeyondTheIntegerRange)
{
    // Quotients past i32 used to wrap through the integer conversion.
    const double inf = std::numeric_limits<double>::infinity();
    EXPECT_EQ(quantize(3e9, 1.0, 8), 127);
    EXPECT_EQ(quantize(-3e9, 1.0, 8), -127);
    EXPECT_EQ(quantize(1e300, 1e-300, 8), 127);
    EXPECT_EQ(quantize(inf, 1.0, 8), 127);
    EXPECT_EQ(quantize(-inf, 1.0, 8), -127);
    EXPECT_EQ(quantize(1.0, 0.0, 8), 127);
    EXPECT_EQ(quantize(std::numeric_limits<double>::quiet_NaN(), 1.0, 8), 0);
    EXPECT_EQ(quantize(0.0, 0.0, 8), 0); // 0/0 is NaN
}

TEST(FixedPoint, QuantizeRoundsHalfAwayFromZeroLikeLround)
{
    // Bit-identical to clamp(lround(value / scale)) wherever that did not
    // wrap: exact halves, their neighbours one ulp away, and random
    // quotients across and beyond the code range.
    const auto lroundRef = [](double value, double scale, int bits) {
        const i32 max_mag = maxMagnitude(bits);
        return std::clamp(i32(std::lround(value / scale)), -max_mag, max_mag);
    };
    for (int bits : {2, 8, 16}) {
        for (int h = -300; h <= 300; ++h) {
            const double half = h + 0.5;
            for (double v : {half, std::nextafter(half, -1e9),
                             std::nextafter(half, 1e9), double(h)})
                EXPECT_EQ(quantize(v, 1.0, bits), lroundRef(v, 1.0, bits))
                    << v << " at " << bits << " bits";
        }
    }
    EXPECT_EQ(quantize(0.49999999999999994, 1.0, 8), 0);
    EXPECT_EQ(quantize(-0.49999999999999994, 1.0, 8), 0);
    Prng prng(0x9a7u);
    for (int i = 0; i < 100000; ++i) {
        const int bits = 2 + int(prng.below(30));
        // |value / scale| < 2^29, so the reference never wraps.
        const double value =
            (prng.uniform() - 0.5) * std::exp2(double(prng.below(20)));
        const double scale =
            (1.0 + prng.uniform()) * std::exp2(-double(prng.below(10)));
        ASSERT_EQ(quantize(value, scale, bits), lroundRef(value, scale, bits))
            << value << " / " << scale << " at " << bits << " bits";
    }
}

TEST(FixedPoint, SymmetricAndPow2Scales)
{
    EXPECT_DOUBLE_EQ(symmetricScale(127.0, 8), 1.0);
    EXPECT_DOUBLE_EQ(symmetricScale(0.0, 8), 1.0);
    EXPECT_DOUBLE_EQ(pow2Scale(0.7), 1.0);
    EXPECT_DOUBLE_EQ(pow2Scale(1.1), 2.0);
    EXPECT_DOUBLE_EQ(pow2Scale(0.25), 0.25);
}

TEST(Prng, DeterministicAndReseedable)
{
    Prng a(42), b(42), c(43);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
    EXPECT_NE(a.next(), c.next());
    a.reseed(42);
    Prng fresh(42);
    EXPECT_EQ(a.next(), fresh.next());
}

TEST(Prng, UniformBoundsAndMoments)
{
    Prng prng(7);
    OnlineStats uni, gauss;
    for (int i = 0; i < 20000; ++i) {
        const double u = prng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        uni.add(u);
        gauss.add(prng.gaussian());
    }
    EXPECT_NEAR(uni.mean(), 0.5, 0.02);
    EXPECT_NEAR(gauss.mean(), 0.0, 0.05);
    EXPECT_NEAR(gauss.stddev(), 1.0, 0.05);
}

TEST(Prng, BelowCoversRange)
{
    Prng prng(9);
    std::set<u64> seen;
    for (int i = 0; i < 400; ++i)
        seen.insert(prng.below(7));
    EXPECT_EQ(seen.size(), 7u);
    EXPECT_EQ(*seen.rbegin(), 6u);
}

TEST(Matrix, AccessAndEquality)
{
    Matrix<i32> m(2, 3, 5);
    EXPECT_EQ(m.at(1, 2), 5);
    m(0, 1) = 9;
    EXPECT_EQ(m.at(0, 1), 9);
    Matrix<i32> n(2, 3, 5);
    EXPECT_FALSE(m == n);
    n(0, 1) = 9;
    EXPECT_TRUE(m == n);
}

TEST(Matrix, BoundsCheckedAccessPanics)
{
    Matrix<i32> m(2, 2);
    EXPECT_EXIT(m.at(2, 0), ::testing::KilledBySignal(SIGABRT), "");
    EXPECT_EXIT(m.at(0, -1), ::testing::KilledBySignal(SIGABRT), "");
}

TEST(Matrix, ReferenceGemmKnownValues)
{
    Matrix<i32> a(2, 2), b(2, 2);
    a(0, 0) = 1;
    a(0, 1) = 2;
    a(1, 0) = 3;
    a(1, 1) = 4;
    b(0, 0) = 5;
    b(0, 1) = 6;
    b(1, 0) = 7;
    b(1, 1) = 8;
    const auto c = referenceGemm(a, b);
    EXPECT_EQ(c(0, 0), 19);
    EXPECT_EQ(c(0, 1), 22);
    EXPECT_EQ(c(1, 0), 43);
    EXPECT_EQ(c(1, 1), 50);
}

TEST(Stats, OnlineMomentsMatchClosedForm)
{
    OnlineStats s;
    for (double v : {1.0, 2.0, 3.0, 4.0})
        s.add(v);
    EXPECT_EQ(s.count(), 4u);
    EXPECT_DOUBLE_EQ(s.mean(), 2.5);
    EXPECT_DOUBLE_EQ(s.variance(), 1.25);
    EXPECT_DOUBLE_EQ(s.min(), 1.0);
    EXPECT_DOUBLE_EQ(s.max(), 4.0);
    EXPECT_DOUBLE_EQ(s.sum(), 10.0);
}

TEST(Stats, MergeMatchesSinglePass)
{
    // Chan-style parallel merge must reproduce the single-pass moments
    // exactly, the property parallel_for shards rely on.
    Prng prng(11);
    std::vector<double> values;
    for (int i = 0; i < 257; ++i)
        values.push_back(prng.gaussian() * 3.0 + 1.0);

    OnlineStats whole;
    for (double v : values)
        whole.add(v);

    OnlineStats a, b, c;
    for (std::size_t i = 0; i < values.size(); ++i)
        (i < 10 ? a : i % 2 ? b : c).add(values[i]);
    OnlineStats merged;
    merged.merge(a); // merge into empty
    merged.merge(b);
    merged.merge(c);
    merged.merge(OnlineStats{}); // merging empty is a no-op

    EXPECT_EQ(merged.count(), whole.count());
    EXPECT_NEAR(merged.mean(), whole.mean(), 1e-12);
    EXPECT_NEAR(merged.variance(), whole.variance(), 1e-9);
    EXPECT_DOUBLE_EQ(merged.min(), whole.min());
    EXPECT_DOUBLE_EQ(merged.max(), whole.max());
    EXPECT_NEAR(merged.sum(), whole.sum(), 1e-9);
}

TEST(Logging, LevelParsingAndGate)
{
    EXPECT_EQ(parseLogLevel("debug"), LogLevel::Debug);
    EXPECT_EQ(parseLogLevel("inform"), LogLevel::Inform);
    EXPECT_EQ(parseLogLevel("info"), LogLevel::Inform);
    EXPECT_EQ(parseLogLevel("warn"), LogLevel::Warn);
    EXPECT_EQ(parseLogLevel("warning"), LogLevel::Warn);
    EXPECT_EQ(parseLogLevel("quiet"), LogLevel::Quiet);
    EXPECT_EQ(parseLogLevel("none"), LogLevel::Quiet);
    EXPECT_EQ(parseLogLevel("bogus"), LogLevel::Inform);

    const LogLevel saved = logLevel();
    setLogLevel(LogLevel::Quiet);
    EXPECT_EQ(logLevel(), LogLevel::Quiet);
    // Gated paths must be safe to call at any level.
    debug("dropped");
    inform("dropped");
    warn("dropped");
    setLogLevel(saved);
}

TEST(Stats, RmseTracker)
{
    RmseTracker t;
    t.add(10.0, 13.0);
    t.add(10.0, 7.0);
    EXPECT_DOUBLE_EQ(t.rmse(), 3.0);
    EXPECT_DOUBLE_EQ(t.meanError(), 0.0);
    EXPECT_DOUBLE_EQ(t.maxAbsError(), 3.0);
    EXPECT_DOUBLE_EQ(t.normalizedRmse(), 0.3);
    EXPECT_DOUBLE_EQ(pctReduction(10.0, 4.0), 60.0);
}

TEST(ParallelFor, VisitsEveryIndexOnce)
{
    std::vector<std::atomic<int>> hits(997);
    parallelFor(0, hits.size(), [&](u64 i) { hits[i].fetch_add(1); });
    for (const auto &h : hits)
        EXPECT_EQ(h.load(), 1);
    // Empty and reversed ranges are no-ops.
    parallelFor(5, 5, [&](u64) { FAIL(); });
    parallelFor(7, 3, [&](u64) { FAIL(); });
}

TEST(ParallelFor, GrainChunkingVisitsEveryIndexOnce)
{
    // Coverage must be exact for grains that divide the range, leave a
    // ragged tail, exceed the range, or are coerced from 0.
    for (u64 grain : {u64(1), u64(7), u64(64), u64(10000), u64(0)}) {
        std::vector<std::atomic<int>> hits(1003);
        parallelFor(3, 3 + hits.size(),
                    [&](u64 i) { hits[i - 3].fetch_add(1); }, grain);
        for (const auto &h : hits)
            EXPECT_EQ(h.load(), 1) << "grain " << grain;
    }
}

TEST(ParallelFor, GrainEdgeRanges)
{
    // Single-element range: exactly one visit regardless of grain.
    std::atomic<int> calls{0};
    parallelFor(41, 42, [&](u64 i) {
        EXPECT_EQ(i, 41u);
        calls.fetch_add(1);
    }, 16);
    EXPECT_EQ(calls.load(), 1);
    // Empty and reversed ranges stay no-ops with a grain.
    parallelFor(5, 5, [&](u64) { FAIL(); }, 8);
    parallelFor(9, 2, [&](u64) { FAIL(); }, 8);
}

TEST(Stats, RmseTrackerMergeMatchesSinglePass)
{
    Prng prng(5);
    RmseTracker whole, a, b;
    for (int i = 0; i < 100; ++i) {
        const double ref = prng.gaussian();
        const double got = ref + 0.1 * prng.gaussian();
        whole.add(ref, got);
        (i < 37 ? a : b).add(ref, got);
    }
    RmseTracker merged;
    merged.merge(a);
    merged.merge(b);
    EXPECT_EQ(merged.count(), whole.count());
    EXPECT_NEAR(merged.rmse(), whole.rmse(), 1e-12);
    EXPECT_NEAR(merged.normalizedRmse(), whole.normalizedRmse(), 1e-12);
    EXPECT_NEAR(merged.meanError(), whole.meanError(), 1e-12);
    EXPECT_DOUBLE_EQ(merged.maxAbsError(), whole.maxAbsError());
}

TEST(Hash, Crc32cMatchesCastagnoliVectors)
{
    // RFC 3720 appendix B test vector.
    EXPECT_EQ(crc32c("123456789"), 0xE3069283u);
    EXPECT_EQ(crc32c(""), 0u);
    // All-zero runs are the classic "plain sum misses it" case.
    EXPECT_EQ(crc32c(std::string(32, '\0')), 0x8A9136AAu);

    // Chaining: feeding the running crc back in continues the stream.
    const std::string doc = "usystolic checkpoint body\n";
    for (std::size_t cut = 0; cut <= doc.size(); ++cut)
        EXPECT_EQ(crc32c(std::string_view(doc).substr(cut),
                         crc32c(std::string_view(doc).substr(0, cut))),
                  crc32c(doc))
            << "cut at " << cut;

    // A single flipped bit anywhere changes the checksum.
    std::string flipped = doc;
    flipped[doc.size() / 2] ^= 0x01;
    EXPECT_NE(crc32c(flipped), crc32c(doc));
}

TEST(Table, NumberFormatting)
{
    EXPECT_EQ(TablePrinter::num(3.14159, 2), "3.14");
    EXPECT_EQ(TablePrinter::num(-1.0, 0), "-1");
    EXPECT_EQ(TablePrinter::sci(12345.0, 2), "1.23e+04");
}

TEST(Cli, ParseIntFlagAcceptsStrictDecimals)
{
    EXPECT_EQ(parseIntFlag("--reps", "0", 0, 100), 0);
    EXPECT_EQ(parseIntFlag("--reps", "42", 0, 100), 42);
    EXPECT_EQ(parseIntFlag("--off", "-7", -10, 10), -7);
    EXPECT_EQ(parseIntFlag("--big", "9223372036854775807",
                           i64(0), i64(9223372036854775807ll)),
              9223372036854775807ll);
}

TEST(Cli, ParseIntFlagRejectsGarbage)
{
    // Truncation bugs this guards against: "1e3" parsed as 1 would
    // silently run 1 rep instead of 1000.
    EXPECT_EXIT(parseIntFlag("--reps", "12x", 0, 100),
                ::testing::ExitedWithCode(1), "--reps");
    EXPECT_EXIT(parseIntFlag("--reps", "1e3", 0, 10000),
                ::testing::ExitedWithCode(1), "--reps");
    EXPECT_EXIT(parseIntFlag("--reps", "", 0, 100),
                ::testing::ExitedWithCode(1), "--reps");
    EXPECT_EXIT(parseIntFlag("--reps", "abc", 0, 100),
                ::testing::ExitedWithCode(1), "--reps");
    EXPECT_EXIT(parseIntFlag("--reps", "101", 0, 100),
                ::testing::ExitedWithCode(1), "--reps");
    EXPECT_EXIT(parseIntFlag("--reps", "-1", 0, 100),
                ::testing::ExitedWithCode(1), "--reps");
    EXPECT_EXIT(parseIntFlag("--reps", "99999999999999999999", 0,
                             100),
                ::testing::ExitedWithCode(1), "--reps");
}

TEST(Cli, ParseDoubleFlagAcceptsFiniteNumbers)
{
    EXPECT_DOUBLE_EQ(parseDoubleFlag("--eps", "0.25", 0.0, 1.0), 0.25);
    EXPECT_DOUBLE_EQ(parseDoubleFlag("--eps", "1e-3", 0.0, 1.0), 1e-3);
    EXPECT_DOUBLE_EQ(parseDoubleFlag("--x", "-2.5", -10.0, 10.0), -2.5);
    EXPECT_DOUBLE_EQ(parseDoubleFlag("--x", "3", 0.0, 10.0), 3.0);
}

TEST(Cli, ParseDoubleFlagRejectsGarbage)
{
    EXPECT_EXIT(parseDoubleFlag("--eps", "1.5.2", 0.0, 10.0),
                ::testing::ExitedWithCode(1), "--eps");
    EXPECT_EXIT(parseDoubleFlag("--eps", "", 0.0, 10.0),
                ::testing::ExitedWithCode(1), "--eps");
    EXPECT_EXIT(parseDoubleFlag("--eps", "nan", 0.0, 10.0),
                ::testing::ExitedWithCode(1), "--eps");
    EXPECT_EXIT(parseDoubleFlag("--eps", "inf", 0.0, 10.0),
                ::testing::ExitedWithCode(1), "--eps");
    EXPECT_EXIT(parseDoubleFlag("--eps", "1e400", 0.0, 1e308),
                ::testing::ExitedWithCode(1), "--eps");
    EXPECT_EXIT(parseDoubleFlag("--eps", "2.0", 0.0, 1.0),
                ::testing::ExitedWithCode(1), "--eps");
    EXPECT_EXIT(parseDoubleFlag("--eps", "0.5x", 0.0, 1.0),
                ::testing::ExitedWithCode(1), "--eps");
}

} // namespace
} // namespace usys
