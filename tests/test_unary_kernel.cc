/**
 * @file
 * Tests for bitstream generators, LFSR, SCC, cycle-level uMULs, and the
 * exact product-table functional models. The central invariant: the O(1)
 * table model reproduces the bit-level C-BSG multiplier exactly, for all
 * operand values, codings, and early-termination points.
 */

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "common/stats.h"
#include "unary/bitstream.h"
#include "unary/lfsr.h"
#include "unary/product_table.h"
#include "unary/scc.h"
#include "unary/sobol.h"
#include "unary/umul.h"

namespace usys {
namespace {

TEST(Bitstream, RateFullPeriodOnesEqualsValue)
{
    const int bits = 7;
    const u64 period = u64(1) << bits;
    for (u32 src : {0u, 1u, 13u, 64u, 127u}) {
        RateBsg gen(src, 0, bits);
        auto stream = generateBits(gen, period);
        EXPECT_EQ(onesCount(stream), src) << "src " << src;
    }
}

TEST(Bitstream, TemporalTailPlacement)
{
    const int bits = 4;
    TemporalBsg gen(5, bits);
    auto stream = generateBits(gen, 16);
    // 1s must occupy the last 5 positions.
    for (int i = 0; i < 11; ++i)
        EXPECT_EQ(stream[i], 0);
    for (int i = 11; i < 16; ++i)
        EXPECT_EQ(stream[i], 1);
}

TEST(Bitstream, RateAllOnesAtFullScale)
{
    // src == 2^bits is the documented upper bound: every RNG value
    // compares below it, so the stream is all 1s.
    const int bits = 6;
    const u64 period = u64(1) << bits;
    RateBsg gen(u32(period), 0, bits);
    auto stream = generateBits(gen, period);
    EXPECT_EQ(onesCount(stream), period);
}

TEST(Bitstream, RateAllZerosAtZeroSource)
{
    // src == 0 is the other threshold extreme: no RNG value compares
    // below it, so the stream emits all 0s forever.
    const int bits = 6;
    const u64 period = u64(1) << bits;
    RateBsg gen(0, 0, bits);
    auto stream = generateBits(gen, 2 * period);
    EXPECT_EQ(onesCount(stream), 0u);
}

TEST(Bitstream, RateSrcAboveFullScaleIsFatal)
{
    // fatal() exits with status 1 (user error, not an abort).
    EXPECT_EXIT(RateBsg(65, 0, 6), ::testing::ExitedWithCode(1),
                "exceeds");
}

/**
 * Rate streams are periodic in their RNG: past the period (including
 * the sub-64-bit periods of narrow streams) the same bits recur, and
 * every period carries exactly the encoded count of 1-bits.
 */
TEST(Bitstream, RateAndBipolarRepeatEveryPeriodAtEveryWidth)
{
    for (int bits = 1; bits <= 8; ++bits) {
        const u32 period = u32(1) << bits;
        for (u32 src : {u32(0), u32(1), period / 2 + 1, period - 1, period}) {
            RateBsg gen(src, 2, bits);
            const auto stream = generateBits(gen, 3 * u64(period));
            u32 ones = 0;
            for (u32 t = 0; t < 3 * period; ++t) {
                ASSERT_EQ(stream[t], stream[t % period])
                    << "rate bits " << bits << " src " << src << " t " << t;
                ones += stream[t];
            }
            EXPECT_EQ(ones, 3 * src) << "rate bits " << bits;
        }
        const i32 half = i32(period / 2);
        for (i32 src : {-half, -1, 0, half / 2, half - 1}) {
            BipolarRateBsg gen(src, 2, bits);
            const auto stream = generateBits(gen, 3 * u64(period));
            u32 ones = 0;
            for (u32 t = 0; t < 3 * period; ++t) {
                ASSERT_EQ(stream[t], stream[t % period])
                    << "bipolar bits " << bits << " src " << src
                    << " t " << t;
                ones += stream[t];
            }
            EXPECT_EQ(ones, 3 * u32(src + half)) << "bipolar bits " << bits;
        }
    }
}

TEST(Bitstream, ResetRestartsEveryGenerator)
{
    const int bits = 5;
    const u64 n = 2 * (u64(1) << bits);
    auto check = [&](BitstreamGen &used, BitstreamGen &fresh,
                     const char *what) {
        for (int i = 0; i < 11; ++i)
            used.nextBit();
        used.reset();
        EXPECT_EQ(generateBits(used, n), generateBits(fresh, n)) << what;
    };
    RateBsg rate(13, 1, bits), rate_fresh(13, 1, bits);
    check(rate, rate_fresh, "rate");
    TemporalBsg temporal(13, bits), temporal_fresh(13, bits);
    check(temporal, temporal_fresh, "temporal");
    BipolarRateBsg bipolar(-7, 1, bits), bipolar_fresh(-7, 1, bits);
    check(bipolar, bipolar_fresh, "bipolar");
}

TEST(Bitstream, BipolarFullPeriodValue)
{
    const int bits = 6;
    const u64 period = u64(1) << bits;
    for (i32 src : {-32, -7, 0, 5, 31}) {
        BipolarRateBsg gen(src, 0, bits);
        auto stream = generateBits(gen, period);
        const double value =
            2.0 * double(onesCount(stream)) / double(period) - 1.0;
        EXPECT_NEAR(value, double(src) / 32.0, 1e-12);
    }
}

TEST(Lfsr, MaximalPeriodCoversNonZero)
{
    for (int bits : {3, 5, 8, 11, 16}) {
        Lfsr lfsr(bits);
        std::vector<u8> seen(std::size_t(1) << bits, 0);
        for (u64 i = 0; i < lfsr.period(); ++i) {
            const u32 v = lfsr.next();
            ASSERT_NE(v, 0u) << "bits " << bits;
            EXPECT_EQ(seen[v], 0) << "bits " << bits << " value " << v;
            seen[v] = 1;
        }
        // After a full period the state recurs.
        EXPECT_EQ(lfsr.next(), 1u);
    }
}

TEST(Lfsr, ZeroSeedCoerced)
{
    Lfsr lfsr(4, 0);
    EXPECT_EQ(lfsr.next(), 1u);
}

TEST(Lfsr, ResetRestartsTheSequence)
{
    for (u32 seed : {1u, 0x2Bu}) {
        Lfsr lfsr(7, seed);
        std::vector<u32> first;
        for (int i = 0; i < 40; ++i)
            first.push_back(lfsr.next());
        lfsr.reset();
        for (int i = 0; i < 40; ++i)
            EXPECT_EQ(lfsr.next(), first[i]) << "seed " << seed;
    }
}

TEST(Scc, IdenticalStreamsFullyCorrelated)
{
    std::vector<u8> x{1, 0, 1, 1, 0, 0, 1, 0};
    EXPECT_NEAR(stochasticCrossCorrelation(x, x), 1.0, 1e-12);
}

TEST(Scc, ComplementStreamsAntiCorrelated)
{
    std::vector<u8> x{1, 0, 1, 1, 0, 0, 1, 0};
    std::vector<u8> y(x.size());
    for (std::size_t i = 0; i < x.size(); ++i)
        y[i] = u8(1 - x[i]);
    EXPECT_NEAR(stochasticCrossCorrelation(x, y), -1.0, 1e-12);
}

TEST(Scc, CbsgStreamsNearZero)
{
    // C-BSG pairs (input stream, weight stream) should have SCC near 0.
    const int bits = 8;
    const u64 period = u64(1) << bits;
    for (u32 iabs : {64u, 128u, 200u}) {
        for (u32 wabs : {32u, 100u, 180u}) {
            RateBsg input(iabs, 1, bits);
            CbsgUmul mul(wabs, bits, 0);
            std::vector<u8> in_bits, w_bits;
            SobolSequence wrng(0, bits);
            u64 consumed = 0;
            for (u64 t = 0; t < period; ++t) {
                const bool in = input.nextBit();
                in_bits.push_back(in ? 1 : 0);
                // Reconstruct the weight-side bit stream the way C-BSG
                // exposes it: hold the last value while disabled.
                if (in)
                    ++consumed;
                const u32 r = wrng.at(consumed ? consumed - 1 : 0);
                w_bits.push_back(r < wabs ? 1 : 0);
            }
            const double scc = stochasticCrossCorrelation(in_bits, w_bits);
            EXPECT_LT(std::abs(scc), 0.15)
                << "iabs " << iabs << " wabs " << wabs;
        }
    }
}

TEST(CbsgUmul, FullPeriodProductLowError)
{
    const int mag_bits = 7;
    const u64 period = u64(1) << mag_bits;
    RmseTracker rmse;
    for (u32 iabs = 0; iabs < period; iabs += 9) {
        for (u32 wabs = 0; wabs < period; wabs += 11) {
            RateBsg input(iabs, 1, mag_bits);
            CbsgUmul mul(wabs, mag_bits, 0);
            u64 ones = 0;
            for (u64 t = 0; t < period; ++t)
                ones += mul.step(input.nextBit());
            const double expected = double(iabs) * double(wabs) /
                                    double(period);
            rmse.add(expected, double(ones));
        }
    }
    // C-BSG with Sobol should land within one LSB on average.
    EXPECT_LT(rmse.rmse(), 1.0);
    EXPECT_LT(rmse.maxAbsError(), 4.0);
}

TEST(ProductTable, MatchesCycleLevelUnipolar)
{
    const int signed_bits = 8; // magnitude 7 bits, period 128
    UnaryProductModel model(signed_bits, 0, 1);
    const u32 period = model.period();
    ASSERT_EQ(period, 128u);

    for (u32 iabs = 0; iabs < period; iabs += 7) {
        for (u32 wabs = 0; wabs < period; wabs += 13) {
            RateBsg input(iabs, 1, model.magBits());
            CbsgUmul mul(wabs, model.magBits(), 0);
            u32 ones = 0;
            std::vector<u32> prefix{0};
            for (u32 t = 0; t < period; ++t) {
                ones += mul.step(input.nextBit());
                prefix.push_back(ones);
            }
            EXPECT_EQ(model.fullProduct(iabs, wabs), ones);
            // Early termination at several points must also agree.
            for (u32 cut : {1u, 32u, 64u, 100u, period}) {
                EXPECT_EQ(model.rateProduct(iabs, wabs, cut), prefix[cut])
                    << "iabs " << iabs << " wabs " << wabs
                    << " cut " << cut;
            }
        }
    }
}

/**
 * Whether every row of a prefix table steps by its threshold: row r + 1
 * is row r plus [w >= t_r] for every r in [0, period) and w in
 * [0, period]. Reports the first entry that does not.
 */
template <typename RowOf>
::testing::AssertionResult
stepsByThresholds(u32 period, const u16 *t, RowOf rowOf)
{
    for (u32 r = 0; r < period; ++r) {
        const u16 *lo = rowOf(r);
        const u16 *hi = rowOf(r + 1);
        for (u32 w = 0; w <= period; ++w)
            if (u32(hi[w] - lo[w]) != u32(w >= t[r]))
                return ::testing::AssertionFailure()
                       << "row " << r << " w " << w << ": step "
                       << (hi[w] - lo[w]) << ", threshold " << t[r];
    }
    return ::testing::AssertionSuccess();
}

/**
 * The thresholds t_j = S[j] + 1 the table kernel walks: for the UR/UT
 * weight sequence at 2-13 bits and both UG polarities at 2-12 bits,
 * row r + 1 of each prefix table is row r plus [w >= t_r].
 */
TEST(ProductTable, ThresholdsStepEveryRow)
{
    for (int bits = 2; bits <= 13; ++bits) {
        const UnaryProductModel model(bits);
        EXPECT_TRUE(stepsByThresholds(
            model.period(), model.weightThresholds(),
            [&](u32 r) { return model.countsAfterOnes(r); }))
            << "UR/UT weights, " << bits << " bits";
    }
    for (int bits = 2; bits <= 12; ++bits) {
        const BipolarProductModel model(bits);
        EXPECT_TRUE(stepsByThresholds(
            model.period(), model.onesThresholds(),
            [&](u32 r) { return model.hitsAfterOnes(r); }))
            << "UG polarity 1, " << bits << " bits";
        EXPECT_TRUE(stepsByThresholds(
            model.period(), model.zerosThresholds(),
            [&](u32 r) { return model.hitsAfterZeros(r); }))
            << "UG polarity 0, " << bits << " bits";
    }
}

/**
 * rateOnes(iabs, cycles) — the fault-free ones-count of an
 * early-terminated UR stream — equals the 1-bits of every prefix of the
 * input rate stream on the model's input dimension.
 */
TEST(ProductTable, RateOnesMatchesEveryStreamPrefix)
{
    for (int signed_bits : {4, 7}) {
        const UnaryProductModel model(signed_bits, 0, 3);
        const u32 period = model.period();
        for (u32 iabs = 0; iabs <= period; ++iabs) {
            RateBsg input(iabs, 3, model.magBits());
            u32 ones = 0;
            for (u32 t = 1; t <= period; ++t) {
                ones += u32(input.nextBit());
                ASSERT_EQ(model.rateOnes(iabs, t), ones)
                    << "N " << signed_bits << " iabs " << iabs
                    << " cycles " << t;
            }
        }
    }
}

TEST(ProductTable, MatchesCycleLevelTemporal)
{
    const int signed_bits = 7; // magnitude 6 bits, period 64
    UnaryProductModel model(signed_bits, 0, 1);
    const u32 period = model.period();

    for (u32 iabs = 0; iabs < period; iabs += 5) {
        for (u32 wabs = 0; wabs < period; wabs += 9) {
            TemporalBsg input(iabs, model.magBits());
            CbsgUmul mul(wabs, model.magBits(), 0);
            u32 ones = 0;
            std::vector<u32> prefix{0};
            for (u32 t = 0; t < period; ++t) {
                ones += mul.step(input.nextBit());
                prefix.push_back(ones);
            }
            EXPECT_EQ(model.fullProduct(iabs, wabs), ones);
            for (u32 cut : {8u, 32u, period}) {
                EXPECT_EQ(model.temporalProduct(iabs, wabs, cut),
                          prefix[cut]);
            }
        }
    }
}

TEST(ProductTable, RateAndTemporalAgreeAtFullPeriod)
{
    UnaryProductModel model(9);
    const u32 period = model.period();
    for (u32 i = 0; i < period; i += 17) {
        for (u32 w = 0; w < period; w += 23) {
            EXPECT_EQ(model.rateProduct(i, w, period),
                      model.temporalProduct(i, w, period));
        }
    }
}

TEST(ProductTable, TemporalEarlyTerminationIsCatastrophic)
{
    // Small values lose all their 1s under temporal truncation while the
    // rate-coded path degrades gracefully.
    UnaryProductModel model(8);
    const u32 period = model.period();
    const u32 half = period / 2;
    const u32 iabs = period / 4; // a small-ish input value
    const u32 wabs = period - 1;
    EXPECT_EQ(model.temporalProduct(iabs, wabs, half), 0u);
    const double ideal_half = double(iabs) * wabs / period / 2.0;
    EXPECT_NEAR(double(model.rateProduct(iabs, wabs, half)), ideal_half,
                ideal_half * 0.25 + 2.0);
}

TEST(BipolarModel, MatchesCycleLevel)
{
    const int bits = 7;
    BipolarProductModel model(bits, 0, 1);
    const u32 period = model.period();
    ASSERT_EQ(period, 128u);

    for (i32 x : {-64, -31, -1, 0, 7, 45, 63}) {
        for (i32 w : {-64, -20, 0, 33, 63}) {
            BipolarRateBsg input(x, 2, bits);
            BipolarUmul mul(w, bits, 0, 1);
            u32 ones = 0;
            for (u32 t = 0; t < period; ++t)
                ones += mul.step(input.nextBit());
            EXPECT_EQ(model.onesCount(x, w), ones)
                << "x " << x << " w " << w;
        }
    }
}

TEST(BipolarModel, ScaledProductAccuracy)
{
    const int bits = 8;
    BipolarProductModel model(bits);
    RmseTracker rmse;
    for (i32 x = -128; x < 128; x += 5) {
        for (i32 w = -128; w < 128; w += 7) {
            const double expected = double(x) * double(w) / 128.0;
            rmse.add(expected, double(model.scaledProduct(x, w)));
        }
    }
    EXPECT_LT(rmse.rmse(), 2.5);
}

/**
 * Property sweep: the unipolar full-period product is within a small bound
 * of the true scaled product for every bitwidth used in the paper.
 */
class ProductAccuracy : public ::testing::TestWithParam<int>
{};

TEST_P(ProductAccuracy, FullPeriodWithinOneLsbRms)
{
    const int signed_bits = GetParam();
    UnaryProductModel model(signed_bits);
    const u32 period = model.period();
    const u32 step = std::max(1u, period / 64);
    RmseTracker rmse;
    for (u32 i = 0; i < period; i += step) {
        for (u32 w = 0; w < period; w += step) {
            const double expected = double(i) * double(w) / double(period);
            rmse.add(expected, double(model.fullProduct(i, w)));
        }
    }
    EXPECT_LT(rmse.rmse(), 1.2) << "bits " << signed_bits;
}

INSTANTIATE_TEST_SUITE_P(Bitwidths, ProductAccuracy,
                         ::testing::Values(6, 7, 8, 9, 10, 11, 12));

} // namespace
} // namespace usys
