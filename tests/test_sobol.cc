/**
 * @file
 * Unit tests for the Sobol sequence generator.
 */

#include <algorithm>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "unary/sobol.h"

namespace usys {
namespace {

TEST(Sobol, VanDerCorputPrefix)
{
    // Dimension 0 with 3 bits: 0, 4, 6, 2, 3, 7, 5, 1.
    SobolSequence seq(0, 3);
    const std::vector<u32> expected{0, 4, 6, 2, 3, 7, 5, 1};
    for (u32 e : expected)
        EXPECT_EQ(seq.next(), e);
}

TEST(Sobol, AtMatchesNext)
{
    for (int dim : {0, 1, 2, 5}) {
        SobolSequence seq(dim, 8);
        for (u64 i = 0; i < 512; ++i) {
            EXPECT_EQ(seq.at(i), seq.next())
                << "dim " << dim << " index " << i;
        }
    }
}

TEST(Sobol, ResetRestartsStream)
{
    SobolSequence seq(3, 6);
    std::vector<u32> first;
    for (int i = 0; i < 20; ++i)
        first.push_back(seq.next());
    seq.reset();
    for (int i = 0; i < 20; ++i)
        EXPECT_EQ(seq.next(), first[i]);
}

/**
 * next() wraps to the start of the sequence after each period, at every
 * width — including periods shorter than a 64-bit word.
 */
TEST(Sobol, NextWrapsAtEveryWidth)
{
    for (int dim = 0; dim < sobolMaxDimensions(); ++dim) {
        for (int bits = 1; bits <= 8; ++bits) {
            SobolSequence seq(dim, bits);
            const auto period_values = sobolPermutation(dim, bits);
            for (u64 t = 0; t < 3 * seq.period(); ++t)
                ASSERT_EQ(seq.next(), period_values[t % seq.period()])
                    << "dim " << dim << " bits " << bits << " t " << t;
        }
    }
}

class SobolPermutation : public ::testing::TestWithParam<std::tuple<int, int>>
{};

/**
 * Property: one full period of a k-bit Sobol dimension is a permutation of
 * [0, 2^k). This is what makes full-period unary coding exact.
 */
TEST_P(SobolPermutation, FullPeriodIsPermutation)
{
    const auto [dim, bits] = GetParam();
    auto values = sobolPermutation(dim, bits);
    ASSERT_EQ(values.size(), std::size_t(1) << bits);
    std::vector<u8> seen(values.size(), 0);
    for (u32 v : values) {
        ASSERT_LT(v, values.size());
        EXPECT_EQ(seen[v], 0) << "value repeated: " << v;
        seen[v] = 1;
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllDims, SobolPermutation,
    ::testing::Combine(::testing::Range(0, 15),
                       ::testing::Values(4, 7, 10)));

/**
 * Property: every power-of-two-aligned block of length 2^k contains each
 * k-bit value exactly once (elementary interval balance), which bounds the
 * early-termination error of rate coding.
 */
TEST(Sobol, BalancedBlocks)
{
    const int bits = 8;
    for (int dim : {0, 1, 2, 3}) {
        auto values = sobolPermutation(dim, bits);
        // Check 4 half-period blocks at 7-bit granularity.
        const u32 block = 128;
        for (u32 start = 0; start < values.size(); start += block) {
            std::vector<int> count(2, 0);
            for (u32 i = start; i < start + block; ++i)
                ++count[values[i] >> 7];
            EXPECT_EQ(count[0], 64) << "dim " << dim;
            EXPECT_EQ(count[1], 64) << "dim " << dim;
        }
    }
}

TEST(Sobol, DistinctDimensionsDiffer)
{
    auto a = sobolPermutation(0, 8);
    auto b = sobolPermutation(1, 8);
    EXPECT_NE(a, b);
}

TEST(Sobol, ReportsConfig)
{
    SobolSequence seq(2, 9);
    EXPECT_EQ(seq.bits(), 9);
    EXPECT_EQ(seq.dimension(), 2);
    EXPECT_EQ(seq.period(), 512u);
    EXPECT_GE(sobolMaxDimensions(), 16);
}

} // namespace
} // namespace usys
