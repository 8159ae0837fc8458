/**
 * @file
 * SIMD-vs-generic parity fuzz tests (DESIGN.md §11).
 *
 * Every dispatched kernel must be bit-exact against the portable
 * fallback — including row tails, zero codes and the code-range
 * extremes. The suite compares three ways: a naive per-element
 * reference, the generic table, and (when the host supports them)
 * the vector tables directly —
 * so the cross-implementation checks run even when the dispatched
 * level is forced to generic via USYS_SIMD. The `simd_generic_*` /
 * `simd_auto_*` ctest variants rerun the whole binary under both env
 * settings at 1 and 3 executor threads.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/matrix.h"
#include "common/prng.h"
#include "common/simd.h"
#include "arch/functional.h"
#include "arch/packed_array.h"
#include "dnn/backend.h"

namespace usys {
namespace {

/**
 * Tables to cross-check: always generic, plus AVX2 / AVX-512 / NEON
 * when available on the host — so every higher tier is fuzzed against
 * the reference regardless of which tier USYS_SIMD dispatched.
 */
std::vector<const SimdKernels *>
tablesUnderTest()
{
    std::vector<const SimdKernels *> tables = {&genericKernels()};
    if (const SimdKernels *avx2 = avx2Kernels())
        tables.push_back(avx2);
    if (const SimdKernels *avx512 = avx512Kernels())
        tables.push_back(avx512);
    if (const SimdKernels *neon = neonKernels())
        tables.push_back(neon);
    return tables;
}

TEST(SimdDispatch, TablesConsistent)
{
    EXPECT_EQ(genericKernels().level, SimdLevel::Generic);
    if (cpuSupportsAvx2() && avx2Kernels() != nullptr) {
        EXPECT_EQ(avx2Kernels()->level, SimdLevel::Avx2);
    }
    if (cpuSupportsAvx512() && avx512Kernels() != nullptr) {
        EXPECT_EQ(avx512Kernels()->level, SimdLevel::Avx512);
    }
    if (neonKernels() != nullptr) {
        EXPECT_EQ(neonKernels()->level, SimdLevel::Neon);
    }
    // Every slot is populated on the active table and on every
    // available tier.
    std::vector<const SimdKernels *> tables = tablesUnderTest();
    tables.push_back(&simdKernels());
    for (const SimdKernels *k : tables) {
        EXPECT_NE(k->axpyF32, nullptr) << simdLevelName(k->level);
        EXPECT_NE(k->gemmI16, nullptr) << simdLevelName(k->level);
        EXPECT_NE(k->gatherU16, nullptr) << simdLevelName(k->level);
        EXPECT_NE(k->gatherSumU16, nullptr) << simdLevelName(k->level);
        EXPECT_NE(k->walkRowsI16, nullptr) << simdLevelName(k->level);
        EXPECT_NE(k->sumRowsI16, nullptr) << simdLevelName(k->level);
    }
}

TEST(SimdDispatch, SetSimdModeSwitchesAndRestores)
{
    const SimdLevel before = simdLevel();
    setSimdMode("generic");
    EXPECT_EQ(simdLevel(), SimdLevel::Generic);
    if (avx2Kernels()) {
        setSimdMode("avx2");
        EXPECT_EQ(simdLevel(), SimdLevel::Avx2);
    }
    if (avx512Kernels()) {
        setSimdMode("avx512");
        EXPECT_EQ(simdLevel(), SimdLevel::Avx512);
    }
    if (neonKernels()) {
        setSimdMode("neon");
        EXPECT_EQ(simdLevel(), SimdLevel::Neon);
    }
    setSimdMode("auto");
    if (avx512Kernels())
        EXPECT_EQ(simdLevel(), SimdLevel::Avx512);
    else if (avx2Kernels())
        EXPECT_EQ(simdLevel(), SimdLevel::Avx2);
    else if (neonKernels())
        EXPECT_EQ(simdLevel(), SimdLevel::Neon);
    else
        EXPECT_EQ(simdLevel(), SimdLevel::Generic);
    // Put the env-resolved level back so later tests see the mode the
    // ctest variant requested.
    setSimdMode(simdLevelName(before));
}

TEST(SimdAxpyF32, BitExactParity)
{
    Prng prng(404);
    for (int n : {0, 1, 7, 8, 9, 16, 31, 100, 1023}) {
        std::vector<float> b(n), c0(n);
        for (int j = 0; j < n; ++j) {
            b[j] = float(prng.uniform(-4.0, 4.0));
            c0[j] = float(prng.uniform(-4.0, 4.0));
        }
        for (float a : {0.0f, 1.0f, -2.5f, 0.3333333f}) {
            std::vector<float> naive = c0;
            for (int j = 0; j < n; ++j)
                naive[j] += a * b[j];
            for (const SimdKernels *k : tablesUnderTest()) {
                std::vector<float> got = c0;
                k->axpyF32(got.data(), b.data(), a, n);
                // Bitwise, not approximate: the contract is one
                // multiply + one add per element on every tier. (An
                // empty vector's data() may be null, which memcmp must
                // not see even with a zero length.)
                if (n > 0) {
                    ASSERT_EQ(std::memcmp(got.data(), naive.data(),
                                          std::size_t(n) * sizeof(float)),
                              0)
                        << simdLevelName(k->level) << " n=" << n
                        << " a=" << a;
                }
            }
        }
    }
}

/** Row widths of the table-kernel tests: empty, sub-vector, every
 *  16- and 32-lane vector boundary +-1, one past the AVX2 walk's 48- and
 *  64-column tiles (49, 65) and splits of them (72, 80), the
 *  benchmark's 112, and one past the AVX-512 walk's 256-column tile. */
const int kRowWidths[] = {0,  1,  7,  8,  15, 16, 17,  31,  32,
                          33, 49, 64, 65, 72, 80, 112, 129, 257};

/** Check gatherU16 on every tier against row[idx[j]]. */
void
expectGatherParity(const u16 *row, const std::vector<u16> &idx,
                   const std::string &what)
{
    const int n = int(idx.size());
    std::vector<i16> naive(idx.size());
    for (int j = 0; j < n; ++j)
        naive[std::size_t(j)] = i16(row[idx[std::size_t(j)]]);
    for (const SimdKernels *k : tablesUnderTest()) {
        // Poison the output one past n so an overlong store would show.
        std::vector<i16> got(idx.size() + 1, -7);
        k->gatherU16(got.data(), row, idx.data(), n);
        EXPECT_EQ(got.back(), -7) << simdLevelName(k->level) << " " << what;
        got.pop_back();
        EXPECT_EQ(got, naive) << simdLevelName(k->level) << " " << what;
    }
}

TEST(SimdGatherU16, ParityWithTailsAndRowEnds)
{
    Prng prng(909);
    // A synthetic row of len + 1 entries below 2^15 and the one u16 of
    // padding the contract asks for; entries near 0x7fff next to
    // entries near 0xffff show a gather that keeps the wrong half.
    const u32 len = 129;
    std::vector<u16> row(len + 2, 0);
    for (u32 i = 0; i <= len; ++i)
        row[i] = u16(i % 2 ? 0x7fff - prng.below(4) : prng.below(0x8000));
    row[len + 1] = 0xabcd;
    for (int n : kRowWidths) {
        std::vector<u16> idx(static_cast<std::size_t>(n));
        for (auto &v : idx)
            v = u16(prng.below(len + 1));
        // The row's last entry in the first and the final lane.
        if (n > 0) {
            idx.front() = u16(len);
            idx.back() = u16(len);
        }
        expectGatherParity(row.data(), idx, "n=" + std::to_string(n));
    }

    // The shared product tables, gathered at the last index of their
    // last row: the read past the entry must stay inside the table.
    for (int bits : {2, 8, 12, 13}) {
        const UnaryProductModel &model = unaryModelFor(bits);
        const u32 period = model.period();
        for (int n : {1, 17, 65}) {
            std::vector<u16> idx(static_cast<std::size_t>(n), u16(period));
            for (std::size_t j = 1; j + 1 < idx.size(); ++j)
                idx[j] = u16(prng.below(period + 1));
            expectGatherParity(model.countsAfterOnes(period), idx,
                               "UR bits=" + std::to_string(bits));
        }
    }
    for (int bits : {2, 8, 11, 12}) {
        const BipolarProductModel &model = bipolarModelFor(bits);
        const u32 period = model.period();
        const std::vector<u16> idx(17, u16(period));
        expectGatherParity(model.hitsAfterOnes(period), idx,
                           "UG ones bits=" + std::to_string(bits));
        expectGatherParity(model.hitsAfterZeros(period), idx,
                           "UG zeros bits=" + std::to_string(bits));
    }
}

/** One gatherSumU16 call's operands. */
struct GatherSumCase
{
    std::vector<i32> b; // kd x n weight codes
    std::vector<GatherRow> rows;
    int kd = 0;
    int n = 0;
    i32 lim = 0;
    bool ug = false;
    u32 bias = 0;
};

/**
 * gatherSumU16 by definition, in i64: each k's signed entries at every
 * weight's key, plus the bias, added to `out`; returns the zero codes.
 */
u64
naiveGatherSum(const GatherSumCase &c, std::vector<i64> &out)
{
    u64 zeros = 0;
    for (int j = 0; j < c.n; ++j) {
        i64 sum = 0;
        for (int k = 0; k < c.kd; ++k) {
            const i32 w = c.b[std::size_t(k) * c.n + j];
            zeros += w == 0;
            const GatherRow &row = c.rows[std::size_t(k)];
            if (!row.ones)
                continue;
            if (c.ug) {
                sum += i64(row.ones[w + c.lim]) - i64(row.zeros[w + c.lim]);
            } else {
                const i64 e = row.ones[w < 0 ? -w : w];
                sum += (w < 0) != (row.negate < 0) ? -e : e;
            }
        }
        out[std::size_t(j)] += i64(i32(u32(sum) + c.bias));
    }
    return zeros;
}

/**
 * Check gatherSumU16 on every tier against the definition: the sums
 * over an output prefilled with offsets, a sentinel past n, and the zero
 * count on top of what *zeros held.
 */
void
expectGatherSumParity(const GatherSumCase &c, const std::string &what)
{
    std::vector<i64> want(std::size_t(c.n));
    for (std::size_t j = 0; j < want.size(); ++j)
        want[j] = i64(j % 5) - 2;
    std::vector<i64> start = want;
    const u64 zeros = naiveGatherSum(c, want);
    for (const SimdKernels *k : tablesUnderTest()) {
        std::vector<i64> got = start;
        got.push_back(-7);
        u64 counted = 11;
        EXPECT_TRUE(k->gatherSumU16(got.data(), c.b.data(), c.rows.data(),
                                    c.kd, c.n, c.lim, c.ug, c.bias,
                                    &counted))
            << simdLevelName(k->level) << " " << what;
        EXPECT_EQ(got.back(), -7) << simdLevelName(k->level) << " " << what;
        got.pop_back();
        EXPECT_EQ(got, want) << simdLevelName(k->level) << " " << what;
        EXPECT_EQ(counted, 11 + zeros)
            << simdLevelName(k->level) << " " << what;
    }
}

/**
 * A case over the product tables of a scheme: weights over the whole
 * table range with a share of zeros and both edges, and per k an
 * activation's table rows, with rows dropped (UR/UT's zero activations)
 * and negated ones.
 */
GatherSumCase
gatherSumCase(bool ug, int bits, int kd, int n, Prng &prng)
{
    GatherSumCase c;
    c.kd = kd;
    c.n = n;
    c.ug = ug;
    c.lim = i32(1) << (bits - 1);
    c.b.resize(std::size_t(kd) * n);
    for (auto &w : c.b)
        w = prng.below(4) == 0 ? 0
                               : i32(prng.below(2 * u64(c.lim) + 1)) - c.lim;
    if (!c.b.empty()) {
        c.b.front() = -c.lim;
        c.b.back() = c.lim;
    }
    for (int k = 0; k < kd; ++k) {
        if (ug) {
            const BipolarProductModel &model = bipolarModelFor(bits);
            const u32 ones = u32(prng.below(model.period() + 1));
            c.rows.push_back({model.hitsAfterOnes(ones),
                              model.hitsAfterZeros(model.period() - ones),
                              0});
            c.bias += model.period() - ones - u32(c.lim);
        } else {
            const UnaryProductModel &model = unaryModelFor(bits);
            const u32 ones = u32(prng.below(model.period() + 1));
            c.rows.push_back({prng.below(4) == 0
                                  ? nullptr
                                  : model.countsAfterOnes(ones),
                              nullptr, prng.below(2) ? -1 : 0});
        }
    }
    return c;
}

TEST(SimdGatherSumU16, ParityWithTailsSignsAndDroppedRows)
{
    // UR/UT tables at 2-13 bits and UG at 2-12, on every row width of
    // the table-kernel tests (a masked tail vector on every tier among
    // them) and K across 1 to 40, the tables' last row and entry
    // included.
    Prng prng(2020);
    for (const bool ug : {false, true})
        for (int bits = 2; bits <= (ug ? 12 : 13); ++bits)
            for (const int n : kRowWidths) {
                const int kd = 1 + int(prng.below(40));
                auto c = gatherSumCase(ug, bits, kd, n, prng);
                expectGatherSumParity(c, std::string(ug ? "UG" : "UR") +
                                             " bits=" + std::to_string(bits) +
                                             " n=" + std::to_string(n) +
                                             " kd=" + std::to_string(kd));
            }
}

TEST(SimdGatherSumU16, SumsWrapAroundTheBias)
{
    // UG's bias is added once at the spill, so the lanes' running sums
    // of ones - zeros may pass INT32_MAX while the total, bias included,
    // still fits: the lanes wrap and the spill unwraps them. 600000 k of
    // the full polarity-1 row against the empty polarity-0 one add 4096
    // each, 2.46e9 in all; the bias brings the column back to 5.
    const BipolarProductModel &model = bipolarModelFor(12);
    GatherSumCase c;
    c.kd = 600000;
    c.n = 1;
    c.ug = true;
    c.lim = 2048;
    c.b.assign(std::size_t(c.kd), c.lim);
    const GatherRow full{model.hitsAfterOnes(model.period()),
                         model.hitsAfterZeros(0), 0};
    c.rows.assign(std::size_t(c.kd), full);
    const i64 each = i64(full.ones[model.period()]) -
                     i64(full.zeros[model.period()]);
    ASSERT_GT(each * c.kd, i64(std::numeric_limits<i32>::max()));
    c.bias = u32(5 - each * c.kd);
    expectGatherSumParity(c, "wrapping UG sums");
}

TEST(SimdGatherSumU16, CodesOutsideTheTablesAreReported)
{
    // Every code is checked, also at a k that adds nothing and in the
    // last lane of a masked tail vector, and an offending key reads no
    // entry outside the tables (the sanitizer legs would see one).
    const UnaryProductModel &unary = unaryModelFor(8);
    const BipolarProductModel &bipolar = bipolarModelFor(8);
    for (const bool ug : {false, true})
        for (const i32 bad : {129, -129, 1 << 20,
                              std::numeric_limits<i32>::min(),
                              std::numeric_limits<i32>::max()})
            for (const int n : {1, 17, 112})
                for (const bool skipped : {false, true}) {
                    const int kd = 5;
                    std::vector<i32> b(std::size_t(kd) * n, 3);
                    b[std::size_t(2) * n + n - 1] = bad;
                    std::vector<GatherRow> rows(
                        std::size_t(kd),
                        ug ? GatherRow{bipolar.hitsAfterOnes(7),
                                       bipolar.hitsAfterZeros(249), 0}
                           : GatherRow{unary.countsAfterOnes(7), nullptr,
                                       0});
                    if (skipped && !ug)
                        rows[2].ones = nullptr;
                    for (const SimdKernels *k : tablesUnderTest()) {
                        std::vector<i64> out(std::size_t(n), 0);
                        EXPECT_FALSE(k->gatherSumU16(out.data(), b.data(),
                                                     rows.data(), kd, n,
                                                     128, ug, 0, nullptr))
                            << simdLevelName(k->level) << " ug=" << ug
                            << " bad=" << bad << " n=" << n
                            << " skipped=" << skipped;
                    }
                }
}

/** One walkRowsI16 call: its operands and the row buffer it writes. */
struct WalkCase
{
    std::vector<u16> keys;
    std::vector<i16> signs; // empty: every step is +1
    std::vector<i16> base;  // empty: the walk starts from zero
    const u16 *up = nullptr;
    const u16 *down = nullptr; // read backward; null: no down term
    int count = 0;
    bool reversed = false;  // rows in descending order (negative stride)
    bool in_place = false;  // base passed as row 0 itself
};

/**
 * walkRowsI16 by definition: row i holds, column by column, the base
 * plus the signed up thresholds among up[0, i) that the key reaches,
 * minus the down thresholds down[0], down[-1], ... it misses. Rows sit
 * n + 3 apart, so the three entries between rows show a store past n;
 * `rows` holds whatever the buffer held before the call.
 */
void
naiveWalk(const WalkCase &c, std::vector<i16> &rows)
{
    const std::size_t n = c.keys.size();
    const std::size_t count = std::size_t(c.count);
    for (std::size_t j = 0; j < n; ++j) {
        const i32 sign = !c.signs.empty() && c.signs[j] < 0 ? -1 : 1;
        i32 h = c.base.empty() ? 0 : c.base[j];
        for (std::size_t i = 0; i < count; ++i) {
            if (i > 0) {
                h += sign * i32(c.keys[j] >= c.up[i - 1]);
                if (c.down)
                    h -= i32(c.keys[j] < c.down[-std::ptrdiff_t(i - 1)]);
            }
            rows[(c.reversed ? count - 1 - i : i) * (n + 3) + j] = i16(h);
        }
    }
}

/** Check walkRowsI16 on every tier against naiveWalk. */
void
expectWalkParity(const WalkCase &c, const std::vector<i16> &before,
                 const std::string &what)
{
    const int n = int(c.keys.size());
    const std::ptrdiff_t stride = std::ptrdiff_t(n) + 3;
    std::vector<i16> naive = before;
    naiveWalk(c, naive);
    for (const SimdKernels *k : tablesUnderTest()) {
        std::vector<i16> got = before;
        i16 *first =
            got.data() +
            (c.reversed && c.count > 0 ? std::ptrdiff_t(c.count - 1) * stride
                                       : 0);
        const i16 *base = c.base.empty() ? nullptr : c.base.data();
        if (c.in_place && base && c.count > 0) {
            std::copy(c.base.begin(), c.base.end(), first);
            base = first;
        }
        k->walkRowsI16(first, c.reversed ? -stride : stride, c.keys.data(),
                       c.signs.empty() ? nullptr : c.signs.data(), base,
                       c.up, c.down, c.count, n);
        EXPECT_EQ(got, naive) << simdLevelName(k->level) << " " << what;
    }
}

/** A product model's threshold sequences, for the walk tests: UR/UT
 *  walks the weight sequence up (and, to exercise the down term, down
 *  again); UG walks polarity 1 up and polarity 0 down. */
struct Sequence
{
    std::string name;
    u32 period;
    const u16 *up;
    const u16 *down;
};

std::vector<Sequence>
sequences(std::initializer_list<int> ur_bits,
          std::initializer_list<int> ug_bits)
{
    std::vector<Sequence> seqs;
    for (int bits : ur_bits) {
        const UnaryProductModel &m = unaryModelFor(bits);
        seqs.push_back({"UR" + std::to_string(bits), m.period(),
                        m.weightThresholds(), m.weightThresholds()});
    }
    for (int bits : ug_bits) {
        const BipolarProductModel &m = bipolarModelFor(bits);
        seqs.push_back({"UG" + std::to_string(bits), m.period(),
                        m.onesThresholds(), m.zerosThresholds()});
    }
    return seqs;
}

/**
 * Run one walk of `count` rows from row `start` of a sequence on every
 * tier, four ways: up only with signed steps (UR/UT), up and down (UG),
 * up and down with signs into rows in reverse, and with the base passed
 * as row 0 itself (the table kernel's in-place start).
 */
void
expectWalkModes(WalkCase c, const Sequence &q, u32 start, Prng &prng,
                const std::string &what)
{
    const std::size_t n = c.keys.size();
    std::vector<i16> before(std::size_t(c.count) * (n + 3), -7);
    c.up = q.up + start;
    c.signs.resize(n);
    for (auto &v : c.signs)
        v = i16(prng.below(0x10000));
    expectWalkParity(c, before, what + " signed");
    c.signs.clear();
    c.down = q.down + (q.period - 1 - start);
    expectWalkParity(c, before, what + " up and down");
    c.signs.resize(n);
    for (auto &v : c.signs)
        v = i16(prng.below(2) ? -1 : 0);
    c.reversed = true;
    expectWalkParity(c, before, what + " signed up and down, reversed");
    c.reversed = false;
    c.in_place = true;
    expectWalkParity(c, before, what + " signed up and down, in place");
}

/**
 * walkRowsI16 on every tier against its definition, over the product
 * models' own threshold sequences: row widths across every vector and
 * tile boundary (past the 256-column walk tile too), walks of no row,
 * one, two and a whole period, starting at row 0 or part way in from a
 * base row, keys at 0 and at the period, signed and unsigned steps, the
 * down term, rows in reverse, and a base that is row 0 itself.
 */
TEST(SimdWalkRowsI16, ParityWithTailsBasesAndDownSteps)
{
    Prng prng(1111);
    for (const Sequence &q : sequences({2, 8}, {2, 8})) {
        for (int n : kRowWidths) {
            for (int count : {0, 1, 2, 5, 17, int(q.period) + 1}) {
                // From row 0 with no base, or from a random start row
                // with a base row of counts up to the period.
                for (const bool based : {false, true}) {
                    if (count > int(q.period) + 1 - based)
                        continue;
                    const u32 start = based ? u32(prng.below(
                                                  q.period + 2 - u32(count)))
                                            : 0;
                    WalkCase c;
                    c.count = count;
                    c.keys.resize(std::size_t(n));
                    for (auto &v : c.keys)
                        v = u16(prng.below(u64(q.period) + 1));
                    if (n > 0) {
                        c.keys.front() = 0;
                        c.keys.back() = u16(q.period);
                    }
                    if (based) {
                        c.base.resize(std::size_t(n));
                        for (auto &v : c.base)
                            v = i16(i32(prng.below(2 * u64(q.period) + 1)) -
                                    i32(q.period));
                    }
                    expectWalkModes(c, q, start, prng,
                                    q.name + " n=" + std::to_string(n) +
                                        " count=" + std::to_string(count) +
                                        " start=" + std::to_string(start));
                }
            }
        }
    }
}

/**
 * The widest tables at their extremes: UR at 12-13 bits and UG at 11-12
 * bits, each walked over a whole period from row 0 and from base rows
 * at +-the period, keys at 0, 1, the period and one below, at a
 * sub-vector width, the benchmark's 112 and past the 256-column tile.
 */
TEST(SimdWalkRowsI16, ParityAtTheWidestTables)
{
    Prng prng(1212);
    for (const Sequence &q : sequences({12, 13}, {11, 12})) {
        for (int n : {7, 112, 257}) {
            for (const int from : {0, 1, -1}) {
                WalkCase c;
                c.count = int(q.period) + 1;
                c.keys.resize(std::size_t(n));
                for (std::size_t j = 0; j < c.keys.size(); ++j) {
                    const u32 edge[] = {0, 1, q.period - 1, q.period};
                    c.keys[j] = u16(j < 4 ? edge[j]
                                          : prng.below(u64(q.period) + 1));
                }
                if (from != 0)
                    c.base.assign(std::size_t(n), i16(from * i32(q.period)));
                expectWalkModes(c, q, 0, prng,
                                q.name + " n=" + std::to_string(n) +
                                    " base=" + std::to_string(from));
            }
        }
    }
}

TEST(SimdSumRowsI16, ParityWithSignsAndZeroRows)
{
    Prng prng(1010);
    for (int bits : {2, 8, 13}) {
        const i32 lim = i32(1) << (bits - 1);
        for (int n : kRowWidths) {
            // Row 0 is a zero row; the others hold entries in
            // [-lim, lim], with the extremes. The buffer keeps the slack
            // past the last row that the contract asks for.
            const int nrows = 9;
            std::vector<i16> rows(std::size_t(nrows) * std::size_t(n) +
                                      detail::kSumRowSlack,
                                  0);
            for (std::size_t i = std::size_t(n); i < rows.size(); ++i)
                rows[i] = i16(i32(prng.below(2 * u64(lim) + 1)) - lim);
            if (n > 0) {
                rows[std::size_t(n)] = i16(lim);
                rows[2 * std::size_t(n) - 1] = i16(-lim);
            }
            for (int count : {0, 1, 2, 5, 37}) {
                std::vector<u32> slots(static_cast<std::size_t>(count));
                for (auto &sl : slots)
                    sl = u32(prng.below(nrows)) << 1 | u32(prng.below(2));
                if (count > 1) {
                    slots[0] = 0; // the zero row, added and negated
                    slots[1] = 1;
                }
                if (count > 2)
                    slots[2] = u32(nrows - 1) << 1; // the last row
                std::vector<i64> out0(static_cast<std::size_t>(n));
                for (auto &v : out0)
                    v = i64(prng.next() >> 20) - (i64(1) << 43);
                std::vector<i64> naive = out0;
                for (const u32 sl : slots)
                    for (int j = 0; j < n; ++j) {
                        const i64 v = rows[(sl >> 1) * std::size_t(n) +
                                           std::size_t(j)];
                        naive[std::size_t(j)] += (sl & 1) ? -v : v;
                    }
                for (const SimdKernels *k : tablesUnderTest()) {
                    std::vector<i64> got = out0;
                    got.push_back(-7); // sentinel past n
                    k->sumRowsI16(got.data(), rows.data(), slots.data(),
                                  count, n);
                    EXPECT_EQ(got.back(), -7)
                        << simdLevelName(k->level) << " n=" << n;
                    got.pop_back();
                    EXPECT_EQ(got, naive)
                        << simdLevelName(k->level) << " bits=" << bits
                        << " n=" << n << " count=" << count;
                }
            }
        }
    }
}

TEST(SimdSumRowsI16, NoRowsLeavesTheOutputAlone)
{
    // A block whose activations all add nothing selects no rows, so the
    // row buffer may be null.
    for (const SimdKernels *k : tablesUnderTest()) {
        std::vector<i64> out(65, 3);
        k->sumRowsI16(out.data(), nullptr, nullptr, 0, 65);
        EXPECT_EQ(out, std::vector<i64>(65, 3)) << simdLevelName(k->level);
    }
}

TEST(SimdSumRowsI16, ColumnSumsAtTheInt32Edge)
{
    // The contract is only that each column's total fits in i32: sums
    // that reach INT32_MAX and INT32_MIN + 1 through 65538 full-scale
    // rows, negated ones among them (whose v ^ -1 terms wrap on the way),
    // must still come out exact.
    const i64 big = std::numeric_limits<i32>::max();
    const std::size_t reps = 65538; // 65538 * 32767 = INT32_MAX - 1
    for (int n : {1, 16, 17, 65, 129}) {
        std::vector<i16> rows(3 * std::size_t(n) + detail::kSumRowSlack);
        for (int j = 0; j < n; ++j) {
            rows[std::size_t(j)] = 32767;          // row 0
            rows[std::size_t(n + j)] = -32768;     // row 1
            rows[std::size_t(2 * n + j)] = 1;      // row 2
        }
        // INT32_MAX as 65538 x 32767 + 1 and as 65535 x -(-32768) +
        // 32767; INT32_MIN + 1 as the negation of the first.
        std::vector<u32> plus_max(reps, 0u << 1);
        plus_max.push_back(2u << 1);
        std::vector<u32> via_min(reps - 3, 1u << 1 | 1);
        via_min.push_back(0u << 1);
        std::vector<u32> minus_max(reps, 0u << 1 | 1);
        minus_max.push_back(2u << 1 | 1);
        for (const SimdKernels *k : tablesUnderTest()) {
            const auto sum = [&](const std::vector<u32> &slots, i64 init) {
                std::vector<i64> got(std::size_t(n), init);
                k->sumRowsI16(got.data(), rows.data(), slots.data(),
                              int(slots.size()), n);
                return got;
            };
            EXPECT_EQ(sum(plus_max, 5), std::vector<i64>(std::size_t(n),
                                                         big + 5))
                << simdLevelName(k->level) << " n=" << n;
            EXPECT_EQ(sum(via_min, 0), std::vector<i64>(std::size_t(n), big))
                << simdLevelName(k->level) << " n=" << n;
            EXPECT_EQ(sum(minus_max, 0),
                      std::vector<i64>(std::size_t(n), -big))
                << simdLevelName(k->level) << " n=" << n;
        }
    }
}

Matrix<i32>
randomCodes(int rows, int cols, Prng &prng)
{
    Matrix<i32> m(rows, cols);
    for (int r = 0; r < rows; ++r)
        for (int c = 0; c < cols; ++c)
            m(r, c) = i32(prng.below(255)) - 127;
    return m;
}

TEST(SimdGemm, ReferenceGemmMatchesNaive)
{
    Prng prng(606);
    const auto a = randomCodes(9, 33, prng);
    const auto b = randomCodes(33, 21, prng);
    const auto got = referenceGemm(a, b);
    for (int m = 0; m < a.rows(); ++m)
        for (int n = 0; n < b.cols(); ++n) {
            i64 acc = 0;
            for (int k = 0; k < a.cols(); ++k)
                acc += i64(a(m, k)) * i64(b(k, n));
            ASSERT_EQ(got(m, n), acc) << m << "," << n;
        }
}

/** Plain triple loop in i64: the referee for the exact-product GEMMs. */
std::vector<i64>
naiveGemm(const std::vector<i32> &a, const std::vector<i32> &b, int m,
          int kd, int n, std::vector<i64> c)
{
    for (int i = 0; i < m; ++i)
        for (int k = 0; k < kd; ++k)
            for (int j = 0; j < n; ++j)
                c[std::size_t(i) * n + j] +=
                    i64(a[std::size_t(i) * kd + k]) *
                    i64(b[std::size_t(k) * n + j]);
    return c;
}

/** Codes of at most `bits` bits, a third of them zero, with the edges. */
std::vector<i32>
pairCodes(std::size_t count, int bits, Prng &prng)
{
    // gemmI16's range is [-2^14, 2^14), so at 15 bits the top code is
    // 2^14 - 1.
    const i32 lo = -(i32(1) << (bits - 1));
    const i32 hi = std::min(-lo, kGemmI16Limit - 1);
    std::vector<i32> v(count);
    for (auto &x : v)
        x = prng.below(3) == 0 ? 0
                               : lo + i32(prng.below(u64(hi - lo) + 1));
    if (count > 0)
        v[0] = lo;
    if (count > 1)
        v[count - 1] = hi;
    return v;
}

/**
 * Run gemmI16 on one table in both B layouts (B's own rows and the
 * packed panel) over a c prefilled with offsets, and hold each to the
 * naive loop; a sentinel past c catches writes beyond the last row. With
 * rows to run, the row tiles must count b's zero codes exactly once, on
 * top of what *zeros held; the panel path counts none.
 */
void
expectPairGemm(const SimdKernels &k, const std::vector<i32> &a,
               const std::vector<i32> &b, int m, int kd, int n, int kb,
               const std::string &what)
{
    std::vector<i64> c0(std::size_t(m) * n);
    for (std::size_t i = 0; i < c0.size(); ++i)
        c0[i] = i64(i % 7) - 3;
    const auto want = naiveGemm(a, b, m, kd, n, c0);
    const u64 b_zeros = u64(std::count(b.begin(), b.end(), 0));
    std::vector<u32> panel(std::size_t((kd + 1) / 2) * n + 1, 0xdeadbeef);
    ASSERT_TRUE(packPairsI16(b.data(), kd, n, panel.data())) << what;
    EXPECT_EQ(panel.back(), 0xdeadbeefu) << what;
    for (const bool raw : {true, false})
        for (const bool count : {true, false}) {
            const std::string where = std::string(simdLevelName(k.level)) +
                                      " " + what + (raw ? " raw" : " panel") +
                                      (count ? " counting" : "");
            std::vector<i64> got = c0;
            got.push_back(-7);
            u64 zeros = 3;
            EXPECT_TRUE(k.gemmI16(got.data(), a.data(), b.data(),
                                  raw ? nullptr : panel.data(), m, kd, n, kb,
                                  count ? &zeros : nullptr))
                << where;
            EXPECT_EQ(got.back(), -7) << where;
            got.pop_back();
            EXPECT_EQ(got, want) << where;
            EXPECT_EQ(zeros, 3 + (raw && count && m > 0 ? b_zeros : 0))
                << where;
        }
}

TEST(SimdGemmI16, ParityAcrossShapesTailsAndBlocks)
{
    Prng prng(1212);
    for (int n : {1, 7, 8, 15, 16, 17, 63, 64, 65, 112, 129})
        for (int m : {0, 1, 2, 5, 33})
            for (int kd : {0, 1, 2, 7, 26}) {
                const auto a = pairCodes(std::size_t(m) * kd, 8, prng);
                const auto b = pairCodes(std::size_t(kd) * n, 8, prng);
                // The block the caller would size, and one or two pairs
                // a block so every spill path runs.
                for (int kb : {512, 1, 2})
                    for (const SimdKernels *k : tablesUnderTest())
                        expectPairGemm(*k, a, b, m, kd, n, kb,
                                       "m=" + std::to_string(m) +
                                           " k=" + std::to_string(kd) +
                                           " n=" + std::to_string(n) +
                                           " kb=" + std::to_string(kb));
            }
}

TEST(SimdGemmI16, ParityAtEveryCodeWidth)
{
    // Codes at +-2^(b-1) for b = 2..15, with the block sized from the
    // widest code as referenceGemm sizes it.
    Prng prng(1313);
    for (int bits = 2; bits <= 15; ++bits) {
        const int m = 6, kd = 41, n = 23;
        const auto a = pairCodes(std::size_t(m) * kd, bits, prng);
        const auto b = pairCodes(std::size_t(kd) * n, bits, prng);
        const u64 max_a = u64(1) << (bits - 1);
        const int kb = int(u64(std::numeric_limits<i32>::max()) /
                           (2 * max_a * u64(kGemmI16Limit)));
        for (const SimdKernels *k : tablesUnderTest())
            expectPairGemm(*k, a, b, m, kd, n, kb,
                           "bits=" + std::to_string(bits));
    }
}

TEST(SimdGemmI16, LongKCrossesTheStagingBlock)
{
    // The vector tiers stage at most 512 k pairs a block whatever kb the
    // caller allows, so a K past 1024 spans several staged blocks.
    Prng prng(1616);
    const int m = 6, kd = 2101, n = 19;
    const auto a = pairCodes(std::size_t(m) * kd, 8, prng);
    const auto b = pairCodes(std::size_t(kd) * n, 8, prng);
    for (const SimdKernels *k : tablesUnderTest())
        for (const int kb : {512, 700, 4096})
            expectPairGemm(*k, a, b, m, kd, n, kb,
                           "kb=" + std::to_string(kb));
}

TEST(SimdGemmI16, AllZeroPairsAreSkippedExactly)
{
    // Pairs and k zero in every row of a register tile (the panel tiles
    // and the row tiles past the first rows skip them; the first row
    // tiles still read them, to check and count b), pairs zero in one
    // row only, and pairs with a single nonzero code. Then every row
    // past the first tile zero, so that no later row tile has a k to
    // read.
    Prng prng(1414);
    const int m = 9, kd = 19, n = 21;
    auto a = pairCodes(std::size_t(m) * kd, 8, prng);
    for (int i = 0; i < m; ++i)
        for (int k = 0; k < kd; ++k)
            if (k % 4 < 2 || (k % 4 == 2 && i % 2 == 0) || i == 4)
                a[std::size_t(i) * kd + k] = 0;
    const auto b = pairCodes(std::size_t(kd) * n, 8, prng);
    for (const SimdKernels *k : tablesUnderTest())
        expectPairGemm(*k, a, b, m, kd, n, 512, "sparse");
    std::fill(a.begin() + std::size_t(detail::kPairTileRows) * kd, a.end(),
              0);
    for (const SimdKernels *k : tablesUnderTest())
        expectPairGemm(*k, a, b, m, kd, n, 512, "zero past the first tile");
}

TEST(SimdGemmI16, RawCodesOutsideTheRangeAreReported)
{
    // The raw path checks every b code it reads against [-2^14, 2^14);
    // the panel packer reports the same codes. A k whose activations are
    // all zero is not read, so its codes go unreported, and the result
    // is still exact, unless the call counts b's zeros: its first rows
    // then read every k.
    const int m = 6, kd = 5, n = 20;
    std::vector<i32> a(std::size_t(m) * kd, 1);
    for (const i32 bad : {kGemmI16Limit, -kGemmI16Limit - 1, i32(1) << 20,
                          std::numeric_limits<i32>::min(),
                          std::numeric_limits<i32>::max()}) {
        std::vector<i32> b(std::size_t(kd) * n, 3);
        b[std::size_t(kd - 1) * n + n - 1] = bad; // the odd tail's last
        std::vector<u32> panel(std::size_t((kd + 1) / 2) * n);
        EXPECT_FALSE(packPairsI16(b.data(), kd, n, panel.data())) << bad;
        for (const SimdKernels *k : tablesUnderTest())
            for (const bool count : {true, false}) {
                std::vector<i64> c(std::size_t(m) * n, 0);
                u64 zeros = 0;
                EXPECT_FALSE(k->gemmI16(c.data(), a.data(), b.data(),
                                        nullptr, m, kd, n, 3,
                                        count ? &zeros : nullptr))
                    << simdLevelName(k->level) << " " << bad;
            }
        for (int i = 0; i < m; ++i)
            a[std::size_t(i) * kd + kd - 1] = 0;
        const std::vector<i64> want(std::size_t(m) * n, 3 * (kd - 1));
        for (const SimdKernels *k : tablesUnderTest()) {
            std::vector<i64> c(std::size_t(m) * n, 0);
            EXPECT_TRUE(k->gemmI16(c.data(), a.data(), b.data(), nullptr, m,
                                   kd, n, 3, nullptr))
                << simdLevelName(k->level) << " " << bad << " at a zero k";
            EXPECT_EQ(c, want) << simdLevelName(k->level) << " " << bad;
            u64 zeros = 0;
            EXPECT_FALSE(k->gemmI16(c.data(), a.data(), b.data(), nullptr, m,
                                    kd, n, 3, &zeros))
                << simdLevelName(k->level) << " " << bad << " counted";
        }
        std::fill(a.begin(), a.end(), 1);
    }
}

TEST(SimdGemmI16, RowTilesAtTheCodeEdges)
{
    // Every M a row tile covers (1-15: one to four row groups, ragged),
    // N below 16 and past it, with codes at the range's edges: +-(2^14 - 1)
    // and -2^14 in both operands, zeros among them, and the block at the
    // bound referenceGemm sizes for |a| = 2^14 (three pairs, six k).
    Prng prng(1717);
    const i32 edge = kGemmI16Limit;
    const i32 picks[] = {edge - 1, -(edge - 1), -edge, 0, 1, -1};
    const auto edgeCodes = [&](std::size_t count) {
        std::vector<i32> v(count);
        for (auto &x : v)
            x = prng.below(3) == 0 ? picks[prng.below(6)]
                                   : i32(prng.below(2 * u64(edge))) - edge;
        return v;
    };
    const int kb = int(u64(std::numeric_limits<i32>::max()) /
                       (2 * u64(edge) * u64(edge)));
    ASSERT_EQ(kb, 3);
    for (int m = 1; m <= 15; ++m)
        for (const int n : {1, 3, 8, 9, 15, 16, 17})
            for (const int kd : {1, 6, 7, 13}) {
                const auto a = edgeCodes(std::size_t(m) * kd);
                const auto b = edgeCodes(std::size_t(kd) * n);
                for (const SimdKernels *k : tablesUnderTest())
                    expectPairGemm(*k, a, b, m, kd, n, kb,
                                   "edges m=" + std::to_string(m) +
                                       " k=" + std::to_string(kd) +
                                       " n=" + std::to_string(n));
            }
}

TEST(SimdGemm, ReferenceGemmSpillsPastInt32)
{
    // 15-bit codes at the range's edge: every pair adds 2^29, so a block
    // of four pairs would wrap i32. referenceGemm sizes the block at
    // three; a single i32 accumulator over K = 64 would be off by far.
    const i32 edge = -kGemmI16Limit;
    const SimdLevel before = simdLevel();
    for (const int m : {1, 33}) // the raw path and the panel
        for (const SimdKernels *k : tablesUnderTest()) {
            setSimdMode(simdLevelName(k->level));
            const Matrix<i32> a(m, 64, edge), b(64, 17, edge);
            Matrix<i32> mixed = b;
            for (int k = 0; k < 64; k += 3)
                mixed(k, 5) = kGemmI16Limit - 1;
            const auto got = referenceGemm(a, b);
            const auto got_mixed = referenceGemm(a, mixed);
            for (int i = 0; i < m; ++i)
                for (int j = 0; j < 17; ++j) {
                    EXPECT_EQ(got(i, j), i64(64) << 28)
                        << simdLevelName(k->level) << " " << i << "," << j;
                    i64 want = 0;
                    for (int kk = 0; kk < 64; ++kk)
                        want += i64(edge) * mixed(kk, j);
                    EXPECT_EQ(got_mixed(i, j), want)
                        << simdLevelName(k->level) << " " << i << "," << j;
                }
        }
    setSimdMode(simdLevelName(before));
}

TEST(SimdGemm, ReferenceGemmTakesTheLoopPastTheRange)
{
    // A code outside [-2^14, 2^14) anywhere sends the call to the plain
    // widening loop, on either operand and at any M (at M < 16 a wide b
    // is found by the kernel after the fact); the loop is exact up to
    // both ends of the i32 range.
    Prng prng(1515);
    for (const int m : {1, 2, 3, 4, 5, 9, 15, 33})
        for (const i32 wide : {kGemmI16Limit, -kGemmI16Limit - 1,
                               i32(1) << 24, std::numeric_limits<i32>::min(),
                               std::numeric_limits<i32>::max()})
            for (const bool in_a : {true, false}) {
                auto a = randomCodes(m, 37, prng);
                auto b = randomCodes(37, 19, prng);
                (in_a ? a(m - 1, 36) : b(36, 18)) = wide;
                const auto got = referenceGemm(a, b);
                const std::vector<i64> zero(std::size_t(m) * 19, 0);
                EXPECT_EQ(got.data(), naiveGemm(a.data(), b.data(), m, 37,
                                                19, zero))
                    << "m=" << m << " wide=" << wide << " in_a=" << in_a;
            }
}

TEST(SimdGemm, GemmFp32MatchesNaiveBitwise)
{
    Prng prng(707);
    MatF a(7, 19), b(19, 13);
    for (int r = 0; r < a.rows(); ++r)
        for (int c = 0; c < a.cols(); ++c)
            a(r, c) = float(prng.uniform(-1.0, 1.0));
    for (int r = 0; r < b.rows(); ++r)
        for (int c = 0; c < b.cols(); ++c)
            b(r, c) = float(prng.uniform(-1.0, 1.0));
    a(0, 0) = 0.0f; // exercise the zero-skip path
    const MatF got = gemmFp32(a, b);
    // Naive loop in the same k-then-n order with one multiply + one
    // add per element — the bit-exactness contract.
    MatF naive(a.rows(), b.cols(), 0.0f);
    for (int m = 0; m < a.rows(); ++m)
        for (int k = 0; k < a.cols(); ++k) {
            const float av = a(m, k);
            if (av == 0.0f)
                continue;
            for (int n = 0; n < b.cols(); ++n)
                naive(m, n) += av * b(k, n);
        }
    for (int m = 0; m < a.rows(); ++m)
        for (int n = 0; n < b.cols(); ++n)
            ASSERT_EQ(got(m, n), naive(m, n)) << m << "," << n;
}

TEST(SimdPackedArray, FoldIdenticalAcrossTiers)
{
    // The packed engine's outputs must not depend on the dispatched
    // tier — run the same fold under generic and auto and compare.
    const SimdLevel before = simdLevel();
    Prng prng(808);
    ArrayConfig cfg;
    cfg.rows = 8;
    cfg.cols = 8;
    const auto input = randomCodes(8, 8, prng);
    const auto weights = randomCodes(8, 8, prng);
    for (Scheme scheme :
         {Scheme::USystolicRate, Scheme::USystolicTemporal,
          Scheme::UgemmHybrid}) {
        cfg.kernel = {scheme, 8, scheme == Scheme::USystolicRate ? 6 : 0};
        const PackedArray array(cfg);
        setSimdMode("generic");
        const auto ref = array.runFold(input, weights);
        setSimdMode("auto");
        const auto got = array.runFold(input, weights);
        EXPECT_TRUE(ref.output == got.output) << cfg.kernel.name();
        EXPECT_EQ(ref.cycles, got.cycles) << cfg.kernel.name();
    }
    setSimdMode(simdLevelName(before));
}

} // namespace
} // namespace usys
