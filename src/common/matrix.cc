#include "common/matrix.h"

#include <algorithm>
#include <cstddef>
#include <limits>
#include <memory>
#include <vector>

#include "common/executor.h"
#include "common/simd.h"

namespace usys {

namespace {

/**
 * Rows from which referenceGemm packs B into gemmI16's k-pair panel.
 * Below this the kernel's row tiles read (and range-check) B's i32 rows
 * in place: at K x N = 576 x 112 the packing pass took about as long as
 * the panel saved over 16 rows (AVX-512 host, one thread).
 */
constexpr int kPanelRows = 16;

/** Output rows one parallel chunk covers: ~16k MACs, whole tiles. */
int
chunkRows(int k_dim, int n_dim)
{
    const u64 macs_per_row = u64(k_dim) * u64(n_dim);
    const u64 rows = std::max<u64>(1, 16384 / macs_per_row);
    const u64 tile = u64(detail::kPairTileRows);
    return int(std::min<u64>((rows + tile - 1) / tile * tile, 1u << 20));
}

/**
 * OR over v of v ^ (v >> 31), |v| for v >= 0 and |v| - 1 below: every
 * |v| is at most the result + 1, and the result is below 2^14 exactly
 * when every code lies in gemmI16's [-2^14, 2^14).
 */
u32
magnitudeBits(const std::vector<i32> &v)
{
    // Fixed eight-lane groups let the compiler vectorize the scan.
    u32 bits[8] = {};
    std::size_t i = 0;
    for (; i + 8 <= v.size(); i += 8)
        for (std::size_t l = 0; l < 8; ++l)
            bits[l] |= u32(v[i + l] ^ (v[i + l] >> 31));
    for (; i < v.size(); ++i)
        bits[0] |= u32(v[i] ^ (v[i] >> 31));
    u32 all = 0;
    for (const u32 b : bits)
        all |= b;
    return all;
}

/** The widening per-row loop: exact for any i32 codes. */
void
gemmRowsI32(Matrix<i64> &c, const Matrix<i32> &a, const Matrix<i32> &b)
{
    const u64 grain = std::max<u64>(
        1, 4096 / u64(std::max(1, a.cols() * b.cols())));
    parallelFor(
        0, u64(a.rows()),
        [&](u64 mi) {
            const int m = int(mi);
            for (int k = 0; k < a.cols(); ++k) {
                const i64 av = a(m, k);
                for (int n = 0; n < b.cols(); ++n)
                    c(m, n) += av * i64(b(k, n));
            }
        },
        grain);
}

/**
 * c += a * b on gemmI16, for codes of a whose magnitudeBits are bits_a
 * (below 2^14). Returns whether b's codes were in the kernel's range; if
 * not, c is unspecified. Below kPanelRows rows, the first chunk's row
 * tiles add b's zero codes to *zeros_b when it is non-null.
 */
bool
pairGemm(Matrix<i64> &c, const Matrix<i32> &a, const Matrix<i32> &b,
         u32 bits_a, u64 *zeros_b)
{
    const int m_rows = a.rows();
    const int k_dim = a.cols();
    const int n_dim = b.cols();
    // The panel starts on a 64-byte boundary, so no full-width load
    // splits a cache line (misaligned, the 128 x 576 x 112 kernel ran
    // 10-20% slower).
    std::vector<u32> panel;
    u32 *pairs = nullptr;
    if (m_rows >= kPanelRows) {
        const std::size_t bytes =
            std::size_t((k_dim + 1) / 2) * std::size_t(n_dim) * sizeof(u32);
        panel.resize(bytes / sizeof(u32) + 15);
        void *start = panel.data();
        std::size_t space = panel.size() * sizeof(u32);
        pairs = static_cast<u32 *>(std::align(64, bytes, start, space));
        if (!packPairsI16(b.data().data(), k_dim, n_dim, pairs))
            return false;
    }
    // Blocks of kb k pairs sum to at most 2 * kb * max|a| * 2^14 in
    // magnitude, so this kb keeps every i32 block sum exact: 512 pairs
    // for codes within +-127, 256 at +-128.
    const int kb = int(std::max<u64>(
        1, u64(std::numeric_limits<i32>::max()) /
               (2 * (u64(bits_a) + 1) * u64(kGemmI16Limit))));

    // Row-parallel: each chunk owns its rows of c, and integer sums are
    // exact, so the result is independent of the thread count. Each
    // chunk's row tiles check the codes of b they read.
    const int rows = chunkRows(k_dim, n_dim);
    const u64 chunks = (u64(m_rows) + u64(rows) - 1) / u64(rows);
    std::vector<u8> in_range(chunks, 1);
    const SimdKernels &simd = simdKernels();
    parallelFor(0, chunks, [&](u64 t) {
        const int i0 = int(t) * rows;
        in_range[t] = simd.gemmI16(&c(i0, 0), &a(i0, 0), b.data().data(),
                                   pairs, std::min(rows, m_rows - i0),
                                   k_dim, n_dim, kb,
                                   t == 0 ? zeros_b : nullptr);
    });
    return std::find(in_range.begin(), in_range.end(), 0) == in_range.end();
}

} // namespace

u64
countZeros(const i32 *p, std::size_t n)
{
    // Fixed eight-lane groups let the compiler vectorize the count at
    // -O2. The per-fold census counts each staged tile with it; a
    // closed-form GEMM counts A with it, and B too unless the call's
    // single-row pass over B counted its zeros (OperandZeros).
    u32 lanes[8] = {}; // each lane counts at most n / 8 < 2^32 zeros
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8)
        for (std::size_t l = 0; l < 8; ++l)
            lanes[l] += p[i + l] == 0;
    u64 zeros = 0;
    for (const u32 v : lanes)
        zeros += v;
    for (; i < n; ++i)
        zeros += p[i] == 0;
    return zeros;
}

Matrix<i64>
referenceGemm(const Matrix<i32> &a, const Matrix<i32> &b,
              OperandZeros *zeros)
{
    fatalIf(a.cols() != b.rows(), "referenceGemm: shape mismatch");
    const int m_rows = a.rows();
    const int k_dim = a.cols();
    const int n_dim = b.cols();
    Matrix<i64> c(m_rows, n_dim, 0);
    // An empty operand has no row to point into.
    if (m_rows == 0 || k_dim == 0 || n_dim == 0) {
        if (zeros)
            *zeros = {countZeros(a), countZeros(b)};
        return c;
    }
    // A call whose row tiles read B in place (below kPanelRows rows)
    // counts B's zeros in their first pass; A's, and B's on the other
    // paths, take a count of their own, only when asked for.
    const u32 bits_a = magnitudeBits(a.data());
    const bool fused = zeros && bits_a < u32(kGemmI16Limit) &&
                       m_rows < kPanelRows;
    u64 zeros_b = 0;
    if (bits_a >= u32(kGemmI16Limit)) {
        gemmRowsI32(c, a, b);
    } else if (!pairGemm(c, a, b, bits_a, fused ? &zeros_b : nullptr)) {
        // b held a code beyond the kernel's range: redo the call exactly.
        std::fill(c.data().begin(), c.data().end(), 0);
        gemmRowsI32(c, a, b);
    }
    if (zeros)
        *zeros = {countZeros(a), fused ? zeros_b : countZeros(b)};
    return c;
}

} // namespace usys
