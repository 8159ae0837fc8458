#include "arch/sparsity.h"

namespace usys {

u64
countZeros(const Matrix<i32> &m)
{
    // Fixed eight-lane groups let the compiler vectorize the count at
    // -O2. The scalar loop it replaces took most of a closed-form GEMM
    // with M = 1, and its speed swung with code alignment.
    const i32 *p = m.data().data();
    const std::size_t n = m.data().size();
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

SparsityCensus
foldSparsityCensus(const KernelConfig &kern, const Matrix<i32> &input,
                   const Matrix<i32> &weights)
{
    SparsityCensus c;
    c.zero_acts = countZeros(input);
    c.zero_weights = countZeros(weights);
    // An all-zero activation stream elides one MAC slot per column it
    // would have fed. uGEMM-H is the carve-out: its bipolar offset makes
    // even a zero-valued operand contribute a bias term, so no slot is
    // skippable there.
    if (kern.scheme != Scheme::UgemmHybrid)
        c.skippable_macs = c.zero_acts * u64(weights.cols());
    return c;
}

void
SparsityPlan::build(const Matrix<i32> &tile)
{
    const int m_rows = tile.rows();
    const int r_cols = tile.cols();
    idx_.clear();
    off_.clear();
    off_.reserve(std::size_t(m_rows) + 1);
    off_.push_back(0);
    for (int m = 0; m < m_rows; ++m) {
        for (int r = 0; r < r_cols; ++r)
            if (tile(m, r) != 0)
                idx_.push_back(u32(r));
        off_.push_back(u32(idx_.size()));
    }
}

} // namespace usys
