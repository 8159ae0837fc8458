#include "arch/sparsity.h"

namespace usys {

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
