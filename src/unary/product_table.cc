#include "unary/product_table.h"

#include "common/logging.h"
#include "unary/sobol.h"

namespace usys {

namespace {

/**
 * Build the 2-D prefix-count table for a sequence S of length L:
 * table[m * (L+1) + w] = #{ j < m : S[j] < w } for m, w in [0, L].
 * One zero u16 pads the end, so a 32-bit gather at the last entry of
 * the last row stays inside the allocation (SimdKernels::gatherU16).
 */
std::vector<u16>
buildPrefixTable(const std::vector<u32> &seq)
{
    const std::size_t len = seq.size();
    const std::size_t stride = len + 1;
    std::vector<u16> table(stride * stride + 1, 0);
    for (std::size_t m = 1; m <= len; ++m) {
        const u32 sample = seq[m - 1];
        const u16 *prev = &table[(m - 1) * stride];
        u16 *cur = &table[m * stride];
        for (std::size_t w = 0; w <= len; ++w)
            cur[w] = u16(prev[w] + (sample < w ? 1 : 0));
    }
    return table;
}

/** The thresholds S[j] + 1 of a sequence S, one per step (at most
 *  2^12 for every supported bitwidth, so u16 holds them). */
std::vector<u16>
thresholdsOf(const std::vector<u32> &seq)
{
    std::vector<u16> t(seq.size());
    for (std::size_t j = 0; j < seq.size(); ++j)
        t[j] = u16(seq[j] + 1);
    return t;
}

} // namespace

UnaryProductModel::UnaryProductModel(int signed_bits, int weight_rng_dim,
                                     int input_rng_dim)
    : mag_bits_(signed_bits - 1)
{
    fatalIf(signed_bits < 2 || signed_bits > 13,
            "UnaryProductModel: signed bitwidth must be in [2, 13]");
    period_ = u32(1) << mag_bits_;
    stride_ = std::size_t(period_) + 1;
    const std::vector<u32> weight_seq =
        sobolPermutation(weight_rng_dim, mag_bits_);
    weight_prefix_ = buildPrefixTable(weight_seq);
    weight_thresholds_ = thresholdsOf(weight_seq);
    input_prefix_ = buildPrefixTable(sobolPermutation(input_rng_dim,
                                                      mag_bits_));
}

BipolarProductModel::BipolarProductModel(int signed_bits, int rng_dim_one,
                                         int rng_dim_zero)
{
    fatalIf(signed_bits < 2 || signed_bits > 12,
            "BipolarProductModel: signed bitwidth must be in [2, 12]");
    period_ = u32(1) << signed_bits;
    stride_ = std::size_t(period_) + 1;
    const std::vector<u32> seq_one = sobolPermutation(rng_dim_one,
                                                      signed_bits);
    const std::vector<u32> seq_zero = sobolPermutation(rng_dim_zero,
                                                       signed_bits);
    prefix_one_ = buildPrefixTable(seq_one);
    prefix_zero_ = buildPrefixTable(seq_zero);
    thresholds_one_ = thresholdsOf(seq_one);
    thresholds_zero_ = thresholdsOf(seq_zero);
}

} // namespace usys
