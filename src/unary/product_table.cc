#include "unary/product_table.h"

#include "common/logging.h"
#include "unary/sobol.h"

namespace usys {

namespace {

/**
 * Build the 2-D prefix-count table for a sequence S of length L:
 * table[m * (L+1) + w] = #{ j < m : S[j] < w } for m, w in [0, L].
 */
std::vector<u16>
buildPrefixTable(const std::vector<u32> &seq)
{
    const std::size_t len = seq.size();
    const std::size_t stride = len + 1;
    std::vector<u16> table(stride * stride, 0);
    for (std::size_t m = 1; m <= len; ++m) {
        const u32 sample = seq[m - 1];
        const u16 *prev = &table[(m - 1) * stride];
        u16 *cur = &table[m * stride];
        for (std::size_t w = 0; w <= len; ++w)
            cur[w] = u16(prev[w] + (sample < w ? 1 : 0));
    }
    return table;
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
    weight_prefix_ = buildPrefixTable(sobolPermutation(weight_rng_dim,
                                                       mag_bits_));
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
    prefix_one_ = buildPrefixTable(sobolPermutation(rng_dim_one,
                                                    signed_bits));
    prefix_zero_ = buildPrefixTable(sobolPermutation(rng_dim_zero,
                                                     signed_bits));
}

} // namespace usys
