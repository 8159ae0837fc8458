/**
 * @file
 * Exact O(1) functional models of unary multiplication.
 *
 * For a row-shared Sobol sequence S, the C-BSG unipolar product count after
 * the input stream has delivered m 1-bits is
 *
 *     count(m, w) = #{ j < m : S[j] < w }
 *
 * independent of *where* those 1-bits fall in the stream (the weight RNG
 * advances exactly once per input 1-bit). Over a full 2^k-cycle period a
 * k-bit rate- or temporal-coded input delivers exactly |i| ones, so rate
 * and temporal coding yield identical products (Section V-A). Early
 * termination after L < 2^k cycles changes only the delivered ones-count,
 * which is itself a prefix count over the input-side sequence.
 *
 * These prefix counts are precomputed once per bitwidth, giving bit-exact
 * MACs in O(1) — the key to running full DNN inference through the unary
 * datapath on one core. The bit-level simulators in src/arch are tested to
 * agree with these tables cycle-for-cycle.
 *
 * A row of the table is also reachable by walking the sequence: with the
 * thresholds t_j = S[j] + 1, row m + 1 is row m plus [w >= t_m] in every
 * column. GemmExecutor reads whole rows either way: it gathers a row's
 * entries at many weights (countsAfterOnes and the bipolar hitsAfter*
 * rows), or, when a weight meets many rows, builds them all in one walk
 * over the thresholds (weightThresholds, onesThresholds, zerosThresholds;
 * SimdKernels::walkRowsI16). Every threshold, index and entry is at most
 * 2^13 (a 13-bit UR/UT period 2^12, a 12-bit UG period 2^12), so the
 * walk and the gathered rows run in 16-bit lanes.
 */

#ifndef USYS_UNARY_PRODUCT_TABLE_H
#define USYS_UNARY_PRODUCT_TABLE_H

#include <vector>

#include "common/types.h"

namespace usys {

/** Exact functional model of the unipolar C-BSG uMUL (uSystolic PE). */
class UnaryProductModel
{
  public:
    /**
     * @param signed_bits total signed bitwidth N (magnitude N-1 bits,
     *        stream length 2^(N-1))
     * @param weight_rng_dim Sobol dimension of the shared weight RNG
     * @param input_rng_dim Sobol dimension of the input (rate) BSG
     */
    explicit UnaryProductModel(int signed_bits, int weight_rng_dim = 0,
                               int input_rng_dim = 1);

    /** Stream length 2^(N-1). */
    u32 period() const { return period_; }

    /** Magnitude bitwidth N-1. */
    int magBits() const { return mag_bits_; }

    /**
     * Row of countAfterOnes(ones, .), indexed by wabs in [0, period]:
     * lets a loop over many weights against one input hoist the row.
     * One readable u16 follows every row, the last one included.
     */
    const u16 *
    countsAfterOnes(u32 ones) const
    {
        return &weight_prefix_[std::size_t(ones) * stride_];
    }

    /**
     * The weight sequence's thresholds t_j = S[j] + 1 for j in
     * [0, period): countAfterOnes(ones + 1, w) is countAfterOnes(ones, w)
     * plus [w >= t_ones].
     */
    const u16 *weightThresholds() const { return weight_thresholds_.data(); }

    /** Product 1-count after the input has delivered `ones` 1-bits. */
    u32
    countAfterOnes(u32 ones, u32 wabs) const
    {
        return countsAfterOnes(ones)[wabs];
    }

    /** Full-period product count (rate or temporal input coding). */
    u32
    fullProduct(u32 iabs, u32 wabs) const
    {
        return countAfterOnes(iabs, wabs);
    }

    /** Input 1-bits delivered within the first `cycles` of a rate stream. */
    u32
    rateOnes(u32 iabs, u32 cycles) const
    {
        return onesWithin(cycles)[iabs];
    }

    /**
     * Row of rateOnes(., cycles), indexed by iabs in [0, period]. A
     * whole period delivers every one, so onesWithin(period()) is the
     * identity.
     */
    const u16 *
    onesWithin(u32 cycles) const
    {
        return &input_prefix_[std::size_t(cycles) * stride_];
    }

    /** Rate-coded product count, early terminated after `cycles`. */
    u32
    rateProduct(u32 iabs, u32 wabs, u32 cycles) const
    {
        return countAfterOnes(rateOnes(iabs, cycles), wabs);
    }

    /**
     * Temporal-coded product count, early terminated after `cycles`.
     * Temporal 1s sit at the stream tail, so truncation drops the 1s of
     * small values first (the accuracy catastrophe of Section II-B3).
     */
    u32
    temporalProduct(u32 iabs, u32 wabs, u32 cycles) const
    {
        const u32 ones =
            iabs + cycles > period_ ? iabs + cycles - period_ : 0;
        return countAfterOnes(ones, wabs);
    }

  private:
    int mag_bits_;
    u32 period_;
    std::size_t stride_;
    // prefix_[m * stride + w] = #{ j < m : S[j] < w }
    std::vector<u16> weight_prefix_;
    std::vector<u16> input_prefix_;
    std::vector<u16> weight_thresholds_;
};

/** Exact functional model of the bipolar uMUL (uGEMM-H baseline). */
class BipolarProductModel
{
  public:
    /**
     * @param signed_bits total signed bitwidth N (stream length 2^N)
     */
    explicit BipolarProductModel(int signed_bits, int rng_dim_one = 0,
                                 int rng_dim_zero = 1);

    /** Stream length 2^N. */
    u32 period() const { return period_; }

    /**
     * Output 1-count after the input has delivered `ones` 1-bits and
     * `zeros` 0-bits against the offset weight `w_off` = w + 2^(N-1).
     * Input 1-cycles consume the polarity-1 sequence and input 0-cycles
     * the polarity-0 one, each advancing only on its own cycles, so the
     * XNOR output is 1 on a polarity-1 hit or a polarity-0 miss.
     */
    u32
    countAfter(u32 ones, u32 zeros, u32 w_off) const
    {
        return hitsAfterOnes(ones)[w_off] + zeros -
               hitsAfterZeros(zeros)[w_off];
    }

    /**
     * Rows of countAfter's two prefix terms, indexed by w_off in
     * [0, period]: polarity-1 hits after `ones` input 1-bits, and
     * polarity-0 hits after `zeros` input 0-bits. Like
     * UnaryProductModel::countsAfterOnes, they let a loop over many
     * weights hoist the rows; one readable u16 follows every row.
     */
    const u16 *
    hitsAfterOnes(u32 ones) const
    {
        return &prefix_one_[std::size_t(ones) * stride_];
    }
    const u16 *
    hitsAfterZeros(u32 zeros) const
    {
        return &prefix_zero_[std::size_t(zeros) * stride_];
    }

    /**
     * Thresholds t_j = S[j] + 1 of the polarity-1 and polarity-0
     * sequences for j in [0, period): hitsAfterOnes(ones + 1)[w] is
     * hitsAfterOnes(ones)[w] plus [w >= onesThresholds()[ones]], and
     * likewise for zeros.
     */
    const u16 *onesThresholds() const { return thresholds_one_.data(); }
    const u16 *zerosThresholds() const { return thresholds_zero_.data(); }

    /** Output 1-count over a full period for signed inputs x, w. */
    u32
    onesCount(i32 x, i32 w) const
    {
        const u32 half = period_ / 2;
        const u32 x_off = u32(x + i32(half));
        // Input delivers x_off 1-bits and (period - x_off) 0-bits per
        // period.
        return countAfter(x_off, period_ - x_off, u32(w + i32(half)));
    }

    /**
     * Signed product estimate scaled to match the unipolar path, i.e.
     * an approximation of x*w / 2^(N-1).
     */
    i32
    scaledProduct(i32 x, i32 w) const
    {
        return i32(onesCount(x, w)) - i32(period_ / 2);
    }

  private:
    u32 period_;
    std::size_t stride_;
    std::vector<u16> prefix_one_;  // over the polarity-1 sequence
    std::vector<u16> prefix_zero_; // over the polarity-0 sequence
    std::vector<u16> thresholds_one_;
    std::vector<u16> thresholds_zero_;
};

} // namespace usys

#endif // USYS_UNARY_PRODUCT_TABLE_H
