/**
 * @file
 * Unary bitstream generators (Figure 3 of the paper).
 *
 * A bitstream generator (BSG) compares a stationary source value against a
 * per-cycle number sequence: a random sequence (rate coding) or a counter
 * (temporal coding). Over a full period of 2^bits cycles both encode the
 * value exactly as the count of 1-bits.
 */

#ifndef USYS_UNARY_BITSTREAM_H
#define USYS_UNARY_BITSTREAM_H

#include <vector>

#include "common/logging.h"
#include "common/types.h"
#include "unary/sobol.h"

namespace usys {

/** Abstract one-bit-per-cycle stream source. */
class BitstreamGen
{
  public:
    virtual ~BitstreamGen() = default;

    /** Produce the next bit of the stream. */
    virtual bool nextBit() = 0;

    /** Restart the stream from cycle 0. */
    virtual void reset() = 0;
};

/**
 * Rate-coded unipolar BSG: bit_t = (rng_t < src).
 *
 * With a full-period Sobol RNG of the same width, exactly src of the
 * 2^bits bits are 1, in pseudo-random order.
 */
class RateBsg final : public BitstreamGen
{
  public:
    /**
     * @param src source magnitude in [0, 2^bits]
     * @param rng_dimension Sobol dimension for the comparison sequence
     * @param bits magnitude bitwidth
     */
    RateBsg(u32 src, int rng_dimension, int bits)
        : src_(src), rng_(rng_dimension, bits)
    {
        fatalIf(src > (u32(1) << bits),
                "RateBsg: src " + std::to_string(src) +
                    " exceeds 2^bits = " + std::to_string(u32(1) << bits));
    }

    bool nextBit() override { return rng_.next() < src_; }
    void reset() override { rng_.reset(); }

  private:
    u32 src_;
    SobolSequence rng_;
};

/**
 * Temporal-coded unipolar BSG: deterministic bit order with the 1s packed
 * at the tail of the period (Figure 3b: 0000000011111111 for 0.5), i.e.
 * bit_t = (t >= period - src).
 *
 * The tail placement is why early termination destroys temporal accuracy:
 * truncating the stream drops 1s of small values first (Section II-B3).
 */
class TemporalBsg final : public BitstreamGen
{
  public:
    TemporalBsg(u32 src, int bits)
        : src_(src), period_(u64(1) << bits)
    {}

    bool
    nextBit() override
    {
        const bool bit = t_ >= period_ - src_;
        ++t_;
        return bit;
    }

    void reset() override { t_ = 0; }

  private:
    u32 src_;
    u64 period_;
    u64 t_ = 0;
};

/**
 * Rate-coded bipolar BSG for signed data (uGEMM-H): the signed value x in
 * [-2^(bits-1), 2^(bits-1)) is offset to [0, 2^bits) and rate-coded; the
 * stream's bipolar value is 2*P(1) - 1 = x / 2^(bits-1).
 */
class BipolarRateBsg final : public BitstreamGen
{
  public:
    BipolarRateBsg(i32 src, int rng_dimension, int bits)
        : offset_(u32(src + (i32(1) << (bits - 1)))),
          rng_(rng_dimension, bits)
    {}

    bool nextBit() override { return rng_.next() < offset_; }
    void reset() override { rng_.reset(); }

  private:
    u32 offset_;
    SobolSequence rng_;
};

/** Materialize n bits of a stream as 0/1 bytes. */
inline std::vector<u8>
generateBits(BitstreamGen &gen, u64 n)
{
    std::vector<u8> bits;
    bits.reserve(n);
    for (u64 i = 0; i < n; ++i)
        bits.push_back(gen.nextBit() ? 1 : 0);
    return bits;
}

/** Count of 1-bits in a materialized stream. */
inline u64
onesCount(const std::vector<u8> &bits)
{
    u64 ones = 0;
    for (u8 b : bits)
        ones += b;
    return ones;
}

} // namespace usys

#endif // USYS_UNARY_BITSTREAM_H
