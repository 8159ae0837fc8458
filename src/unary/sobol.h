/**
 * @file
 * Sobol low-discrepancy sequence generator.
 *
 * uSystolic uses Sobol RNGs as the hardware random number source for rate
 * coding (Section III-B, following uGEMM). A k-bit Sobol sequence visits
 * every value in [0, 2^k) exactly once per 2^k-cycle period, which is what
 * makes full-period unary multiplication exact in expectation and gives
 * early termination its low variance.
 *
 * Hardware-wise a Sobol generator is a k-bit register XOR'd with one of k
 * direction numbers selected by the least-significant-zero position of a
 * cycle counter; the cost model in src/hw reflects that structure.
 */

#ifndef USYS_UNARY_SOBOL_H
#define USYS_UNARY_SOBOL_H

#include <vector>

#include "common/types.h"

namespace usys {

/** Number of distinct Sobol dimensions embedded in this build. */
int sobolMaxDimensions();

/**
 * One dimension of the Sobol sequence quantized to a fixed bitwidth.
 *
 * next() mimics the hardware recurrence (value ^= direction[lsz(counter)]),
 * while at() provides O(1) random access through the Gray-code construction
 * for functional models.
 */
class SobolSequence
{
  public:
    /**
     * @param dimension Sobol dimension index, 0-based; 0 is van der Corput
     * @param bits output resolution in bits (1..30)
     */
    SobolSequence(int dimension, int bits);

    /** Next value in [0, 2^bits); advances the generator. */
    u32 next();

    /** Restart the sequence from index 0. */
    void reset();

    /** Value at an arbitrary index without disturbing the stream state. */
    u32 at(u64 index) const;

    int bits() const { return bits_; }
    int dimension() const { return dimension_; }

    /** Number of values before the sequence repeats (2^bits). */
    u64 period() const { return u64(1) << bits_; }

  private:
    int dimension_;
    int bits_;
    std::vector<u32> direction_; // direction numbers, one per bit position
    u32 value_ = 0;
    u64 index_ = 0;
};

/**
 * Materialize one full period of a Sobol dimension.
 *
 * @return vector of length 2^bits holding a permutation of [0, 2^bits)
 */
std::vector<u32> sobolPermutation(int dimension, int bits);

} // namespace usys

#endif // USYS_UNARY_SOBOL_H
