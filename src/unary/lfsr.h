/**
 * @file
 * Maximal-length Fibonacci LFSR random number generator.
 *
 * Alternative hardware RNG to Sobol, used for the RNG-quality ablation
 * (Sobol's full-period balance is what gives uSystolic its accuracy; an
 * LFSR of the same width has higher product variance).
 */

#ifndef USYS_UNARY_LFSR_H
#define USYS_UNARY_LFSR_H

#include "common/types.h"

namespace usys {

/**
 * Fibonacci LFSR of 3..16 bits with maximal-length taps.
 *
 * The all-zero state is unreachable; output values cover [1, 2^bits)
 * exactly once per period of 2^bits - 1 cycles.
 */
class Lfsr
{
  public:
    /**
     * @param bits register width (3..16)
     * @param seed initial state; 0 is coerced to 1
     */
    explicit Lfsr(int bits, u32 seed = 1);

    /** Current value; advances the register. */
    u32 next();

    /** Restart from the construction seed. */
    void reset();

    int bits() const { return bits_; }
    u64 period() const { return (u64(1) << bits_) - 1; }

  private:
    int bits_;
    u32 seed_;
    u32 state_;
    u32 tap_mask_;
};

} // namespace usys

#endif // USYS_UNARY_LFSR_H
