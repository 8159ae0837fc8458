#include "unary/lfsr.h"

#include "common/logging.h"

namespace usys {

namespace {

/** Maximal-length tap masks, indexed by width (bit i set => tap at stage i+1). */
const u32 kTaps[17] = {
    0, 0, 0,
    0x6,      // 3: x^3 + x^2 + 1
    0xC,      // 4: x^4 + x^3 + 1
    0x14,     // 5: x^5 + x^3 + 1
    0x30,     // 6: x^6 + x^5 + 1
    0x60,     // 7: x^7 + x^6 + 1
    0xB8,     // 8: x^8 + x^6 + x^5 + x^4 + 1
    0x110,    // 9: x^9 + x^5 + 1
    0x240,    // 10: x^10 + x^7 + 1
    0x500,    // 11: x^11 + x^9 + 1
    0xE08,    // 12: x^12 + x^11 + x^10 + x^4 + 1
    0x1C80,   // 13: x^13 + x^12 + x^11 + x^8 + 1
    0x3802,   // 14: x^14 + x^13 + x^12 + x^2 + 1
    0x6000,   // 15: x^15 + x^14 + 1
    0xD008,   // 16: x^16 + x^15 + x^13 + x^4 + 1
};

} // namespace

Lfsr::Lfsr(int bits, u32 seed)
    : bits_(bits)
{
    fatalIf(bits < 3 || bits > 16, "Lfsr: width must be in [3, 16]");
    seed_ = seed & ((u32(1) << bits) - 1);
    if (seed_ == 0)
        seed_ = 1;
    state_ = seed_;
    tap_mask_ = kTaps[bits];
}

u32
Lfsr::next()
{
    const u32 out = state_;
    const u32 feedback = u32(__builtin_parity(state_ & tap_mask_));
    state_ = ((state_ << 1) | feedback) & ((u32(1) << bits_) - 1);
    return out;
}

void
Lfsr::reset()
{
    state_ = seed_;
}

} // namespace usys
