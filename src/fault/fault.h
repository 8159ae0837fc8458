/**
 * @file
 * Deterministic, seed-reproducible fault injection (soft errors,
 * voltage-scaling upsets) for the uSystolic datapath.
 *
 * The resilience story the paper leans on — a corrupted rate-coded
 * stream bit costs at most 1/2^(N-1) of the product, while a binary MSB
 * flip costs half the range — needs a fault model that every simulation
 * engine interprets *identically*, or cross-engine parity is lost the
 * moment injection is enabled. The model here is therefore counter-based
 * (stateless): a FaultPlan maps site coordinates straight to fault
 * events through a splitmix64-style hash chain of
 *
 *     (seed, site id, tile, m, r, c)
 *
 * so resolution is a pure function — independent of evaluation order,
 * engine (scalar PeCore vs 64-lane SWAR), thread count, and of whether
 * any other site was resolved at all. At most one fault event fires per
 * site instance; an event carries a position within the site's bit
 * window plus the fault kind (bit-flip, stuck-at-0/1, or a multi-bit
 * burst).
 *
 * Injection sites (see DESIGN.md §10 for the per-engine application
 * points and the packed-engine equivalence argument):
 *
 *   DramWord          an operand code as read from DRAM (per element,
 *                     once per GEMM — a bad read propagates everywhere)
 *   WeightReg         the stationary weight latched by a PE (per fold)
 *   ActivationStream  the input-side BSG output: a stream bit for the
 *                     unary schemes, a code/magnitude bit for BP/BS
 *   WeightStream      the C-BSG weight-comparison bit at comparison
 *                     index k (unary schemes; uGEMM-H polarity-1 lane)
 *   Accumulator       the OREG contribution merged at M-end (2N-bit
 *                     two's complement)
 *
 * The header includes arch/scheme.h (a header-only taxonomy) for the
 * scheme-aware window helpers; the library itself links only
 * usys_common.
 */

#ifndef USYS_FAULT_FAULT_H
#define USYS_FAULT_FAULT_H

#include <optional>
#include <string>

#include "common/fixed_point.h"
#include "common/logging.h"
#include "common/types.h"
#include "arch/scheme.h"

namespace usys {

/** Mask selecting the low n bits of a word (n in [0, 64]). */
inline u64
lowMask(u32 n)
{
    return n >= 64 ? ~u64(0) : (u64(1) << n) - 1;
}

/** What a fault event does to the bits it covers. */
enum class FaultKind
{
    BitFlip,  // invert one bit
    StuckAt0, // force one bit to 0
    StuckAt1, // force one bit to 1
    Burst,    // invert a run of burst_len consecutive bits
};

const char *faultKindName(FaultKind kind);

/** Parse "flip" / "sa0" / "sa1" / "burst"; fatal() on anything else. */
FaultKind parseFaultKind(const std::string &text);

/**
 * One resolved fault event: positions [first, first + len) of the
 * site's bit window are corrupted per `kind`. Application helpers are
 * shared by every engine so corruption semantics exist in one place.
 */
struct Fault
{
    FaultKind kind = FaultKind::BitFlip;
    u32 first = 0;
    u32 len = 1;

    bool
    covers(u32 k) const
    {
        return k >= first && k - first < len;
    }

    /** Corrupt a single covered bit (caller checked covers(k)). */
    bool
    corruptBit(bool bit, u32 /*k*/) const
    {
        switch (kind) {
          case FaultKind::BitFlip:
          case FaultKind::Burst:
            return !bit;
          case FaultKind::StuckAt0:
            return false;
          case FaultKind::StuckAt1:
            return true;
        }
        return bit;
    }

    /**
     * Corrupt the covered bits of a 64-bit word holding bit positions
     * [base, base + 64) — the word form of corruptBit() that
     * applyToInt(), corruptCode() and corruptMagnitude() apply to
     * binary values (accumulator contributions, codes, magnitudes).
     */
    u64
    applyToWord(u64 word, u64 base) const
    {
        const u64 lo = std::max<u64>(first, base);
        const u64 hi = std::min<u64>(u64(first) + len, base + 64);
        if (lo >= hi)
            return word;
        const u64 mask = lowMask(u32(hi - lo)) << (lo - base);
        switch (kind) {
          case FaultKind::BitFlip:
          case FaultKind::Burst:
            return word ^ mask;
          case FaultKind::StuckAt0:
            return word & ~mask;
          case FaultKind::StuckAt1:
            return word | mask;
        }
        return word;
    }

    /**
     * Corrupt a `width`-bit two's-complement value (accumulator
     * contributions). Any width-bit pattern is a valid accumulator
     * state, so no clamping: the result is sign-extended back to i64.
     */
    i64
    applyToInt(i64 value, u32 width) const
    {
        u64 u = u64(value) & lowMask(width);
        u = applyToWord(u, 0) & lowMask(width);
        if (u & (u64(1) << (width - 1)))
            u |= ~lowMask(width);
        return i64(u);
    }
};

/**
 * Corrupt an N-bit two's-complement data code (weight registers, DRAM
 * words, bit-parallel activations). The sign-magnitude datapath cannot
 * represent -2^(N-1), so the result is clamped to the symmetric
 * quantizer range [-(2^(N-1)-1), 2^(N-1)-1] — exactly what a downstream
 * IABS/WABS latch would do with the out-of-range pattern.
 */
i32 corruptCode(const Fault &f, i32 code, int bits);

/**
 * Corrupt only the (N-1)-bit magnitude of a sign-magnitude code (the
 * bit-serial scheme streams magnitude bits; the sign travels on its own
 * wire). The magnitude stays in range by construction.
 */
i32 corruptMagnitude(const Fault &f, i32 code, int bits);

/** Per-site fault event probabilities (per site *instance*). */
struct FaultRates
{
    double weight_reg = 0.0;        // per (tile, r, c) weight latch
    double activation_stream = 0.0; // per (tile, m, r) input MAC stream
    double weight_stream = 0.0;     // per (tile, m, r, c) C-BSG lane
    double accumulator = 0.0;       // per (tile, m, r, c) OREG merge
    double dram_word = 0.0;         // per (operand, r, c) DRAM read

    bool
    any() const
    {
        return perFold() || dram_word > 0.0;
    }

    /** Any site a fold resolves per (tile, ...) coordinate is armed
     *  (every site but dram_word, which corrupts operands once per
     *  GEMM). */
    bool
    perFold() const
    {
        return weight_reg > 0.0 || activation_stream > 0.0 ||
               weight_stream > 0.0 || accumulator > 0.0;
    }
};

/**
 * The deterministic fault plan threaded through ArrayConfig. A
 * default-constructed plan is disabled (all rates zero) and costs the
 * engines nothing but a null check.
 */
struct FaultPlan
{
    u64 seed = 0;
    FaultKind kind = FaultKind::BitFlip;
    u32 burst_len = 4; // bits per Burst event (clipped to the window)
    FaultRates rates;

    bool enabled() const { return rates.any(); }

    void
    check() const
    {
        const double rs[] = {rates.weight_reg, rates.activation_stream,
                             rates.weight_stream, rates.accumulator,
                             rates.dram_word};
        for (double r : rs)
            fatalIf(r < 0.0 || r > 1.0,
                    "FaultPlan: rate outside [0, 1]");
        fatalIf(kind == FaultKind::Burst && burst_len < 1,
                "FaultPlan: burst_len must be >= 1");
    }

    // --- Site resolution (pure; identical from every engine) ---------
    std::optional<Fault> dramWord(int operand, int r, int c,
                                  u32 window) const;
    std::optional<Fault> weightReg(u64 tile, int r, int c,
                                   u32 window) const;
    std::optional<Fault> activationStream(u64 tile, int m, int r,
                                          u32 window) const;
    std::optional<Fault> weightStream(u64 tile, int m, int r, int c,
                                      u32 window) const;
    std::optional<Fault> accumulator(u64 tile, int m, int r, int c,
                                     u32 window) const;
};

/**
 * Bit window of the ActivationStream site: the unary schemes corrupt a
 * stream bit inside the (possibly early-terminated) mul window; BP
 * corrupts a code bit, BS a magnitude bit.
 */
inline u32
activationWindow(const KernelConfig &kern)
{
    switch (kern.scheme) {
      case Scheme::BinaryParallel:
        return u32(kern.bits);
      case Scheme::BinarySerial:
        return u32(kern.bits - 1);
      case Scheme::TuGemm:
        // The activation stream has 2^(N-1) bits; each is merely *held*
        // for one weight-staircase sweep of the 2^(2(N-1))-cycle MAC.
        return u32(1) << (kern.bits - 1);
      default:
        return kern.mulCycles();
    }
}

/** Apply a resolved BP/BS activation fault to the input code. */
inline i32
corruptActivationCode(const Fault &f, i32 code, const KernelConfig &kern)
{
    if (kern.scheme == Scheme::BinaryParallel)
        return corruptCode(f, code, kern.bits);
    return corruptMagnitude(f, code, kern.bits);
}

/** Accumulator-contribution width: 2N-bit two's complement. */
inline u32
accumulatorWidth(const KernelConfig &kern)
{
    return u32(2 * kern.bits);
}

/**
 * Analytic per-fold fault-event census. Pure enumeration over the site
 * coordinate space — never derived from engine execution — so every
 * engine books identical counts by construction (weight-stream events
 * are *injected* counts; an event at comparison index k is masked when
 * fewer than k+1 input 1-bits arrive, but it is still booked).
 */
struct FoldFaultCounts
{
    u64 weight_reg = 0;
    u64 activation = 0;
    u64 weight_stream = 0;
    u64 accumulator = 0;

    u64
    total() const
    {
        return weight_reg + activation + weight_stream + accumulator;
    }
};

FoldFaultCounts countFoldFaults(const FaultPlan &plan,
                                const KernelConfig &kern, u64 tile,
                                int m_rows, int rows, int cols);

} // namespace usys

#endif // USYS_FAULT_FAULT_H
