/**
 * @file
 * Word-packed (64-lane SWAR) weight-stationary array simulator.
 *
 * PackedArray computes exactly the same FoldResult as SystolicArray /
 * RtlArray — same outputs, same cycle counts, same stats-registry
 * deltas under the same stat names — but advances the unary bitstreams
 * 64 simulated cycles per host word operation instead of one nextBit()
 * per PE per cycle.
 *
 * The key identity that makes this possible: the C-BSG weight RNG
 * advances only on input 1-bits, so the k-th random number a PE
 * compares against WABS is wrng.at(k) regardless of *where* the input
 * 1-bits fall in the MAC interval. A rate/temporal MAC therefore
 * reduces to two packed-popcount queries:
 *
 *     ones  = popcount(input stream over the mul window)   (per row)
 *     count = popcount(first `ones` bits of the packed
 *             weight-comparison stream bit_k = (wrng.at(k) < wabs))
 *
 * with the sign handled in sign-magnitude exactly as in PeCore, and the
 * uGEMM-H bipolar variant splitting the count across the polarity-1 and
 * polarity-0 weight streams. Early termination truncates the input
 * window (masked final word); the top-row shifter rescale is identical
 * to SystolicArray. See DESIGN.md §8 for the full derivation.
 *
 * Each scheme has exactly one fault-free path plus one per-MAC path for
 * the fault sites that hook individual MACs. On fault-free folds (and
 * under weight-register / DRAM fault plans, which pre-corrupt the
 * staged codes) the unary MAC loop runs cache-blocked: weight streams
 * are staged once per column panel as prefix-count tables in an
 * L2-budgeted per-worker arena. The zero-skipping schemes iterate a
 * SparsityPlan, so zero-magnitude streams never reach the MAC loop —
 * in hardware they assert no bits, so skipping them is not a mode.
 * Both transforms are bit-exact, including stats and the fault census.
 * See DESIGN.md §13 and §16.
 */

#ifndef USYS_ARCH_PACKED_ARRAY_H
#define USYS_ARCH_PACKED_ARRAY_H

#include "common/matrix.h"
#include "common/types.h"
#include "arch/array.h"

namespace usys {

/** Word-packed drop-in for SystolicArray::runFold. */
class PackedArray
{
  public:
    explicit PackedArray(const ArrayConfig &cfg);

    /**
     * Run one fold: output (M x C) = input (M x R) x weights (R x C),
     * bit-exact with SystolicArray::runFold (outputs, cycles, stats) —
     * including under an enabled fault plan, where both engines resolve
     * identical fault events per (tile, m, r, c) coordinate.
     *
     * @param stats same contract as SystolicArray::runFold — non-null
     *        accumulates the registry delta for a later ordered flush()
     * @param tile fold index for fault-site resolution (SystolicGemm
     *        numbers folds ti * k_tiles + kt; standalone folds use 0)
     * @param sparsity optional pre-built nonzero-index plan of `input`
     *        (SystolicGemm builds one per staged A-tile and shares it
     *        across column shards). Null means the fold builds its own.
     *        So does a fold whose staged operands differ from `input`
     *        (an active activation-stream fault). Plans encode skips,
     *        never results — outputs, cycles, stats, and the fault
     *        census are bit-identical with or without one.
     */
    SystolicArray::FoldResult runFold(const Matrix<i32> &input,
                                      const Matrix<i32> &weights,
                                      FoldStatsDelta *stats = nullptr,
                                      u64 tile = 0,
                                      const SparsityPlan *sparsity =
                                          nullptr) const;

    const ArrayConfig &config() const { return cfg_; }

  private:
    ArrayConfig cfg_;
};

} // namespace usys

#endif // USYS_ARCH_PACKED_ARRAY_H
