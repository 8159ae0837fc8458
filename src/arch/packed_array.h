/**
 * @file
 * Product-table weight-stationary array simulator.
 *
 * PackedArray computes exactly the same FoldResult as SystolicArray /
 * RtlArray — same outputs, same cycle counts, same stats-registry
 * deltas under the same stat names — without simulating a single
 * bitstream cycle on a fault-free fold.
 *
 * The key identity that makes this possible: the C-BSG weight RNG
 * advances only on input 1-bits, so the k-th random number a PE
 * compares against WABS is wrng.at(k) regardless of *where* the input
 * 1-bits fall in the MAC interval. A rate/temporal MAC therefore
 * reduces to one lookup into the shared unary product model
 * (unaryModelFor(bits), src/unary/product_table.h):
 *
 *     ones  = rateOnes(|a|, mul) for UR (early termination shortens
 *             mul), |a| for UT
 *     count = countAfterOnes(ones, |w|) = #{k < ones : wrng.at(k) < |w|}
 *
 * with the sign handled in sign-magnitude exactly as in PeCore, and the
 * uGEMM-H bipolar variant reading BipolarProductModel::countAfter over
 * its polarity-1 and polarity-0 lanes (ones = a + 2^(N-1)). The top-row
 * shifter rescale is identical to SystolicArray. The exact schemes (BP,
 * BS, tubGEMM, tuGEMM) are plain integer GEMMs. See DESIGN.md §8.
 *
 * Fault-free folds of every scheme but uGEMM-H visit only the nonzero
 * input codes of each row — in hardware a zero-magnitude stream asserts
 * no bits, so skipping it is not a mode. uGEMM-H, and any fold
 * with an activation-stream, weight-stream or accumulator fault, runs a
 * per-MAC loop over the same table counts: an activation-stream fault
 * counts the faulted input stream, a weight-stream fault re-derives the
 * comparison bits as table steps and corrupts them, and an accumulator
 * fault corrupts the per-MAC product. Weight-register and DRAM faults
 * pre-corrupt the codes. All of it is bit-exact, including stats and
 * the fault census. See DESIGN.md §13 and §16.
 *
 * A kernel without small product tables (hasSmallProductTables(): UR/UT
 * above 12 bits, UG above 11) is refused at construction; SystolicGemm
 * runs such kernels on SystolicArray.
 */

#ifndef USYS_ARCH_PACKED_ARRAY_H
#define USYS_ARCH_PACKED_ARRAY_H

#include "common/matrix.h"
#include "common/types.h"
#include "arch/array.h"

namespace usys {

/** Product-table drop-in for SystolicArray::runFold. */
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
     *
     * The trailing SparsityPlan is ignored: each fold finds the nonzero
     * codes of its input rows itself. The parameter survives only until
     * the benchmark's fold replay, its last caller, stops passing one.
     */
    SystolicArray::FoldResult runFold(const Matrix<i32> &input,
                                      const Matrix<i32> &weights,
                                      FoldStatsDelta *stats = nullptr,
                                      u64 tile = 0,
                                      const SparsityPlan * = nullptr) const;

    const ArrayConfig &config() const { return cfg_; }

  private:
    ArrayConfig cfg_;
};

} // namespace usys

#endif // USYS_ARCH_PACKED_ARRAY_H
