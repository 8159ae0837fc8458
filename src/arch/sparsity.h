/**
 * @file
 * Value-sparsity census and compacted nonzero-index plans (DESIGN.md
 * §16).
 *
 * A zero-magnitude operand in a unary scheme produces an all-zero
 * bitstream: its entire MAC, its stream generation, and its toggle
 * activity can be elided without changing a single output bit. The
 * engines skip such MACs without help from this file: a PackedArray
 * fold compacts the nonzero codes of each input row itself, and
 * GemmExecutor's table kernel drops rows that deliver no 1-bits. What
 * is here:
 *
 *  - SparsityCensus: per-fold counts of zero activation/weight elements
 *    and the MAC slots an all-zero activation stream makes skippable.
 *    A pure function of the tile data (never of engine execution), so
 *    every engine books identical counts and stats dumps stay
 *    byte-identical whether the skips actually happen or not.
 *
 *  - SparsityPlan: per input row of a staged M x R activation tile, the
 *    compacted list of nonzero column indices. No engine reads one; it
 *    remains only for the benchmark's fold replay, which still builds
 *    and times one per staged tile.
 *
 * The uGEMM-H carve-out: its bipolar MAC adds a bias term even for
 * zero-valued operands, so nothing is skippable there — the census
 * still counts its zero operands (data is data) but reports zero
 * skippable MAC slots.
 */

#ifndef USYS_ARCH_SPARSITY_H
#define USYS_ARCH_SPARSITY_H

#include <vector>

#include "common/matrix.h"
#include "common/types.h"
#include "arch/scheme.h"

namespace usys {

/** Per-fold zero-operand census — a pure function of the tile data. */
struct SparsityCensus
{
    u64 zero_acts = 0;      // zero activation elements (M x R tile)
    u64 zero_weights = 0;   // zero weight elements (R x C tile)
    u64 skippable_macs = 0; // MAC slots elided by all-zero act streams
};

/** Zero elements of `m` (the census's one zero count). */
u64 countZeros(const Matrix<i32> &m);

/**
 * Census of one fold's operand tiles. Counted from the engine's input
 * arguments (before any in-fold fault corruption), so the scalar and
 * packed engines book identical values by construction.
 */
SparsityCensus foldSparsityCensus(const KernelConfig &kern,
                                  const Matrix<i32> &input,
                                  const Matrix<i32> &weights);

/** Compacted nonzero column indices per row of an M x R tile. */
class SparsityPlan
{
  public:
    /** (Re)build from a staged activation tile, reusing capacity. */
    void build(const Matrix<i32> &tile);

    /** Nonzero column indices of input row m (rowCount(m) entries). */
    const u32 *rowIdx(int m) const { return idx_.data() + off_[m]; }
    u32 rowCount(int m) const { return off_[m + 1] - off_[m]; }

  private:
    std::vector<u32> idx_;
    std::vector<u32> off_; // off_[m] .. off_[m+1) spans row m in idx_
};

} // namespace usys

#endif // USYS_ARCH_SPARSITY_H
