/**
 * @file
 * Fast bit-exact functional GEMM engines.
 *
 * GemmExecutor computes the same accumulations as the cycle-level
 * SystolicArray (tests assert exact agreement) from the precomputed
 * unary product tables, making full DNN inference through the unary
 * datapath tractable. Results are returned in scheme-native accumulator
 * units; resultScale() converts them to exact-product units.
 *
 * The table schemes (UR, UT, UG) share one weight-staged kernel. An
 * activation's key is |a| for UR/UT (with its sign) and the offset code
 * a + 2^(N-1) for UG; its table row is the delivered ones-count for
 * UR/UT (a zero row adds nothing and is dropped) and the key for UG
 * (never dropped: a zero activation still adds the bipolar bias). One
 * pass over the activations takes each k's lowest and highest row, and
 * per block of k the weight-side rows T_k[row][0..N) are stored densely
 * as i16, every row from the lowest to the highest, so that row r of k
 * sits at a fixed offset plus r. Each entry is the
 * scheme's product of the row with b(k, n) before the early-termination
 * shift-back (applied to the output once), at most 2^(N-1) in
 * magnitude. A block with many output rows builds each k's rows in one
 * prefix walk over the Sobol thresholds, starting from its lowest row
 * gathered from the product tables (SimdKernels::walkRowsI16: row r + 1
 * is row r plus the weight's sign where |b| >= S[r] + 1; UG steps its
 * polarity-1 hits up and its polarity-0 misses down in the same walk);
 * a walked block's output row is then a signed sum of whole selected
 * rows (SimdKernels::sumRowsI16), widened into i32 registers and
 * spilled into the i64 output once per block. A block with few output
 * rows (every single-row call) stages nothing: each output row gathers
 * its k's table entries at every weight of the block and sums them in
 * registers in one pass over B (SimdKernels::gatherSumU16). A block of
 * at most INT32_MAX / 2^(N-1) k values cannot overflow, and a walking
 * block's 256 KiB budget binds long before that. singleProduct() is the
 * per-MAC referee the tests hold the kernel to. A code outside the
 * tables' [-2^(N-1), 2^(N-1)] is fatal; each block checks its weights in
 * the pass that reads them (the walk's key pass or the fused
 * gather-sum), and the activations are checked in the pass that takes
 * their row ranges.
 *
 * The exact schemes (BP, BS, tubGEMM, tuGEMM) multiply exactly, so run()
 * is one referenceGemm call: the 16-bit multiply-add kernel
 * (SimdKernels::gemmI16), row-parallel and bitwise-identical at any
 * thread count.
 */

#ifndef USYS_ARCH_FUNCTIONAL_H
#define USYS_ARCH_FUNCTIONAL_H

#include <cstddef>
#include <memory>
#include <vector>

#include "common/matrix.h"
#include "arch/scheme.h"
#include "unary/product_table.h"

namespace usys {

/** Shared, cached product tables keyed by bitwidth. */
const UnaryProductModel &unaryModelFor(int signed_bits);
const BipolarProductModel &bipolarModelFor(int signed_bits);

/** Largest product-table footprint hasSmallProductTables() admits. */
constexpr std::size_t kSmallProductTableBytes = std::size_t(32) << 20;

/**
 * Whether the product tables a GemmExecutor for `kern` builds are small.
 * A model holds two u16 prefix tables of side 2^S + 1: S = N-1 for the
 * unipolar UR/UT model (about 4·(2^(N-1)+1)² bytes), S = N for the
 * bipolar UG model (about 4·(2^N+1)²). The exact schemes build none.
 * Up to 12-bit UR/UT and 11-bit UG fit; a 16-bit UR or UG table would
 * be gigabytes, so such kernels must not build one per GEMM.
 */
constexpr bool
hasSmallProductTables(const KernelConfig &kern)
{
    int side_bits = 0;
    switch (kern.scheme) {
      case Scheme::USystolicRate:
      case Scheme::USystolicTemporal:
        side_bits = kern.bits - 1;
        break;
      case Scheme::UgemmHybrid:
        side_bits = kern.bits;
        break;
      default:
        return true;
    }
    // From 2^16 on, the tables take 16 GiB or more; stopping here also
    // keeps the product below from overflowing at any bitwidth.
    if (side_bits >= 16)
        return false;
    const std::size_t side = (std::size_t(1) << side_bits) + 1;
    return 2 * sizeof(u16) * side * side <= kSmallProductTableBytes;
}

/** Functional GEMM under a kernel configuration. */
class GemmExecutor
{
  public:
    explicit GemmExecutor(const KernelConfig &cfg);

    /**
     * Compute the scheme's accumulations for C = A (MxK) x B (KxN).
     * BP, BS, tubGEMM and tuGEMM are exact (referenceGemm); the table
     * schemes (UR, UT, UG) return binary-accumulated product counts,
     * shifted back by 2^(N-n) under early termination. When `zeros` is
     * non-null it receives both operands' zero codes: B's from the fused
     * gather-sum's pass over a gathering block, else (and A's always)
     * from a countZeros pass.
     */
    Matrix<i64> run(const Matrix<i32> &a, const Matrix<i32> &b,
                    OperandZeros *zeros = nullptr) const;

    /**
     * Factor converting accumulator units to exact-product units:
     * value_exact ~= acc * resultScale(). 1 for the exact schemes
     * (binary, tubGEMM, tuGEMM), 2^(N-1) for the rate-counting
     * weight-BSG schemes.
     */
    double resultScale() const;

    /** Scheme-native product of a single MAC (used by tests). */
    i64 singleProduct(i32 a, i32 b) const;

    const KernelConfig &config() const { return cfg_; }

  private:
    KernelConfig cfg_;
    const UnaryProductModel *unary_ = nullptr;
    const BipolarProductModel *bipolar_ = nullptr;
    /** Table schemes: code + 2^(N-1) -> its table row << 1 | negative. */
    std::vector<u32> code_rows_;
};

} // namespace usys

#endif // USYS_ARCH_FUNCTIONAL_H
