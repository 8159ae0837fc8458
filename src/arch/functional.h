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
 * The table schemes (UR, UT, UG) share one weight-staged kernel. Each
 * activation stages once as a table row and a sign: the delivered
 * ones-count for UR/UT (a zero row adds nothing and is dropped), the
 * offset code a + 2^(N-1) for UG (never dropped: a zero activation
 * still adds the bipolar bias). Per block of k, only the weight-side
 * rows T_k[row][0..N) some activation uses are built, each entry the
 * scheme's product of the row with b(k, n) before the early-termination
 * shift-back (applied to the output once): gathered from the shared
 * product tables (SimdKernels::gatherU16), then signed (UR/UT) or
 * combined (UG) element-wise. An output row is then a signed sum of whole
 * selected rows (SimdKernels::sumRowsI32), held in i32 registers and
 * spilled into the i64 output once per block; every entry is at most
 * 2^(N-1) in magnitude, so a block of at most INT32_MAX / 2^(N-1) k
 * values cannot overflow, and the block's 256 KiB staging budget binds
 * long before that. singleProduct() is the per-MAC referee the tests
 * hold the kernel to. A code outside the tables' [-2^(N-1), 2^(N-1)]
 * is fatal.
 */

#ifndef USYS_ARCH_FUNCTIONAL_H
#define USYS_ARCH_FUNCTIONAL_H

#include <cstddef>
#include <memory>

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
     * Binary schemes are exact; unary schemes return binary-accumulated
     * product counts, shifted back by 2^(N-n) under early termination.
     */
    Matrix<i64> run(const Matrix<i32> &a, const Matrix<i32> &b) const;

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
};

} // namespace usys

#endif // USYS_ARCH_FUNCTIONAL_H
