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
 * still adds the bipolar bias). Per k, the staging pass marks the
 * column's codes in a bitmap and gives slots in one ascending pass over
 * its set bits, so a k's slots hold its distinct rows in ascending
 * order. Per block of k, only the weight-side rows T_k[row][0..N) some
 * activation uses are built, each entry the scheme's product of the row
 * with b(k, n) before the early-termination shift-back (applied to the
 * output once). A k with many rows against its largest one builds them
 * all in one prefix walk over the Sobol thresholds
 * (SimdKernels::walkRowsI32: row r + 1 is row r plus the weight's sign
 * where |b| >= S[r] + 1); any other k gathers each row from the shared
 * product tables (SimdKernels::gatherU16), then signs (UR/UT) or
 * combines (UG) it element-wise. An output row is then a signed sum of
 * whole selected rows (SimdKernels::sumRowsI32), held in i32 registers
 * and spilled into the i64 output once per block; every entry is at most
 * 2^(N-1) in magnitude, so a block of at most INT32_MAX / 2^(N-1) k
 * values cannot overflow, and the block's 256 KiB staging budget binds
 * long before that. singleProduct() is the per-MAC referee the tests
 * hold the kernel to. A code outside the tables' [-2^(N-1), 2^(N-1)]
 * is fatal; each block checks its weights in the pass that builds their
 * gather indices.
 *
 * The exact schemes (BP, BS, tubGEMM, tuGEMM) multiply exactly, so run()
 * is one referenceGemm call: the 16-bit pair kernel
 * (SimdKernels::gemmI16), row-parallel and bitwise-identical at any
 * thread count.
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
     * BP, BS, tubGEMM and tuGEMM are exact (referenceGemm); the table
     * schemes (UR, UT, UG) return binary-accumulated product counts,
     * shifted back by 2^(N-n) under early termination.
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
