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
 * ones-count for UR/UT (a zero row adds nothing and is skipped), the
 * offset code a + 2^(N-1) for UG (never skipped: a zero activation
 * still adds the bipolar bias). Per block of k, only the weight-side
 * rows T_k[row][0..N) some activation uses are built, each entry the
 * scheme's exact product of the row with b(k, n). An output row is then
 * a sum of whole selected rows in an i32 accumulator, spilled into the
 * i64 output once per block; every entry is at most 2^(N-1) in
 * magnitude, so a block of at most INT32_MAX / 2^(N-1) k values cannot
 * overflow. singleProduct() is the per-MAC referee the tests hold the
 * kernel to. A code outside the tables' [-2^(N-1), 2^(N-1)] is fatal.
 */

#ifndef USYS_ARCH_FUNCTIONAL_H
#define USYS_ARCH_FUNCTIONAL_H

#include <memory>

#include "common/matrix.h"
#include "arch/scheme.h"
#include "fault/fault.h"
#include "unary/product_table.h"

namespace usys {

/** Shared, cached product tables keyed by bitwidth. */
const UnaryProductModel &unaryModelFor(int signed_bits);
const BipolarProductModel &bipolarModelFor(int signed_bits);

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
     * Same GEMM under a fault plan. The functional model has no cycle
     * or stream state, so only the DramWord site is representable here;
     * the per-fold sites (weight registers, streams, accumulators)
     * require a cycle/stream engine and are ignored — callers wanting
     * the full model run SystolicGemm. With a dram-only plan this is
     * bit-exact against SystolicGemm::run under the same plan.
     */
    Matrix<i64> run(const Matrix<i32> &a, const Matrix<i32> &b,
                    const FaultPlan &plan) const;

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
