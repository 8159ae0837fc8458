/**
 * @file
 * GEMM backend executing matrix products under a NumericConfig.
 *
 * Every quantized product runs on integer codes through gemmCodes(): the
 * operands are symmetrically quantized per tensor (the activation to
 * operandBits().a, the weight to operandBits().b), multiplied on the
 * mode's integer datapath (exact binary or bit-exact unary via the
 * product tables), and the i64 accumulators are scaled back by
 * sa * sb * resultScale. Conv2d and Linear quantize their input tensor
 * once and gather codes with im2col before calling gemmCodes() directly
 * (DESIGN.md §19); gemmWithMode() is the same lowering for float
 * matrices. This makes the Figure 9 accuracy study exercise the same
 * arithmetic as the cycle-level PE.
 */

#ifndef USYS_DNN_BACKEND_H
#define USYS_DNN_BACKEND_H

#include "common/matrix.h"
#include "dnn/numeric.h"

namespace usys {

using MatF = Matrix<float>;

/** C (MxN) = A (MxK) x B (KxN) in float (reference path). */
MatF gemmFp32(const MatF &a, const MatF &b);

/** Signed code widths of the activation (a) and weight (b) operands. */
struct OperandBits
{
    int a;
    int b;
};

/**
 * Bit split of a quantized mode: both operands get the EBT, except
 * FXP-o-res, where they share it and the weight takes the odd bit.
 */
OperandBits operandBits(const NumericConfig &cfg);

/** Largest |v| over n floats (NaN ignored); 0 for none. */
float maxAbs(const float *v, std::size_t n);

/** codes[i] = quantize(v[i], scale, bits) for i < n. */
void quantizeInto(const float *v, std::size_t n, double scale, int bits,
                  i32 *codes);

/** A tensor's per-tensor codes and the real value of one LSB. */
struct QuantizedMat
{
    Matrix<i32> codes;
    double scale;
};

/** Quantize m to `bits` under the symmetric scale of its max |v|. */
QuantizedMat quantizeMat(const MatF &m, int bits);

/** Accumulators of a code GEMM and their unit in exact products. */
struct CodeGemm
{
    Matrix<i64> acc;
    double result_scale;
};

/**
 * Integer GEMM of activation codes qa (MxK) and weight codes qb (KxN)
 * under a quantized mode: referenceGemm for FXP, GemmExecutor for the
 * unary schemes (qb stays stationary). The real product of element
 * (m, n) is acc(m, n) * sa * sb * result_scale.
 */
CodeGemm gemmCodes(const Matrix<i32> &qa, const Matrix<i32> &qb,
                   const NumericConfig &cfg);

/**
 * C = A x B under the given numeric mode. B is treated as the weight
 * operand (receives the extra bit in FXP-o-res, stays stationary in the
 * unary schemes).
 */
MatF gemmWithMode(const MatF &a, const MatF &b, const NumericConfig &cfg);

} // namespace usys

#endif // USYS_DNN_BACKEND_H
