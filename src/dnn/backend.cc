#include "dnn/backend.h"

#include <cmath>

#include "common/executor.h"
#include "common/fixed_point.h"
#include "common/simd.h"
#include "arch/functional.h"

namespace usys {

namespace {

MatF
dequantizeAcc(const Matrix<i64> &acc, double factor)
{
    MatF out(acc.rows(), acc.cols());
    for (int r = 0; r < acc.rows(); ++r)
        for (int c = 0; c < acc.cols(); ++c)
            out(r, c) = float(double(acc(r, c)) * factor);
    return out;
}

} // namespace

float
maxAbs(const float *v, std::size_t n)
{
    float mx = 0.0f;
    for (std::size_t i = 0; i < n; ++i)
        mx = std::max(mx, std::fabs(v[i]));
    return mx;
}

void
quantizeInto(const float *v, std::size_t n, double scale, int bits,
             i32 *codes)
{
    for (std::size_t i = 0; i < n; ++i)
        codes[i] = quantize(v[i], scale, bits);
}

QuantizedMat
quantizeMat(const MatF &m, int bits)
{
    QuantizedMat q{Matrix<i32>(m.rows(), m.cols()),
                   symmetricScale(maxAbs(m.data().data(), m.size()), bits)};
    quantizeInto(m.data().data(), m.size(), q.scale, bits,
                 q.codes.data().data());
    return q;
}

MatF
gemmFp32(const MatF &a, const MatF &b)
{
    fatalIf(a.cols() != b.rows(), "gemmFp32: shape mismatch");
    MatF c(a.rows(), b.cols(), 0.0f);
    // Row-parallel: the dnn inference batch loop funnels every image of
    // a batch through one GEMM, so rows == batch here. Each row writes
    // only its own output slice and fp32 adds stay in row order, so the
    // result is bitwise-identical at any thread count.
    const u64 grain = std::max<u64>(
        1, 4096 / u64(std::max(1, a.cols() * b.cols())));
    const SimdKernels &simd = simdKernels();
    parallelFor(
        0, u64(a.rows()),
        [&](u64 mi) {
            const int m = int(mi);
            for (int k = 0; k < a.cols(); ++k) {
                const float av = a(m, k);
                if (av == 0.0f)
                    continue;
                simd.axpyF32(&c(m, 0), &b(k, 0), av, b.cols());
            }
        },
        grain);
    return c;
}

OperandBits
operandBits(const NumericConfig &cfg)
{
    if (cfg.mode != NumericMode::FxpOres)
        return {cfg.ebt, cfg.ebt};
    // n-bit output resolution: the inputs share n bits; the weight gets
    // the extra bit when n is odd (Section V-A).
    const int a_bits = cfg.ebt / 2;
    return {std::max(a_bits, 2), std::max(cfg.ebt - a_bits, 2)};
}

CodeGemm
gemmCodes(const Matrix<i32> &qa, const Matrix<i32> &qb,
          const NumericConfig &cfg)
{
    cfg.check();
    Scheme scheme = Scheme::USystolicRate;
    switch (cfg.mode) {
      case NumericMode::FxpIres:
      case NumericMode::FxpOres:
        return {referenceGemm(qa, qb), 1.0};
      case NumericMode::UnaryRate:
        break;
      case NumericMode::UnaryTemporal:
        scheme = Scheme::USystolicTemporal;
        break;
      case NumericMode::UgemmH:
        scheme = Scheme::UgemmHybrid;
        break;
      case NumericMode::TubGemm:
        scheme = Scheme::TubGemm;
        break;
      case NumericMode::TuGemm:
        scheme = Scheme::TuGemm;
        break;
      default:
        panic("gemmCodes: not a quantized mode");
    }
    const GemmExecutor exec({scheme, cfg.ebt, 0});
    return {exec.run(qa, qb), exec.resultScale()};
}

MatF
gemmWithMode(const MatF &a, const MatF &b, const NumericConfig &cfg)
{
    cfg.check();
    if (cfg.mode == NumericMode::Fp32)
        return gemmFp32(a, b);

    const OperandBits bits = operandBits(cfg);
    const QuantizedMat qa = quantizeMat(a, bits.a);
    const QuantizedMat qb = quantizeMat(b, bits.b);
    const CodeGemm r = gemmCodes(qa.codes, qb.codes, cfg);
    // FXP's result scale is 1, so this is today's sa * sb exactly.
    return dequantizeAcc(r.acc, qa.scale * qb.scale * r.result_scale);
}

} // namespace usys
