/**
 * @file
 * Dense row-major matrix used by the GEMM engines.
 */

#ifndef USYS_COMMON_MATRIX_H
#define USYS_COMMON_MATRIX_H

#include <cstddef>
#include <vector>

#include "common/logging.h"
#include "common/types.h"

namespace usys {

/** Row-major 2-D array with bounds-checked element access. */
template <typename T>
class Matrix
{
  public:
    Matrix() = default;

    Matrix(int rows, int cols, T fill = T())
        : rows_(rows), cols_(cols), data_(std::size_t(rows) * cols, fill)
    {}

    int rows() const { return rows_; }
    int cols() const { return cols_; }
    std::size_t size() const { return data_.size(); }

    T &
    at(int r, int c)
    {
        panicIf(r < 0 || r >= rows_ || c < 0 || c >= cols_,
                "Matrix index out of range");
        return data_[std::size_t(r) * cols_ + c];
    }

    const T &
    at(int r, int c) const
    {
        panicIf(r < 0 || r >= rows_ || c < 0 || c >= cols_,
                "Matrix index out of range");
        return data_[std::size_t(r) * cols_ + c];
    }

    /** Unchecked access for hot loops. */
    T &operator()(int r, int c) { return data_[std::size_t(r) * cols_ + c]; }
    const T &
    operator()(int r, int c) const
    {
        return data_[std::size_t(r) * cols_ + c];
    }

    const std::vector<T> &data() const { return data_; }
    std::vector<T> &data() { return data_; }

    bool
    operator==(const Matrix &other) const
    {
        return rows_ == other.rows_ && cols_ == other.cols_ &&
               data_ == other.data_;
    }

  private:
    int rows_ = 0;
    int cols_ = 0;
    std::vector<T> data_;
};

/** Zero codes among the n at p, in one pass of their own. */
u64 countZeros(const i32 *p, std::size_t n);

/** Zero elements of `m`, in one pass of its own. */
inline u64
countZeros(const Matrix<i32> &m)
{
    return countZeros(m.data().data(), m.data().size());
}

/**
 * Zero codes of a GEMM's two operands, for SystolicGemm's closed-form
 * sparsity census. A single-row call's kernel counts B's in the one pass
 * it makes over B; every other count is a countZeros pass.
 */
struct OperandZeros
{
    u64 a = 0;
    u64 b = 0;
};

/**
 * Exact integer GEMM: C (MxN) = A (MxK) * B (KxN) in i64, row-parallel
 * and bitwise-identical at any thread count. Every exact-product GEMM
 * runs here: BP, BS, tubGEMM and tuGEMM, fault-free or as a PackedArray
 * fold over fault-staged codes, and the DNN's FXP modes. When every code
 * lies in [-2^14, 2^14) it runs SimdKernels::gemmI16 (16-bit
 * multiply-adds summed in i32, spilled to i64 per block), reading B
 * from a k-pair panel packed once per call when M has the rows to
 * amortize the pass, else from B's own rows in row tiles; any wider code
 * (a 16-bit kernel's, say) sends the whole call to a plain widening
 * loop. When `zeros` is non-null it receives both operands' zero codes:
 * B's from the first row tile when B is read in place, else (and A's
 * always) from a countZeros pass.
 */
Matrix<i64> referenceGemm(const Matrix<i32> &a, const Matrix<i32> &b,
                          OperandZeros *zeros = nullptr);

} // namespace usys

#endif // USYS_COMMON_MATRIX_H
