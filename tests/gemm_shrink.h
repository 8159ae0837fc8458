/**
 * @file
 * Shrinking for the randomized GEMM differentials: given operands on
 * which some check fails, find a smaller pair on which it still fails,
 * and describe it.
 */

#ifndef USYS_TESTS_GEMM_SHRINK_H
#define USYS_TESTS_GEMM_SHRINK_H

#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "common/matrix.h"

namespace usys {

/** The submatrix of `m` on the listed rows and columns. */
inline Matrix<i32>
pick(const Matrix<i32> &m, const std::vector<int> &rows,
     const std::vector<int> &cols)
{
    Matrix<i32> out(int(rows.size()), int(cols.size()));
    for (std::size_t r = 0; r < rows.size(); ++r)
        for (std::size_t c = 0; c < cols.size(); ++c)
            out(int(r), int(c)) = m(rows[r], cols[c]);
    return out;
}

/** Whether a check fails on the GEMM of (a, b). */
using GemmFails =
    std::function<bool(const Matrix<i32> &a, const Matrix<i32> &b)>;

/**
 * Shrink a failing (a, b) while `fails` holds: drop runs of output rows
 * (M), of the shared dimension (K: a column of a with its row of b) and
 * of output columns (N), halving the run length down to one, until no
 * single drop keeps the failure. Then shrink the zero share of a: turn
 * its zero codes into 1s, all at once if that keeps the failure, else
 * one at a time, so the zeros left are the ones the failure needs.
 * Returns "M x K x N", the zero count and, when they are small, the
 * operands.
 */
inline std::string
shrinkGemm(const Matrix<i32> &a, const Matrix<i32> &b,
           const GemmFails &fails)
{
    const auto indices = [](int n) {
        std::vector<int> v(static_cast<std::size_t>(n));
        for (int i = 0; i < n; ++i)
            v[std::size_t(i)] = i;
        return v;
    };
    std::vector<int> ms = indices(a.rows()), ks = indices(a.cols()),
                     ns = indices(b.cols());
    const auto still_fails = [&] {
        return fails(pick(a, ms, ks), pick(b, ks, ns));
    };
    for (bool shrunk = true; shrunk;) {
        shrunk = false;
        for (std::vector<int> *dim : {&ms, &ks, &ns}) {
            for (std::size_t run = dim->size() / 2; run >= 1; run /= 2) {
                for (std::size_t at = 0; at + run <= dim->size();) {
                    const std::vector<int> kept = *dim;
                    dim->erase(dim->begin() + std::ptrdiff_t(at),
                               dim->begin() + std::ptrdiff_t(at + run));
                    if (still_fails()) {
                        shrunk = true;
                    } else {
                        *dim = kept;
                        at += run;
                    }
                }
            }
        }
    }

    Matrix<i32> sa = pick(a, ms, ks);
    const Matrix<i32> sb = pick(b, ks, ns);
    Matrix<i32> dense = sa;
    for (i32 &v : dense.data())
        v = v == 0 ? 1 : v;
    if (dense != sa && fails(dense, sb)) {
        sa = dense;
    } else {
        for (i32 &v : sa.data()) {
            if (v != 0)
                continue;
            v = 1;
            if (!fails(sa, sb))
                v = 0;
        }
    }

    std::size_t zeros = 0;
    for (const i32 v : sa.data())
        zeros += v == 0;
    std::ostringstream os;
    os << ms.size() << "x" << ks.size() << "x" << ns.size() << " ("
       << zeros << " zero activations)";
    if (ms.size() * ks.size() + ks.size() * ns.size() <= 32) {
        const auto dump = [&os](const Matrix<i32> &m) {
            for (int r = 0; r < m.rows(); ++r) {
                os << (r ? "; " : "");
                for (int c = 0; c < m.cols(); ++c)
                    os << (c ? " " : "") << m(r, c);
            }
        };
        os << " a = [";
        dump(sa);
        os << "] b = [";
        dump(sb);
        os << "]";
    }
    return os.str();
}

} // namespace usys

#endif // USYS_TESTS_GEMM_SHRINK_H
