#include "unary/sobol.h"

#include "common/logging.h"

namespace usys {

namespace {

/**
 * Primitive polynomial + initial direction data per Sobol dimension
 * (Bratley-Fox / Joe-Kuo tables). Dimension 0 (van der Corput) is handled
 * separately.
 */
struct SobolDim
{
    int s;                 // polynomial degree
    u32 a;                 // interior coefficient bits a_1..a_{s-1}
    u32 m[6];              // initial odd direction integers m_1..m_s
};

const SobolDim kDims[] = {
    {1, 0, {1, 0, 0, 0, 0, 0}},
    {2, 1, {1, 3, 0, 0, 0, 0}},
    {3, 1, {1, 3, 1, 0, 0, 0}},
    {3, 2, {1, 1, 1, 0, 0, 0}},
    {4, 1, {1, 1, 3, 3, 0, 0}},
    {4, 4, {1, 3, 5, 13, 0, 0}},
    {5, 2, {1, 1, 5, 5, 17, 0}},
    {5, 4, {1, 1, 5, 5, 5, 0}},
    {5, 7, {1, 1, 7, 11, 19, 0}},
    {5, 11, {1, 1, 5, 1, 1, 0}},
    {5, 13, {1, 1, 1, 3, 11, 0}},
    {5, 14, {1, 3, 5, 5, 31, 0}},
    {6, 1, {1, 3, 3, 9, 7, 49}},
    {6, 13, {1, 1, 1, 15, 21, 21}},
    {6, 16, {1, 3, 1, 13, 27, 49}},
};

constexpr int kNumTabulated = int(sizeof(kDims) / sizeof(kDims[0]));

/** Index of the lowest zero bit of x. */
int
lowestZeroBit(u64 x)
{
    int pos = 0;
    while (x & 1) {
        x >>= 1;
        ++pos;
    }
    return pos;
}

} // namespace

int
sobolMaxDimensions()
{
    return kNumTabulated + 1;
}

SobolSequence::SobolSequence(int dimension, int bits)
    : dimension_(dimension), bits_(bits)
{
    fatalIf(bits < 1 || bits > 30, "SobolSequence: bits out of range");
    fatalIf(dimension < 0 || dimension > kNumTabulated,
            "SobolSequence: unsupported dimension");

    direction_.assign(bits_, 0);
    if (dimension_ == 0) {
        // van der Corput: m_k = 1 for all k.
        for (int k = 0; k < bits_; ++k)
            direction_[k] = u32(1) << (bits_ - 1 - k);
        return;
    }

    const SobolDim &dim = kDims[dimension_ - 1];
    std::vector<u32> m(bits_ + 1, 0);
    for (int k = 1; k <= dim.s && k <= bits_; ++k)
        m[k] = dim.m[k - 1];
    for (int k = dim.s + 1; k <= bits_; ++k) {
        u32 mk = m[k - dim.s] ^ (m[k - dim.s] << dim.s);
        for (int i = 1; i <= dim.s - 1; ++i) {
            if ((dim.a >> (dim.s - 1 - i)) & 1)
                mk ^= m[k - i] << i;
        }
        m[k] = mk;
    }
    for (int k = 1; k <= bits_; ++k) {
        panicIf((m[k] & 1) == 0, "Sobol direction integers must be odd");
        direction_[k - 1] = m[k] << (bits_ - k);
    }
}

u32
SobolSequence::next()
{
    const u32 out = value_;
    ++index_;
    if (index_ == period()) {
        // The hardware register wraps after one full period.
        index_ = 0;
        value_ = 0;
    } else {
        value_ ^= direction_[lowestZeroBit(index_ - 1)];
    }
    return out;
}

void
SobolSequence::reset()
{
    value_ = 0;
    index_ = 0;
}

u32
SobolSequence::at(u64 index) const
{
    index &= period() - 1;
    const u64 gray = index ^ (index >> 1);
    u32 out = 0;
    for (int k = 0; k < bits_; ++k) {
        if ((gray >> k) & 1)
            out ^= direction_[k];
    }
    return out;
}

std::vector<u32>
sobolPermutation(int dimension, int bits)
{
    SobolSequence seq(dimension, bits);
    std::vector<u32> out;
    out.reserve(std::size_t(1) << bits);
    for (u64 i = 0; i < (u64(1) << bits); ++i)
        out.push_back(seq.next());
    return out;
}

} // namespace usys
