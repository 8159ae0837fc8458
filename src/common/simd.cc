#include "common/simd.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>

#include "common/logging.h"

namespace usys {

namespace {

// --- Generic (portable) kernels -------------------------------------
//
// These are the reference semantics every other tier must reproduce
// bit for bit. Kept branch-light so the compiler can vectorize them
// for whatever baseline ISA the build targets.

void
axpyF32Generic(float *c, const float *b, float a, int n)
{
    // One multiply + one add per element, element order; this TU is
    // compiled with -ffp-contract=off so it can never become an FMA.
    for (int j = 0; j < n; ++j)
        c[j] += a * b[j];
}

} // namespace

namespace detail {

void
gatherU16Generic(i16 *dst, const u16 *row, const u16 *idx, int n)
{
    for (int j = 0; j < n; ++j)
        dst[j] = i16(row[idx[j]]);
}

bool
gatherSumU16Generic(i64 *out, const i32 *b, const GatherRow *rows, int kd,
                    int n, i32 lim, bool ug, u32 bias, u64 *zeros)
{
    // A memory accumulator of up to 256 columns, in u32 lanes so that the
    // sums wrap as the vector tiers' do. A code's `flag` has its top bit
    // set exactly when the code lies outside the tables (lim - |w| for
    // UR/UT; t and 2 lim - t for UG's t = w + lim, which wraps below
    // zero), and an offending key reads entry 0 instead.
    constexpr int kTile = 256;
    u32 acc[kTile];
    const u32 ulim = u32(lim);
    const std::size_t stride = std::size_t(n);
    u32 bad = 0;
    u64 zc = 0;
    for (int j0 = 0; j0 < n; j0 += kTile) {
        const int w = std::min(kTile, n - j0);
        std::fill(acc, acc + w, 0u);
        for (int k = 0; k < kd; ++k) {
            const i32 *code = b + std::size_t(k) * stride + j0;
            const GatherRow &row = rows[k];
            for (int j = 0; j < w; ++j) {
                const i32 c = code[j];
                const u32 s = u32(c >> 31);
                const u32 key = ug ? u32(c) + ulim : (u32(c) ^ s) - s;
                const u32 flag = ug ? key | (2 * ulim - key) : ulim - key;
                bad |= flag;
                zc += c == 0;
                if (!row.ones)
                    continue;
                const u32 at = flag >> 31 ? 0 : key;
                if (ug) {
                    acc[j] += u32(row.ones[at]) - u32(row.zeros[at]);
                } else {
                    const u32 neg = s ^ u32(row.negate);
                    acc[j] += (u32(row.ones[at]) ^ neg) - neg;
                }
            }
        }
        for (int j = 0; j < w; ++j)
            out[j0 + j] += i64(i32(acc[j] + bias));
    }
    if (zeros)
        *zeros += zc;
    return (bad >> 31) == 0;
}

void
walkRowsI16Generic(i16 *rows, std::ptrdiff_t stride, const u16 *keys,
                   const i16 *signs, const i16 *base, const u16 *up,
                   const u16 *down, int count, int n)
{
    // A tile of up to 64 columns in fixed eight-lane groups, which the
    // compiler vectorizes for the baseline ISA (the row stores too: a
    // dense walk stores a row every step). Keys and thresholds are below
    // 2^15, so they compare as i16. A count adds its column's step, +-1,
    // under an all-ones hit mask, and subtracts one under a down miss;
    // u16 lanes keep the arithmetic wrap-free.
    constexpr int kTile = 64;
    i16 key[kTile];
    u16 acc[kTile], step[kTile];
    for (int j0 = 0; j0 < n && count > 0; j0 += kTile) {
        const int w = std::min(kTile, n - j0);
        const int lanes = (w + 7) / 8 * 8;
        const int whole = w / 8 * 8;
        for (int l = 0; l < lanes; ++l) {
            const bool in = l < w;
            key[l] = in ? i16(keys[j0 + l]) : 0;
            step[l] = in && signs && signs[j0 + l] < 0 ? u16(0xffff) : 1;
            acc[l] = in && base ? u16(base[j0 + l]) : 0;
        }
        for (int i = 0;; ++i) {
            u16 *row = reinterpret_cast<u16 *>(rows + i * stride + j0);
            for (int g = 0; g < whole; g += 8)
                for (int l = 0; l < 8; ++l)
                    row[g + l] = acc[g + l];
            for (int l = whole; l < w; ++l)
                row[l] = acc[l];
            if (i + 1 == count)
                break;
            const i16 t = i16(up[i]);
            for (int g = 0; g < lanes; g += 8)
                for (int l = 0; l < 8; ++l)
                    acc[g + l] = u16(acc[g + l] +
                                     (step[g + l] &
                                      u16(0 - u16(key[g + l] >= t))));
            if (!down)
                continue;
            const i16 d = i16(down[-i]);
            for (int g = 0; g < lanes; g += 8)
                for (int l = 0; l < 8; ++l)
                    acc[g + l] = u16(acc[g + l] - u16(key[g + l] < d));
        }
    }
}

void
sumRowsI16Generic(i64 *out, const i16 *rows, const u32 *slots, int count,
                  int n)
{
    // A memory accumulator in fixed eight-lane groups, which the
    // compiler vectorizes for the baseline ISA; a register-tiled
    // portable loop was 1.5-2x slower on 8-24-column rows. Negation is
    // branch-free: -v == (v ^ -1) + 1, so every row adds v ^ mask and
    // the count of negated rows is added once at the spill. u32 lanes
    // make any intermediate wrap defined; the final sums fit in i32.
    constexpr int kTile = 256;
    u32 acc[kTile];
    const std::size_t stride = std::size_t(n);
    for (int j0 = 0; j0 < n; j0 += kTile) {
        const int w = std::min(kTile, n - j0);
        std::fill(acc, acc + w, 0u);
        u32 negated = 0;
        for (int i = 0; i < count; ++i) {
            const u32 s = slots[i];
            const u32 mask = 0u - (s & 1);
            negated += s & 1;
            const i16 *row = rows + std::size_t(s >> 1) * stride + j0;
            int j = 0;
            for (; j + 8 <= w; j += 8)
                for (int l = 0; l < 8; ++l)
                    acc[j + l] += u32(i32(row[j + l])) ^ mask;
            for (; j < w; ++j)
                acc[j] += u32(i32(row[j])) ^ mask;
        }
        for (int j = 0; j < w; ++j)
            out[j0 + j] += i64(i32(acc[j] + negated));
    }
}

} // namespace detail

namespace {

/** A gemmI16 k pair: the low code in the low half, the high one above. */
inline u32
pairOf(i32 lo, i32 hi)
{
    return u32(u16(lo)) | u32(hi) << 16;
}

/** v + 2^14 as u32: below 2^15 exactly when v lies in gemmI16's range. */
inline u32
biased(i32 v)
{
    return u32(v) + u32(kGemmI16Limit);
}

/**
 * One panel row: out[j] = pairOf(b0[j], b1[j] & keep) for j in [0, n),
 * returning the OR of the biased codes packed. Fixed four-lane groups
 * over unaliased rows let the compiler vectorize it at -O2 with the
 * accumulator in one register; with eight-lane groups it looped twice
 * over the group and kept the accumulator on the stack.
 */
u32
packPairRow(u32 *__restrict out, const i32 *__restrict b0,
            const i32 *__restrict b1, u32 keep, int n)
{
    u32 any[4] = {};
    int j = 0;
    for (; j + 4 <= n; j += 4)
        for (int l = 0; l < 4; ++l) {
            const i32 hi = i32(u32(b1[j + l]) & keep);
            out[j + l] = pairOf(b0[j + l], hi);
            any[l] |= biased(b0[j + l]) | biased(hi);
        }
    u32 all = 0;
    for (; j < n; ++j) {
        const i32 hi = i32(u32(b1[j]) & keep);
        out[j] = pairOf(b0[j], hi);
        all |= biased(b0[j]) | biased(hi);
    }
    return all | any[0] | any[1] | any[2] | any[3];
}

} // namespace

bool
packPairsI16(const i32 *b, int kd, int n, u32 *pairs)
{
    // An OR of the biased codes below 2^15 means every code is in range.
    u32 any = 0;
    const std::size_t stride = std::size_t(n);
    for (int p = 0; 2 * p < kd; ++p) {
        const i32 *b0 = b + 2 * std::size_t(p) * stride;
        // The odd tail pairs its code with a zero: b0 stands in for the
        // missing row and is masked off.
        const bool tail = 2 * p + 1 == kd;
        any |= packPairRow(pairs + std::size_t(p) * stride, b0,
                           tail ? b0 : b0 + stride, tail ? 0u : ~0u, n);
    }
    return any < 2 * u32(kGemmI16Limit);
}

namespace detail {

int
stagePairsI16(const i32 *a, int kd, int rows, int p0, int p1, int n,
              u32 *ap, u32 *off)
{
    // Branch-free compaction: every pair is written at slot q, and q
    // only advances past it when some row's codes are nonzero.
    const std::size_t stride = std::size_t(kd);
    int q = 0;
    for (int p = p0; p < p1; ++p) {
        // The odd tail's second code is 0 (and a(r, 2p + 1) is past
        // the row, so it is not read).
        const bool tail = 2 * p + 1 == kd;
        u32 any = 0;
        for (int r = 0; r < rows; ++r) {
            const i32 *code = a + std::size_t(r) * stride + 2 * p;
            const i32 second = tail ? 0 : code[1];
            ap[r * kPairStride + q] = pairOf(code[0], second);
            any |= u32(code[0]) | u32(second);
        }
        off[q] = u32(p) * u32(n);
        q += int(any != 0);
    }
    return q;
}

int
liveKsI16(const i32 *a, int kd, int rows, int k0, int k1, u32 *ks)
{
    // Branch-free compaction, as in stagePairsI16.
    const std::size_t stride = std::size_t(kd);
    int q = 0;
    for (int k = k0; k < k1; ++k) {
        u32 any = 0;
        for (int r = 0; r < rows; ++r)
            any |= u32(a[std::size_t(r) * stride + std::size_t(k)]);
        ks[q] = u32(k - k0);
        q += int(any != 0);
    }
    return q;
}

bool
gemmI16Generic(i64 *c, const i32 *a, const i32 *b, const u32 *pairs,
               int m, int kd, int n, int kb, u64 *zeros)
{
    // Per output row and block, a memory accumulator of up to 256
    // columns in fixed eight-lane groups, which the compiler vectorizes
    // for the baseline ISA. The lanes are u32 so that a code of b
    // outside the range (whose result is discarded) cannot overflow a
    // signed int; within the range every block sum fits in i32.
    constexpr int kTile = 256;
    u32 acc[kTile];
    const int np = (kd + 1) / 2;
    const std::size_t stride = std::size_t(n);
    u32 any = 0; // OR of the biased codes of b read
    u64 zc = 0;
    for (int i = 0; i < m; ++i) {
        const i32 *arow = a + std::size_t(i) * kd;
        i64 *crow = c + std::size_t(i) * stride;
        // A row skips a zero activation's k and checks the codes it
        // reads; when zeros are asked for, the first row reads every
        // code of b instead, so that each is counted once.
        const bool first = i == 0 && zeros;
        for (int j0 = 0; j0 < n; j0 += kTile) {
            const int w = std::min(kTile, n - j0);
            for (int p0 = 0; p0 < np; p0 += kb) {
                const int p1 = std::min(np, p0 + kb);
                std::fill(acc, acc + w, 0u);
                if (pairs) {
                    for (int p = p0; p < p1; ++p) {
                        const bool tail = 2 * p + 1 == kd;
                        const i32 a0 = arow[2 * p];
                        const i32 a1 = tail ? 0 : arow[2 * p + 1];
                        if ((a0 | a1) == 0)
                            continue;
                        const u32 *bp = pairs + std::size_t(p) * stride + j0;
                        const i16 s0 = i16(a0), s1 = i16(a1);
                        int j = 0;
                        for (; j + 8 <= w; j += 8)
                            for (int l = 0; l < 8; ++l)
                                acc[j + l] += u32(
                                    s0 * i16(bp[j + l]) +
                                    s1 * i16(bp[j + l] >> 16));
                        for (; j < w; ++j)
                            acc[j] += u32(s0 * i16(bp[j]) +
                                          s1 * i16(bp[j] >> 16));
                    }
                } else {
                    for (int k = 2 * p0; k < std::min(kd, 2 * p1); ++k) {
                        const u32 ak = u32(arow[k]);
                        if (ak == 0 && !first)
                            continue;
                        const i32 *bk = b + std::size_t(k) * stride + j0;
                        int j = 0;
                        for (; j + 8 <= w; j += 8)
                            for (int l = 0; l < 8; ++l) {
                                acc[j + l] += ak * u32(bk[j + l]);
                                any |= biased(bk[j + l]);
                                zc += u32(bk[j + l] == 0) & u32(first);
                            }
                        for (; j < w; ++j) {
                            acc[j] += ak * u32(bk[j]);
                            any |= biased(bk[j]);
                            zc += u32(bk[j] == 0) & u32(first);
                        }
                    }
                }
                for (int j = 0; j < w; ++j)
                    crow[j0 + j] += i64(i32(acc[j]));
            }
        }
    }
    if (zeros && !pairs)
        *zeros += zc;
    return any < 2 * u32(kGemmI16Limit);
}

} // namespace detail

namespace {

const SimdKernels kGeneric = {
    SimdLevel::Generic,          axpyF32Generic,
    detail::gemmI16Generic,      detail::gatherU16Generic,
    detail::gatherSumU16Generic, detail::walkRowsI16Generic,
    detail::sumRowsI16Generic,
};

// --- Dispatch -------------------------------------------------------

/**
 * Active table pointer. Resolution is deterministic (env + CPUID), so
 * the lazy-init race is benign: every thread stores the same value.
 */
std::atomic<const SimdKernels *> g_active{nullptr};

const SimdKernels *
bestAvailable()
{
    if (const SimdKernels *avx512 = avx512Kernels())
        return avx512;
    if (const SimdKernels *avx2 = avx2Kernels())
        return avx2;
    if (const SimdKernels *neon = neonKernels())
        return neon;
    return &kGeneric;
}

/** Resolve the startup default from USYS_SIMD (warn-and-fall-back). */
const SimdKernels *
resolveFromEnv()
{
    const char *env = std::getenv("USYS_SIMD");
    if (!env || !*env)
        return bestAvailable();
    const std::string mode(env);
    if (mode == "auto")
        return bestAvailable();
    if (mode == "generic")
        return &kGeneric;
    if (mode == "avx2") {
        if (const SimdKernels *avx2 = avx2Kernels())
            return avx2;
        warn("USYS_SIMD=avx2 but AVX2 is unavailable "
             "(cpu or build); using generic");
        return &kGeneric;
    }
    if (mode == "avx512") {
        if (const SimdKernels *avx512 = avx512Kernels())
            return avx512;
        warn("USYS_SIMD=avx512 but AVX-512 is unavailable "
             "(cpu or build); using best available");
        return bestAvailable();
    }
    if (mode == "neon") {
        if (const SimdKernels *neon = neonKernels())
            return neon;
        warn("USYS_SIMD=neon but NEON is unavailable "
             "(not an arm64 build); using best available");
        return bestAvailable();
    }
    warn("USYS_SIMD='" + mode + "' not recognized "
         "(auto|avx512|avx2|neon|generic); using auto");
    return bestAvailable();
}

} // namespace

const char *
simdLevelName(SimdLevel level)
{
    switch (level) {
      case SimdLevel::Generic:
        return "generic";
      case SimdLevel::Avx2:
        return "avx2";
      case SimdLevel::Avx512:
        return "avx512";
      case SimdLevel::Neon:
        return "neon";
    }
    return "unknown";
}

const SimdKernels &
genericKernels()
{
    return kGeneric;
}

bool
cpuSupportsAvx2()
{
#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
    return __builtin_cpu_supports("avx2");
#else
    return false;
#endif
}

bool
cpuSupportsAvx512()
{
#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
    return __builtin_cpu_supports("avx512f") &&
           __builtin_cpu_supports("avx512bw");
#else
    return false;
#endif
}

const SimdKernels *
avx2Kernels()
{
    if (!cpuSupportsAvx2())
        return nullptr;
    return detail::avx2KernelsImpl();
}

const SimdKernels *
avx512Kernels()
{
    if (!cpuSupportsAvx512())
        return nullptr;
    return detail::avx512KernelsImpl();
}

const SimdKernels *
neonKernels()
{
    // ASIMD is architecturally mandatory on AArch64, so build support
    // implies runtime support — no probe needed.
    return detail::neonKernelsImpl();
}

const SimdKernels &
simdKernels()
{
    const SimdKernels *k = g_active.load(std::memory_order_acquire);
    if (!k) {
        k = resolveFromEnv();
        g_active.store(k, std::memory_order_release);
    }
    return *k;
}

SimdLevel
simdLevel()
{
    return simdKernels().level;
}

void
setSimdMode(const std::string &mode)
{
    const SimdKernels *k = nullptr;
    if (mode == "auto") {
        k = bestAvailable();
    } else if (mode == "generic") {
        k = &kGeneric;
    } else if (mode == "avx2") {
        k = avx2Kernels();
        fatalIf(k == nullptr,
                "--simd avx2 requested but AVX2 is unavailable "
                "(cpu or build)");
    } else if (mode == "avx512") {
        k = avx512Kernels();
        fatalIf(k == nullptr,
                "--simd avx512 requested but AVX-512 is unavailable "
                "(cpu or build)");
    } else if (mode == "neon") {
        k = neonKernels();
        fatalIf(k == nullptr,
                "--simd neon requested but this is not an arm64 build");
    } else {
        fatal("unknown SIMD mode '" + mode +
              "' (expected auto, avx512, avx2, neon, or generic)");
    }
    g_active.store(k, std::memory_order_release);
}

} // namespace usys
