#include "arch/packed_array.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <tuple>
#include <vector>

#include "common/cli.h"
#include "common/fixed_point.h"
#include "common/profiler.h"
#include "common/simd.h"
#include "arch/pe.h"
#include "arch/sparsity.h"
#include "unary/bitstream.h"
#include "unary/sobol.h"

// Under the memory-checking sanitizers, poison every reused arena
// buffer with 0xA5 between resize and the staging writes. Any read of a
// slot the current fold did not stage then returns a loud, deterministic
// garbage value instead of silently reusing a previous fold's data —
// the instrumentation that settled the tsan_test_packed_array flake
// investigation (DESIGN.md §16). Release builds compile this out.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define USYS_POISON_ARENAS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define USYS_POISON_ARENAS 1
#endif
#endif

namespace usys {

namespace {

template <typename T>
inline void
poisonArena(std::vector<T> &v)
{
#ifdef USYS_POISON_ARENAS
    if (!v.empty())
        std::memset(static_cast<void *>(v.data()), 0xA5,
                    v.size() * sizeof(T));
#else
    (void)v;
#endif
}

/**
 * Packed threshold-comparison stream with per-word prefix popcounts:
 * stream bit k is (values[k] < threshold), and prefixOnes(n) counts the
 * 1s among the first n bits with one masked popcount — the SWAR form of
 * stepping a C-W comparator + AND + counter n times.
 */
struct PackedStream
{
    std::vector<u64> words;
    std::vector<u32> prefix; // prefix[w] = ones in words[0..w)

    PackedStream() = default;

    /** (Re)build in place, reusing the word/prefix capacity — pooled
     *  instances make a fold allocation-free once warmed up. */
    void
    fill(const std::vector<u32> &values, u32 threshold)
    {
        const u32 n = u32(values.size());
        const u32 nwords = (n + 63) / 64;
        const SimdKernels &simd = simdKernels();
        words.resize(nwords);
        poisonArena(words);
        if (n)
            simd.thresholdPackWords(values.data(), n, threshold,
                                    words.data());
        prefix.resize(nwords + 1);
        poisonArena(prefix);
        simd.prefixPopcount(words.data(), nwords, prefix.data());
    }

    /** 1s among stream bits [0, n). */
    u32
    prefixOnes(u32 n) const
    {
        const u32 w = n >> 6;
        const u32 rem = n & 63;
        u32 ones = prefix[w];
        if (rem)
            ones += u32(std::popcount(words[w] & lowMask(rem)));
        return ones;
    }
};

/**
 * Arena key for one prefix-count table: the first `mul` outputs of the
 * (dimension, bits) shared weight RNG thresholded at `threshold`.
 */
struct CountTableKey
{
    int dim;
    int bits;
    u32 mul;
    u32 threshold;

    bool
    operator<(const CountTableKey &o) const
    {
        return std::tie(dim, bits, mul, threshold) <
               std::tie(o.dim, o.bits, o.mul, o.threshold);
    }
};

/**
 * Per-worker arena of prefix-count tables, the panel fast path's form
 * of a staged weight bitstream: tbl[o] = ones among the first o bits
 * of the packed comparison stream b_k = (rng.at(k) < threshold) — by
 * construction identical to PackedStream::prefixOnes(o) for every o,
 * so a table lookup is bit-exact with a stream query. Tables persist
 * across folds/GEMMs/sweeps (weights recur) under a byte budget sized
 * to the configured L2 share: building evicts the oldest unpinned
 * tables first, and tables pinned by the panel being staged are never
 * evicted (their pointers are live in the panel's pointer grid).
 */
class CountTableArena
{
  public:
    /** Start staging a new panel: unpin everything. */
    void
    beginPanel()
    {
        pinned_.clear();
        pinned_bytes_ = 0;
    }

    /** Bytes pinned by the panel currently being staged. */
    std::size_t pinnedBytes() const { return pinned_bytes_; }

    /**
     * Fetch (building and pinning if needed) the table for `key` over
     * `values`. The returned pointer has mul + 1 entries and stays
     * valid until the next beginPanel().
     */
    const u32 *
    get(const CountTableKey &key, const std::vector<u32> &values,
        std::size_t budget_bytes)
    {
        const std::size_t need =
            (std::size_t(key.mul) + 1) * sizeof(u32);
        auto it = tables_.find(key);
        if (it == tables_.end()) {
            while (bytes_ + need > budget_bytes && evictOneUnpinned())
                ;
            auto &tbl = tables_[key];
            tbl.resize(std::size_t(key.mul) + 1);
            tbl[0] = 0;
            for (u32 k = 0; k < key.mul; ++k)
                tbl[k + 1] = tbl[k] + u32(values[k] < key.threshold);
            bytes_ += need;
            order_.push_back(key);
            it = tables_.find(key);
        }
        if (pinned_.insert(key).second)
            pinned_bytes_ += need;
        return it->second.data();
    }

  private:
    /** Evict the oldest table not pinned by the current panel. */
    bool
    evictOneUnpinned()
    {
        for (std::size_t i = 0; i < order_.size(); ++i) {
            if (pinned_.count(order_[i]))
                continue;
            auto it = tables_.find(order_[i]);
            bytes_ -= it->second.size() * sizeof(u32);
            tables_.erase(it);
            order_.erase(order_.begin() + i);
            return true;
        }
        return false; // everything live is pinned: allow over-budget
    }

    std::map<CountTableKey, std::vector<u32>> tables_;
    std::vector<CountTableKey> order_; // build order (eviction queue)
    std::set<CountTableKey> pinned_;
    std::size_t bytes_ = 0;
    std::size_t pinned_bytes_ = 0;
};

/** Key for one persistent input-ones memo (scheme kind x RNG shape). */
struct OnesMemoKey
{
    int kind; // 0 = rate, 1 = temporal, 2 = bipolar
    int bits;
    u32 mul;

    bool
    operator<(const OnesMemoKey &o) const
    {
        return std::tie(kind, bits, mul) <
               std::tie(o.kind, o.bits, o.mul);
    }
};

/**
 * Per-worker fold scratch. The executor's workers are persistent, so
 * this arena survives across folds, GEMMs, and whole sweeps: the
 * stream pool hands back PackedStream instances with their word/prefix
 * capacity intact, the count-table arena keeps staged weight panels
 * warm, and the ones-memos keep every input magnitude's delivered-ones
 * count (a pure function of (scheme, bits, mul, magnitude), so reuse
 * across folds is bit-exact). Entirely thread-local — parallel tile
 * shards never share scratch.
 */
struct FoldScratch
{
    std::map<OnesMemoKey, std::vector<i64>> ones_memos;
    std::vector<std::unique_ptr<PackedStream>> stream_pool;
    CountTableArena tables;
    SparsityPlan plan; // plan of a fold given none, or faulted operands

    // Panel staging buffers (capacity reused across folds).
    std::vector<u32> in_ones;          // per (m, r) delivered ones
    std::vector<i64> in_neg;           // per (m, r) sign, 0 or -1
    std::vector<const u32 *> stage_a;  // column-major staging
    std::vector<const u32 *> stage_b;
    std::vector<i64> stage_neg;
    std::vector<const u32 *> grid_a;   // row-major panel grids
    std::vector<const u32 *> grid_b;
    std::vector<i64> grid_neg;

    /** Persistent memo for one (kind, bits, mul), grown to `size`. */
    std::vector<i64> &
    onesMemo(int kind, int bits, u32 mul, std::size_t size)
    {
        std::vector<i64> &memo = ones_memos[OnesMemoKey{kind, bits, mul}];
        if (memo.size() < size)
            memo.resize(size, -1);
        return memo;
    }
};

FoldScratch &
foldScratch()
{
    thread_local FoldScratch scratch;
    return scratch;
}

/**
 * Lazily built per-threshold packed streams over one shared RNG value
 * sequence. Weights are stationary and every PE row sees the same RNG
 * values, so a fold needs at most one stream per distinct magnitude.
 * Stream objects are borrowed from the per-worker pool and returned on
 * destruction, so steady-state folds allocate nothing.
 */
class StreamCache
{
  public:
    StreamCache(const std::vector<u32> &values, u32 max_threshold,
                std::vector<std::unique_ptr<PackedStream>> &pool)
        : values_(values), pool_(pool),
          slots_(std::size_t(max_threshold) + 1, nullptr)
    {}

    ~StreamCache()
    {
        for (auto &s : owned_)
            pool_.push_back(std::move(s));
    }

    const PackedStream &
    forThreshold(u32 t)
    {
        PackedStream *&slot = slots_[t];
        if (!slot) {
            std::unique_ptr<PackedStream> s;
            if (!pool_.empty()) {
                s = std::move(pool_.back());
                pool_.pop_back();
            } else {
                s = std::make_unique<PackedStream>();
            }
            s->fill(values_, t);
            slot = s.get();
            owned_.push_back(std::move(s));
        }
        return *slot;
    }

  private:
    const std::vector<u32> &values_;
    std::vector<std::unique_ptr<PackedStream>> &pool_;
    std::vector<PackedStream *> slots_;
    std::vector<std::unique_ptr<PackedStream>> owned_;
};

/**
 * First `count` outputs of a Sobol dimension (the shared lane RNG),
 * computed once per (dimension, bits, count) and shared by reference:
 * every fold of a sweep uses the same few sequences, so regenerating
 * them per fold was pure churn. Entries are immutable once built and
 * never evicted, so the returned reference stays valid for the process
 * lifetime and is safe to read from any thread.
 */
const std::vector<u32> &
sharedSobolValues(int dimension, int bits, u32 count)
{
    using Key = std::tuple<int, int, u32>;
    static std::mutex mu;
    static std::map<Key, std::unique_ptr<const std::vector<u32>>> cache;
    std::lock_guard<std::mutex> lock(mu);
    auto &slot = cache[Key(dimension, bits, count)];
    if (!slot) {
        SobolSequence seq(dimension, bits);
        auto v = std::make_unique<std::vector<u32>>(count);
        for (u32 k = 0; k < count; ++k)
            (*v)[k] = seq.next();
        slot = std::move(v);
    }
    return *slot;
}

/**
 * Signed ones-count the staircase (temporal) stream of `code` delivers
 * within `window` cycles under fault `f` — the faulted form of the
 * identity |code| that fault-free temporal staging is.
 */
i32
faultedTemporalOnes(const Fault &f, i32 code, int rng_bits, u32 window)
{
    const SignMag in = toSignMag(code);
    TemporalBsg gen(in.magnitude, rng_bits);
    const i32 ones = i32(onesInWindow(gen, window, &f));
    return in.negative ? -ones : ones;
}

/** Largest sign-magnitude |value| in a tile (for cache sizing). */
u32
maxAbs(const Matrix<i32> &m)
{
    u32 best = 0;
    for (int r = 0; r < m.rows(); ++r)
        for (int c = 0; c < m.cols(); ++c)
            best = std::max(best, toSignMag(m(r, c)).magnitude);
    return best;
}

} // namespace

PackedArray::PackedArray(const ArrayConfig &cfg)
    : cfg_(cfg)
{
    cfg_.check();
}

SystolicArray::FoldResult
PackedArray::runFold(const Matrix<i32> &input, const Matrix<i32> &weights,
                     FoldStatsDelta *stats, u64 tile,
                     const SparsityPlan *sparsity) const
{
    USYS_PROF_SCOPE("fold.packed");
    const int rows = cfg_.rows;
    const int cols = cfg_.cols;
    fatalIf(input.cols() != rows, "runFold: input width != array rows");
    fatalIf(weights.rows() != rows || weights.cols() != cols,
            "runFold: weight tile does not match array shape");

    const int m_rows = input.rows();
    const KernelConfig &kern = cfg_.kernel;
    const u32 mul = kern.mulCycles();
    const u32 mac = kern.macCycles();

    // Identical closed-form schedule to SystolicArray: the packed model
    // changes how fast the host evaluates a MAC interval, never how many
    // simulated cycles it takes.
    Cycles cycles = Cycles(rows);
    cycles += (u64(m_rows) + rows - 1) * mac + u64(cols - 1);
    const u32 trace_len = (kern.scheme == Scheme::BinaryParallel) ? 1 : mul;

    FoldStatsDelta local;
    FoldStatsDelta &delta = stats ? *stats : local;
    delta.add(m_rows, rows, cols, cycles, trace_len);
    delta.addSparsity(foldSparsityCensus(kern, input, weights));

    // Fault plan: the census is analytic (coordinate enumeration), so
    // it matches SystolicArray's by construction; the event *effects*
    // are applied below at the packed formulation's equivalent points.
    const FaultPlan *plan = cfg_.faults.enabled() ? &cfg_.faults : nullptr;
    if (plan)
        delta.addFaults(countFoldFaults(*plan, kern, tile, m_rows, rows,
                                        cols));
    const bool fw = plan && plan->rates.weight_reg > 0.0;
    const bool fa = plan && plan->rates.activation_stream > 0.0;
    const bool fs = plan && plan->rates.weight_stream > 0.0;
    const bool fo = plan && plan->rates.accumulator > 0.0;
    const u32 acc_width = accumulatorWidth(kern);

    // WeightReg site: stationary weights corrupt once at preload, so a
    // corrupted copy up front is exactly the scalar engine's behavior.
    const Matrix<i32> *wp = &weights;
    Matrix<i32> wfaulted;
    if (fw) {
        wfaulted = weights;
        for (int r = 0; r < rows; ++r)
            for (int c = 0; c < cols; ++c)
                if (const auto f = plan->weightReg(tile, r, c,
                                                   u32(kern.bits)))
                    wfaulted(r, c) =
                        corruptCode(*f, wfaulted(r, c), kern.bits);
        wp = &wfaulted;
    }

    // Nonzero-index plan of the tile a zero-skipping scheme iterates:
    // the SystolicGemm-shared plan when that tile is `input`, else one
    // built into the worker scratch. A dense tile is a plan with full
    // rows. uGEMM-H never consumes one (its bipolar bias makes zero
    // operands contribute — the carve-out in foldSparsityCensus).
    auto plan_of = [&](const Matrix<i32> &tile) -> const SparsityPlan & {
        if (sparsity && &tile == &input)
            return *sparsity;
        SparsityPlan &own = foldScratch().plan;
        own.build(tile);
        return own;
    };

    const int shift =
        (kern.scheme == Scheme::USystolicRate && kern.et_bits > 0)
            ? kern.bits - kern.et_bits
            : 0;

    Matrix<i64> out(m_rows, cols, 0);

    switch (kern.scheme) {
      case Scheme::BinaryParallel:
      case Scheme::BinarySerial:
      case Scheme::TubGemm:
      case Scheme::TuGemm: {
        // All four kernels compute an exact integer product per MAC, so
        // the fold is a plain integer GEMM over a staged signed operand
        // matrix. Binary parallel multiplies in one cycle; binary serial
        // accumulates wabs << phase over the input magnitude bits (=
        // wabs * iabs) and sign-corrects at M-end. The temporal-unary
        // staircase stream of |a| asserts exactly |a| of its window
        // bits; tubGEMM adds the binary weight per asserted bit and
        // tuGEMM ANDs in the weight staircase, which matches |w| of the
        // held cycles per asserted bit — either way (+/- ones) * w. No
        // stream words are ever materialized, so fault-free staging is
        // the identity: the operands are the input codes.
        //
        // ActivationStream site: for the binary schemes the stream *is*
        // the code bits, so corruption lands on the codes themselves;
        // for the temporal schemes it lands on the delivered ones-count.
        const Matrix<i32> *ap = &input;
        Matrix<i32> astaged;
        if (fa) {
            const u32 awin = activationWindow(kern);
            const bool temporal = isUnary(kern.scheme);
            astaged = input;
            for (int m = 0; m < m_rows; ++m)
                for (int r = 0; r < rows; ++r)
                    if (const auto f =
                            plan->activationStream(tile, m, r, awin))
                        astaged(m, r) =
                            temporal ? faultedTemporalOnes(*f, input(m, r),
                                                           kern.bits - 1,
                                                           awin)
                                     : corruptActivationCode(
                                           *f, input(m, r), kern);
            ap = &astaged;
        }
        const Matrix<i32> &a = *ap;

        if (!fo) {
            // No per-MAC fault hook: run the dispatched SIMD row kernel
            // over the plan's nonzero operands only (weight-register and
            // DRAM faults already corrupted the staged codes).
            USYS_PROF_SCOPE("fold.packed.mac");
            const SimdKernels &simd = simdKernels();
            const SparsityPlan &sp = plan_of(a);
            for (int m = 0; m < m_rows; ++m) {
                const u32 *idx = sp.rowIdx(m);
                const u32 cnt = sp.rowCount(m);
                for (u32 i = 0; i < cnt; ++i) {
                    const int r = int(idx[i]);
                    simd.gemmRowI32(&out(m, 0), &(*wp)(r, 0), a(m, r),
                                    cols);
                }
            }
            break;
        }

        for (int m = 0; m < m_rows; ++m) {
            for (int r = 0; r < rows; ++r) {
                const i64 av = a(m, r);
                for (int c = 0; c < cols; ++c) {
                    i64 contrib = av * i64((*wp)(r, c));
                    // Accumulator site: each PE's signed per-interval
                    // product before the partial-sum merge — same point
                    // as PeCore::finishMac.
                    if (const auto f =
                            plan->accumulator(tile, m, r, c, acc_width))
                        contrib = f->applyToInt(contrib, acc_width);
                    out(m, c) += contrib;
                }
            }
        }
        break;
      }

      case Scheme::USystolicRate:
      case Scheme::USystolicTemporal: {
        const bool rate = kern.scheme == Scheme::USystolicRate;
        const int rng_bits = kern.bits - 1;
        FoldScratch &scratch = foldScratch();
        // One packed weight-comparison stream per distinct |w|, over the
        // row-shared weight RNG values (C-BSG index k = k-th input 1).
        const std::vector<u32> &wvals =
            sharedSobolValues(kWeightRngDim, rng_bits, mul);
        // Input 1s delivered inside the (possibly early-terminated)
        // window depend only on |i| (a pure function of the RNG shape),
        // so the memo persists across folds in the worker arena.
        std::vector<i64> &ones_memo = scratch.onesMemo(
            rate ? 0 : 1, rng_bits, mul, std::size_t(maxAbs(input)) + 1);
        auto ones_of = [&](u32 iabs) -> u32 {
            // Zero-magnitude streams are all-zero by construction (the
            // comparator threshold is 0), so never materialize their
            // RNG words — the stream-generation level of zero skipping.
            if (iabs == 0)
                return 0;
            i64 &slot = ones_memo[iabs];
            if (slot < 0) {
                if (rate) {
                    RateBsg gen(iabs, kInputRngDim, rng_bits);
                    slot = i64(onesInWindow(gen, mul));
                } else {
                    TemporalBsg gen(iabs, rng_bits);
                    slot = i64(onesInWindow(gen, mul));
                }
            }
            return u32(slot);
        };

        if (!fa && !fs && !fo) {
            // --- Cache-blocked panel fast path (DESIGN.md §13) ------
            // No per-MAC fault hook is active (weight-reg and DRAM
            // faults already corrupted the codes above), so each MAC
            // is a pure count-table lookup: count = tbl(|w|)[ones],
            // where tbl(|w|)[o] == PackedStream::prefixOnes(o) by
            // construction. Columns are processed in panels whose
            // staged tables fit the L2 budget; the sign is applied
            // branchless so the inner loop has no data-dependent
            // branches.
            USYS_PROF_SCOPE("fold.packed.panel");
            const std::size_t budget = std::max<std::size_t>(
                std::size_t(panelBudgetKb()) * 1024,
                (std::size_t(mul) + 1) * sizeof(u32));

            // Stage the input side once per fold — delivered ones and
            // sign per (m, r) — and reuse it for every column panel.
            // Only the plan's nonzero operands are staged: zero ones
            // never reach the memo, and the MAC loop below walks the
            // same plan, so their unstaged slots are never read.
            const SparsityPlan &sp = plan_of(input);
            std::vector<u32> &in_ones = scratch.in_ones;
            std::vector<i64> &in_neg = scratch.in_neg;
            in_ones.resize(std::size_t(m_rows) * rows);
            in_neg.resize(std::size_t(m_rows) * rows);
            poisonArena(in_ones);
            poisonArena(in_neg);
            {
                USYS_PROF_SCOPE("fold.packed.stage");
                for (int m = 0; m < m_rows; ++m) {
                    const u32 *idx = sp.rowIdx(m);
                    const u32 cnt = sp.rowCount(m);
                    for (u32 i = 0; i < cnt; ++i) {
                        const int r = int(idx[i]);
                        const SignMag in = toSignMag(input(m, r));
                        in_ones[std::size_t(m) * rows + r] =
                            ones_of(in.magnitude);
                        in_neg[std::size_t(m) * rows + r] =
                            in.negative ? -1 : 0;
                    }
                }
            }

            CountTableArena &arena = scratch.tables;
            for (int c0 = 0; c0 < cols;) {
                // Grow the panel column by column until its pinned
                // tables reach the budget (always >= 1 column).
                std::vector<const u32 *> &ctbl = scratch.stage_a;
                std::vector<i64> &cneg = scratch.stage_neg;
                ctbl.clear();
                cneg.clear();
                arena.beginPanel();
                int c1 = c0;
                {
                    USYS_PROF_SCOPE("fold.packed.stage");
                    while (c1 < cols &&
                           (c1 == c0 || arena.pinnedBytes() < budget)) {
                        for (int r = 0; r < rows; ++r) {
                            const SignMag w = toSignMag((*wp)(r, c1));
                            ctbl.push_back(arena.get(
                                {kWeightRngDim, rng_bits, mul,
                                 w.magnitude},
                                wvals, budget));
                            cneg.push_back(w.negative ? i64(-1)
                                                      : i64(0));
                        }
                        ++c1;
                    }
                }
                const int pcols = c1 - c0;
                // Transpose the staging to row-major grids so the MAC
                // inner loop walks contiguous pointers per array row.
                std::vector<const u32 *> &wtbl = scratch.grid_a;
                std::vector<i64> &wneg = scratch.grid_neg;
                wtbl.resize(std::size_t(rows) * pcols);
                wneg.resize(std::size_t(rows) * pcols);
                poisonArena(wtbl);
                poisonArena(wneg);
                for (int cl = 0; cl < pcols; ++cl)
                    for (int r = 0; r < rows; ++r) {
                        wtbl[std::size_t(r) * pcols + cl] =
                            ctbl[std::size_t(cl) * rows + r];
                        wneg[std::size_t(r) * pcols + cl] =
                            cneg[std::size_t(cl) * rows + r];
                    }

                USYS_PROF_SCOPE("fold.packed.mac");
                for (int m = 0; m < m_rows; ++m) {
                    i64 *out_row = &out(m, c0);
                    const u32 *idx = sp.rowIdx(m);
                    const u32 cnt = sp.rowCount(m);
                    for (u32 i = 0; i < cnt; ++i) {
                        const int r = int(idx[i]);
                        const u32 ones =
                            in_ones[std::size_t(m) * rows + r];
                        // All-zero delivered stream: every count is 0.
                        // An early-terminated window can deliver zero
                        // 1s even for a nonzero magnitude.
                        if (ones == 0)
                            continue;
                        const i64 nin =
                            in_neg[std::size_t(m) * rows + r];
                        const u32 *const *trow =
                            &wtbl[std::size_t(r) * pcols];
                        const i64 *nrow =
                            &wneg[std::size_t(r) * pcols];
                        for (int cl = 0; cl < pcols; ++cl) {
                            const i64 v = i64(trow[cl][ones]);
                            const i64 ng = nrow[cl] ^ nin; // 0 or -1
                            out_row[cl] += (v ^ ng) - ng;
                        }
                    }
                }
                c0 = c1;
            }
            break;
        }

        StreamCache wstreams(wvals, maxAbs(*wp), scratch.stream_pool);
        for (int m = 0; m < m_rows; ++m) {
            for (int r = 0; r < rows; ++r) {
                const SignMag in = toSignMag(input(m, r));
                // ActivationStream site: corrupt the packed input stream
                // before counting — the corrupted ones-count is all the
                // weight side ever sees (the C-BSG advances on observed
                // 1-bits), matching the scalar engine's corrupted
                // consumption counters. Faulted MACs bypass the memo.
                u32 ones;
                std::optional<Fault> af;
                if (fa)
                    af = plan->activationStream(tile, m, r, mul);
                if (af) {
                    if (rate) {
                        RateBsg gen(in.magnitude, kInputRngDim, rng_bits);
                        ones = u32(onesInWindow(gen, mul, &*af));
                    } else {
                        TemporalBsg gen(in.magnitude, rng_bits);
                        ones = u32(onesInWindow(gen, mul, &*af));
                    }
                } else {
                    ones = ones_of(in.magnitude);
                }
                // Zero delivered ones: every count is 0 and weight-
                // stream faults only cover indices below the ones-count,
                // so the whole column sweep contributes exactly nothing
                // — unless an accumulator fault could still fire on it.
                if (!fo && ones == 0)
                    continue;
                for (int c = 0; c < cols; ++c) {
                    const SignMag w = toSignMag((*wp)(r, c));
                    i64 count =
                        wstreams.forThreshold(w.magnitude).prefixOnes(ones);
                    // WeightStream site: re-derive the covered
                    // comparison bits b_k = (wrng.at(k) < |w|) and swap
                    // each for its corrupted value — only indices below
                    // the delivered ones-count ever reach a comparator.
                    if (fs)
                        if (const auto f = plan->weightStream(tile, m, r,
                                                              c, mul)) {
                            const u64 hi =
                                std::min<u64>(u64(f->first) + f->len,
                                              ones);
                            for (u64 k = f->first; k < hi; ++k) {
                                const bool b =
                                    wvals[std::size_t(k)] < w.magnitude;
                                count += i64(f->corruptBit(b, u32(k))) -
                                         i64(b);
                            }
                        }
                    i64 contrib =
                        (in.negative != w.negative) ? -count : count;
                    // Accumulator site: per-MAC signed OREG contribution,
                    // pre-merge, pre-shift — same point as finishMac.
                    if (fo)
                        if (const auto f = plan->accumulator(tile, m, r, c,
                                                             acc_width))
                            contrib = f->applyToInt(contrib, acc_width);
                    out(m, c) += contrib;
                }
            }
        }
        break;
      }

      case Scheme::UgemmHybrid: {
        const int rng_bits = kern.bits;
        const i64 bias = i64(1) << (kern.bits - 1);
        // Bipolar uMUL: input 1-cycles consume the polarity-1 weight RNG
        // (product bit = rnum < woffset), input 0-cycles the polarity-0
        // RNG (product bit = !(rnum_alt < woffset)).
        const u32 max_woff = u32(maxAbs(*wp) + bias);
        FoldScratch &scratch = foldScratch();
        const std::vector<u32> &s1vals =
            sharedSobolValues(kWeightRngDim, rng_bits, mul);
        const std::vector<u32> &s0vals = sharedSobolValues(
            kWeightRngDim + kWeightAltRngOffset, rng_bits, mul);
        std::vector<i64> &ones_memo = scratch.onesMemo(
            2, rng_bits, mul, std::size_t(maxAbs(input) + bias) + 1);
        auto ones_of = [&](i32 value) -> u32 {
            i64 &slot = ones_memo[std::size_t(value + bias)];
            if (slot < 0) {
                BipolarRateBsg gen(value, kInputRngDim, kern.bits);
                slot = i64(onesInWindow(gen, mul));
            }
            return u32(slot);
        };

        if (!fa && !fs && !fo) {
            // --- Cache-blocked panel fast path (DESIGN.md §13) ------
            // Bipolar MAC as two table lookups per column:
            //   contrib = t1(woff)[ones] + (zeros - t0(woff)[zeros])
            //           - bias
            // No zero-skip here: the bias makes even zero-valued
            // operands contribute nonzero bipolar counts.
            USYS_PROF_SCOPE("fold.packed.panel");
            const std::size_t budget = std::max<std::size_t>(
                std::size_t(panelBudgetKb()) * 1024,
                2 * (std::size_t(mul) + 1) * sizeof(u32));

            std::vector<u32> &in_ones = scratch.in_ones;
            in_ones.resize(std::size_t(m_rows) * rows);
            poisonArena(in_ones);
            {
                USYS_PROF_SCOPE("fold.packed.stage");
                for (int m = 0; m < m_rows; ++m)
                    for (int r = 0; r < rows; ++r)
                        in_ones[std::size_t(m) * rows + r] =
                            ones_of(input(m, r));
            }

            CountTableArena &arena = scratch.tables;
            for (int c0 = 0; c0 < cols;) {
                std::vector<const u32 *> &ctbl1 = scratch.stage_a;
                std::vector<const u32 *> &ctbl0 = scratch.stage_b;
                ctbl1.clear();
                ctbl0.clear();
                arena.beginPanel();
                int c1 = c0;
                {
                    USYS_PROF_SCOPE("fold.packed.stage");
                    while (c1 < cols &&
                           (c1 == c0 || arena.pinnedBytes() < budget)) {
                        for (int r = 0; r < rows; ++r) {
                            const u32 woff =
                                u32((*wp)(r, c1) + bias);
                            ctbl1.push_back(arena.get(
                                {kWeightRngDim, rng_bits, mul, woff},
                                s1vals, budget));
                            ctbl0.push_back(arena.get(
                                {kWeightRngDim + kWeightAltRngOffset,
                                 rng_bits, mul, woff},
                                s0vals, budget));
                        }
                        ++c1;
                    }
                }
                const int pcols = c1 - c0;
                std::vector<const u32 *> &wtbl1 = scratch.grid_a;
                std::vector<const u32 *> &wtbl0 = scratch.grid_b;
                wtbl1.resize(std::size_t(rows) * pcols);
                wtbl0.resize(std::size_t(rows) * pcols);
                poisonArena(wtbl1);
                poisonArena(wtbl0);
                for (int cl = 0; cl < pcols; ++cl)
                    for (int r = 0; r < rows; ++r) {
                        wtbl1[std::size_t(r) * pcols + cl] =
                            ctbl1[std::size_t(cl) * rows + r];
                        wtbl0[std::size_t(r) * pcols + cl] =
                            ctbl0[std::size_t(cl) * rows + r];
                    }

                USYS_PROF_SCOPE("fold.packed.mac");
                for (int m = 0; m < m_rows; ++m) {
                    i64 *out_row = &out(m, c0);
                    for (int r = 0; r < rows; ++r) {
                        const u32 ones =
                            in_ones[std::size_t(m) * rows + r];
                        const u32 zeros = mul - ones;
                        const i64 zb = i64(zeros) - bias;
                        const u32 *const *t1row =
                            &wtbl1[std::size_t(r) * pcols];
                        const u32 *const *t0row =
                            &wtbl0[std::size_t(r) * pcols];
                        for (int cl = 0; cl < pcols; ++cl)
                            out_row[cl] += i64(t1row[cl][ones]) -
                                           i64(t0row[cl][zeros]) + zb;
                    }
                }
                c0 = c1;
            }
            break;
        }

        StreamCache s1(s1vals, max_woff, scratch.stream_pool);
        StreamCache s0(s0vals, max_woff, scratch.stream_pool);
        for (int m = 0; m < m_rows; ++m) {
            for (int r = 0; r < rows; ++r) {
                // ActivationStream site: corrupt the packed bipolar
                // stream before counting (memo bypassed); the corrupted
                // split between 1-cycles and 0-cycles drives both
                // polarity lanes exactly as the scalar front end's
                // corrupted consumption counters do.
                u32 ones;
                std::optional<Fault> af;
                if (fa)
                    af = plan->activationStream(tile, m, r, mul);
                if (af) {
                    BipolarRateBsg gen(input(m, r), kInputRngDim,
                                       kern.bits);
                    ones = u32(onesInWindow(gen, mul, &*af));
                } else {
                    ones = ones_of(input(m, r));
                }
                const u32 zeros = mul - ones;
                for (int c = 0; c < cols; ++c) {
                    const u32 woff = u32((*wp)(r, c) + bias);
                    i64 count =
                        i64(s1.forThreshold(woff).prefixOnes(ones)) +
                        (i64(zeros) - s0.forThreshold(woff).prefixOnes(zeros));
                    // WeightStream site: the polarity-1 lane is the same
                    // C-BSG structure the unipolar schemes fault, so
                    // corrupt its covered comparison bits only.
                    if (fs)
                        if (const auto f = plan->weightStream(tile, m, r,
                                                              c, mul)) {
                            const u64 hi =
                                std::min<u64>(u64(f->first) + f->len,
                                              ones);
                            for (u64 k = f->first; k < hi; ++k) {
                                const bool b =
                                    s1vals[std::size_t(k)] < woff;
                                count += i64(f->corruptBit(b, u32(k))) -
                                         i64(b);
                            }
                        }
                    // finishMac's bipolar count -> signed product offset.
                    i64 contrib = count - bias;
                    if (fo)
                        if (const auto f = plan->accumulator(tile, m, r, c,
                                                             acc_width))
                            contrib = f->applyToInt(contrib, acc_width);
                    out(m, c) += contrib;
                }
            }
        }
        break;
      }
    }

    if (shift) {
        for (int m = 0; m < m_rows; ++m)
            for (int c = 0; c < cols; ++c)
                out(m, c) *= i64(1) << shift;
    }

    if (!stats)
        local.flush(kern);
    return SystolicArray::FoldResult{std::move(out), cycles};
}

} // namespace usys
