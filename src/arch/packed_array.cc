#include "arch/packed_array.h"

#include <algorithm>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
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
 * Per-worker arena of prefix-count tables, the packed engine's only
 * form of a staged weight bitstream: tbl[o] = ones among the first o
 * bits of the comparison stream b_k = (rng.at(k) < threshold) — the
 * count a C-W comparator + AND + counter reaches after o input 1-bits,
 * since the C-BSG advances only on input 1s. Tables persist
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

/** Input bitstream family of a unary scheme (the ones-memo kind). */
enum class InputStream
{
    Rate,     // uSystolic rate: RateBsg over |a|
    Temporal, // uSystolic temporal: TemporalBsg over |a|
    Bipolar,  // uGEMM-H: BipolarRateBsg over the signed code
};

/** Key for one persistent input-ones memo (stream kind x RNG shape). */
struct OnesMemoKey
{
    InputStream kind;
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
 * count-table arena keeps staged weight panels warm, and the ones-memos
 * keep every input code's delivered-ones count (a pure function of
 * (stream kind, bits, mul, code), so reuse across folds is bit-exact).
 * Entirely thread-local — parallel tile shards never share scratch.
 */
struct FoldScratch
{
    std::map<OnesMemoKey, std::vector<i64>> ones_memos;
    CountTableArena tables;
    SparsityPlan plan; // plan of a fold given none, or faulted operands

    // Panel staging buffers (capacity reused across folds).
    std::vector<u32> in_ones;          // per (m, r) delivered ones
    std::vector<i64> in_neg;           // per (m, r) sign, 0 or -1
    std::vector<const u32 *> stage[2]; // column-major staging per lane
    std::vector<i64> stage_neg;
    std::vector<const u32 *> grid[2];  // row-major panel grids per lane
    std::vector<i64> grid_neg;

    /** Persistent memo for one (kind, bits, mul), grown to `size`. */
    std::vector<i64> &
    onesMemo(InputStream kind, int bits, u32 mul, std::size_t size)
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

/**
 * 1-bits the input stream of `code` delivers within the first `mul`
 * cycles, corrupted by `fault` (if any) before counting. This count is
 * all the weight side of a unary MAC ever sees: the C-BSG advances on
 * observed input 1-bits, exactly like the scalar engine's consumption
 * counters.
 */
u32
deliveredOnes(InputStream kind, i32 code, int rng_bits, u32 mul,
              const Fault *fault)
{
    const u32 iabs = toSignMag(code).magnitude;
    switch (kind) {
      case InputStream::Rate: {
        RateBsg gen(iabs, kInputRngDim, rng_bits);
        return u32(onesInWindow(gen, mul, fault));
      }
      case InputStream::Temporal: {
        TemporalBsg gen(iabs, rng_bits);
        return u32(onesInWindow(gen, mul, fault));
      }
      case InputStream::Bipolar: {
        BipolarRateBsg gen(code, kInputRngDim, rng_bits);
        return u32(onesInWindow(gen, mul, fault));
      }
    }
    return 0;
}

/** One count-table lane of a weight panel: a shared weight RNG. */
struct TableLane
{
    int dim;                        // Sobol dimension (arena key)
    const std::vector<u32> *values; // its first `mul` outputs
};

/**
 * Stage the weight column panel that starts at c0 into the scratch
 * grids: grid[l][r * pcols + cl] is lane l's count table for
 * w(r, c0 + cl) and grid_neg[r * pcols + cl] its sign (0 or -1).
 * Sign-magnitude lanes (bias 0, uSystolic) threshold at |w|; the
 * offset-binary lanes of uGEMM-H threshold at w + bias. The panel grows
 * column by column until its pinned tables reach `budget` (always >= 1
 * column), so its tables stay cache-resident through the MAC loop.
 * Returns the panel end c1.
 */
int
stageWeightPanel(FoldScratch &s, const Matrix<i32> &w, int c0, int bits,
                 u32 mul, i64 bias, const TableLane *lanes, int nlanes,
                 std::size_t budget)
{
    USYS_PROF_SCOPE("fold.packed.stage");
    const int rows = w.rows();
    CountTableArena &arena = s.tables;
    arena.beginPanel();
    for (int l = 0; l < nlanes; ++l)
        s.stage[l].clear();
    s.stage_neg.clear();
    int c1 = c0;
    while (c1 < w.cols() && (c1 == c0 || arena.pinnedBytes() < budget)) {
        for (int r = 0; r < rows; ++r) {
            const SignMag sm = toSignMag(w(r, c1));
            const u32 threshold =
                bias ? u32(w(r, c1) + bias) : sm.magnitude;
            for (int l = 0; l < nlanes; ++l)
                s.stage[l].push_back(
                    arena.get({lanes[l].dim, bits, mul, threshold},
                              *lanes[l].values, budget));
            s.stage_neg.push_back(sm.negative ? i64(-1) : i64(0));
        }
        ++c1;
    }

    // Transpose the staging to row-major grids so the MAC inner loops
    // walk contiguous pointers per array row.
    const int pcols = c1 - c0;
    const std::size_t n = std::size_t(rows) * pcols;
    for (int l = 0; l < nlanes; ++l) {
        s.grid[l].resize(n);
        poisonArena(s.grid[l]);
    }
    s.grid_neg.resize(n);
    poisonArena(s.grid_neg);
    for (int cl = 0; cl < pcols; ++cl)
        for (int r = 0; r < rows; ++r) {
            const std::size_t src = std::size_t(cl) * rows + r;
            const std::size_t dst = std::size_t(r) * pcols + cl;
            for (int l = 0; l < nlanes; ++l)
                s.grid[l][dst] = s.stage[l][src];
            s.grid_neg[dst] = s.stage_neg[src];
        }
    return c1;
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
      case Scheme::USystolicTemporal:
      case Scheme::UgemmHybrid: {
        // Every unary MAC is a prefix count over one shared weight RNG
        // sequence (DESIGN.md §8): a PE whose input delivers `ones`
        // 1-bits counts tbl(|w|)[ones] product 1s, and uGEMM-H adds its
        // polarity-0 lane over the `mul - ones` input 0-cycles. So the
        // fold stages the input side once, stages the weight tables one
        // column panel at a time, and runs one MAC loop per panel.
        USYS_PROF_SCOPE("fold.packed.panel");
        const bool bipolar = kern.scheme == Scheme::UgemmHybrid;
        const InputStream kind =
            bipolar ? InputStream::Bipolar
                    : kern.scheme == Scheme::USystolicRate
                          ? InputStream::Rate
                          : InputStream::Temporal;
        const int rng_bits = bipolar ? kern.bits : kern.bits - 1;
        const i64 bias = bipolar ? i64(1) << (kern.bits - 1) : 0;
        // Weight-register and DRAM faults already corrupted the codes
        // above; the other three sites hook individual MACs.
        const bool hooks = fa || fs || fo;
        FoldScratch &scratch = foldScratch();

        // --- 1. Input side: delivered ones and sign per (m, r) -------
        // Fault-free delivered ones depend only on the code (a pure
        // function of the RNG shape), so the memo persists across folds
        // in the worker arena.
        std::vector<i64> &ones_memo =
            scratch.onesMemo(kind, rng_bits, mul,
                             std::size_t(maxAbs(input) + bias) + 1);
        std::vector<u32> &in_ones = scratch.in_ones;
        std::vector<i64> &in_neg = scratch.in_neg;
        in_ones.resize(std::size_t(m_rows) * rows);
        in_neg.resize(std::size_t(m_rows) * rows);
        poisonArena(in_ones);
        poisonArena(in_neg);
        auto stage_in = [&](int m, int r) {
            const i32 code = input(m, r);
            const SignMag in = toSignMag(code);
            const std::size_t i = std::size_t(m) * rows + r;
            in_neg[i] = in.negative ? -1 : 0;
            // ActivationStream site: a faulted stream stages its
            // corrupted ones-count (memo bypassed).
            std::optional<Fault> af;
            if (fa)
                af = plan->activationStream(tile, m, r, mul);
            if (af) {
                in_ones[i] = deliveredOnes(kind, code, rng_bits, mul, &*af);
            } else if (!bipolar && in.magnitude == 0) {
                // Zero-magnitude streams are all-zero by construction
                // (the comparator threshold is 0), so never materialize
                // their RNG words — the stream-generation level of zero
                // skipping.
                in_ones[i] = 0;
            } else {
                i64 &slot = ones_memo[bipolar ? std::size_t(code + bias)
                                              : in.magnitude];
                if (slot < 0)
                    slot = deliveredOnes(kind, code, rng_bits, mul,
                                         nullptr);
                in_ones[i] = u32(slot);
            }
        };
        // The fault-free uSystolic loop walks the nonzero-index plan of
        // `input`, so only the plan's operands are staged (their
        // unstaged slots are never read). The per-MAC loop cannot use
        // that plan — an activation-stream fault can give a zero code
        // nonzero ones — and uGEMM-H never skips: its bias makes even
        // zero operands contribute.
        const SparsityPlan *sp =
            (bipolar || hooks) ? nullptr : &plan_of(input);
        {
            USYS_PROF_SCOPE("fold.packed.stage");
            for (int m = 0; m < m_rows; ++m) {
                if (sp) {
                    const u32 *idx = sp->rowIdx(m);
                    const u32 cnt = sp->rowCount(m);
                    for (u32 i = 0; i < cnt; ++i)
                        stage_in(m, int(idx[i]));
                } else {
                    for (int r = 0; r < rows; ++r)
                        stage_in(m, r);
                }
            }
        }

        // --- 2. Weight side: one column panel of tables at a time ----
        // Bipolar uMUL: input 1-cycles consume the polarity-1 weight RNG
        // (product bit = rnum < woffset), input 0-cycles the polarity-0
        // RNG (product bit = !(rnum_alt < woffset)).
        const int nlanes = bipolar ? 2 : 1;
        const TableLane lanes[2] = {
            {kWeightRngDim,
             &sharedSobolValues(kWeightRngDim, rng_bits, mul)},
            {kWeightRngDim + kWeightAltRngOffset,
             bipolar ? &sharedSobolValues(
                           kWeightRngDim + kWeightAltRngOffset, rng_bits,
                           mul)
                     : nullptr}};
        const std::vector<u32> &wvals = *lanes[0].values;
        const std::size_t budget = std::max<std::size_t>(
            std::size_t(panelBudgetKb()) * 1024,
            std::size_t(nlanes) * (std::size_t(mul) + 1) * sizeof(u32));

        for (int c0 = 0, c1; c0 < cols; c0 = c1) {
            c1 = stageWeightPanel(scratch, *wp, c0, rng_bits, mul, bias,
                                  lanes, nlanes, budget);
            const int pcols = c1 - c0;
            // Lane 0 is the polarity-1 (C-BSG) lane of every scheme,
            // lane 1 the polarity-0 lane of uGEMM-H.
            const u32 *const *grid1 = scratch.grid[0].data();
            const u32 *const *grid0 = scratch.grid[1].data();
            const i64 *gneg = scratch.grid_neg.data();

            // --- 3. One MAC loop over the panel ----------------------
            USYS_PROF_SCOPE("fold.packed.mac");
            if (hooks) {
                // Per-MAC loop: the fault-free count plus the weight-
                // stream and accumulator hooks at their scalar points.
                for (int m = 0; m < m_rows; ++m) {
                    for (int r = 0; r < rows; ++r) {
                        const std::size_t i = std::size_t(m) * rows + r;
                        const u32 ones = in_ones[i];
                        // Zero delivered ones: every count is 0 and
                        // weight-stream faults only cover indices below
                        // the ones-count, so the row contributes exactly
                        // nothing — unless an accumulator fault could
                        // still fire on it.
                        if (!bipolar && !fo && ones == 0)
                            continue;
                        const u32 zeros = mul - ones;
                        const i64 nin = in_neg[i];
                        const std::size_t g = std::size_t(r) * pcols;
                        for (int cl = 0; cl < pcols; ++cl) {
                            const int c = c0 + cl;
                            i64 count = i64(grid1[g + cl][ones]);
                            if (bipolar)
                                count += i64(zeros) -
                                         i64(grid0[g + cl][zeros]);
                            // WeightStream site: re-derive the covered
                            // comparison bits b_k = (wrng.at(k) < thr)
                            // of the C-BSG (polarity-1) lane and swap
                            // each for its corrupted value — only
                            // indices below the delivered ones-count
                            // ever reach a comparator.
                            if (fs)
                                if (const auto f = plan->weightStream(
                                        tile, m, r, c, mul)) {
                                    const i32 wv = (*wp)(r, c);
                                    const u32 thr =
                                        bipolar ? u32(wv + bias)
                                                : toSignMag(wv).magnitude;
                                    const u64 hi = std::min<u64>(
                                        u64(f->first) + f->len, ones);
                                    for (u64 k = f->first; k < hi; ++k) {
                                        const bool b =
                                            wvals[std::size_t(k)] < thr;
                                        count +=
                                            i64(f->corruptBit(b, u32(k))) -
                                            i64(b);
                                    }
                                }
                            // Sign-magnitude product, or finishMac's
                            // bipolar count -> signed product offset.
                            const i64 ng = gneg[g + cl] ^ nin; // 0 or -1
                            i64 contrib =
                                bipolar ? count - bias : (count ^ ng) - ng;
                            // Accumulator site: per-MAC signed OREG
                            // contribution, pre-merge, pre-shift — same
                            // point as PeCore::finishMac.
                            if (fo)
                                if (const auto f = plan->accumulator(
                                        tile, m, r, c, acc_width))
                                    contrib =
                                        f->applyToInt(contrib, acc_width);
                            out(m, c) += contrib;
                        }
                    }
                }
            } else if (bipolar) {
                // Bipolar MAC as two table lookups per column:
                //   contrib = t1(woff)[ones] + (zeros - t0(woff)[zeros])
                //           - bias
                for (int m = 0; m < m_rows; ++m) {
                    i64 *out_row = &out(m, c0);
                    for (int r = 0; r < rows; ++r) {
                        const u32 ones =
                            in_ones[std::size_t(m) * rows + r];
                        const u32 zeros = mul - ones;
                        const i64 zb = i64(zeros) - bias;
                        const u32 *const *t1row =
                            &grid1[std::size_t(r) * pcols];
                        const u32 *const *t0row =
                            &grid0[std::size_t(r) * pcols];
                        for (int cl = 0; cl < pcols; ++cl)
                            out_row[cl] += i64(t1row[cl][ones]) -
                                           i64(t0row[cl][zeros]) + zb;
                    }
                }
            } else {
                // count = tbl(|w|)[ones], the sign applied branchless so
                // the inner loop has no data-dependent branches.
                for (int m = 0; m < m_rows; ++m) {
                    i64 *out_row = &out(m, c0);
                    const u32 *idx = sp->rowIdx(m);
                    const u32 cnt = sp->rowCount(m);
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
                            &grid1[std::size_t(r) * pcols];
                        const i64 *nrow = &gneg[std::size_t(r) * pcols];
                        for (int cl = 0; cl < pcols; ++cl) {
                            const i64 v = i64(trow[cl][ones]);
                            const i64 ng = nrow[cl] ^ nin; // 0 or -1
                            out_row[cl] += (v ^ ng) - ng;
                        }
                    }
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
