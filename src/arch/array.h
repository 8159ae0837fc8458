/**
 * @file
 * Cycle-level weight-stationary systolic array simulator (Figure 7).
 *
 * The simulator is bit- and cycle-faithful to the uSystolic RTL semantics:
 * weights preload from the top (R cycles), inputs enter at the leftmost
 * column with a one-MAC-interval skew per row (bottom row first, so
 * partial sums can travel upward), lane signals (input bit / sign / RREG
 * random number) propagate rightward with a one-cycle lag per column, and
 * each PE's OREG merges the partial sum from below at M-end. The top-row
 * shifters scale early-terminated results back by 2^(N-n).
 *
 * Columns exchange no data except the left-to-right registered lane, so
 * the simulation evaluates rows/columns in a deterministic order that is
 * provably equivalent to the concurrent hardware schedule; cycle counts
 * are accumulated from the same schedule.
 */

#ifndef USYS_ARCH_ARRAY_H
#define USYS_ARCH_ARRAY_H

#include <vector>

#include "common/matrix.h"
#include "common/types.h"
#include "arch/scheme.h"
#include "arch/sparsity.h"
#include "fault/fault.h"

namespace usys {

/** Physical array shape plus the PE kernel configuration. */
struct ArrayConfig
{
    int rows = 8;
    int cols = 8;
    KernelConfig kernel;

    /**
     * Deterministic fault-injection plan (default: disabled). Every
     * engine driven by this config — scalar, RTL referee, packed —
     * resolves the same plan to the same fault events, so they remain
     * bit-exact against each other with injection enabled.
     */
    FaultPlan faults;

    void
    check() const
    {
        kernel.check();
        faults.check();
        fatalIf(rows < 1 || cols < 1, "ArrayConfig: degenerate shape");
    }
};

/**
 * Locally accumulated stats-registry deltas of runFold() calls.
 *
 * The global StatsRegistry is not safe for concurrent updates, so
 * parallel tile workers pass one of these per shard to runFold() and
 * the caller flush()es the shards serially in a fixed (index) order —
 * keeping text/JSON dumps byte-identical to a serial run.
 */
struct FoldStatsDelta
{
    u64 folds = 0;
    u64 mac_slots = 0;
    u64 fold_cycles = 0;
    u64 bitstream_cycles = 0;
    std::vector<double> m_rows_samples; // arch.fold_m_rows histogram adds

    // Fault events injected, per site (all zero on fault-free runs;
    // flush() emits the arch.<kern>.faults_* counters only when any
    // fired, so fault-free stats dumps are unchanged).
    u64 faults_weight_reg = 0;
    u64 faults_activation = 0;
    u64 faults_weight_stream = 0;
    u64 faults_accumulator = 0;
    u64 faults_dram = 0;

    // Value-sparsity census of the operand tiles (pure data properties,
    // booked by every engine whether or not it skips the zeros; flush()
    // emits arch.<kern>.sparsity_* only when any zero operand was seen,
    // so fully-dense stats dumps are unchanged).
    u64 sparsity_zero_acts = 0;
    u64 sparsity_zero_weights = 0;
    u64 sparsity_skippable_macs = 0;

    /** Record `count` identical folds' contributions (one by default). */
    void add(int m_rows, int rows, int cols, Cycles cycles, u32 trace_len,
             u64 count = 1);

    /** Record one fold's analytic fault census. */
    void addFaults(const FoldFaultCounts &counts);

    /** Record one fold's operand-sparsity census. */
    void addSparsity(const SparsityCensus &census);

    /** Total fault events across all sites. */
    u64
    faultTotal() const
    {
        return faults_weight_reg + faults_activation +
               faults_weight_stream + faults_accumulator + faults_dram;
    }

    /** Fold another shard's deltas into this one (append in call
     *  order, so merging shards by index keeps histogram adds in the
     *  same sequence a serial run would produce). */
    void merge(const FoldStatsDelta &other);

    /** Commit to the global registry under arch.<kernel-name>.*. */
    void flush(const KernelConfig &kern) const;
};

/** One weight-stationary fold on an R x C array. */
class SystolicArray
{
  public:
    explicit SystolicArray(const ArrayConfig &cfg);

    struct FoldResult
    {
        Matrix<i64> output; // M x C accumulations (scheme-scaled)
        Cycles cycles = 0;  // exact fold latency including preload
    };

    /**
     * Run one fold: output (M x C) = input (M x R) x weights (R x C).
     *
     * @param input M x R matrix of signed codes streamed from the left
     * @param weights R x C stationary weight tile
     * @param stats if non-null, accumulate registry deltas here instead
     *        of committing to the global registry (for parallel shards;
     *        the caller must flush() in deterministic order)
     * @param tile fold index for fault-site resolution (SystolicGemm
     *        numbers folds ti * k_tiles + kt; standalone folds use 0)
     */
    FoldResult runFold(const Matrix<i32> &input,
                       const Matrix<i32> &weights,
                       FoldStatsDelta *stats = nullptr,
                       u64 tile = 0) const;

    /**
     * Closed-form fold latency; runFold() is asserted against this.
     * R preload + (M + R - 1) MAC intervals + (C - 1) column-skew drain.
     */
    Cycles
    foldLatency(int m_rows) const
    {
        const u64 mac = cfg_.kernel.macCycles();
        return u64(cfg_.rows) +
               (u64(m_rows) + cfg_.rows - 1) * mac +
               u64(cfg_.cols - 1);
    }

    const ArrayConfig &config() const { return cfg_; }

  private:
    ArrayConfig cfg_;
};

/** Full GEMM on the array with weight-stationary K/N tiling. */
class SystolicGemm
{
  public:
    explicit SystolicGemm(const ArrayConfig &cfg);

    struct RunResult
    {
        Matrix<i64> acc;     // M x N accumulations (scheme-scaled)
        Cycles cycles = 0;   // sum of fold latencies (unpipelined)
        u64 folds = 0;
    };

    /**
     * Compute C = A (M x K) x B (K x N), tiling K over array rows and N
     * over array columns, accumulating partial sums across K folds.
     *
     * The packed engine runs a GEMM when it is enabled (see
     * packedEngineEnabled()) and the kernel has small product tables
     * (hasSmallProductTables()); a GEMM whose fault plan also arms no
     * per-fold site (dram_word alone is allowed) runs in closed form:
     * one GemmExecutor call computes the accumulations, and cycles,
     * folds, the per-fold stats and the sparsity census (padding zeros
     * included) are booked analytically. Every other packed GEMM runs
     * its folds on PackedArray. The scalar path (--no-packed, or a
     * kernel with wide tables such as 16-bit UR/UG) simulates every fold
     * on SystolicArray. Either engine runs the column-tile shards — which
     * own disjoint output columns — under parallelFor and reduces them in
     * tile order, so results, cycle counts, and stats dumps are identical
     * across engines and thread counts.
     * Empty GEMMs (M, K or N = 0) return an M x N zero result.
     *
     * @param stats if non-null, merge this GEMM's registry deltas there
     *        (in tile order) instead of flushing them to the global
     *        registry — the flush-free form callers running many GEMMs
     *        in an outer parallel region need, since the registry is
     *        not safe for concurrent updates. The caller must flush()
     *        the merged delta serially.
     */
    RunResult run(const Matrix<i32> &a, const Matrix<i32> &b,
                  FoldStatsDelta *stats = nullptr) const;

  private:
    /** Fold-by-fold GEMM over operands already DRAM-faulted, on
     *  PackedArray when `packed`, else on SystolicArray, column-tile
     *  shards in parallel: adds into result.acc (pre-sized M x N) and
     *  result.cycles, merges the fold deltas into `total` in tile
     *  order. */
    void runFolds(const Matrix<i32> &a, const Matrix<i32> &b, bool packed,
                  RunResult &result, FoldStatsDelta &total) const;

    ArrayConfig cfg_;
};

} // namespace usys

#endif // USYS_ARCH_ARRAY_H
