#include "arch/array.h"

#include <algorithm>
#include <optional>
#include <vector>

#include "common/cli.h"
#include "common/executor.h"
#include "common/profiler.h"
#include "common/stats_registry.h"
#include "arch/functional.h"
#include "arch/packed_array.h"
#include "arch/pe.h"
#include "mem/dram_faults.h"

namespace usys {

void
FoldStatsDelta::add(int m_rows, int rows, int cols, Cycles cycles,
                    u32 trace_len, u64 count)
{
    folds += count;
    mac_slots += count * u64(m_rows) * rows * cols;
    fold_cycles += count * cycles;
    bitstream_cycles += count * u64(trace_len) * u64(m_rows) * rows;
    m_rows_samples.insert(m_rows_samples.end(), count, double(m_rows));
}

void
FoldStatsDelta::addFaults(const FoldFaultCounts &counts)
{
    faults_weight_reg += counts.weight_reg;
    faults_activation += counts.activation;
    faults_weight_stream += counts.weight_stream;
    faults_accumulator += counts.accumulator;
}

void
FoldStatsDelta::addSparsity(const SparsityCensus &census)
{
    sparsity_zero_acts += census.zero_acts;
    sparsity_zero_weights += census.zero_weights;
    sparsity_skippable_macs += census.skippable_macs;
}

void
FoldStatsDelta::merge(const FoldStatsDelta &other)
{
    folds += other.folds;
    mac_slots += other.mac_slots;
    fold_cycles += other.fold_cycles;
    bitstream_cycles += other.bitstream_cycles;
    m_rows_samples.insert(m_rows_samples.end(),
                          other.m_rows_samples.begin(),
                          other.m_rows_samples.end());
    faults_weight_reg += other.faults_weight_reg;
    faults_activation += other.faults_activation;
    faults_weight_stream += other.faults_weight_stream;
    faults_accumulator += other.faults_accumulator;
    faults_dram += other.faults_dram;
    sparsity_zero_acts += other.sparsity_zero_acts;
    sparsity_zero_weights += other.sparsity_zero_weights;
    sparsity_skippable_macs += other.sparsity_skippable_macs;
}

void
FoldStatsDelta::flush(const KernelConfig &kern) const
{
    StatsRegistry &reg = statsRegistry();
    const std::string slug = "arch." + sanitizeStatName(kern.name());
    reg.counter(slug + ".folds", "bit-level array folds executed") +=
        folds;
    reg.counter(slug + ".mac_slots",
                "PE MAC slots evaluated (incl. padding)") += mac_slots;
    reg.counter(slug + ".fold_cycles", "fold latencies, summed") +=
        fold_cycles;
    reg.counter(slug + ".bitstream_cycles",
                "lane bitstream cycles generated") += bitstream_cycles;
    auto &hist = reg.histogram("arch.fold_m_rows", 0.0, 4096.0, 16,
                               "input rows streamed per fold");
    for (double m : m_rows_samples)
        hist.add(m);
    if (faultTotal()) {
        reg.counter(slug + ".faults_injected",
                    "fault events injected (all sites)") += faultTotal();
        reg.counter(slug + ".faults_weight_reg",
                    "weight-register fault events") += faults_weight_reg;
        reg.counter(slug + ".faults_activation",
                    "activation-stream fault events") += faults_activation;
        reg.counter(slug + ".faults_weight_stream",
                    "weight-stream (C-BSG) fault events") +=
            faults_weight_stream;
        reg.counter(slug + ".faults_accumulator",
                    "accumulator fault events") += faults_accumulator;
        reg.counter(slug + ".faults_dram",
                    "DRAM read-word fault events") += faults_dram;
    }
    // Pure data properties of the operand tiles: identical whether the
    // sparse paths executed or not, and omitted entirely on fully-dense
    // runs so pre-existing dumps are unchanged.
    if (sparsity_zero_acts || sparsity_zero_weights) {
        reg.counter(slug + ".sparsity_zero_acts",
                    "zero-valued activation elements streamed") +=
            sparsity_zero_acts;
        reg.counter(slug + ".sparsity_zero_weights",
                    "zero-valued stationary weight elements") +=
            sparsity_zero_weights;
        reg.counter(slug + ".sparsity_skippable_macs",
                    "MAC slots elidable by zero-stream skipping") +=
            sparsity_skippable_macs;
    }
}

SystolicArray::SystolicArray(const ArrayConfig &cfg)
    : cfg_(cfg)
{
    cfg_.check();
}

SystolicArray::FoldResult
SystolicArray::runFold(const Matrix<i32> &input,
                       const Matrix<i32> &weights,
                       FoldStatsDelta *stats, u64 tile) const
{
    USYS_PROF_SCOPE("fold.scalar");
    const int rows = cfg_.rows;
    const int cols = cfg_.cols;
    fatalIf(input.cols() != rows, "runFold: input width != array rows");
    fatalIf(weights.rows() != rows || weights.cols() != cols,
            "runFold: weight tile does not match array shape");

    const int m_rows = input.rows();
    const KernelConfig &kern = cfg_.kernel;
    const u32 mul = kern.mulCycles();
    const u32 mac = kern.macCycles();

    // --- Cycle accounting -------------------------------------------------
    // Weight preload pipelines one array row per cycle from the top.
    Cycles cycles = Cycles(rows);
    // Streaming: rows are skewed by one MAC interval each (bottom row
    // first); the final top-row M-end lands at the end of interval
    // (m_rows + rows - 2). The rightmost column lags cols-1 cycles.
    const u64 intervals = u64(m_rows) + rows - 1;
    cycles += intervals * mac + u64(cols - 1);
    panicIf(cycles != foldLatency(m_rows),
            "runFold: schedule disagrees with closed form");

    // --- Lane traces ------------------------------------------------------
    // Each row's front end emits identical lane signals to every column
    // (columns only add delay), so generate the per-(row, input-row)
    // multiplication-cycle traces once.
    const u32 trace_len = (kern.scheme == Scheme::BinaryParallel) ? 1 : mul;

    // Per-scheme bit-level work counters (one delta per fold, not per
    // MAC, so the accounting stays off the inner loops). Parallel
    // callers pass their shard's delta; the serial path commits now.
    FoldStatsDelta local;
    FoldStatsDelta &delta = stats ? *stats : local;
    delta.add(m_rows, rows, cols, cycles, trace_len);
    delta.addSparsity(foldSparsityCensus(kern, input, weights));

    const FaultPlan *plan = cfg_.faults.enabled() ? &cfg_.faults : nullptr;
    if (plan)
        delta.addFaults(
            countFoldFaults(*plan, kern, tile, m_rows, rows, cols));

    // WeightReg site: corrupt the stationary weight codes before the
    // preload latches them (identical pre-corruption in every engine).
    const Matrix<i32> *wp = &weights;
    Matrix<i32> wfaulted;
    if (plan && plan->rates.weight_reg > 0.0) {
        wfaulted = weights;
        for (int r = 0; r < rows; ++r)
            for (int c = 0; c < cols; ++c)
                if (const auto f =
                        plan->weightReg(tile, r, c, u32(kern.bits)))
                    wfaulted(r, c) =
                        corruptCode(*f, wfaulted(r, c), kern.bits);
        wp = &wfaulted;
    }

    const bool unary = isUnary(kern.scheme);
    std::vector<std::vector<std::vector<LaneSignals>>> traces(rows);
    for (int r = 0; r < rows; ++r) {
        RowFrontEnd fe(kern);
        traces[r].resize(m_rows);
        for (int m = 0; m < m_rows; ++m) {
            i32 value = input(m, r);
            std::optional<Fault> af;
            if (plan)
                af = plan->activationStream(tile, m, r,
                                            activationWindow(kern));
            // BP/BS activation faults corrupt the latched code; the
            // unary schemes corrupt the BSG output stream bit-by-bit.
            if (af && !unary)
                value = corruptActivationCode(*af, value, kern);
            fe.loadInput(value);
            fe.setStreamFault(unary && af ? &*af : nullptr);
            auto &t = traces[r][m];
            t.resize(trace_len);
            for (u32 p = 0; p < trace_len; ++p)
                t[p] = fe.step(p);
            fe.endMac();
        }
    }

    // --- Numerics ---------------------------------------------------------
    // Evaluate PE cores in schedule order: for each output row m, the
    // partial sum climbs from the bottom row to the top, each level one
    // MAC interval later than the level below (exactly the skewed
    // hardware schedule).
    std::vector<std::vector<PeCore>> cores(
        rows, std::vector<PeCore>(cols, PeCore(kern)));
    for (int r = 0; r < rows; ++r) {
        for (int c = 0; c < cols; ++c) {
            cores[r][c].loadWeight((*wp)(r, c));
            if (plan)
                cores[r][c].attachFaults(plan, tile, r, c);
        }
    }

    const int shift =
        (kern.scheme == Scheme::USystolicRate && kern.et_bits > 0)
            ? kern.bits - kern.et_bits
            : 0;

    Matrix<i64> out(m_rows, cols, 0);
    for (int c = 0; c < cols; ++c) {
        for (int m = 0; m < m_rows; ++m) {
            i64 psum = 0;
            for (int r = rows - 1; r >= 0; --r) {
                PeCore &core = cores[r][c];
                const auto &t = traces[r][m];
                for (u32 p = 0; p < trace_len; ++p)
                    core.stepMul(t[p], p);
                psum = core.finishMac(psum, t.empty() ? false
                                                      : t[0].isign);
            }
            // Top-row shifter restores early-terminated magnitude.
            out(m, c) = psum * (i64(1) << shift);
        }
    }

    if (!stats)
        local.flush(kern);
    return FoldResult{std::move(out), cycles};
}

SystolicGemm::SystolicGemm(const ArrayConfig &cfg)
    : cfg_(cfg)
{
    cfg_.check();
}

SystolicGemm::RunResult
SystolicGemm::run(const Matrix<i32> &a, const Matrix<i32> &b,
                  FoldStatsDelta *stats) const
{
    USYS_PROF_SCOPE("gemm.run");
    fatalIf(a.cols() != b.rows(), "SystolicGemm: shape mismatch");
    const int m_rows = a.rows();
    const int k_dim = a.cols();
    const int n_dim = b.cols();
    const int rows = cfg_.rows;
    const int cols = cfg_.cols;

    // A kernel without small product tables has no packed engine: its
    // GEMMs run on SystolicArray, the referee, like --no-packed ones.
    const bool packed =
        packedEngineEnabled() && hasSmallProductTables(cfg_.kernel);
    const SystolicArray scalar_array(cfg_);

    const u64 n_tiles = u64((n_dim + cols - 1) / cols);
    const u64 k_tiles = u64((k_dim + rows - 1) / rows);

    RunResult result;
    result.folds = n_tiles * k_tiles;

    // DramWord site: operand codes corrupt once per GEMM, as they leave
    // memory — before tiling, so every fold (and either engine)
    // consumes identical corrupted reads.
    const FaultPlan &fp = cfg_.faults;
    const Matrix<i32> *pa = &a, *pb = &b;
    Matrix<i32> a_faulted, b_faulted;
    FoldStatsDelta total;
    if (fp.enabled() && fp.rates.dram_word > 0.0) {
        USYS_PROF_SCOPE("gemm.dram_faults");
        a_faulted = a;
        b_faulted = b;
        total.faults_dram += applyDramFaults(fp, a_faulted, kDramOperandA,
                                             cfg_.kernel.bits);
        total.faults_dram += applyDramFaults(fp, b_faulted, kDramOperandB,
                                             cfg_.kernel.bits);
        pa = &a_faulted;
        pb = &b_faulted;
    }

    if (packed && !fp.rates.perFold()) {
        // Closed form: with no per-fold fault site, a fold's outputs are
        // the table-row kernel's over its tile, and everything else it
        // books depends only on shapes and operand zeros. Zero padding
        // adds exactly zero in every scheme, so one kernel call over the
        // whole GEMM is the sum of the folds, and the folds, all alike,
        // are booked in one step.
        OperandZeros zeros;
        {
            USYS_PROF_SCOPE("gemm.table");
            result.acc = GemmExecutor(cfg_.kernel).run(*pa, *pb, &zeros);
        }
        const KernelConfig &kern = cfg_.kernel;
        const Cycles latency = scalar_array.foldLatency(m_rows);
        const u32 trace_len =
            kern.scheme == Scheme::BinaryParallel ? 1 : kern.mulCycles();
        total.add(m_rows, rows, cols, latency, trace_len, result.folds);
        result.cycles = result.folds * latency;

        // The census counts the staged tiles, padding included: each
        // K-padding row of an A-tile streams M zero activations per
        // column tile, and every padded weight slot holds a zero. The
        // operands' own zeros come from the kernel call above: a
        // single-row call counts B's in its one pass over B (the row
        // tiles' first pass or the fused gather-sums), and every other
        // count is a countZeros pass.
        const u64 pad_k = k_tiles * u64(rows) - u64(k_dim);
        const u64 weight_slots = k_tiles * u64(rows) * n_tiles * u64(cols);
        SparsityCensus census;
        census.zero_acts = n_tiles * (zeros.a + u64(m_rows) * pad_k);
        census.zero_weights =
            zeros.b + weight_slots - u64(k_dim) * u64(n_dim);
        if (kern.scheme != Scheme::UgemmHybrid)
            census.skippable_macs = census.zero_acts * u64(cols);
        total.addSparsity(census);
    } else {
        result.acc = Matrix<i64>(m_rows, n_dim, 0);
        runFolds(*pa, *pb, packed, result, total);
    }

    if (stats)
        stats->merge(total);
    else
        total.flush(cfg_.kernel);
    return result;
}

void
SystolicGemm::runFolds(const Matrix<i32> &a, const Matrix<i32> &b,
                       bool packed, RunResult &result,
                       FoldStatsDelta &total) const
{
    const int m_rows = a.rows();
    const int k_dim = a.cols();
    const int n_dim = b.cols();
    const int rows = cfg_.rows;
    const int cols = cfg_.cols;
    const u64 n_tiles = u64((n_dim + cols - 1) / cols);
    const u64 k_tiles = u64((k_dim + rows - 1) / rows);

    const SystolicArray scalar_array(cfg_);
    std::optional<PackedArray> packed_array;
    if (packed)
        packed_array.emplace(cfg_);

    // Stage every K-tile of A once, up front, shared read-only across
    // the column-tile shards, instead of every shard re-staging the same
    // input slice per fold.
    std::vector<Matrix<i32>> a_tiles;
    {
        USYS_PROF_SCOPE("gemm.stage_a");
        a_tiles.reserve(k_tiles);
        for (u64 kt = 0; kt < k_tiles; ++kt) {
            const int k0 = int(kt) * rows;
            Matrix<i32> t(m_rows, rows, 0);
            for (int m = 0; m < m_rows; ++m)
                for (int r = 0; r < rows && k0 + r < k_dim; ++r)
                    t(m, r) = a(m, k0 + r);
            a_tiles.push_back(std::move(t));
        }
    }

    // Each column-tile shard owns a disjoint slice of the output matrix,
    // so the shards run concurrently under either engine; per-shard
    // cycle counts and stats deltas are reduced serially in tile order
    // below, keeping totals and dumps identical to a serial loop.
    std::vector<FoldStatsDelta> deltas(n_tiles);
    std::vector<Cycles> tile_cycles(n_tiles, 0);
    auto run_tile = [&](u64 ti) {
        USYS_PROF_SCOPE("gemm.tile");
        const int n0 = int(ti) * cols;
        // The weight staging tile is hoisted out of the K loop and
        // re-zeroed in place, so a shard allocates once per GEMM instead
        // of once per fold. Zero padding models idle PEs on ragged edges.
        Matrix<i32> w_tile(rows, cols, 0);
        for (int k0 = 0; k0 < k_dim; k0 += rows) {
            const u64 kt = u64(k0 / rows);
            const Matrix<i32> &in = a_tiles[kt];
            std::fill(w_tile.data().begin(), w_tile.data().end(), 0);
            for (int r = 0; r < rows && k0 + r < k_dim; ++r)
                for (int c = 0; c < cols && n0 + c < n_dim; ++c)
                    w_tile(r, c) = b(k0 + r, n0 + c);

            // Global fold index: the coordinate every per-fold fault
            // site hashes, identical under any tile schedule.
            const u64 tile = ti * k_tiles + kt;
            const auto fold =
                packed ? packed_array->runFold(in, w_tile,
                                               &deltas[ti], tile)
                       : scalar_array.runFold(in, w_tile,
                                              &deltas[ti], tile);
            tile_cycles[ti] += fold.cycles;
            for (int m = 0; m < m_rows; ++m)
                for (int c = 0; c < cols && n0 + c < n_dim; ++c)
                    result.acc(m, n0 + c) += fold.output(m, c);
        }
    };
    parallelFor(0, n_tiles, run_tile);

    for (u64 ti = 0; ti < n_tiles; ++ti) {
        result.cycles += tile_cycles[ti];
        total.merge(deltas[ti]);
    }
}

} // namespace usys
