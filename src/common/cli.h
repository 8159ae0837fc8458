/**
 * @file
 * Shared command-line handling for the bench drivers.
 *
 * Every bench binary understands
 *   --stats-json <path>   write the stats-registry dump as JSON
 *   --stats-dump          print the gem5-style text dump to stderr
 *   --trace-out <path>    write a chrome://tracing / Perfetto JSON trace
 *   --no-packed           force the scalar reference simulation engine
 *   --packed              re-enable the packed engine (the default)
 *   --threads <n>         executor thread count (0 = auto: USYS_THREADS
 *                         env, else hardware_concurrency())
 *   --simd <mode>         SIMD kernel tier: auto (default; best the CPU
 *                         supports), avx2, or generic — overrides the
 *                         USYS_SIMD env; requesting an unavailable
 *                         tier is fatal
 *   --profile-json <path>       write the merged profiler call-tree
 *   --profile-collapsed <path>  write collapsed-stack flamegraph lines
 *   --metrics-out <path>        JSON-lines registry timeseries
 *   --metrics-interval-ms <n>   sampling period (default 1000 when only
 *                               --metrics-out is given)
 *   --progress                  stderr heartbeat in the sweep drivers
 *
 * Profiling activates when either --profile-* flag is given; the
 * USYS_PROFILE environment variable overrides ("1" forces scopes on
 * even without an artifact, "0" forces them off — the overhead-guard
 * configuration). While profiling or metrics sampling is active,
 * finalizeBench() additionally publishes the executor telemetry
 * (`exec.worker<N>.*` counters and the `exec.task_latency_us`
 * histogram) into the stats registry. Those values are wall-clock
 * nondeterministic, which is why they are NOT published by default:
 * the byte-determinism harness (check_bench_e2e / check_stats_schema)
 * compares default-mode stats dumps across runs and thread counts.
 *
 * parseBenchArgs() strips the flags it consumed from argv (so wrapped
 * argument parsers like google-benchmark's see only their own flags),
 * enables the global event trace when a trace path is requested, opens
 * a profiler root frame named after the bench, and starts the metrics
 * sampler; finalizeBench() closes the frame, stops the sampler, and
 * writes the artifacts after the run.
 */

#ifndef USYS_COMMON_CLI_H
#define USYS_COMMON_CLI_H

#include <chrono>
#include <mutex>
#include <string>

#include "common/types.h"

namespace usys {

/** Observability options shared by every bench driver. */
struct BenchOptions
{
    std::string bench;      // binary name (recorded in the artifact)
    std::string stats_json; // empty = no JSON dump
    std::string trace_out;  // empty = tracing disabled
    bool stats_dump = false;

    std::string profile_json;      // empty = no call-tree dump
    std::string profile_collapsed; // empty = no flamegraph dump
    std::string metrics_out;       // empty = sampler disabled
    u64 metrics_interval_ms = 0;   // 0 = default (1000) if metrics_out
    bool progress = false;         // sweep heartbeat (sweep drivers)
    bool profiling = false;        // scopes active (set by parse)
};

/**
 * Consume the shared flags from argv (compacting it in place and
 * updating *argc); unrecognized arguments are left for the caller.
 */
BenchOptions parseBenchArgs(int *argc, char **argv,
                            const std::string &bench);

/**
 * Parse an integer flag value strictly: the whole token must be a
 * decimal integer within [lo, hi]. Empty strings, non-numeric input,
 * trailing garbage ("12x"), and out-of-range values are fatal() with a
 * message naming the flag — a silently truncated `--reps 1e3` has
 * burned enough CPU hours.
 */
i64 parseIntFlag(const char *flag, const char *text, i64 lo, i64 hi);

/**
 * Parse a floating-point flag value strictly: the whole token must be
 * a finite decimal/scientific number within [lo, hi]. Same fatal()
 * contract as parseIntFlag (rejects "", "1.5.2", "nan", overflow).
 */
double parseDoubleFlag(const char *flag, const char *text, double lo,
                       double hi);

/** Write the requested artifacts and report where they went. */
void finalizeBench(const BenchOptions &opts);

/**
 * Throttled stderr heartbeat for long sweeps (`--progress`): shard
 * counter, elapsed wall time, and a linear-extrapolation ETA, printed at
 * most once per second (plus always the final shard) so a watched run
 * shows life without flooding the terminal. Thread-safe; when
 * constructed disabled every call is a cheap no-op. Writes only to
 * stderr, keeping JSON artifacts on stdout/file clean.
 */
class ProgressMeter
{
  public:
    ProgressMeter(std::string label, u64 total, bool enabled);

    /** Report that `done` of the total units are now complete. */
    void update(u64 done);

  private:
    const std::string label_;
    const u64 total_;
    const bool enabled_;
    std::mutex mu_;
    std::chrono::steady_clock::time_point start_;
    std::chrono::steady_clock::time_point last_print_;
    bool printed_any_ = false;
};

/**
 * Global gate for the fast simulation path: product-table unary
 * kernels plus tile-/layer-parallel scheduling. Defaults to on; the
 * scalar reference engine stays available behind --no-packed for
 * cross-checking and debugging. This is the only engine option: the
 * packed engine has one fault-free path per scheme. Both engines are
 * bit-exact, produce the same cycle counts, and commit identical
 * stats-registry deltas.
 */
bool packedEngineEnabled();

/** Override the packed-engine gate (tests and CLI flag handling). */
void setPackedEngineEnabled(bool on);

/**
 * The sysfs L2 cache size of cpu0 in KiB, else a 512 KiB fallback. No
 * engine reads it any more (the packed engine has no column panels);
 * it stays, under its old name and value, only because the repository
 * benchmark records it as the host fingerprint's `panel_kb` and
 * benchmark/compare.py refuses to compare runs whose fingerprints
 * differ.
 */
u32 panelBudgetKb();

} // namespace usys

#endif // USYS_COMMON_CLI_H
