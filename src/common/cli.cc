#include "common/cli.h"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/event_trace.h"
#include "common/executor.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/profiler.h"
#include "common/simd.h"
#include "common/stats_registry.h"

namespace usys {

namespace {

bool g_packed_engine = true;

/**
 * Probe cpu0's L2 size from sysfs ("512K" / "1M" style). Returns 0
 * when the node is missing or unparsable (containers, non-Linux).
 */
u32
sysfsL2Kb()
{
    std::FILE *f =
        std::fopen("/sys/devices/system/cpu/cpu0/cache/index2/size", "r");
    if (!f)
        return 0;
    char buf[32] = {0};
    const std::size_t got = std::fread(buf, 1, sizeof(buf) - 1, f);
    std::fclose(f);
    if (got == 0)
        return 0;
    char *tail = nullptr;
    const unsigned long v = std::strtoul(buf, &tail, 10);
    if (tail == buf || v == 0 || v > (1u << 20))
        return 0;
    if (*tail == 'M')
        return u32(v) * 1024;
    if (*tail == 'K' || *tail == '\n' || *tail == '\0')
        return u32(v);
    return 0;
}

/**
 * Resolve whether scopes should record: USYS_PROFILE=0/1 overrides,
 * otherwise profiling follows the presence of a --profile-* artifact
 * request.
 */
bool
resolveProfiling(bool artifact_requested)
{
    if (const char *env = std::getenv("USYS_PROFILE")) {
        if (std::strcmp(env, "0") == 0)
            return false;
        if (std::strcmp(env, "1") == 0)
            return true;
        warn(std::string("ignoring invalid USYS_PROFILE='") + env +
             "' (want 0 or 1)");
    }
    return artifact_requested;
}

/**
 * Publish executor telemetry into the stats registry. Deliberately NOT
 * done on default runs: busy/idle/latency are wall-clock values that
 * vary run-to-run and with the thread count, and the determinism
 * harness byte-compares default stats dumps across both.
 */
void
publishExecTelemetry()
{
    StatsRegistry &reg = statsRegistry();
    Executor &ex = Executor::global();
    const auto counters = ex.workerCounters();
    for (std::size_t s = 0; s < counters.size(); ++s) {
        const std::string p = "exec.worker" + std::to_string(s) + ".";
        reg.counter(p + "tasks", "chunks executed by this slot")
            .set(counters[s].tasks);
        reg.counter(p + "steals", "chunks stolen by this slot")
            .set(counters[s].steals);
        reg.counter(p + "steal_fails", "empty steal sweeps by this slot")
            .set(counters[s].steal_fails);
        reg.counter(p + "busy_ns", "wall ns inside chunk bodies")
            .set(counters[s].busy_ns);
        reg.counter(p + "idle_ns", "wall ns blocked awaiting a region")
            .set(counters[s].idle_ns);
    }
    Histogram &lat = reg.histogram(
        "exec.task_latency_us", Executor::kTaskLatencyLoUs,
        Executor::kTaskLatencyHiUs, Executor::kTaskLatencyBuckets,
        "per-chunk wall latency across all slots (us)");
    ex.mergeTaskLatency(lat);
}

} // namespace

bool
packedEngineEnabled()
{
    return g_packed_engine;
}

void
setPackedEngineEnabled(bool on)
{
    g_packed_engine = on;
}

u32
panelBudgetKb()
{
    static const u32 resolved = [] {
        const u32 kb = sysfsL2Kb();
        return kb ? kb : 512u;
    }();
    return resolved;
}

i64
parseIntFlag(const char *flag, const char *text, i64 lo, i64 hi)
{
    fatalIf(text == nullptr || *text == '\0',
            std::string(flag) + ": empty numeric value");
    errno = 0;
    char *tail = nullptr;
    const long long v = std::strtoll(text, &tail, 10);
    fatalIf(tail == text || *tail != '\0',
            std::string(flag) + ": not an integer: '" + text + "'");
    fatalIf(errno == ERANGE || v < lo || v > hi,
            std::string(flag) + ": value " + text + " outside [" +
                std::to_string(lo) + ", " + std::to_string(hi) + "]");
    return i64(v);
}

double
parseDoubleFlag(const char *flag, const char *text, double lo, double hi)
{
    fatalIf(text == nullptr || *text == '\0',
            std::string(flag) + ": empty numeric value");
    errno = 0;
    char *tail = nullptr;
    const double v = std::strtod(text, &tail);
    fatalIf(tail == text || *tail != '\0',
            std::string(flag) + ": not a number: '" + text + "'");
    fatalIf(errno == ERANGE || !std::isfinite(v),
            std::string(flag) + ": value not finite: '" + text + "'");
    fatalIf(v < lo || v > hi,
            std::string(flag) + ": value " + text + " outside [" +
                std::to_string(lo) + ", " + std::to_string(hi) + "]");
    return v;
}

BenchOptions
parseBenchArgs(int *argc, char **argv, const std::string &bench)
{
    BenchOptions opts;
    opts.bench = bench;

    int out = 1;
    for (int i = 1; i < *argc; ++i) {
        const char *arg = argv[i];
        auto value = [&](const char *flag) -> const char * {
            fatalIf(i + 1 >= *argc,
                    std::string(flag) + " requires a path argument");
            return argv[++i];
        };
        if (std::strcmp(arg, "--stats-json") == 0) {
            opts.stats_json = value("--stats-json");
        } else if (std::strcmp(arg, "--trace-out") == 0) {
            opts.trace_out = value("--trace-out");
        } else if (std::strcmp(arg, "--stats-dump") == 0) {
            opts.stats_dump = true;
        } else if (std::strcmp(arg, "--profile-json") == 0) {
            opts.profile_json = value("--profile-json");
        } else if (std::strcmp(arg, "--profile-collapsed") == 0) {
            opts.profile_collapsed = value("--profile-collapsed");
        } else if (std::strcmp(arg, "--metrics-out") == 0) {
            opts.metrics_out = value("--metrics-out");
        } else if (std::strcmp(arg, "--metrics-interval-ms") == 0) {
            opts.metrics_interval_ms = u64(
                parseIntFlag("--metrics-interval-ms",
                             value("--metrics-interval-ms"), 1, 3600000));
        } else if (std::strcmp(arg, "--progress") == 0) {
            opts.progress = true;
        } else if (std::strcmp(arg, "--no-packed") == 0) {
            setPackedEngineEnabled(false);
        } else if (std::strcmp(arg, "--packed") == 0) {
            setPackedEngineEnabled(true);
        } else if (std::strcmp(arg, "--threads") == 0) {
            const i64 n =
                parseIntFlag("--threads", value("--threads"), 0, 4096);
            Executor::global().setThreads(unsigned(n));
        } else if (std::strcmp(arg, "--simd") == 0) {
            setSimdMode(value("--simd"));
        } else {
            argv[out++] = argv[i];
        }
    }
    *argc = out;
    argv[out] = nullptr;

    if (!opts.trace_out.empty())
        EventTrace::global().setEnabled(true);

    fatalIf(opts.metrics_interval_ms != 0 && opts.metrics_out.empty(),
            "--metrics-interval-ms requires --metrics-out");
    if (!opts.metrics_out.empty() && opts.metrics_interval_ms == 0)
        opts.metrics_interval_ms = 1000;

    opts.profiling = resolveProfiling(!opts.profile_json.empty() ||
                                      !opts.profile_collapsed.empty());
    if (opts.profiling) {
        Profiler &prof = Profiler::global();
        prof.setEnabled(true);
        // Root frame named after the bench; finalizeBench() closes it,
        // so the dump's top-level frame covers the whole run and
        // check_profile_schema.py can assert wall-time coverage.
        prof.push(prof.intern(bench));
    }
    if (!opts.metrics_out.empty())
        MetricsSampler::global().start(opts.metrics_out,
                                       opts.metrics_interval_ms);

    // One-line engine summary (tagged logger, stderr only — never part
    // of a stats artifact) so every bench run is self-describing.
    inform("engine: simd=" +
           std::string(simdLevelName(simdLevel())) + " packed=" +
           (packedEngineEnabled() ? "on" : "off"));
    return opts;
}

void
finalizeBench(const BenchOptions &opts)
{
    Profiler &prof = Profiler::global();
    if (opts.profiling)
        prof.pop(); // close the root bench frame opened at parse
    if (MetricsSampler::global().running())
        MetricsSampler::global().stop();
    if (opts.profiling || !opts.metrics_out.empty())
        publishExecTelemetry();

    if (opts.stats_dump)
        statsRegistry().dump(stderr);
    // A requested artifact that cannot be written is a hard error:
    // callers script against these files and check the exit code.
    if (!opts.stats_json.empty()) {
        fatalIf(!statsRegistry().writeJsonFile(opts.stats_json,
                                               opts.bench),
                "cannot write stats JSON: " + opts.stats_json);
        inform("wrote stats JSON: " + opts.stats_json + " (" +
               std::to_string(statsRegistry().size()) + " stats)");
    }
    if (!opts.trace_out.empty()) {
        fatalIf(!EventTrace::global().writeFile(opts.trace_out),
                "cannot write trace: " + opts.trace_out);
        inform("wrote trace: " + opts.trace_out + " (" +
               std::to_string(EventTrace::global().eventCount()) +
               " events)");
    }
    if (!opts.profile_json.empty()) {
        fatalIf(!prof.writeJsonFile(opts.profile_json, opts.bench),
                "cannot write profile JSON: " + opts.profile_json);
        inform("wrote profile JSON: " + opts.profile_json);
    }
    if (!opts.profile_collapsed.empty()) {
        fatalIf(!prof.writeCollapsedFile(opts.profile_collapsed),
                "cannot write collapsed profile: " +
                    opts.profile_collapsed);
        inform("wrote collapsed profile: " + opts.profile_collapsed);
    }
}

ProgressMeter::ProgressMeter(std::string label, u64 total, bool enabled)
    : label_(std::move(label)), total_(total), enabled_(enabled),
      start_(std::chrono::steady_clock::now()), last_print_(start_)
{
}

void
ProgressMeter::update(u64 done)
{
    if (!enabled_ || total_ == 0)
        return;
    std::lock_guard<std::mutex> lock(mu_);
    const auto now = std::chrono::steady_clock::now();
    const double since_print =
        std::chrono::duration<double>(now - last_print_).count();
    // Throttle to >= 1 s between lines, but always report completion.
    if (done < total_ && printed_any_ && since_print < 1.0)
        return;
    last_print_ = now;
    printed_any_ = true;
    const double elapsed =
        std::chrono::duration<double>(now - start_).count();
    const double eta =
        done > 0 ? elapsed * double(total_ - done) / double(done) : 0.0;
    std::fprintf(stderr,
                 "progress: %s %llu/%llu (%.0f%%) elapsed %.1fs eta "
                 "%.1fs\n",
                 label_.c_str(), (unsigned long long)done,
                 (unsigned long long)total_,
                 100.0 * double(done) / double(total_), elapsed, eta);
}

} // namespace usys
