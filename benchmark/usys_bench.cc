/**
 * @file
 * usys_bench — the repository benchmark (see benchmark/README.md).
 *
 * One process runs one workload on inputs it generates from --seed:
 *
 *   gemm_relu   64 SystolicGemm calls per pass: 8 AlexNet layer slices x
 *               the 8 paperCandidates(8) kernels on the 12x14 edge array,
 *               activations zeroed at the measured ReLU fractions
 *   gemm_dense  the same calls, weights and shapes with no zero
 *               activation codes (the sparsity mechanism has nothing to do)
 *   dnn_unary   AlexLite forward on a 32-image batch under the 9 Figure-9
 *               numeric modes per pass (GemmExecutor, im2col, axpyF32)
 *   serve_zipf  an in-process usysd Daemon with default options, driven
 *               closed-loop by two ServeClient connections over a
 *               Zipf-skewed sweep/gemm request log
 *
 * A run sets up (inputs, lazy tables and arenas, daemon start, one
 * untimed warm-up), measures, then checks every output outside the
 * timed window and prints each metric as `name value unit`; --out writes
 * the same data plus a host fingerprint as JSON. The gemm and dnn
 * workloads measure passes for --seconds; serve_zipf sends a fixed
 * request count derived from --seconds, so a faster daemon does not
 * change its own cache contents or memory high-water mark.
 *
 * --trace PATH alternates untraced and traced passes, records spans
 * around every call into the program, replays each layer in isolation
 * afterwards, prints the per-layer metrics plus trace_overhead_pct, and
 * writes the spans once, as a Chrome trace, at exit.
 *
 * Exit status: 0 every output correct, 1 a wrong output or a bad flag,
 * 2 refused because the build is instrumented (debug or sanitizer).
 */

#include <algorithm>
#include <atomic>
#include <barrier>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <memory>
#include <mutex>
#include <numeric>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include <sys/resource.h>
#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "common/cli.h"
#include "common/executor.h"
#include "common/hash.h"
#include "common/json.h"
#include "common/logging.h"
#include "common/prng.h"
#include "common/simd.h"
#include "arch/array.h"
#include "arch/functional.h"
#include "arch/packed_array.h"
#include "arch/sparsity.h"
#include "dnn/layers.h"
#include "dnn/models.h"
#include "eval/experiments.h"
#include "serve/client.h"
#include "serve/daemon.h"
#include "serve/request.h"
#include "serve/result_cache.h"
#include "workloads/alexnet.h"
#include "workloads/mlperf.h"
#include "workloads/systems.h"

#ifndef USYS_BENCH_BUILD_FLAGS
#define USYS_BENCH_BUILD_FLAGS "unknown"
#endif

namespace usys {
namespace {

using Clock = std::chrono::steady_clock;

/** Taken during static initialization: the set-up clock's origin. */
const Clock::time_point kProcessStart = Clock::now();

i64
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - kProcessStart)
        .count();
}

unsigned
hostThreads()
{
    return std::max(1u, std::thread::hardware_concurrency());
}

// --- Build guard and host fingerprint ------------------------------------

/** Why this build must not produce numbers, or null when it may. */
const char *
instrumentedBuild()
{
#ifndef NDEBUG
    return "assertions are enabled (NDEBUG is not defined)";
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    return "built with a sanitizer";
#endif
    if (std::strstr(USYS_BENCH_BUILD_FLAGS, "-fsanitize"))
        return "built with a sanitizer";
    return nullptr;
}

/** CPU brand string from CPUID (no file reads). */
std::string
cpuModel()
{
#if defined(__x86_64__) || defined(__i386__)
    if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
        unsigned regs[12] = {};
        for (unsigned i = 0; i < 3; ++i)
            __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                        &regs[4 * i + 2], &regs[4 * i + 3]);
        char brand[49] = {};
        std::memcpy(brand, regs, 48);
        std::string s(brand);
        s.erase(0, s.find_first_not_of(' '));
        s.erase(s.find_last_not_of(' ') + 1);
        if (!s.empty())
            return s;
    }
#endif
    return "unknown";
}

/** Per-core L2 size in KiB from CPUID leaf 0x80000006 (0 = unknown). */
u64
cpuL2Kb()
{
#if defined(__x86_64__) || defined(__i386__)
    unsigned a = 0, b = 0, c = 0, d = 0;
    if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000006u &&
        __get_cpuid(0x80000006u, &a, &b, &c, &d))
        return c >> 16;
#endif
    return 0;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is KiB on Linux
}

// --- Options -------------------------------------------------------------

struct Options
{
    std::string workload;
    u64 seed = 1;
    unsigned threads = 0;
    double seconds = 10.0;
    std::string trace_path; // non-empty = traced run
    std::string out_path;
    bool smoke = false;      // minimum work: 1 pass or 200 requests
    bool setup_only = false; // stop at the first timed operation

    bool traced() const { return !trace_path.empty(); }
};

Options
parseOptions(int argc, char **argv)
{
    Options o;
    o.threads = std::min(4u, hostThreads());
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        const auto value = [&]() -> const char * {
            fatalIf(i + 1 >= argc, std::string(arg) + " requires a value");
            return argv[++i];
        };
        if (std::strcmp(arg, "--workload") == 0)
            o.workload = value();
        else if (std::strcmp(arg, "--seed") == 0)
            o.seed = u64(parseIntFlag(arg, value(), 0, i64(1) << 62));
        else if (std::strcmp(arg, "--threads") == 0)
            o.threads = unsigned(parseIntFlag(arg, value(), 1, 256));
        else if (std::strcmp(arg, "--seconds") == 0)
            o.seconds = parseDoubleFlag(arg, value(), 0.1, 600.0);
        else if (std::strcmp(arg, "--trace") == 0)
            o.trace_path = value();
        else if (std::strcmp(arg, "--out") == 0)
            o.out_path = value();
        else if (std::strcmp(arg, "--smoke") == 0)
            o.smoke = true;
        else if (std::strcmp(arg, "--setup-only") == 0)
            o.setup_only = true;
        else
            fatal(std::string("usys_bench: unknown argument ") + arg);
    }
    const char *const workloads[] = {"gemm_relu", "gemm_dense", "dnn_unary",
                                     "serve_zipf"};
    fatalIf(std::find(std::begin(workloads), std::end(workloads),
                      o.workload) == std::end(workloads),
            "usys_bench: --workload must be one of gemm_relu, gemm_dense, "
            "dnn_unary, serve_zipf");
    return o;
}

// --- Sample statistics ---------------------------------------------------

/** Nearest-rank percentile of an unsorted sample (0 when empty). */
double
percentile(std::vector<double> v, double pct)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const auto rank = std::size_t(std::ceil(pct / 100.0 * double(v.size())));
    return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double
median(const std::vector<double> &v)
{
    return percentile(v, 50.0);
}

/**
 * A run's value of a per-pass timing: its 10th percentile over the
 * passes. On a shared host, neighbours only ever add time, and they
 * disturb whole stretches of a run; the quiet end of the distribution
 * repeats from run to run where the median does not.
 */
double
quiet(const std::vector<double> &per_pass)
{
    return percentile(per_pass, 10.0);
}

/** Geometric mean: every operation kind of a pass weighs the same. */
double
geomean(const std::vector<double> &v)
{
    double log_sum = 0.0;
    for (const double x : v)
        log_sum += std::log(x);
    return v.empty() ? 0.0 : std::exp(log_sum / double(v.size()));
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

// --- Result of one run ---------------------------------------------------

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

struct Run
{
    std::vector<Metric> metrics;
    u64 attempted = 0; // gemm calls, forwards or requests, warm-up included
    u64 failed = 0;
    std::vector<std::string> errors; // the first few failure reasons
    std::vector<std::string> notes;  // printed as comments
    u64 digest = 0;                  // simulated results, seed-determined
    std::vector<double> pass_ms;     // untraced pass walls, in run order

    void
    add(const std::string &name, double value, const std::string &unit)
    {
        metrics.push_back({name, value, unit});
    }

    void
    fail(const std::string &why, u64 ops = 1)
    {
        failed += ops;
        if (errors.size() < 8)
            errors.push_back(why);
    }

    /** End of set-up: the next operation is the first timed one. */
    void setupDone() { add("setup_s", double(nowNs()) * 1e-9, "s"); }

    /**
     * The end-to-end timings, from the untraced passes: operations per
     * second and per-pass operation latency, each at its quiet pass, and
     * the memory high-water mark of the run so far.
     */
    void
    addEndToEnd(double ops_per_pass, const std::vector<double> &wall_ns,
                const std::vector<double> &latency_ms)
    {
        for (const double ns : wall_ns)
            pass_ms.push_back(ns * 1e-6);
        add("ops_per_s", ratio(ops_per_pass, quiet(wall_ns) * 1e-9), "op/s");
        add("latency_ms", quiet(latency_ms), "ms");
        add("peak_rss_mb", peakRssMb(), "MiB");
    }
};

// --- Spans ---------------------------------------------------------------

/**
 * In-memory span recorder. Each thread appends to its own log (parents
 * come from that thread's open-span stack), so recording takes no lock
 * after a thread's first span; logs are read only after every recording
 * thread has been joined. It is separate from EventTrace because the
 * program itself writes simulated-time events there, while these spans
 * are the benchmark's host-time view of the program from outside.
 */
class Tracer
{
  public:
    struct Span
    {
        const char *name = "";
        i64 t0 = 0, t1 = 0; // ns since process start
        u32 id = 0, parent = 0, tid = 0;
        u64 job = 0; // call, mode or request index
    };

    static Tracer &
    global()
    {
        static Tracer tracer;
        return tracer;
    }

    void nameThread(const std::string &name) { local().name = name; }

    void
    open(const char *name, u64 job, i64 t0)
    {
        ThreadLog &log = local();
        Span s;
        s.name = name;
        s.t0 = t0;
        s.id = next_id_.fetch_add(1, std::memory_order_relaxed);
        s.parent = log.open.empty() ? 0 : log.spans[log.open.back()].id;
        s.tid = log.tid;
        s.job = job;
        log.open.push_back(log.spans.size());
        log.spans.push_back(s);
    }

    void
    close(i64 t1)
    {
        ThreadLog &log = local();
        log.spans[log.open.back()].t1 = t1;
        log.open.pop_back();
    }

    std::vector<Span>
    spans() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        std::vector<Span> all;
        for (const auto &log : logs_)
            all.insert(all.end(), log->spans.begin(), log->spans.end());
        return all;
    }

    std::vector<std::pair<u32, std::string>>
    threads() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        std::vector<std::pair<u32, std::string>> out;
        for (const auto &log : logs_)
            out.emplace_back(log->tid, log->name);
        return out;
    }

  private:
    struct ThreadLog
    {
        u32 tid = 0;
        std::string name;
        std::vector<Span> spans;
        std::vector<std::size_t> open; // indices into spans
    };

    ThreadLog &
    local()
    {
        thread_local ThreadLog *log = nullptr;
        if (!log) {
            std::lock_guard<std::mutex> lock(mu_);
            logs_.push_back(std::make_unique<ThreadLog>());
            log = logs_.back().get();
            log->tid = u32(logs_.size());
            log->name = "thread" + std::to_string(log->tid);
        }
        return *log;
    }

    mutable std::mutex mu_;
    std::vector<std::unique_ptr<ThreadLog>> logs_;
    std::atomic<u32> next_id_{1};
};

/**
 * Times one call into the program and, when `traced`, records it as a
 * span. close() ends it early and returns the duration in ns.
 */
class SpanScope
{
  public:
    SpanScope(const char *name, u64 job, bool traced)
        : traced_(traced), t0_(nowNs())
    {
        if (traced_)
            Tracer::global().open(name, job, t0_);
    }

    ~SpanScope() { close(); }

    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

    i64
    close()
    {
        if (!closed_) {
            closed_ = true;
            t1_ = nowNs();
            if (traced_)
                Tracer::global().close(t1_);
        }
        return t1_ - t0_;
    }

  private:
    bool traced_;
    bool closed_ = false;
    i64 t0_;
    i64 t1_ = 0;
};

/** Self time per span name, and how much of each pass child spans cover. */
struct SpanSummary
{
    std::vector<std::pair<std::string, double>> self_ms; // first-seen order
    double min_pass_coverage = 0.0;
};

SpanSummary
summarizeSpans(const std::vector<Tracer::Span> &spans)
{
    std::unordered_map<u32, std::size_t> index;
    for (std::size_t i = 0; i < spans.size(); ++i)
        index[spans[i].id] = i;
    std::vector<i64> child_ns(spans.size(), 0);
    for (const auto &s : spans)
        if (s.parent)
            child_ns[index.at(s.parent)] += s.t1 - s.t0;

    SpanSummary out;
    std::unordered_map<std::string, std::size_t> slot;
    double coverage = 1.0;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const i64 dur = spans[i].t1 - spans[i].t0;
        const auto [it, fresh] = slot.try_emplace(spans[i].name,
                                                  out.self_ms.size());
        if (fresh)
            out.self_ms.emplace_back(spans[i].name, 0.0);
        out.self_ms[it->second].second += double(dur - child_ns[i]) * 1e-6;
        if (std::strcmp(spans[i].name, "bench.pass") == 0 && dur > 0)
            coverage = std::min(coverage, double(child_ns[i]) / double(dur));
    }
    out.min_pass_coverage = slot.count("bench.pass") ? coverage : 0.0;
    return out;
}

bool
writeChromeTrace(const std::string &path, const Tracer &tracer)
{
    std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    char buf[512];
    const char *sep = "";
    for (const auto &[tid, name] : tracer.threads()) {
        std::snprintf(buf, sizeof(buf),
                      "%s\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                      "\"tid\":%u,\"args\":{\"name\":\"%s\"}}",
                      sep, tid, jsonEscape(name).c_str());
        out += buf;
        sep = ",";
    }
    for (const auto &s : tracer.spans()) {
        std::snprintf(buf, sizeof(buf),
                      ",\n{\"name\":\"%s\",\"cat\":\"bench\",\"ph\":\"X\","
                      "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%u,"
                      "\"args\":{\"id\":%u,\"parent\":%u,\"job\":%llu}}",
                      s.name, double(s.t0) * 1e-3, double(s.t1 - s.t0) * 1e-3,
                      s.tid, s.id, s.parent, (unsigned long long)s.job);
        out += buf;
    }
    out += "\n]}\n";
    return writeTextFile(path, out);
}

// --- Shared measurement helpers ------------------------------------------

/**
 * Run pass(p) until --seconds is spent (at least 6 passes; one, or one
 * untraced plus one traced, under --smoke). Returns the pass count.
 */
template <typename PassFn>
u64
measurePasses(const Options &o, PassFn &&pass)
{
    const u64 min_passes = o.smoke ? (o.traced() ? 2 : 1) : 6;
    const Clock::time_point end =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(o.seconds));
    u64 p = 0;
    do {
        pass(p++);
    } while (p < min_passes || (!o.smoke && Clock::now() < end));
    return p;
}

/** Busy time and steals summed over the executor's slots. */
struct ExecSample
{
    u64 busy_ns = 0;
    u64 steals = 0;
    i64 t_ns = 0;

    static ExecSample
    now()
    {
        ExecSample s;
        for (const auto &w : Executor::global().workerCounters()) {
            s.busy_ns += w.busy_ns;
            s.steals += w.steals;
        }
        s.t_ns = nowNs();
        return s;
    }
};

/** Executor busy fraction and steals per pass over [e0, e1). */
void
addExecutor(Run &run, const ExecSample &e0, const ExecSample &e1,
            unsigned threads, double passes)
{
    run.add("common.executor.busy_frac",
            ratio(double(e1.busy_ns - e0.busy_ns),
                  double(e1.t_ns - e0.t_ns) * threads),
            "ratio");
    run.add("common.executor.steals_per_pass",
            ratio(double(e1.steals - e0.steals), passes), "steals/pass");
}

/** Thread count of the parallel probe. */
unsigned
probeThreads()
{
    return std::min(4u, hostThreads());
}

/**
 * Traced runs time a few extra passes at probeThreads(), so the
 * executor's scaling shows even when the run is pinned to one thread.
 * `pass` returns one pass's wall time in ns. Returns the quiet pass.
 */
template <typename PassFn>
double
probeParallel(Run &run, const Options &o, double run_quiet_ns, PassFn &&pass)
{
    Executor::global().setThreads(probeThreads());
    pass(); // the new pool's workers build their arenas
    const ExecSample e0 = ExecSample::now();
    std::vector<double> walls;
    for (int i = 0; i < (o.smoke ? 1 : 5); ++i)
        walls.push_back(pass());
    const ExecSample e1 = ExecSample::now();
    Executor::global().setThreads(o.threads);
    const double quiet_ns = quiet(walls);
    addExecutor(run, e0, e1, probeThreads(), double(walls.size()));
    run.add("common.executor.speedup", ratio(run_quiet_ns, quiet_ns), "x");
    return quiet_ns;
}

/** Traced over untraced quiet pass time, as a percent slowdown. */
void
addTraceOverhead(Run &run, const std::vector<double> &untraced_ns,
                 const std::vector<double> &traced_ns)
{
    run.add("trace_overhead_pct",
            100.0 * (ratio(quiet(traced_ns), quiet(untraced_ns)) - 1.0), "%");
}

// --- gemm_relu / gemm_dense ----------------------------------------------

/**
 * Zero fraction of each AlexNet GEMM input (conv1..fc8) as
 * measuredAlexnetSparsity() reported it when this benchmark was defined.
 * Frozen here so the workload's inputs never move with the program.
 */
constexpr double kReluZeroFrac[] = {0.0,  0.16, 0.24, 0.51,
                                    0.54, 0.35, 0.55, 0.55};

/** One SystolicGemm call of a pass: an AlexNet slice on one kernel. */
struct GemmCall
{
    int layer = 0;
    int kern = 0;
    i64 macs = 0; // M * K * N
};

struct GemmSetup
{
    std::vector<Matrix<i32>> a, b;   // per layer: activations, weights
    std::vector<ArrayConfig> arrays; // per kernel: 12x14 edge array
    std::vector<std::string> tags;   // per kernel: bp, bs, ur6, ...
    std::vector<SystolicGemm> gemms; // per kernel
    std::vector<GemmCall> calls;     // layer-major
    i64 macs_per_pass = 0;
};

std::string
kernelTag(const KernelConfig &k)
{
    std::string tag = schemeTag(k.scheme);
    std::transform(tag.begin(), tag.end(), tag.begin(), ::tolower);
    if (k.scheme == Scheme::USystolicRate)
        tag += std::to_string(k.effectiveBits());
    return tag;
}

/**
 * Post-ReLU activation codes in [1, 127], then exactly
 * round(zero_frac * size) of them zeroed at seeded positions, so every
 * seed has the same sparsity and only the placement varies.
 */
Matrix<i32>
gemmActivations(int rows, int cols, double zero_frac, Prng &values,
                Prng &placement)
{
    Matrix<i32> m(rows, cols);
    for (i32 &v : m.data())
        v = i32(1 + values.below(127));
    const std::size_t n = m.size();
    const auto zeros = std::size_t(std::llround(zero_frac * double(n)));
    std::vector<u32> idx(n);
    std::iota(idx.begin(), idx.end(), 0u);
    for (std::size_t i = 0; i < zeros; ++i) {
        std::swap(idx[i], idx[i + placement.below(n - i)]);
        m.data()[idx[i]] = 0;
    }
    return m;
}

GemmSetup
buildGemm(u64 seed, bool relu)
{
    GemmSetup s;
    const auto layers = alexnetLayers();
    for (std::size_t l = 0; l < layers.size(); ++l) {
        const int m = int(std::min<i64>(layers[l].m(), 128));
        const int k = int(std::min<i64>(layers[l].k(), 576));
        const int n = int(std::min<i64>(layers[l].n(), 112));
        // Separate streams: weights and nonzero codes are identical in
        // gemm_relu and gemm_dense for one seed.
        Prng values(hashChain(seed, 3 * l));
        Prng placement(hashChain(seed, 3 * l + 1));
        Prng weights(hashChain(seed, 3 * l + 2));
        s.a.push_back(gemmActivations(m, k, relu ? kReluZeroFrac[l] : 0.0,
                                      values, placement));
        Matrix<i32> b(k, n);
        for (i32 &v : b.data())
            v = i32(weights.below(255)) - 127;
        s.b.push_back(std::move(b));
    }
    for (const auto &cand : paperCandidates(8)) {
        s.arrays.push_back(edgeSystem(cand.kern, cand.with_sram).array);
        s.tags.push_back(kernelTag(cand.kern));
        s.gemms.emplace_back(s.arrays.back());
    }
    for (int l = 0; l < int(layers.size()); ++l) {
        for (int k = 0; k < int(s.gemms.size()); ++k) {
            const i64 macs =
                i64(s.a[l].rows()) * s.a[l].cols() * s.b[l].cols();
            s.calls.push_back({l, k, macs});
            s.macs_per_pass += macs;
        }
    }
    return s;
}

u64
hashGemmResult(const SystolicGemm::RunResult &r)
{
    u64 h = hashChain(hashChain(0x9e3779b9u, r.cycles), r.folds);
    for (const i64 v : r.acc.data())
        h = hashChain(h, u64(v));
    return h;
}

/** One pass over every call; returns the pass wall time in ns. */
double
gemmPass(const GemmSetup &s, std::vector<SystolicGemm::RunResult> &out,
         std::vector<FoldStatsDelta> &stats, std::vector<double> &call_ns,
         u64 pass, bool traced)
{
    for (auto &d : stats)
        d = FoldStatsDelta{};
    SpanScope span("bench.pass", pass, traced);
    for (std::size_t i = 0; i < s.calls.size(); ++i) {
        const GemmCall &c = s.calls[i];
        SpanScope call("arch.gemm", i, traced);
        out[i] = s.gemms[c.kern].run(s.a[c.layer], s.b[c.layer], &stats[i]);
        call_ns[i] = double(call.close());
    }
    return double(span.close());
}

/** Totals of the per-layer fold replay over one pass's calls. */
struct FoldReplay
{
    i64 fold_ns = 0;
    i64 plan_ns = 0;
    u64 plan_elems = 0;
    i64 m1_fold_ns = 0; // folds that stream a single input row
    u64 m1_folds = 0;
};

/**
 * Per-layer replay of one call: SparsityPlan::build over each staged
 * A-tile, then serial PackedArray::runFold over every (column, K) tile
 * exactly as SystolicGemm tiles it. Returns false when the summed tile
 * outputs or cycles differ from the SystolicGemm result.
 */
bool
replayFolds(const GemmSetup &s, std::size_t i,
            const SystolicGemm::RunResult &want, FoldReplay &r)
{
    const GemmCall &c = s.calls[i];
    const Matrix<i32> &a = s.a[c.layer];
    const Matrix<i32> &b = s.b[c.layer];
    const ArrayConfig &cfg = s.arrays[c.kern];
    const PackedArray packed(cfg);
    const int rows = cfg.rows, cols = cfg.cols;
    const int m_rows = a.rows(), k_dim = a.cols(), n_dim = b.cols();
    const int k_tiles = (k_dim + rows - 1) / rows;
    const int n_tiles = (n_dim + cols - 1) / cols;

    std::vector<Matrix<i32>> tiles;
    std::vector<SparsityPlan> plans(static_cast<std::size_t>(k_tiles));
    for (int kt = 0; kt < k_tiles; ++kt) {
        Matrix<i32> t(m_rows, rows, 0);
        for (int m = 0; m < m_rows; ++m)
            for (int r = 0; r < rows && kt * rows + r < k_dim; ++r)
                t(m, r) = a(m, kt * rows + r);
        tiles.push_back(std::move(t));
        SpanScope plan("arch.plan", i, true);
        plans[std::size_t(kt)].build(tiles.back());
        r.plan_ns += plan.close();
        r.plan_elems += u64(m_rows) * u64(rows);
    }

    Matrix<i64> acc(m_rows, n_dim, 0);
    Cycles cycles = 0;
    Matrix<i32> w(rows, cols, 0);
    for (int ti = 0; ti < n_tiles; ++ti) {
        FoldStatsDelta delta;
        for (int kt = 0; kt < k_tiles; ++kt) {
            std::fill(w.data().begin(), w.data().end(), 0);
            for (int rr = 0; rr < rows && kt * rows + rr < k_dim; ++rr)
                for (int cc = 0; cc < cols && ti * cols + cc < n_dim; ++cc)
                    w(rr, cc) = b(kt * rows + rr, ti * cols + cc);
            SpanScope fold("arch.fold", i, true);
            const auto res = packed.runFold(
                tiles[std::size_t(kt)], w, &delta, u64(ti) * k_tiles + kt,
                &plans[std::size_t(kt)]);
            const i64 ns = fold.close();
            r.fold_ns += ns;
            if (m_rows == 1) {
                r.m1_fold_ns += ns;
                ++r.m1_folds;
            }
            cycles += res.cycles;
            for (int m = 0; m < m_rows; ++m)
                for (int cc = 0; cc < cols && ti * cols + cc < n_dim; ++cc)
                    acc(m, ti * cols + cc) += res.output(m, cc);
        }
    }
    return acc == want.acc && cycles == want.cycles;
}

void
runGemm(const Options &o, bool relu, Run &run)
{
    const GemmSetup s = buildGemm(o.seed, relu);
    const std::size_t n = s.calls.size();
    std::vector<SystolicGemm::RunResult> first(n), out(n);
    std::vector<FoldStatsDelta> first_stats(n), stats(n);
    std::vector<double> call_ns(n);

    // Untimed warm-up: builds the lazy stream tables and per-worker
    // arenas; its outputs are the ones the referee checks below, and
    // every timed pass must reproduce them exactly.
    gemmPass(s, first, first_stats, call_ns, 0, false);
    std::vector<u64> want(n);
    for (std::size_t i = 0; i < n; ++i)
        want[i] = hashGemmResult(first[i]);
    run.attempted += n;
    run.setupDone();
    if (o.setup_only)
        return;

    const std::size_t kerns = s.gemms.size();
    std::vector<double> pass_ns, traced_ns, latency_ms, ns_per_mac;
    std::vector<std::vector<double>> kern_ns_per_mac(kerns);
    const u64 passes = measurePasses(o, [&](u64 p) {
        const bool traced = o.traced() && p % 2 == 1;
        const double wall = gemmPass(s, out, stats, call_ns, p + 1, traced);
        if (traced) {
            traced_ns.push_back(wall);
            std::vector<double> ns(kerns, 0.0), macs(kerns, 0.0);
            for (std::size_t i = 0; i < n; ++i) {
                ns[std::size_t(s.calls[i].kern)] += call_ns[i];
                macs[std::size_t(s.calls[i].kern)] += double(s.calls[i].macs);
            }
            for (std::size_t k = 0; k < kerns; ++k)
                kern_ns_per_mac[k].push_back(ratio(ns[k], macs[k]));
            ns_per_mac.push_back(
                ratio(std::accumulate(ns.begin(), ns.end(), 0.0),
                      double(s.macs_per_pass)));
        } else {
            pass_ns.push_back(wall);
            latency_ms.push_back(geomean(call_ns) * 1e-6);
        }
        for (std::size_t i = 0; i < n; ++i)
            if (hashGemmResult(out[i]) != want[i])
                run.fail("gemm call " + std::to_string(i) + " pass " +
                         std::to_string(p + 1) + " differs from the warm-up");
        run.attempted += n;
    });
    run.addEndToEnd(double(s.macs_per_pass), pass_ns, latency_ms);

    // Referee: GemmExecutor must agree bit for bit with every warm-up
    // output (and so, through the hashes, with every timed pass).
    std::vector<GemmExecutor> referees;
    for (const ArrayConfig &cfg : s.arrays)
        referees.emplace_back(cfg.kernel); // builds the product tables
    i64 referee_ns = 0;
    {
        SpanScope verify("bench.verify", 0, o.traced());
        for (std::size_t i = 0; i < n; ++i) {
            const GemmCall &c = s.calls[i];
            SpanScope ref("arch.referee", i, o.traced());
            const Matrix<i64> acc =
                referees[std::size_t(c.kern)].run(s.a[c.layer], s.b[c.layer]);
            referee_ns += ref.close();
            if (!(acc == first[i].acc))
                run.fail("gemm call " + std::to_string(i) + " (" +
                             s.tags[std::size_t(c.kern)] +
                             ") disagrees with the GemmExecutor referee",
                         passes + 1);
        }
    }
    run.digest = 0x5eed;
    for (const u64 h : want)
        run.digest = hashChain(run.digest, h);
    if (!o.traced())
        return;

    FoldReplay fr;
    {
        SpanScope replay("bench.replay", 0, true);
        for (std::size_t i = 0; i < n; ++i)
            if (!replayFolds(s, i, first[i], fr))
                run.fail("gemm call " + std::to_string(i) +
                         ": summed PackedArray folds differ from "
                         "SystolicGemm");
    }
    u64 skippable = 0, slots = 0, folds = 0;
    Cycles cycles = 0;
    for (std::size_t i = 0; i < n; ++i) {
        skippable += first_stats[i].sparsity_skippable_macs;
        slots += first_stats[i].mac_slots;
        folds += first[i].folds;
        cycles += first[i].cycles;
    }
    const double macs = double(s.macs_per_pass);
    run.add("arch.gemm.ns_per_mac", quiet(ns_per_mac), "ns/MAC");
    for (std::size_t k = 0; k < kerns; ++k)
        run.add("arch.gemm." + s.tags[k] + ".ns_per_mac",
                quiet(kern_ns_per_mac[k]), "ns/MAC");
    run.add("arch.fold.ns_per_mac", double(fr.fold_ns) / macs, "ns/MAC");
    run.add("arch.fold.us_per_fold",
            ratio(double(fr.m1_fold_ns) * 1e-3, double(fr.m1_folds)),
            "us/fold");
    run.add("arch.plan.ns_per_elem",
            ratio(double(fr.plan_ns), double(fr.plan_elems)), "ns/elem");
    run.add("arch.gemm.skippable_mac_frac",
            ratio(double(skippable), double(slots)), "ratio");
    run.add("arch.referee.ns_per_mac", double(referee_ns) / macs, "ns/MAC");
    run.add("arch.gemm.folds", double(folds), "count");
    run.add("arch.gemm.sim_cycles", double(cycles), "cycles");
    const double probe_ns =
        probeParallel(run, o, quiet(pass_ns), [&] {
            return gemmPass(s, out, stats, call_ns, 0, false);
        });
    run.add("arch.gemm.parallel_eff",
            ratio(double(fr.fold_ns), probe_ns * probeThreads()),
            "ratio");
    addTraceOverhead(run, pass_ns, traced_ns);
}

// --- dnn_unary -----------------------------------------------------------

struct DnnMode
{
    NumericConfig cfg;
    const char *tag;
};

const DnnMode kDnnModes[] = {
    {{NumericMode::Fp32, 8}, "fp32"},
    {{NumericMode::FxpIres, 8}, "fxp8"},
    {{NumericMode::UnaryRate, 6}, "ur6"},
    {{NumericMode::UnaryRate, 7}, "ur7"},
    {{NumericMode::UnaryRate, 8}, "ur8"},
    {{NumericMode::UnaryTemporal, 8}, "ut8"},
    {{NumericMode::UgemmH, 8}, "ug8"},
    {{NumericMode::TubGemm, 8}, "tub8"},
    {{NumericMode::TuGemm, 8}, "tu8"},
};
constexpr std::size_t kDnnModeCount = std::size(kDnnModes);
constexpr int kDnnBatch = 32;
constexpr int kDnnClasses = 10;

/** One sublayer of the AlexLite mirror; macs_per_image 0 = ReLU/pool. */
struct MirrorLayer
{
    const char *span;
    std::unique_ptr<Layer> layer;
    i64 macs_per_image = 0;
};

/**
 * buildAlexLite()'s layer list rebuilt sublayer by sublayer from the same
 * init stream, so each sublayer's forward can be timed on its own. Its
 * logits are asserted equal to Sequential::forward bit for bit.
 */
std::vector<MirrorLayer>
alexLiteMirror(u64 seed)
{
    Prng init(seed);
    std::vector<MirrorLayer> m;
    const auto conv = [&](const char *span, int in_ch, int out_ch, int k,
                          int pad, int hw) {
        auto c = std::make_unique<Conv2d>(in_ch, out_ch, k, 1, pad, init);
        const i64 macs = c->macsPerSample(hw, hw);
        m.push_back({span, std::move(c), macs});
    };
    const auto linear = [&](const char *span, int in, int out) {
        m.push_back({span, std::make_unique<Linear>(in, out, init),
                     i64(in) * out});
    };
    const auto relu = [&] {
        m.push_back({"dnn.relu", std::make_unique<ReLU>(), 0});
    };
    const auto pool = [&] {
        m.push_back({"dnn.maxpool", std::make_unique<MaxPool2d>(), 0});
    };
    conv("dnn.conv1", 1, 8, 5, 2, 16);
    relu();
    pool();
    conv("dnn.conv2", 8, 16, 3, 1, 8);
    relu();
    pool();
    conv("dnn.conv3", 16, 24, 3, 1, 4);
    relu();
    conv("dnn.conv4", 24, 24, 3, 1, 4);
    relu();
    conv("dnn.conv5", 24, 16, 3, 1, 4);
    relu();
    pool();
    linear("dnn.fc6", 16 * 2 * 2, 64);
    relu();
    linear("dnn.fc7", 64, 48);
    relu();
    linear("dnn.fc8", 48, kDnnClasses);
    return m;
}

u64
hashTensor(const Tensor &t)
{
    u64 h = hashChain(0x7e45u, t.size());
    for (const float v : t.raw()) {
        u32 bits = 0;
        std::memcpy(&bits, &v, sizeof(bits));
        h = hashChain(h, bits);
    }
    return h;
}

void
runDnn(const Options &o, Run &run)
{
    auto model = buildAlexLite(kDnnClasses, o.seed);
    auto mirror = alexLiteMirror(o.seed);
    Tensor x(kDnnBatch, 1, 16, 16);
    Prng pixels(hashChain(o.seed, 0xd00du));
    for (float &v : x.raw())
        v = float(pixels.uniform());

    // Untimed warm-up: builds the product tables every unary mode uses;
    // each mode's logits digest is what every later pass must repeat.
    std::vector<u64> want(kDnnModeCount);
    for (std::size_t k = 0; k < kDnnModeCount; ++k)
        want[k] = hashTensor(model->forward(x, kDnnModes[k].cfg));
    run.attempted += kDnnModeCount;
    run.setupDone();
    if (o.setup_only)
        return;

    std::vector<double> pass_ns, traced_ns, latency_ms, nongemm_share;
    std::vector<std::vector<double>> mode_us(kDnnModeCount);
    std::vector<std::vector<double>> layer_ns_per_mac(mirror.size());
    std::vector<Tensor> outs(kDnnModeCount);
    std::vector<double> fwd_ns(kDnnModeCount);
    // One pass: every mode once, through Sequential::forward, or through
    // the mirror with a span per sublayer. Returns the pass wall in ns.
    const auto dnnPass = [&](u64 p, bool traced, std::vector<double> &layer_ns) {
        SpanScope pass("bench.pass", p, traced);
        for (std::size_t k = 0; k < kDnnModeCount; ++k) {
            const NumericConfig &cfg = kDnnModes[k].cfg;
            SpanScope fwd("dnn.forward", k, traced);
            if (traced) {
                Tensor cur = x;
                for (std::size_t l = 0; l < mirror.size(); ++l) {
                    SpanScope sub(mirror[l].span, k, true);
                    cur = mirror[l].layer->forward(cur, cfg);
                    layer_ns[l] += double(sub.close());
                }
                outs[k] = std::move(cur);
            } else {
                outs[k] = model->forward(x, cfg);
            }
            fwd_ns[k] = double(fwd.close());
        }
        return double(pass.close());
    };
    measurePasses(o, [&](u64 p) {
        const bool traced = o.traced() && p % 2 == 1;
        std::vector<double> layer_ns(mirror.size(), 0.0);
        const double wall = dnnPass(p + 1, traced, layer_ns);
        if (traced) {
            traced_ns.push_back(wall);
            double nongemm = 0.0;
            for (std::size_t l = 0; l < mirror.size(); ++l) {
                if (mirror[l].macs_per_image == 0)
                    nongemm += layer_ns[l];
                else
                    layer_ns_per_mac[l].push_back(
                        layer_ns[l] / double(mirror[l].macs_per_image *
                                             kDnnBatch * i64(kDnnModeCount)));
            }
            nongemm_share.push_back(ratio(
                nongemm,
                std::accumulate(layer_ns.begin(), layer_ns.end(), 0.0)));
        } else {
            pass_ns.push_back(wall);
            latency_ms.push_back(geomean(fwd_ns) * 1e-6);
            for (std::size_t k = 0; k < kDnnModeCount; ++k)
                mode_us[k].push_back(fwd_ns[k] * 1e-3 / kDnnBatch);
        }
        for (std::size_t k = 0; k < kDnnModeCount; ++k)
            if (hashTensor(outs[k]) != want[k])
                run.fail(std::string("dnn mode ") + kDnnModes[k].tag +
                         (traced ? " mirror" : "") + " pass " +
                         std::to_string(p + 1) +
                         " logits differ from the warm-up");
        run.attempted += kDnnModeCount;
    });
    run.addEndToEnd(double(kDnnBatch * kDnnModeCount), pass_ns, latency_ms);
    run.digest = 0xd11u;
    for (const u64 h : want)
        run.digest = hashChain(run.digest, h);
    if (!o.traced())
        return;

    for (std::size_t l = 0; l < mirror.size(); ++l)
        if (mirror[l].macs_per_image)
            run.add(std::string(mirror[l].span) + ".ns_per_mac",
                    quiet(layer_ns_per_mac[l]), "ns/MAC");
    run.add("dnn.nongemm.share", median(nongemm_share), "ratio");
    for (std::size_t k = 0; k < kDnnModeCount; ++k)
        run.add(std::string("dnn.mode.") + kDnnModes[k].tag + ".us_per_image",
                quiet(mode_us[k]), "us/img");
    std::vector<double> unused(mirror.size());
    probeParallel(run, o, quiet(pass_ns),
                  [&] { return dnnPass(0, false, unused); });
    addTraceOverhead(run, pass_ns, traced_ns);
}

// --- serve_zipf ----------------------------------------------------------

constexpr u64 kServeWarmup = 2000;           // untimed requests first
constexpr u64 kServeSmoke = 200;             // --smoke: all requests
constexpr double kServeReqPerSecond = 4000;  // timed requests per --seconds
constexpr u64 kServePass = 64;               // requests per client pass
constexpr u64 kServeReplay = 4000;           // requests replayed per layer

const char *const kSchemeTags[] = {"BP", "BS", "UR", "UT", "UG", "TUB", "TU"};

/** The explicit `conv:`/`matmul:` spec of a layer (decodeRequest form). */
std::string
layerSpec(const GemmLayer &l)
{
    if (l.type == GemmType::MatMul)
        return "matmul:" + std::to_string(l.ih) + "," + std::to_string(l.ic) +
               "," + std::to_string(l.oc);
    std::string s = "conv:";
    for (const int v : {l.ih, l.iw, l.ic, l.wh, l.ww, l.stride, l.oc})
        s += std::to_string(v) + ",";
    s.pop_back();
    return s;
}

/**
 * The seeded request log. Request i is a pure function of (seed, i), so
 * clients draw indices from a shared counter and any request can be
 * rebuilt for checking or replay:
 *
 *  - 3 in 4: a sweep over 4 layers drawn Zipf(1.1) over mlperfLayers()
 *    (in a seeded rank order), 3 of the 7 scheme tags, bits 8 or 16,
 *    preset edge or cloud;
 *  - 1 in 4: a gemm whose dims are unique to the request, so it always
 *    misses the result cache.
 */
class RequestLog
{
  public:
    explicit RequestLog(u64 seed) : seed_(seed)
    {
        for (const GemmLayer &l : mlperfLayers())
            specs_.push_back(layerSpec(l));
        Prng order(hashChain(seed, 0x21bfu));
        for (std::size_t i = specs_.size(); i > 1; --i)
            std::swap(specs_[i - 1], specs_[order.below(i)]);
        double total = 0.0;
        for (std::size_t r = 1; r <= specs_.size(); ++r) {
            total += std::pow(double(r), -1.1);
            cdf_.push_back(total);
        }
        for (double &c : cdf_)
            c /= total;
    }

    std::string
    request(u64 idx) const
    {
        Prng rng(hashChain(seed_, idx));
        JsonWriter w(0);
        w.beginObject();
        if (rng.below(4) == 0) {
            w.field("op", "gemm");
            w.field("id", idx);
            w.field("m", i64(1 + idx % 128));
            w.field("k", i64(1 + idx / 16384 + seed_ % 997));
            w.field("n", i64(1 + (idx / 128) % 128));
        } else {
            w.field("op", "sweep");
            w.field("id", idx);
            std::string layers;
            for (int d = 0; d < 4; ++d) {
                const auto it = std::lower_bound(cdf_.begin(), cdf_.end(),
                                                 rng.uniform());
                const auto rank = std::min<std::size_t>(
                    std::size_t(it - cdf_.begin()), specs_.size() - 1);
                layers += (d ? ";" : "") + specs_[rank];
            }
            w.field("layers", layers);
            std::vector<const char *> tags(std::begin(kSchemeTags),
                                           std::end(kSchemeTags));
            w.beginArray("schemes");
            for (std::size_t t = 0; t < 3; ++t) {
                std::swap(tags[t], tags[t + rng.below(tags.size() - t)]);
                w.value(std::string(tags[t]));
            }
            w.endArray();
            w.beginObject("system");
            w.field("bits", i64(rng.below(2) ? 16 : 8));
            w.field("preset", rng.below(2) ? "cloud" : "edge");
            w.endObject();
        }
        w.endObject();
        return w.str();
    }

    /** The seeded 1% of requests whose bytes are checked in full. */
    bool
    sampled(u64 idx) const
    {
        return hashChain(seed_ ^ 0x5a4du, idx) % 100 == 0;
    }

  private:
    u64 seed_;
    std::vector<std::string> specs_;
    std::vector<double> cdf_;
};

/** The response the daemon must send for `request`, built directly. */
bool
directResponse(const std::string &request, std::string &out)
{
    ServeRequest req;
    std::string error;
    if (!decodeRequest(request, req, error))
        return false;
    std::vector<LayerJob> jobs;
    for (const ServeJob &j : req.jobs)
        jobs.push_back({buildSystem(j.spec), j.layer});
    const auto stats = simulateLayerBatch(jobs);
    std::vector<std::string> fragments;
    for (std::size_t i = 0; i < req.jobs.size(); ++i)
        fragments.push_back(renderJobResult(req.jobs[i], stats[i]));
    out = renderResults(req.id, fragments);
    return true;
}

/** What one client thread saw. */
struct ClientLog
{
    std::vector<double> lat_ms;          // untraced timed requests
    std::vector<double> pass_ns, p50_ms; // untraced full passes
    std::vector<double> traced_ns;       // traced full passes
    std::vector<std::pair<u64, std::string>> samples; // (index, response)
    u64 attempted = 0, ok = 0;
    std::vector<std::string> errors;
};

/** Per-stage cost of the daemon's request path, replayed in isolation. */
struct ServeReplay
{
    u64 requests = 0, lookups = 0, simulated = 0;
    i64 decode_ns = 0, cache_ns = 0, roofline_ns = 0, render_ns = 0,
        respond_ns = 0;
};

/**
 * Replay the daemon's per-request pipeline over [first, first + count)
 * of the log, one stage at a time: decodeRequest, a fresh ResultCache,
 * simulateLayerBatch over the misses, renderJobResult, renderResults.
 */
bool
replayServe(const RequestLog &log, u64 first, u64 count, ServeReplay &r)
{
    ResultCache cache(DaemonOptions{}.cache_mb * 1024 * 1024, "");
    SpanScope replay("bench.replay", 0, true);
    for (u64 idx = first; idx < first + count; ++idx) {
        const std::string request = log.request(idx);
        ServeRequest req;
        std::string error;
        SpanScope decode("serve.decode", idx, true);
        const bool decoded = decodeRequest(request, req, error);
        r.decode_ns += decode.close();
        if (!decoded)
            return false;

        const std::size_t n = req.jobs.size();
        std::vector<std::string> fragments(n);
        std::vector<std::size_t> miss;
        SpanScope find("serve.cache", idx, true);
        for (std::size_t j = 0; j < n; ++j)
            if (!cache.find(req.jobs[j], &fragments[j]))
                miss.push_back(j);
        r.cache_ns += find.close();
        r.lookups += n;

        if (!miss.empty()) {
            SpanScope roof("sched.roofline", idx, true);
            std::vector<LayerJob> jobs;
            for (const std::size_t j : miss)
                jobs.push_back({buildSystem(req.jobs[j].spec),
                                req.jobs[j].layer});
            const auto stats = simulateLayerBatch(jobs);
            r.roofline_ns += roof.close();
            r.simulated += miss.size();

            SpanScope render("serve.render", idx, true);
            for (std::size_t m = 0; m < miss.size(); ++m)
                fragments[miss[m]] =
                    renderJobResult(req.jobs[miss[m]], stats[m]);
            r.render_ns += render.close();

            SpanScope insert("serve.cache", idx, true);
            for (std::size_t m = 0; m < miss.size(); ++m)
                cache.insert(req.jobs[miss[m]], stats[m], fragments[miss[m]]);
            r.cache_ns += insert.close();
        }
        SpanScope respond("serve.respond", idx, true);
        const std::string response = renderResults(req.id, fragments);
        r.respond_ns += respond.close();
        ++r.requests;
    }
    return true;
}

void
runServe(const Options &o, Run &run)
{
    const RequestLog log(o.seed);
    // The load generator: two connections, never more than the host has
    // cores for, independent of the executor's --threads.
    const unsigned clients = std::min(2u, hostThreads());
    const u64 warmup = o.smoke ? kServeSmoke / 10 : kServeWarmup;
    const u64 timed = o.smoke
                          ? kServeSmoke - warmup
                          : u64(std::llround(kServeReqPerSecond * o.seconds));

    DaemonOptions opts;
    opts.quiet = true;
    Daemon daemon(opts);
    std::string error;
    fatalIf(!daemon.start(&error), "usys_bench: daemon start failed: " + error);
    std::thread server([&daemon] { daemon.run(); });
    const u16 port = daemon.port();

    // Phases, separated by the barrier: connect | warm-up | main opens
    // the timed window | timed requests.
    std::barrier sync(std::ptrdiff_t(clients) + 1);
    std::atomic<u64> next{0};
    u64 limit = warmup; // raised by main between barriers only
    std::vector<ClientLog> logs(clients);
    std::vector<std::thread> threads;
    for (unsigned c = 0; c < clients; ++c) {
        threads.emplace_back([&, c] {
            Tracer::global().nameThread("client" + std::to_string(c));
            ClientLog &cl = logs[c];
            ServeClient client;
            std::string err;
            bool live = client.connect(port, &err);
            if (!live)
                cl.errors.push_back("connect: " + err);
            std::string response;
            // Send request idx; false once the connection is unusable.
            const auto exchange = [&](u64 idx, bool traced, i64 &ns) {
                const std::string request = log.request(idx);
                SpanScope call("serve.call", idx, traced);
                const bool sent = client.call(request, &response);
                ns = call.close();
                ++cl.attempted;
                if (sent &&
                    response.find("\"ok\":true") != std::string::npos) {
                    ++cl.ok;
                } else if (cl.errors.size() < 4) {
                    cl.errors.push_back(
                        "request " + std::to_string(idx) + ": " +
                        (sent ? response.substr(0, 160) : "transport error"));
                }
                return sent;
            };
            i64 ns = 0;
            sync.arrive_and_wait();
            for (u64 idx; live && (idx = next.fetch_add(1)) < limit;)
                live = exchange(idx, false, ns);
            sync.arrive_and_wait();
            sync.arrive_and_wait();
            for (u64 pass = 0; live && !o.setup_only; ++pass) {
                const bool traced = o.traced() && pass % 2 == 1;
                SpanScope span("bench.pass", pass, traced);
                std::vector<double> pass_lat;
                for (u64 idx; pass_lat.size() < kServePass &&
                              (idx = next.fetch_add(1)) < limit;) {
                    if (!(live = exchange(idx, traced, ns)))
                        break;
                    pass_lat.push_back(double(ns) * 1e-6);
                    if (log.sampled(idx))
                        cl.samples.emplace_back(idx, response);
                }
                const double wall = double(span.close());
                if (pass_lat.size() < kServePass)
                    break; // the log's end: a partial pass is not timed
                if (traced) {
                    cl.traced_ns.push_back(wall);
                } else {
                    cl.pass_ns.push_back(wall);
                    cl.p50_ms.push_back(median(pass_lat));
                    cl.lat_ms.insert(cl.lat_ms.end(), pass_lat.begin(),
                                     pass_lat.end());
                }
            }
        });
    }

    sync.arrive_and_wait(); // connected
    sync.arrive_and_wait(); // warm-up done
    run.setupDone();
    const ResultCacheStats c0 = daemon.cacheStats();
    const BatcherStats b0 = daemon.batcherStats();
    const DaemonStats d0 = daemon.daemonStats();
    const ExecSample e0 = ExecSample::now();
    next.store(warmup);
    limit = warmup + timed;
    sync.arrive_and_wait(); // go
    for (auto &t : threads)
        t.join();
    const ResultCacheStats c1 = daemon.cacheStats();
    const BatcherStats b1 = daemon.batcherStats();
    const DaemonStats d1 = daemon.daemonStats();
    const ExecSample e1 = ExecSample::now();

    ClientLog all;
    for (const auto &cl : logs) {
        run.attempted += cl.attempted;
        if (cl.attempted != cl.ok || !cl.errors.empty())
            run.fail(cl.errors.empty() ? "request failed" : cl.errors.front(),
                     std::max<u64>(1, cl.attempted - cl.ok));
        for (auto [dst, src] :
             {std::pair{&all.lat_ms, &cl.lat_ms},
              std::pair{&all.pass_ns, &cl.pass_ns},
              std::pair{&all.p50_ms, &cl.p50_ms},
              std::pair{&all.traced_ns, &cl.traced_ns}})
            dst->insert(dst->end(), src->begin(), src->end());
    }
    if (!o.setup_only)
        run.addEndToEnd(double(clients * kServePass), all.pass_ns, all.p50_ms);
    daemon.requestStop();
    server.join();
    if (o.setup_only)
        return;

    // Byte check of the seeded 1% sample against a direct computation.
    run.digest = 0x5e7eu;
    {
        SpanScope verify("bench.verify", 0, o.traced());
        for (const auto &cl : logs) {
            for (const auto &[idx, response] : cl.samples) {
                std::string want;
                if (!directResponse(log.request(idx), want) ||
                    want != response)
                    run.fail("request " + std::to_string(idx) +
                             ": response bytes differ from a direct "
                             "decode + simulate + render");
            }
        }
        // The digest covers a fixed slice of the log, so it does not
        // depend on how a run's requests interleaved.
        for (u64 idx = warmup; idx < warmup + 64; ++idx) {
            std::string want;
            if (directResponse(log.request(idx), want))
                run.digest = hashChain(run.digest, hashBytes(want));
        }
    }
    if (!o.traced())
        return;

    ServeReplay r;
    if (!replayServe(log, warmup, std::min(timed, kServeReplay), r))
        run.fail("replay: a logged request failed to decode");
    const double requests = double(d1.requests - d0.requests);
    const double lookups =
        double((c1.hits - c0.hits) + (c1.misses - c0.misses));
    const double decode_us = ratio(r.decode_ns * 1e-3, double(r.requests));
    const double lookup_us = ratio(r.cache_ns * 1e-3, double(r.lookups));
    const double roof_us = ratio(r.roofline_ns * 1e-3, double(r.simulated));
    const double render_us = ratio(r.render_ns * 1e-3, double(r.simulated));
    const double respond_us = ratio(r.respond_ns * 1e-3, double(r.requests));
    const double sim_per_req =
        ratio(double(b1.simulated - b0.simulated), requests);
    const double p99_ms = percentile(all.lat_ms, 99.0);
    run.notes.push_back("serve.p99_ms over " +
                        std::to_string(all.lat_ms.size()) +
                        " untraced requests (" +
                        std::to_string(all.lat_ms.size() / 100) + " beyond)");
    run.add("serve.p99_ms", p99_ms, "ms");
    run.add("serve.cache.hit_ratio",
            ratio(double(c1.hits - c0.hits), lookups), "ratio");
    run.add("serve.batcher.occupancy",
            ratio(double(b1.jobs - b0.jobs), double(b1.batches - b0.batches)),
            "jobs/batch");
    run.add("serve.batcher.coalesced_frac",
            ratio(double(b1.coalesced - b0.coalesced),
                  double(b1.jobs - b0.jobs)),
            "ratio");
    run.add("serve.decode.us_per_request", decode_us, "us/req");
    run.add("serve.cache.us_per_lookup", lookup_us, "us/lookup");
    run.add("serve.render.us_per_job", render_us, "us/job");
    run.add("sched.roofline.us_per_job", roof_us, "us/job");
    run.add("serve.wait.us_per_request",
            quiet(all.p50_ms) * 1e3 -
                (decode_us + ratio(lookups, requests) * lookup_us +
                 sim_per_req * (roof_us + render_us) + respond_us),
            "us/req");
    run.add("serve.daemon.errors", double(d1.errors - d0.errors), "count");
    run.add("serve.daemon.shed",
            double((b1.shed - b0.shed) + (d1.shed_conns - d0.shed_conns)),
            "count");
    addExecutor(run, e0, e1, o.threads, double(all.pass_ns.size()));
    addTraceOverhead(run, all.pass_ns, all.traced_ns);
}

// --- Output --------------------------------------------------------------

std::string
renderRun(const Options &o, const Run &run, const SpanSummary *spans)
{
    JsonWriter w;
    w.beginObject()
        .field("bench", "usys_bench")
        .field("schema_version", 1)
        .field("workload", o.workload)
        .field("seed", o.seed)
        .field("traced", o.traced())
        .field("setup_only", o.setup_only)
        .field("smoke", o.smoke);
    w.beginObject("fingerprint")
        .field("cpu_model", cpuModel())
        .field("nproc", u64(hostThreads()))
        .field("threads", u64(o.threads))
        .field("simd", simdLevelName(simdLevel()))
        .field("l2_kb", cpuL2Kb())
        .field("panel_kb", u64(panelBudgetKb()))
        .field("compiler", std::string(__VERSION__))
        .field("build_flags", USYS_BENCH_BUILD_FLAGS)
        .endObject();
    w.field("correct", run.failed == 0)
        .field("attempted", run.attempted)
        .field("failed", run.failed)
        .field("digest", hashHex(run.digest));
    w.beginArray("errors");
    for (const auto &e : run.errors)
        w.value(e);
    w.endArray();
    w.beginArray("pass_ms");
    for (const double ms : run.pass_ms)
        w.value(ms);
    w.endArray();
    w.beginObject("metrics");
    for (const Metric &m : run.metrics)
        w.beginObject(m.name)
            .field("value", m.value)
            .field("unit", m.unit)
            .endObject();
    w.endObject();
    if (spans) {
        w.beginObject("span_self_ms");
        for (const auto &[name, ms] : spans->self_ms)
            w.field(name, ms);
        w.endObject();
    }
    w.endObject();
    return w.str();
}

} // namespace
} // namespace usys

int
main(int argc, char **argv)
{
    using namespace usys;
    if (const char *why = instrumentedBuild()) {
        std::fprintf(stderr,
                     "usys_bench: refusing to measure: %s. Rebuild with "
                     "CMAKE_BUILD_TYPE=Release and no sanitizer.\n",
                     why);
        return 2;
    }
    const Options o = parseOptions(argc, argv);
    Executor::global().setThreads(o.threads);
    Tracer::global().nameThread("main");

    Run run;
    if (o.workload == "dnn_unary")
        runDnn(o, run);
    else if (o.workload == "serve_zipf")
        runServe(o, run);
    else
        runGemm(o, o.workload == "gemm_relu", run);

    const bool traced = o.traced() && !o.setup_only;
    SpanSummary summary;
    if (traced) {
        summary = summarizeSpans(Tracer::global().spans());
        run.add("trace.pass_coverage", summary.min_pass_coverage, "ratio");
        if (!writeChromeTrace(o.trace_path, Tracer::global()))
            run.fail("cannot write trace " + o.trace_path);
    }

    std::printf("# usys_bench %s seed %llu threads %u%s\n", o.workload.c_str(),
                (unsigned long long)o.seed, o.threads,
                traced ? " traced" : "");
    for (const Metric &m : run.metrics)
        std::printf("%s %.10g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    for (const auto &note : run.notes)
        std::printf("# %s\n", note.c_str());
    std::printf("# digest %s attempted %llu failed %llu\n",
                hashHex(run.digest).c_str(), (unsigned long long)run.attempted,
                (unsigned long long)run.failed);
    for (const auto &e : run.errors)
        std::printf("# error: %s\n", e.c_str());
    for (const auto &[name, ms] : summary.self_ms)
        std::printf("# self %-16s %12.3f ms\n", name.c_str(), ms);
    std::fflush(stdout);

    if (!o.out_path.empty() &&
        !writeTextFile(o.out_path,
                       renderRun(o, run, traced ? &summary : nullptr)))
        return 1;
    return run.failed == 0 ? 0 : 1;
}
