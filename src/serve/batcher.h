/**
 * @file
 * Admission queue that coalesces compatible layer jobs into batched
 * engine calls.
 *
 * Connection threads submit() their decoded jobs and block; a single
 * batcher thread drains the queue. When the first request of a batch
 * arrives the batcher holds it open for more to land, and closes the
 * batch at the first of:
 *
 *   - every open connection has a request queued (the daemon reports
 *     its connection count via setOpenConnections(); each connection
 *     has at most one request in flight, so nothing else can join);
 *   - the queued jobs cover the size cap (default 64,
 *     USYS_SERVE_BATCH_MAX; whole requests are admitted, never split);
 *   - the admission window expires (default 200us,
 *     USYS_SERVE_BATCH_WINDOW_US) — the upper bound on the wait while
 *     some connection is idle, and the only time bound of a standalone
 *     batcher that was never given a connection count;
 *
 * then:
 *
 *   1. deduplicates by canonical key — concurrent identical requests
 *      collapse onto one simulation;
 *   2. consults the result cache for each unique key;
 *   3. runs the remaining misses through one simulateLayerBatch()
 *      call (the engine's parallelFor fan-out path);
 *   4. renders + caches the fresh results and wakes every waiter with
 *      its rendered fragment.
 *
 * Because exactly one thread calls the engine, the stats-registry and
 * event-trace side effects inside simulateLayerBatch() stay serialized
 * — the registry is not thread-safe — without a second lock. Disabled
 * batching (--no-batch) degrades submit() to a mutex-serialized inline
 * compute, preserving that invariant.
 *
 * Overload control (PR 9): the queue is bounded by max_queued_jobs
 * (0 = unbounded). A request that would push the backlog past the
 * bound is shed immediately with SubmitStatus::Overloaded — unless the
 * queue is empty, in which case it is always admitted so an oversized
 * single request still makes progress. Each submit may carry a compute
 * deadline; a waiter whose deadline passes abandons its queue slot (or,
 * if its batch is already running, abandons the future — the shared_ptr
 * job ownership makes the late set_value harmless) and gets
 * SubmitStatus::DeadlineExceeded.
 */

#ifndef USYS_SERVE_BATCHER_H
#define USYS_SERVE_BATCHER_H

#include <chrono>
#include <condition_variable>
#include <future>
#include <limits>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "serve/request.h"
#include "serve/result_cache.h"

namespace usys {

/** Batching counters (monotonic since daemon start). */
struct BatcherStats
{
    u64 batches = 0;
    u64 jobs = 0;          // jobs admitted through submit()
    u64 unique_jobs = 0;   // after in-batch dedup
    u64 coalesced = 0;     // jobs - unique_jobs
    u64 cache_hits = 0;
    u64 simulated = 0;     // jobs that reached the engine
    u64 shed = 0;          // requests refused: queue bound exceeded
    u64 deadline_misses = 0; // requests whose compute deadline passed
    u64 queued_jobs = 0;   // gauge: jobs parked in the admission queue now

    // Why each batch's admission wait ended (batched mode only; a
    // batch flushed by shutdown counts in none of them).
    u64 close_queued = 0; // every open connection had a request queued
    u64 close_cap = 0;    // queued jobs covered max_batch
    u64 close_window = 0; // the admission window expired

    /** Mean jobs per engine batch (the occupancy the bench reports). */
    double
    occupancy() const
    {
        return batches ? double(jobs) / double(batches) : 0.0;
    }
};

/** Outcome of one submit(): only Ok fills the fragment list. */
enum class SubmitStatus
{
    Ok,
    Overloaded,       // shed at admission; retriable after backoff
    DeadlineExceeded, // compute deadline passed before completion
};

class Batcher
{
  public:
    struct Options
    {
        bool enabled = true;
        u64 window_us = 200; // admission-wait bound after the first job
        u32 max_batch = 64;  // close the batch early at this many jobs
        u64 max_queued_jobs = 0; // shed above this backlog; 0 = unbounded
    };

    /** @param cache may be null (caching disabled). */
    Batcher(const Options &opts, ResultCache *cache);
    ~Batcher();

    void start();
    void stop();

    /**
     * Compute (or fetch) rendered result fragments for `*jobs`, in job
     * order, into `out`. Blocks until every fragment is available, the
     * request is shed, or `deadline_ms` (0 = none) elapses. The jobs
     * vector is shared-owned so an abandoned (deadline-exceeded) entry
     * stays valid while the batcher finishes with it. Thread-safe.
     */
    SubmitStatus submit(std::shared_ptr<const std::vector<ServeJob>> jobs,
                        u64 deadline_ms, std::vector<std::string> &out);

    /** Convenience overload: no deadline, result by value (tests). */
    std::vector<std::string> submit(const std::vector<ServeJob> &jobs);

    BatcherStats stats() const;

    /**
     * Report how many client connections are open. Once the queue holds
     * one request per open connection the batch closes without waiting
     * out the window. Never called = pure-window behavior. Thread-safe.
     */
    void setOpenConnections(std::size_t count);

  private:
    // One queue entry per REQUEST (not per job): a 40-job sweep costs
    // one promise/future handoff, not 40 — the futex traffic of
    // per-job promises dominated the batch path under load.
    struct Pending
    {
        std::shared_ptr<const std::vector<ServeJob>> jobs;
        std::promise<std::vector<std::string>> result;
        u64 ticket = 0; // lets a timed-out waiter find + remove itself
    };

    void run();
    void processBatch(std::vector<Pending> batch);
    SubmitStatus
    computeInline(const std::vector<ServeJob> &jobs, bool has_deadline,
                  std::chrono::steady_clock::time_point deadline,
                  std::vector<std::string> &out);

    const Options opts_;
    ResultCache *const cache_;

    mutable std::mutex mu_;
    std::condition_variable cv_;
    std::vector<Pending> queue_;
    std::size_t queued_jobs_ = 0; // sum of jobs across queue_
    // max() until the daemon reports a count: the queue never reaches
    // it, so a standalone batcher closes on the cap or window only.
    std::size_t open_conns_ = std::numeric_limits<std::size_t>::max();
    u64 next_ticket_ = 1;
    bool stopping_ = false;
    std::thread worker_;
    BatcherStats stats_;

    // Serializes engine + registry access in no-batch mode (the batcher
    // thread plays that role when batching is on).
    std::mutex engine_mu_;
};

} // namespace usys

#endif // USYS_SERVE_BATCHER_H
