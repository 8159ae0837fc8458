#include "serve/daemon.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>

#include <sys/socket.h>

#include "common/json.h"
#include "common/logging.h"
#include "common/stats_registry.h"

namespace usys {

Daemon::Daemon(const DaemonOptions &opts) : opts_(opts)
{
    const u64 budget =
        opts_.cache ? opts_.cache_mb * 1024 * 1024 : 0;
    cache_ = std::make_unique<ResultCache>(budget, opts_.cache_file);
    Batcher::Options bopts;
    bopts.enabled = opts_.batch;
    bopts.window_us = opts_.batch_window_us;
    bopts.max_batch = opts_.batch_max;
    bopts.max_queued_jobs = opts_.max_queued_jobs;
    batcher_ = std::make_unique<Batcher>(
        bopts, cache_->enabled() ? cache_.get() : nullptr);
}

Daemon::~Daemon()
{
    requestStop();
    batcher_->stop();
}

bool
Daemon::start(std::string *error)
{
    if (!listener_.open(opts_.port, error))
        return false;
    cache_->load();
    batcher_->start();
    return true;
}

void
Daemon::requestStop()
{
    // Called from signal handlers: only the atomic flip and the
    // shutdown(2)/close(2) inside Listener::close are performed, all
    // async-signal-safe.
    if (stopping_.exchange(true))
        return;
    listener_.close();
}

void
Daemon::run()
{
    while (!stopping_.load(std::memory_order_acquire)) {
        reapFinishedHandlers();
        int accept_err = 0;
        Socket conn = listener_.accept(&accept_err);
        if (!conn.valid()) {
            if (stopping_.load(std::memory_order_acquire))
                break; // listener closed by requestStop()
            // Transient resource exhaustion or an aborted handshake
            // must not kill the listener: log, breathe, retry. Fd
            // exhaustion clears as handlers finish and get reaped.
            if (accept_err == EMFILE || accept_err == ENFILE ||
                accept_err == ECONNABORTED || accept_err == ENOMEM ||
                accept_err == ENOBUFS || accept_err == EPROTO) {
                {
                    std::lock_guard<std::mutex> lock(conn_mu_);
                    ++stats_.accept_retries;
                    publishCounters();
                }
                if (!opts_.quiet)
                    warn(std::string("accept: ") +
                         std::strerror(accept_err) + " — retrying");
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(10));
                continue;
            }
            break; // hard accept error
        }
        if (opts_.io_timeout_ms > 0)
            conn.setIoTimeoutMs(opts_.io_timeout_ms);
        std::lock_guard<std::mutex> lock(conn_mu_);
        if (opts_.max_conns > 0 && open_fds_.size() >= opts_.max_conns) {
            // Over the connection cap: tell the client to back off and
            // close. The io timeout (when armed) bounds this send too.
            ++stats_.shed_conns;
            publishCounters();
            conn.sendFrame(renderErrorCode(
                0, "overloaded", "connection limit reached", true));
            continue; // Socket destructor closes the fd
        }
        ++stats_.connections;
        open_fds_.push_back(conn.fd());
        batcher_->setOpenConnections(open_fds_.size());
        threads_.emplace_back(
            [this](Socket sock) { handleConnection(std::move(sock)); },
            std::move(conn));
    }

    // Drain: unblock every handler parked in recv, then join.
    {
        std::lock_guard<std::mutex> lock(conn_mu_);
        for (const int fd : open_fds_)
            ::shutdown(fd, SHUT_RDWR);
    }
    std::vector<std::thread> threads;
    {
        std::lock_guard<std::mutex> lock(conn_mu_);
        threads.swap(threads_);
        done_ids_.clear();
    }
    for (std::thread &t : threads)
        t.join();
    batcher_->stop();
    cache_->flush();
    std::lock_guard<std::mutex> lock(conn_mu_);
    publishCounters();
}

void
Daemon::reapFinishedHandlers()
{
    // Handlers announce completion by id; joining them here keeps the
    // thread list bounded by the number of LIVE connections instead of
    // growing one entry per connection ever accepted.
    std::vector<std::thread> finished;
    {
        std::lock_guard<std::mutex> lock(conn_mu_);
        for (const std::thread::id id : done_ids_) {
            const auto it = std::find_if(
                threads_.begin(), threads_.end(),
                [id](const std::thread &t) { return t.get_id() == id; });
            if (it != threads_.end()) {
                finished.push_back(std::move(*it));
                threads_.erase(it);
            }
        }
        done_ids_.clear();
    }
    for (std::thread &t : finished)
        t.join();
}

void
Daemon::handleConnection(Socket sock)
{
    bool timed_out = false;
    std::string payload;
    for (;;) {
        bool eof = false;
        if (!sock.recvFrame(payload, &eof)) {
            // Clean close, stop-shutdown, protocol error — or a peer
            // that went silent past the io timeout and gets reaped.
            timed_out = sock.timedOut();
            break;
        }
        bool stop_after = false;
        const std::string response = handleRequest(payload, &stop_after);
        const bool sent = sock.sendFrame(response);
        if (!sent)
            timed_out = sock.timedOut();
        if (stop_after) {
            // Shutdown op: ack FIRST, then stop — requestStop() leads
            // the drain to SHUT_RDWR this very connection, which must
            // not race the response still being written.
            requestStop();
            break;
        }
        if (!sent)
            break;
    }
    const int fd = sock.fd();
    std::lock_guard<std::mutex> lock(conn_mu_);
    if (timed_out) {
        ++stats_.io_timeouts;
        if (!opts_.quiet)
            warn("connection reaped: io timeout after " +
                 std::to_string(opts_.io_timeout_ms) + " ms");
    }
    open_fds_.erase(
        std::remove(open_fds_.begin(), open_fds_.end(), fd),
        open_fds_.end());
    // One fewer connection may complete the batcher's "every open
    // connection has a request queued" rule: this wakes it.
    batcher_->setOpenConnections(open_fds_.size());
    done_ids_.push_back(std::this_thread::get_id());
    publishCounters();
}

std::string
Daemon::handleRequest(const std::string &payload, bool *stop_after)
{
    {
        std::lock_guard<std::mutex> lock(conn_mu_);
        ++stats_.requests;
    }
    ServeRequest req;
    std::string error;
    if (!decodeRequest(payload, req, error)) {
        std::lock_guard<std::mutex> lock(conn_mu_);
        ++stats_.errors;
        return renderError(req.id, error);
    }
    if (req.op == "ping")
        return renderPong(req.id);
    if (req.op == "stats") {
        {
            std::lock_guard<std::mutex> lock(conn_mu_);
            publishCounters();
        }
        return renderStats();
    }
    if (req.op == "shutdown") {
        *stop_after = true; // stop AFTER the ack is on the wire
        return renderPong(req.id);
    }
    // Compute op: per-request deadline wins over the daemon default.
    // The jobs move into shared ownership so a deadline-abandoned
    // request stays valid while the batcher finishes with it.
    const u64 deadline_ms =
        req.deadline_ms ? req.deadline_ms : opts_.request_deadline_ms;
    const auto jobs = std::make_shared<const std::vector<ServeJob>>(
        std::move(req.jobs));
    std::vector<std::string> fragments;
    switch (batcher_->submit(jobs, deadline_ms, fragments)) {
      case SubmitStatus::Ok:
        return renderResults(req.id, fragments);
      case SubmitStatus::Overloaded: {
        std::lock_guard<std::mutex> lock(conn_mu_);
        publishCounters();
        return renderErrorCode(req.id, "overloaded",
                               "admission queue full — retry with backoff",
                               true);
      }
      case SubmitStatus::DeadlineExceeded:
      default: {
        std::lock_guard<std::mutex> lock(conn_mu_);
        publishCounters();
        return renderErrorCode(req.id, "deadline_exceeded",
                               "compute deadline of " +
                                   std::to_string(deadline_ms) +
                                   " ms exceeded",
                               false);
      }
    }
}

void
Daemon::publishCounters()
{
    // Caller holds conn_mu_, which serializes the set() stores below.
    // The metrics sampler may read concurrently — racy by design, same
    // as every other live-sampled counter (see metrics.h).
    const BatcherStats bs = batcher_->stats();
    StatsRegistry &reg = statsRegistry();
    reg.counter("serve.shed_total",
                "requests + connections shed under overload")
        .set(bs.shed + stats_.shed_conns);
    reg.counter("serve.deadline_total",
                "requests that missed their compute deadline")
        .set(bs.deadline_misses);
    reg.counter("serve.open_conns", "currently open client connections")
        .set(open_fds_.size());
    reg.counter("serve.batch_close_queued_total",
                "batches closed once every open connection had a "
                "request queued")
        .set(bs.close_queued);
    reg.counter("serve.batch_close_cap_total",
                "batches closed at the job cap")
        .set(bs.close_cap);
    reg.counter("serve.batch_close_window_total",
                "batches closed by the admission window expiring")
        .set(bs.close_window);
    reg.counter("serve.io_timeout_total",
                "connections reaped by the io timeout")
        .set(stats_.io_timeouts);
    reg.counter("serve.accept_retry_total",
                "transient accept() failures survived")
        .set(stats_.accept_retries);
}

std::string
Daemon::renderStats() const
{
    DaemonStats ds;
    u64 open_conns = 0;
    {
        std::lock_guard<std::mutex> lock(conn_mu_);
        ds = stats_;
        open_conns = open_fds_.size();
    }
    const BatcherStats bs = batcher_->stats();
    const ResultCacheStats cs = cache_->stats();
    JsonWriter w(0);
    w.beginObject();
    w.field("ok", true);
    w.beginObject("daemon");
    w.field("connections", ds.connections);
    w.field("requests", ds.requests);
    w.field("errors", ds.errors);
    w.field("open_conns", open_conns);
    w.endObject();
    w.beginObject("robustness");
    w.field("shed_conns", ds.shed_conns);
    w.field("shed_requests", bs.shed);
    w.field("deadline_misses", bs.deadline_misses);
    w.field("io_timeouts", ds.io_timeouts);
    w.field("accept_retries", ds.accept_retries);
    w.endObject();
    w.beginObject("batch");
    w.field("enabled", opts_.batch);
    w.field("batches", bs.batches);
    w.field("jobs", bs.jobs);
    w.field("unique_jobs", bs.unique_jobs);
    w.field("coalesced", bs.coalesced);
    w.field("occupancy", bs.occupancy());
    w.field("close_queued", bs.close_queued);
    w.field("close_cap", bs.close_cap);
    w.field("close_window", bs.close_window);
    w.endObject();
    w.beginObject("cache");
    w.field("enabled", cache_->enabled());
    w.field("hits", cs.hits);
    w.field("misses", cs.misses);
    w.field("insertions", cs.insertions);
    w.field("evictions", cs.evictions);
    w.field("entries", cs.entries);
    w.field("bytes", cs.bytes);
    w.field("restored", cs.restored);
    w.endObject();
    w.field("simulated", bs.simulated);
    w.endObject();
    return w.str();
}

} // namespace usys
