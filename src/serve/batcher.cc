#include "serve/batcher.h"

#include <algorithm>
#include <map>

namespace usys {

namespace {

using clock = std::chrono::steady_clock;

} // namespace

Batcher::Batcher(const Options &opts, ResultCache *cache)
    : opts_(opts), cache_(cache)
{}

Batcher::~Batcher()
{
    stop();
}

void
Batcher::start()
{
    if (!opts_.enabled || worker_.joinable())
        return;
    stopping_ = false;
    worker_ = std::thread([this] { run(); });
}

void
Batcher::stop()
{
    if (!worker_.joinable())
        return;
    {
        std::lock_guard<std::mutex> lock(mu_);
        stopping_ = true;
    }
    cv_.notify_all();
    worker_.join();
}

SubmitStatus
Batcher::submit(std::shared_ptr<const std::vector<ServeJob>> jobs,
                u64 deadline_ms, std::vector<std::string> &out)
{
    const bool has_deadline = deadline_ms != 0;
    const auto deadline =
        has_deadline ? clock::now() + std::chrono::milliseconds(deadline_ms)
                     : clock::time_point::max();
    if (!jobs || jobs->empty()) {
        out.clear();
        return SubmitStatus::Ok;
    }
    if (!opts_.enabled)
        return computeInline(*jobs, has_deadline, deadline, out);

    std::future<std::vector<std::string>> future;
    u64 ticket = 0;
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (!stopping_) {
            // Shed at admission when the backlog bound would be
            // exceeded — but an empty queue always admits, so a single
            // request larger than the bound still makes progress.
            if (opts_.max_queued_jobs != 0 && !queue_.empty() &&
                queued_jobs_ + jobs->size() > opts_.max_queued_jobs) {
                ++stats_.shed;
                return SubmitStatus::Overloaded;
            }
            Pending p;
            p.jobs = jobs;
            p.ticket = ticket = next_ticket_++;
            future = p.result.get_future();
            queued_jobs_ += jobs->size();
            queue_.push_back(std::move(p));
        }
    }
    if (!future.valid()) {
        // Daemon shutting down: compute inline rather than hanging the
        // caller on a promise no worker will fulfill.
        return computeInline(*jobs, has_deadline, deadline, out);
    }
    cv_.notify_all();
    if (!has_deadline) {
        out = future.get();
        return SubmitStatus::Ok;
    }
    if (future.wait_until(deadline) == std::future_status::ready) {
        out = future.get();
        return SubmitStatus::Ok;
    }
    // Deadline passed. If the request is still queued, pull it out so
    // the engine never sees it; if its batch is already in flight,
    // abandon the future — the batcher's late set_value lands on a
    // promise nobody reads, and the shared_ptr keeps the jobs alive.
    {
        std::lock_guard<std::mutex> lock(mu_);
        const auto it = std::find_if(
            queue_.begin(), queue_.end(),
            [ticket](const Pending &p) { return p.ticket == ticket; });
        if (it != queue_.end()) {
            queued_jobs_ -= it->jobs->size();
            queue_.erase(it);
        }
        ++stats_.deadline_misses;
    }
    return SubmitStatus::DeadlineExceeded;
}

std::vector<std::string>
Batcher::submit(const std::vector<ServeJob> &jobs)
{
    std::vector<std::string> out;
    submit(std::make_shared<const std::vector<ServeJob>>(jobs), 0, out);
    return out;
}

void
Batcher::run()
{
    for (;;) {
        std::vector<Pending> batch;
        {
            std::unique_lock<std::mutex> lock(mu_);
            cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
            if (queue_.empty() && stopping_)
                return;
            // First job seen: hold the batch open so concurrent requests
            // can join it, until the size cap is covered, every open
            // connection has a request queued (no other can arrive), or
            // the admission window expires.
            const auto deadline =
                clock::now() + std::chrono::microseconds(opts_.window_us);
            u64 *closed_by = nullptr; // stays null for a shutdown flush
            while (!stopping_) {
                if (queued_jobs_ >= opts_.max_batch) {
                    closed_by = &stats_.close_cap;
                    break;
                }
                if (queue_.size() >= open_conns_) {
                    closed_by = &stats_.close_queued;
                    break;
                }
                if (cv_.wait_until(lock, deadline) ==
                    std::cv_status::timeout) {
                    closed_by = &stats_.close_window;
                    break;
                }
            }
            // Admit whole requests until the job cap is covered (the
            // first request is always taken, even if alone it exceeds
            // the cap — requests are never split).
            std::size_t take = 0, taken_jobs = 0;
            while (take < queue_.size() &&
                   (take == 0 || taken_jobs + queue_[take].jobs->size() <=
                                     opts_.max_batch))
                taken_jobs += queue_[take++].jobs->size();
            batch.assign(std::make_move_iterator(queue_.begin()),
                         std::make_move_iterator(queue_.begin() +
                                                 long(take)));
            queue_.erase(queue_.begin(), queue_.begin() + long(take));
            queued_jobs_ -= taken_jobs;
            // Deadline-expired requests may have emptied the queue:
            // no batch, so no close to count.
            if (closed_by && take > 0)
                ++*closed_by;
        }
        if (!batch.empty())
            processBatch(std::move(batch));
    }
}

void
Batcher::processBatch(std::vector<Pending> batch)
{
    // Flatten the admitted requests into one job list, then dedup by
    // canonical key preserving first-seen order so the engine sees
    // jobs in admission order (stats/trace determinism for a fixed
    // arrival order). flat[i] = {request index, job index within it}.
    std::vector<std::pair<std::size_t, std::size_t>> flat;
    for (std::size_t r = 0; r < batch.size(); ++r)
        for (std::size_t j = 0; j < batch[r].jobs->size(); ++j)
            flat.emplace_back(r, j);
    const auto jobAt = [&](std::size_t i) -> const ServeJob & {
        return (*batch[flat[i].first].jobs)[flat[i].second];
    };

    std::map<std::string, std::vector<std::size_t>> by_key;
    std::vector<std::size_t> unique; // flat indices of first occurrences
    for (std::size_t i = 0; i < flat.size(); ++i) {
        auto [it, fresh] =
            by_key.try_emplace(jobAt(i).key, std::vector<std::size_t>{});
        if (fresh)
            unique.push_back(i);
        it->second.push_back(i);
    }

    std::vector<std::string> rendered(flat.size());
    std::vector<std::size_t> miss; // unique indices not in cache
    for (const std::size_t i : unique) {
        std::string hit;
        if (cache_ && cache_->find(jobAt(i), &hit))
            rendered[i] = std::move(hit);
        else
            miss.push_back(i);
    }

    u64 cache_hits = u64(unique.size() - miss.size());
    if (!miss.empty()) {
        std::vector<LayerJob> engine_jobs;
        engine_jobs.reserve(miss.size());
        for (const std::size_t i : miss) {
            LayerJob lj;
            lj.sys = buildSystem(jobAt(i).spec);
            lj.layer = jobAt(i).layer;
            engine_jobs.push_back(std::move(lj));
        }
        const std::vector<LayerStats> results =
            simulateLayerBatch(engine_jobs);
        for (std::size_t j = 0; j < miss.size(); ++j) {
            const std::size_t i = miss[j];
            rendered[i] = renderJobResult(jobAt(i), results[j]);
            if (cache_)
                cache_->insert(jobAt(i), results[j], rendered[i]);
        }
    }

    // Fan results out to duplicates, regroup per request, wake each
    // waiter once with its full fragment list. A waiter that abandoned
    // its future (deadline) simply never reads the value — set_value
    // on an unobserved promise is well-defined.
    for (const auto &kv : by_key) {
        const std::size_t first = kv.second.front();
        for (std::size_t idx = 1; idx < kv.second.size(); ++idx)
            rendered[kv.second[idx]] = rendered[first];
    }
    std::vector<std::vector<std::string>> per_request(batch.size());
    for (std::size_t r = 0; r < batch.size(); ++r)
        per_request[r].resize(batch[r].jobs->size());
    for (std::size_t i = 0; i < flat.size(); ++i)
        per_request[flat[i].first][flat[i].second] =
            std::move(rendered[i]);

    // Count the batch before waking anyone, so a waiter that reads
    // stats() after its response already sees the batch it rode in.
    {
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.batches;
        stats_.jobs += flat.size();
        stats_.unique_jobs += unique.size();
        stats_.coalesced += flat.size() - unique.size();
        stats_.cache_hits += cache_hits;
        stats_.simulated += miss.size();
    }
    for (std::size_t r = 0; r < batch.size(); ++r)
        batch[r].result.set_value(std::move(per_request[r]));
}

SubmitStatus
Batcher::computeInline(const std::vector<ServeJob> &jobs, bool has_deadline,
                       std::chrono::steady_clock::time_point deadline,
                       std::vector<std::string> &out)
{
    // No-batch path: connection threads race here, so the engine (and
    // its stats-registry commits) are serialized by engine_mu_.
    std::lock_guard<std::mutex> engine_lock(engine_mu_);
    out.assign(jobs.size(), std::string());
    u64 hits = 0, simulated = 0;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        std::string hit;
        if (cache_ && cache_->find(jobs[i], &hit)) {
            out[i] = std::move(hit);
            ++hits;
            continue;
        }
        // The deadline gates each engine call (cache hits are ~free):
        // a request that cannot finish in time stops burning CPU at
        // the next job boundary.
        if (has_deadline && clock::now() >= deadline) {
            std::lock_guard<std::mutex> lock(mu_);
            stats_.jobs += i;
            stats_.cache_hits += hits;
            stats_.simulated += simulated;
            ++stats_.deadline_misses;
            out.clear();
            return SubmitStatus::DeadlineExceeded;
        }
        const LayerStats stats =
            computeLayerStats(buildSystem(jobs[i].spec), jobs[i].layer);
        out[i] = renderJobResult(jobs[i], stats);
        if (cache_)
            cache_->insert(jobs[i], stats, out[i]);
        ++simulated;
    }
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.batches;
    stats_.jobs += jobs.size();
    stats_.unique_jobs += jobs.size();
    stats_.cache_hits += hits;
    stats_.simulated += simulated;
    return SubmitStatus::Ok;
}

BatcherStats
Batcher::stats() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
}

void
Batcher::setOpenConnections(std::size_t count)
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        open_conns_ = count;
    }
    cv_.notify_all();
}

} // namespace usys
