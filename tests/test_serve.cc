/**
 * @file
 * Serve-layer unit tests: canonical key stability, result packing,
 * cache LRU/persistence, and byte-identity through a live daemon.
 */

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/json_parse.h"
#include "common/socket.h"
#include "sched/simulator.h"
#include "serve/client.h"
#include "serve/daemon.h"
#include "serve/request.h"
#include "serve/result_cache.h"

namespace usys {
namespace {

ServeRequest
decodeOrDie(const std::string &payload)
{
    ServeRequest req;
    std::string error;
    EXPECT_TRUE(decodeRequest(payload, req, error)) << error;
    return req;
}

// --- Canonical keys ---------------------------------------------------

TEST(ServeCanonicalKey, DefaultsVsExplicitProduceTheSameKey)
{
    // The daemon's documented defaults, spelled out field by field,
    // must hash exactly like a request that says nothing at all.
    const ServeRequest implicit = decodeOrDie(
        R"({"op":"gemm","id":1,"m":64,"k":128,"n":32})");
    const ServeRequest explicit_req = decodeOrDie(
        R"({"op":"gemm","id":2,"m":64,"k":128,"n":32,"system":{)"
        R"("preset":"edge","scheme":"UR","bits":8,"et_bits":0,)"
        R"("rows":12,"cols":14,"freq_ghz":0.4}})");
    ASSERT_EQ(implicit.jobs.size(), 1u);
    ASSERT_EQ(explicit_req.jobs.size(), 1u);
    EXPECT_EQ(implicit.jobs[0].key, explicit_req.jobs[0].key);
    EXPECT_EQ(implicit.jobs[0].hash, explicit_req.jobs[0].hash);
}

TEST(ServeCanonicalKey, JsonFieldOrderIsIrrelevant)
{
    const ServeRequest a = decodeOrDie(
        R"({"op":"gemm","id":1,"m":8,"k":16,"n":4,)"
        R"("system":{"scheme":"BP","bits":6,"preset":"cloud"}})");
    const ServeRequest b = decodeOrDie(
        R"({"system":{"preset":"cloud","bits":6,"scheme":"BP"},)"
        R"("n":4,"k":16,"m":8,"id":99,"op":"gemm"})");
    ASSERT_EQ(a.jobs.size(), 1u);
    ASSERT_EQ(b.jobs.size(), 1u);
    EXPECT_EQ(a.jobs[0].key, b.jobs[0].key);
    EXPECT_EQ(a.jobs[0].hash, b.jobs[0].hash);
}

TEST(ServeCanonicalKey, FullPeriodEtBitsFoldsToZero)
{
    // For UR, et_bits == bits means "no early termination" — the same
    // effective config as et_bits 0, so the keys must collide.
    const ServeRequest zero = decodeOrDie(
        R"({"op":"gemm","id":1,"m":8,"k":16,"n":4,)"
        R"("system":{"scheme":"UR","bits":8,"et_bits":0}})");
    const ServeRequest full = decodeOrDie(
        R"({"op":"gemm","id":1,"m":8,"k":16,"n":4,)"
        R"("system":{"scheme":"UR","bits":8,"et_bits":8}})");
    EXPECT_EQ(zero.jobs[0].key, full.jobs[0].key);

    const ServeRequest early = decodeOrDie(
        R"({"op":"gemm","id":1,"m":8,"k":16,"n":4,)"
        R"("system":{"scheme":"UR","bits":8,"et_bits":4}})");
    EXPECT_NE(zero.jobs[0].key, early.jobs[0].key);
}

TEST(ServeCanonicalKey, DistinctConfigsGetDistinctKeys)
{
    const char *variants[] = {
        R"({"op":"gemm","id":1,"m":8,"k":16,"n":4})",
        R"({"op":"gemm","id":1,"m":8,"k":16,"n":5})",
        R"({"op":"gemm","id":1,"m":8,"k":16,"n":4,)"
        R"("system":{"bits":7}})",
        R"({"op":"gemm","id":1,"m":8,"k":16,"n":4,)"
        R"("system":{"scheme":"BS"}})",
        R"({"op":"gemm","id":1,"m":8,"k":16,"n":4,)"
        R"("system":{"preset":"cloud"}})",
    };
    std::vector<std::string> keys;
    for (const char *payload : variants)
        keys.push_back(decodeOrDie(payload).jobs[0].key);
    for (std::size_t i = 0; i < keys.size(); ++i)
        for (std::size_t j = i + 1; j < keys.size(); ++j)
            EXPECT_NE(keys[i], keys[j]) << i << " vs " << j;
}

// --- Result packing ---------------------------------------------------

TEST(ServePacking, RoundTripIsBitExact)
{
    const ServeRequest req = decodeOrDie(
        R"({"op":"layer","id":1,"layers":"alexnet"})");
    ASSERT_FALSE(req.jobs.empty());
    for (const ServeJob &job : req.jobs) {
        const LayerStats stats =
            computeLayerStats(buildSystem(job.spec), job.layer);
        const std::string packed = packLayerStats(stats);
        LayerStats back;
        ASSERT_TRUE(unpackLayerStats(packed, back));
        // Bit-exactness via the packed form itself: double fields went
        // through packDouble (IEEE-754 bit patterns), so equal packs
        // imply equal bits everywhere.
        EXPECT_EQ(packed, packLayerStats(back));
        // And the served JSON derived from the unpacked copy matches.
        EXPECT_EQ(renderJobResult(job, stats), renderJobResult(job, back));
    }
}

TEST(ServePacking, MalformedPayloadsAreRejected)
{
    LayerStats out;
    EXPECT_FALSE(unpackLayerStats("", out));
    EXPECT_FALSE(unpackLayerStats("deadbeef", out));
    EXPECT_FALSE(unpackLayerStats("zz,zz", out));
    const ServeRequest req = decodeOrDie(
        R"({"op":"gemm","id":1,"m":8,"k":16,"n":4})");
    const LayerStats stats =
        computeLayerStats(buildSystem(req.jobs[0].spec),
                          req.jobs[0].layer);
    std::string packed = packLayerStats(stats);
    EXPECT_TRUE(unpackLayerStats(packed, out));
    packed.resize(packed.size() - 17); // drop one field
    EXPECT_FALSE(unpackLayerStats(packed, out));
}

// --- Result cache -----------------------------------------------------

std::vector<ServeJob>
distinctJobs(std::size_t count)
{
    std::vector<ServeJob> jobs;
    for (std::size_t i = 0; i < count; ++i) {
        const std::string payload =
            "{\"op\":\"gemm\",\"id\":1,\"m\":" + std::to_string(8 + i) +
            ",\"k\":16,\"n\":4}";
        ServeRequest req;
        std::string error;
        EXPECT_TRUE(decodeRequest(payload, req, error)) << error;
        jobs.push_back(req.jobs[0]);
    }
    return jobs;
}

TEST(ServeResultCache, LruEvictsUnderByteBudget)
{
    const std::vector<ServeJob> jobs = distinctJobs(16);
    std::vector<std::string> rendered;
    std::vector<LayerStats> stats;
    for (const ServeJob &job : jobs) {
        stats.push_back(computeLayerStats(buildSystem(job.spec),
                                          job.layer));
        rendered.push_back(renderJobResult(job, stats.back()));
    }
    // Size the budget for roughly four entries.
    const u64 per_entry =
        u64(jobs[0].key.size() + rendered[0].size() +
            packLayerStats(stats[0]).size());
    ResultCache cache(4 * per_entry + per_entry / 2, "");
    for (std::size_t i = 0; i < jobs.size(); ++i)
        cache.insert(jobs[i], stats[i], rendered[i]);

    const ResultCacheStats cs = cache.stats();
    EXPECT_GT(cs.evictions, 0u);
    EXPECT_LE(cs.entries, 5u);
    EXPECT_LE(cs.bytes, 4 * per_entry + per_entry / 2);

    // Most-recently-inserted survives; the very first was evicted.
    std::string hit;
    EXPECT_TRUE(cache.find(jobs.back(), &hit));
    EXPECT_EQ(hit, rendered.back());
    EXPECT_FALSE(cache.find(jobs.front(), &hit));
}

TEST(ServeResultCache, FindRefreshesLruPosition)
{
    const std::vector<ServeJob> jobs = distinctJobs(3);
    std::vector<std::string> rendered;
    std::vector<LayerStats> stats;
    u64 bytes = 0;
    for (const ServeJob &job : jobs) {
        stats.push_back(computeLayerStats(buildSystem(job.spec),
                                          job.layer));
        rendered.push_back(renderJobResult(job, stats.back()));
        bytes += u64(job.key.size() + rendered.back().size() +
                     packLayerStats(stats.back()).size());
    }
    // Budget for exactly two of the three entries.
    ResultCache cache(bytes * 2 / 3, "");
    cache.insert(jobs[0], stats[0], rendered[0]);
    cache.insert(jobs[1], stats[1], rendered[1]);
    std::string hit;
    ASSERT_TRUE(cache.find(jobs[0], &hit)); // 0 now most recent
    cache.insert(jobs[2], stats[2], rendered[2]);
    EXPECT_TRUE(cache.find(jobs[0], &hit));  // refreshed: survived
    EXPECT_FALSE(cache.find(jobs[1], &hit)); // LRU victim
}

TEST(ServeResultCache, ZeroBudgetDisablesCaching)
{
    const std::vector<ServeJob> jobs = distinctJobs(1);
    const LayerStats stats =
        computeLayerStats(buildSystem(jobs[0].spec), jobs[0].layer);
    ResultCache cache(0, "");
    EXPECT_FALSE(cache.enabled());
    cache.insert(jobs[0], stats, renderJobResult(jobs[0], stats));
    std::string hit;
    EXPECT_FALSE(cache.find(jobs[0], &hit));
}

TEST(ServeResultCache, PersistenceRoundTripServesIdenticalBytes)
{
    const std::string path =
        testing::TempDir() + "/test_serve_cache.ckpt";
    std::remove(path.c_str());
    const std::vector<ServeJob> jobs = distinctJobs(4);
    std::vector<std::string> rendered;
    {
        ResultCache cache(1 << 20, path);
        cache.load();
        for (const ServeJob &job : jobs) {
            const LayerStats stats =
                computeLayerStats(buildSystem(job.spec), job.layer);
            rendered.push_back(renderJobResult(job, stats));
            cache.insert(job, stats, rendered.back());
        }
        cache.flush();
    }
    {
        ResultCache cache(1 << 20, path);
        cache.load();
        EXPECT_EQ(cache.stats().restored, jobs.size());
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            std::string hit;
            ASSERT_TRUE(cache.find(jobs[i], &hit)) << i;
            // The restored entry re-renders from packed bits; the
            // bytes must match the original response exactly.
            EXPECT_EQ(hit, rendered[i]) << i;
        }
    }
    std::remove(path.c_str());
}

// --- Live daemon ------------------------------------------------------

class ServeDaemonTest : public testing::Test
{
  protected:
    void
    startDaemon(const DaemonOptions &opts)
    {
        daemon_ = std::make_unique<Daemon>(opts);
        std::string error;
        ASSERT_TRUE(daemon_->start(&error)) << error;
        runner_ = std::thread([this] { daemon_->run(); });
    }

    void
    stopDaemon()
    {
        if (!daemon_)
            return;
        daemon_->requestStop();
        runner_.join();
        daemon_.reset();
    }

    void
    TearDown() override
    {
        stopDaemon();
    }

    std::string
    call(const std::string &request)
    {
        ServeClient client;
        std::string error;
        EXPECT_TRUE(client.connect(daemon_->port(), &error)) << error;
        std::string response;
        EXPECT_TRUE(client.call(request, &response));
        return response;
    }

    std::unique_ptr<Daemon> daemon_;
    std::thread runner_;
};

TEST_F(ServeDaemonTest, ColdWarmAndRestartResponsesAreByteIdentical)
{
    const std::string path =
        testing::TempDir() + "/test_serve_daemon.ckpt";
    std::remove(path.c_str());
    const std::string request =
        R"({"op":"sweep","id":7,"layers":"alexnet",)"
        R"("schemes":["BP","UR"],"system":{"bits":8}})";

    DaemonOptions opts;
    opts.cache_file = path;
    opts.quiet = true;
    startDaemon(opts);
    const std::string cold = call(request);
    EXPECT_NE(cold.find("\"ok\":true"), std::string::npos);
    const std::string warm = call(request);
    EXPECT_EQ(cold, warm); // a cache hit must be invisible
    stopDaemon();          // flushes the checkpoint

    startDaemon(opts); // restores it
    EXPECT_GT(daemon_->cacheStats().restored, 0u);
    EXPECT_EQ(cold, call(request));
    std::remove(path.c_str());
}

TEST_F(ServeDaemonTest, BatchedAndInlinePathsAgreeByteForByte)
{
    const std::string request =
        R"({"op":"layer","id":3,"layers":"conv:15,15,64,3,3,1,64",)"
        R"("system":{"scheme":"UR","bits":8,"et_bits":6}})";
    DaemonOptions batched;
    batched.quiet = true;
    startDaemon(batched);
    const std::string via_batcher = call(request);
    stopDaemon();

    DaemonOptions inline_opts;
    inline_opts.quiet = true;
    inline_opts.batch = false;
    inline_opts.cache = false;
    startDaemon(inline_opts);
    EXPECT_EQ(via_batcher, call(request));
}

// --- Robustness: error frames, shedding, deadlines, timeouts ----------

TEST(ServeErrorFrames, CarryCodeAndRetriableFields)
{
    // The wire format is load-bearing: the client library detects
    // retriable responses by byte pattern, not by JSON parse.
    EXPECT_EQ(renderErrorCode(7, "overloaded", "queue full", true),
              R"({"id":7,"ok":false,"error":"queue full",)"
              R"("code":"overloaded","retriable":true})");
    EXPECT_EQ(renderErrorCode(9, "deadline_exceeded", "too slow", false),
              R"({"id":9,"ok":false,"error":"too slow",)"
              R"("code":"deadline_exceeded","retriable":false})");
    // Plain renderError is the bad_request shorthand.
    EXPECT_EQ(renderError(3, "nope"),
              renderErrorCode(3, "bad_request", "nope", false));
}

TEST(ServeRequestDecode, DeadlineMsIsBoundsChecked)
{
    ServeRequest req;
    std::string error;
    EXPECT_TRUE(decodeRequest(
        R"({"op":"ping","id":1,"deadline_ms":2500})", req, error));
    EXPECT_EQ(req.deadline_ms, 2500u);
    EXPECT_FALSE(decodeRequest(
        R"({"op":"ping","id":1,"deadline_ms":-1})", req, error));
    EXPECT_NE(error.find("deadline_ms"), std::string::npos);
    EXPECT_FALSE(decodeRequest(
        R"({"op":"ping","id":1,"deadline_ms":3600001})", req, error));
}

TEST(ServeJsonParse, NestingDepthIsBounded)
{
    const auto nested = [](std::size_t n) {
        std::string doc(n, '[');
        doc.append(n, ']');
        return doc;
    };
    EXPECT_TRUE(parseJson(nested(64)).ok);  // the documented limit
    EXPECT_TRUE(parseJson(nested(65)).ok);  // exact boundary
    const JsonParseResult deep = parseJson(nested(66));
    EXPECT_FALSE(deep.ok);
    EXPECT_NE(deep.error.find("nesting too deep"), std::string::npos);
}

TEST(ServeBatcher, BoundedQueueShedsWithOverloaded)
{
    // A standalone Batcher is never told a connection count, so it
    // keeps the pure-window close rule: the parked job below really
    // does sit out the whole window instead of running at once.
    Batcher::Options opts;
    opts.enabled = true;
    opts.window_us = 500000; // hold the first batch open half a second
    opts.max_batch = 1000;
    opts.max_queued_jobs = 1;
    Batcher batcher(opts, nullptr);
    batcher.start();

    // A background submitter parks one job in the admission queue,
    // where it sits for the full window. Nothing else submits until the
    // queued-jobs gauge shows it parked, so it is admitted at once (the
    // retry only guards against a shed that cannot happen here).
    const auto jobs = std::make_shared<const std::vector<ServeJob>>(
        distinctJobs(1));
    std::vector<std::string> first_out;
    std::thread submitter([&] {
        SubmitStatus status;
        do {
            first_out.clear();
            status = batcher.submit(jobs, 0, first_out);
            if (status == SubmitStatus::Overloaded)
                std::this_thread::sleep_for(
                    std::chrono::microseconds(100));
        } while (status == SubmitStatus::Overloaded);
        EXPECT_EQ(status, SubmitStatus::Ok);
    });

    // Wait until the parked job makes the queue non-empty, so that no
    // probe can race ahead of it: then our one extra job exceeds the
    // bound and must be shed. (A probe that found the queue empty would
    // be admitted alone and exit via its 1ms deadline; the parked job
    // stays queued for the rest of its half-second window.)
    for (int wait = 0; wait < 100000 && batcher.stats().queued_jobs == 0;
         ++wait)
        std::this_thread::sleep_for(std::chrono::microseconds(100));
    const auto probe = std::make_shared<const std::vector<ServeJob>>(
        distinctJobs(1));
    bool shed = false;
    for (int attempt = 0; attempt < 2000 && !shed; ++attempt) {
        std::vector<std::string> out;
        shed = batcher.submit(probe, 1, out) == SubmitStatus::Overloaded;
    }
    EXPECT_TRUE(shed);
    EXPECT_GE(batcher.stats().shed, 1u);

    submitter.join();
    ASSERT_EQ(first_out.size(), 1u); // the parked request still completed
    EXPECT_NE(first_out[0].find("\"layer\""), std::string::npos)
        << first_out[0];
    batcher.stop();
}

TEST(ServeBatcher, InlineComputeHonorsDeadline)
{
    Batcher::Options opts;
    opts.enabled = false; // inline path: deadline gates each engine call
    Batcher batcher(opts, nullptr);

    ServeRequest req;
    std::string error;
    ASSERT_TRUE(decodeRequest(
        R"({"op":"sweep","id":1,"layers":"alexnet",)"
        R"("schemes":["BP","UR"]})", req, error)) << error;
    ASSERT_GT(req.jobs.size(), 10u);

    // One analytic job is microseconds; thousands guarantee the 1ms
    // deadline passes at some job boundary. The abort then makes the
    // request cheap again: compute stops at that boundary, so the test
    // costs ~1ms of engine time no matter how long the list is.
    std::vector<ServeJob> many;
    while (many.size() < 5000)
        many.insert(many.end(), req.jobs.begin(), req.jobs.end());

    std::vector<std::string> out;
    const SubmitStatus status = batcher.submit(
        std::make_shared<const std::vector<ServeJob>>(std::move(many)), 1,
        out);
    EXPECT_EQ(status, SubmitStatus::DeadlineExceeded);
    EXPECT_TRUE(out.empty());
    EXPECT_EQ(batcher.stats().deadline_misses, 1u);
}

TEST_F(ServeDaemonTest, RequestDeadlineProducesStructuredError)
{
    DaemonOptions opts;
    opts.quiet = true;
    opts.cache = false;
    // Hold the admission window open far past the 1ms request deadline
    // so the request deterministically expires while parked. A batch
    // also closes once every open connection has a request queued, so
    // an idle second connection is what keeps the window open.
    opts.batch_window_us = 500000;
    opts.request_deadline_ms = 1;
    startDaemon(opts);
    ServeClient idle;
    std::string error;
    ASSERT_TRUE(idle.connect(daemon_->port(), &error)) << error;
    ASSERT_TRUE(idle.ping(10)); // guarantees the daemon counts it

    const std::string response = call(
        R"({"op":"sweep","id":11,"layers":"alexnet",)"
        R"("schemes":["BP","UR"]})");
    EXPECT_NE(response.find("\"code\":\"deadline_exceeded\""),
              std::string::npos)
        << response;
    EXPECT_NE(response.find("\"retriable\":false"), std::string::npos);
    // The daemon survives and serves the next request normally.
    const std::string pong = call(R"({"op":"ping","id":12})");
    EXPECT_NE(pong.find("\"pong\":true"), std::string::npos);
    EXPECT_GE(daemon_->batcherStats().deadline_misses, 1u);

    // A request with room to wait rides the window out: the idle
    // connection is still open, so only the window can close its batch.
    const std::string late = call(
        R"({"op":"gemm","id":13,"m":8,"k":16,"n":4,"deadline_ms":5000})");
    EXPECT_NE(late.find("\"ok\":true"), std::string::npos) << late;
    EXPECT_GE(daemon_->batcherStats().close_window, 1u);
}

TEST_F(ServeDaemonTest, BatchClosesOnceEveryConnectionHasARequestQueued)
{
    DaemonOptions opts;
    opts.quiet = true;
    opts.cache = false;
    opts.batch_window_us = 500000;
    startDaemon(opts);

    // Both connections are counted before either sends, so the first
    // request waits for the second — and for nothing after it.
    ServeClient clients[2];
    std::string error;
    for (u64 i = 0; i < 2; ++i) {
        ASSERT_TRUE(clients[i].connect(daemon_->port(), &error)) << error;
        ASSERT_TRUE(clients[i].ping(i));
    }
    const std::string requests[2] = {
        R"({"op":"gemm","id":1,"m":8,"k":16,"n":4})",
        R"({"op":"gemm","id":2,"m":9,"k":16,"n":4})"};
    std::string responses[2];
    const auto start = std::chrono::steady_clock::now();
    std::thread second(
        [&] { EXPECT_TRUE(clients[1].call(requests[1], &responses[1])); });
    EXPECT_TRUE(clients[0].call(requests[0], &responses[0]));
    second.join();
    const auto wall = std::chrono::steady_clock::now() - start;

    for (const std::string &response : responses)
        EXPECT_NE(response.find("\"ok\":true"), std::string::npos)
            << response;
    EXPECT_LT(wall, std::chrono::milliseconds(250)); // window is 500ms
    const BatcherStats bs = daemon_->batcherStats();
    EXPECT_EQ(bs.batches, 1u);
    EXPECT_EQ(bs.jobs, 2u);
    EXPECT_EQ(bs.close_queued, 1u);
    EXPECT_EQ(bs.close_cap, 0u);
    EXPECT_EQ(bs.close_window, 0u);
    const std::string stats = call(R"({"op":"stats","id":3})");
    EXPECT_NE(stats.find(R"("close_queued":1,"close_cap":0,)"
                         R"("close_window":0)"),
              std::string::npos)
        << stats;
}

TEST_F(ServeDaemonTest, ClosingTheIdleConnectionReleasesAParkedBatch)
{
    DaemonOptions opts;
    opts.quiet = true;
    opts.cache = false;
    opts.batch_window_us = 500000;
    startDaemon(opts);

    ServeClient busy, idle;
    std::string error;
    ASSERT_TRUE(busy.connect(daemon_->port(), &error)) << error;
    ASSERT_TRUE(idle.connect(daemon_->port(), &error)) << error;
    ASSERT_TRUE(busy.ping(1));
    ASSERT_TRUE(idle.ping(2));

    std::string response;
    std::thread sender([&] {
        EXPECT_TRUE(busy.call(R"({"op":"gemm","id":3,"m":8,"k":16,"n":4})",
                              &response));
    });
    // Two pings plus the gemm: once the daemon has counted the gemm,
    // it is microseconds from parking in the batcher.
    for (int i = 0; i < 5000 && daemon_->daemonStats().requests < 3; ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_EQ(daemon_->batcherStats().batches, 0u); // parked: idle is open

    // The close leaves one open connection with its request queued:
    // that must wake the batcher, far ahead of the 500ms window.
    const auto closed = std::chrono::steady_clock::now();
    idle.close();
    sender.join();
    EXPECT_LT(std::chrono::steady_clock::now() - closed,
              std::chrono::milliseconds(250));
    EXPECT_NE(response.find("\"ok\":true"), std::string::npos) << response;
    const BatcherStats bs = daemon_->batcherStats();
    EXPECT_EQ(bs.batches, 1u);
    EXPECT_EQ(bs.close_queued, 1u);
    EXPECT_EQ(bs.close_window, 0u);
}

TEST_F(ServeDaemonTest, ConnectionCapShedsWithRetriableError)
{
    DaemonOptions opts;
    opts.quiet = true;
    opts.max_conns = 1;
    startDaemon(opts);

    ServeClient first;
    std::string error;
    ASSERT_TRUE(first.connect(daemon_->port(), &error)) << error;
    ASSERT_TRUE(first.ping(1)); // guarantees the fd is registered

    // Second connection is accepted only to be told to go away.
    Socket second = connectLoopback(daemon_->port(), &error);
    ASSERT_TRUE(second.valid()) << error;
    std::string frame;
    ASSERT_TRUE(second.recvFrame(frame));
    EXPECT_NE(frame.find("\"code\":\"overloaded\""), std::string::npos)
        << frame;
    EXPECT_NE(frame.find("\"retriable\":true"), std::string::npos);
    EXPECT_GE(daemon_->daemonStats().shed_conns, 1u);

    // The admitted client is unaffected.
    EXPECT_TRUE(first.ping(2));
}

TEST_F(ServeDaemonTest, SilentClientIsReapedByIoTimeout)
{
    DaemonOptions opts;
    opts.quiet = true;
    opts.io_timeout_ms = 100;
    startDaemon(opts);

    std::string error;
    Socket silent = connectLoopback(daemon_->port(), &error);
    ASSERT_TRUE(silent.valid()) << error;
    const char half_header[2] = {0x08, 0x00}; // promise, then silence
    ASSERT_TRUE(silent.sendAll(half_header, sizeof(half_header)));

    // The daemon's recv deadline fires and it closes the connection:
    // we observe the FIN (EOF), not our own much-longer timeout.
    silent.setIoTimeoutMs(5000);
    char byte;
    EXPECT_FALSE(silent.recvAll(&byte, 1));
    EXPECT_FALSE(silent.timedOut());
    for (int i = 0; i < 100 && daemon_->daemonStats().io_timeouts == 0;
         ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    EXPECT_GE(daemon_->daemonStats().io_timeouts, 1u);

    // A well-behaved client still gets service.
    ServeClient client;
    ASSERT_TRUE(client.connect(daemon_->port(), &error)) << error;
    EXPECT_TRUE(client.ping(5));
}

TEST_F(ServeDaemonTest, CallRetryClassifiesOutcomes)
{
    DaemonOptions opts;
    opts.quiet = true;
    startDaemon(opts);
    const u16 port = daemon_->port();

    RetryPolicy policy;
    policy.retries = 2;
    policy.backoff_ms = 1;

    ServeClient client;
    std::string error;
    ASSERT_TRUE(client.connect(port, &error)) << error;

    // Success on the first attempt.
    std::string response;
    u32 attempts = 0;
    EXPECT_EQ(client.callRetry(R"({"op":"ping","id":1})", &response,
                               policy, &error, &attempts),
              CallStatus::Ok);
    EXPECT_EQ(attempts, 1u);

    // A bad_request is terminal: no retry despite the budget.
    EXPECT_EQ(client.callRetry(R"({"op":"frobnicate","id":2})", &response,
                               policy, &error, &attempts),
              CallStatus::ServerError);
    EXPECT_EQ(attempts, 1u);
    EXPECT_NE(response.find("\"retriable\":false"), std::string::npos);

    // A dead daemon exhausts the transport-retry budget.
    stopDaemon();
    ServeClient orphan;
    orphan.connect(port); // may fail; callRetry reconnects regardless
    EXPECT_EQ(orphan.callRetry(R"({"op":"ping","id":3})", &response,
                               policy, &error, &attempts),
              CallStatus::Exhausted);
    EXPECT_EQ(attempts, policy.retries + 1);
    EXPECT_FALSE(error.empty());
}

TEST_F(ServeDaemonTest, MalformedRequestsGetErrorsAndTheDaemonSurvives)
{
    DaemonOptions opts;
    opts.quiet = true;
    startDaemon(opts);

    const std::string bad_json = call("{not json");
    EXPECT_NE(bad_json.find("\"ok\":false"), std::string::npos);
    EXPECT_NE(bad_json.find("\"error\""), std::string::npos);

    const std::string bad_op = call(R"({"op":"frobnicate","id":1})");
    EXPECT_NE(bad_op.find("\"ok\":false"), std::string::npos);

    const std::string bad_dims =
        call(R"({"op":"gemm","id":1,"m":0,"k":4,"n":4})");
    EXPECT_NE(bad_dims.find("\"ok\":false"), std::string::npos);

    // Still serving after three rejected requests.
    ServeClient client;
    std::string error;
    ASSERT_TRUE(client.connect(daemon_->port(), &error)) << error;
    EXPECT_TRUE(client.ping(42));
}

} // namespace
} // namespace usys
