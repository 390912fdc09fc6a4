// End-to-end daemon tests over real HTTP with real forked worker
// processes (`ecdpd --worker`): the byte-identity contract against
// the in-process runCell() path, the single-flight guarantee
// (N identical concurrent submissions -> exactly 1 simulation),
// store replay, admission/quota backpressure and the error surface.

#include <gtest/gtest.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "server/cell.hh"
#include "server/daemon.hh"
#include "server/http_client.hh"
#include "stats/json.hh"

#ifndef ECDPD_BIN
#error "test_server_integration needs -DECDPD_BIN=\"path/to/ecdpd\""
#endif

namespace
{

using namespace ecdp;
using namespace ecdp::server;

DaemonOptions
workerOptions()
{
    DaemonOptions opts;
    opts.workers = 2;
    opts.workerArgv = {ECDPD_BIN, "--worker"};
    return opts;
}

std::string
hex16(std::uint64_t key)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(key));
    return buf;
}

/** The cells-array tail of a results body — identical across
 *  submissions of the same cells even though the grid id differs. */
std::string
cellsTail(const std::string &body)
{
    const std::size_t at = body.find("\"cells\"");
    EXPECT_NE(at, std::string::npos) << body.substr(0, 200);
    return at == std::string::npos ? body : body.substr(at);
}

TEST(ServerIntegration, WorkerResultsAreByteIdenticalToInProcess)
{
    // The contract: bytes served by the daemon (computed by a forked
    // `ecdpd --worker`) are exactly the bytes the in-process
    // ExperimentContext path produces for the same cell.
    const CellSpec spec = parseCellSpec(
        parseJson("{\"bench\":\"mst\",\"input\":\"train\"}"));
    ExperimentContext ctx;
    const std::string expected =
        cellStatsJson(spec, runCell(spec, ctx));

    Daemon daemon(workerOptions());
    daemon.start();
    HttpClient client(daemon.port());

    HttpResponse submit = client.post(
        "/v1/grids",
        "{\"wait\":true,\"cells\":[{\"bench\":\"mst\","
        "\"input\":\"train\"}]}");
    ASSERT_EQ(submit.status, 200) << submit.body;
    JsonValue doc = parseJson(submit.body);
    const JsonValue &cell = doc.at("cells").asArray().at(0);
    EXPECT_EQ(cell.at("status").asString(), "done");
    EXPECT_EQ(cell.at("key").asString(), hex16(cellKey(spec)));

    HttpResponse raw =
        client.get("/v1/cells/" + hex16(cellKey(spec)));
    ASSERT_EQ(raw.status, 200);
    EXPECT_EQ(raw.body, expected); // byte-for-byte
    EXPECT_EQ(daemon.spawned(), 1u);
}

TEST(ServerIntegration, ConcurrentIdenticalSubmissionsCostOneSim)
{
    Daemon daemon(workerOptions());
    daemon.start();
    const std::uint16_t port = daemon.port();

    constexpr int kSubmitters = 8;
    std::vector<std::string> bodies(kSubmitters);
    std::vector<int> statuses(kSubmitters, 0);
    {
        std::vector<std::thread> threads;
        for (int t = 0; t < kSubmitters; ++t) {
            threads.emplace_back([&, t] {
                HttpClient client(port);
                HttpResponse response = client.post(
                    "/v1/grids",
                    "{\"wait\":true,\"cells\":[{\"bench\":"
                    "\"health\",\"input\":\"train\"}]}");
                statuses[std::size_t(t)] = response.status;
                bodies[std::size_t(t)] = response.body;
            });
        }
        for (std::thread &thread : threads)
            thread.join();
    }

    // Exactly one simulation ran, and every submitter got
    // byte-identical results (modulo its own grid id).
    EXPECT_EQ(daemon.spawned(), 1u);
    EXPECT_EQ(daemon.store().leaders(), 1u);
    const std::string reference = cellsTail(bodies[0]);
    for (int t = 0; t < kSubmitters; ++t) {
        EXPECT_EQ(statuses[std::size_t(t)], 200);
        EXPECT_EQ(cellsTail(bodies[std::size_t(t)]), reference);
    }
}

TEST(ServerIntegration, ResubmissionIsServedEntirelyFromStore)
{
    Daemon daemon(workerOptions());
    daemon.start();
    HttpClient client(daemon.port());
    const std::string body =
        "{\"wait\":true,\"cells\":[{\"bench\":\"perimeter\","
        "\"input\":\"train\"},{\"bench\":\"mst\","
        "\"input\":\"train\"}]}";

    HttpResponse first = client.post("/v1/grids", body);
    ASSERT_EQ(first.status, 200) << first.body;
    EXPECT_EQ(daemon.spawned(), 2u);

    HttpResponse replay = client.post("/v1/grids", body);
    ASSERT_EQ(replay.status, 200) << replay.body;
    EXPECT_EQ(daemon.spawned(), 2u); // zero new simulations
    EXPECT_EQ(cellsTail(replay.body), cellsTail(first.body));
    // Exactly the two resubmitted cells: rendering the results reads
    // the store without counting hits.
    EXPECT_EQ(daemon.store().memoryHits(), 2u);
}

TEST(ServerIntegration, AdmissionLimitRejectsOversizedGrid)
{
    DaemonOptions opts = workerOptions();
    opts.admissionLimit = 1;
    Daemon daemon(opts);
    daemon.start();
    HttpClient client(daemon.port());

    HttpResponse response = client.post(
        "/v1/grids",
        "{\"cells\":[{\"bench\":\"mst\",\"input\":\"train\"},"
        "{\"bench\":\"health\",\"input\":\"train\"}]}");
    EXPECT_EQ(response.status, 429);
    EXPECT_NE(response.body.find("admission"), std::string::npos);
    // The rejected grid was never registered.
    EXPECT_EQ(client.get("/v1/grids/g1").status, 404);

    // A grid that fits is admitted fine.
    HttpResponse ok = client.post(
        "/v1/grids",
        "{\"wait\":true,\"cells\":[{\"bench\":\"mst\","
        "\"input\":\"train\"}]}");
    EXPECT_EQ(ok.status, 200) << ok.body;
}

TEST(ServerIntegration, PerClientQuotaIsEnforcedPerName)
{
    DaemonOptions opts = workerOptions();
    opts.perClientLimit = 1;
    Daemon daemon(opts);
    daemon.start();
    HttpClient client(daemon.port());

    HttpResponse rejected = client.post(
        "/v1/grids",
        "{\"client\":\"alice\",\"cells\":["
        "{\"bench\":\"mst\",\"input\":\"train\"},"
        "{\"bench\":\"health\",\"input\":\"train\"}]}");
    EXPECT_EQ(rejected.status, 429);
    EXPECT_NE(rejected.body.find("quota"), std::string::npos);
    EXPECT_NE(rejected.body.find("alice"), std::string::npos);

    // The quota is per client name: bob is unaffected.
    HttpResponse ok = client.post(
        "/v1/grids",
        "{\"client\":\"bob\",\"wait\":true,\"cells\":["
        "{\"bench\":\"mst\",\"input\":\"train\"}]}");
    EXPECT_EQ(ok.status, 200) << ok.body;
}

TEST(ServerIntegration, CrashedWorkerSurfacesAsFailedCellNotCache)
{
    // A worker argv that always dies: the cell fails with the
    // worker's stderr in the error, the daemon survives, and the
    // failure is NOT cached — a resubmission retries with a fresh
    // worker process.
    DaemonOptions opts = workerOptions();
    opts.workerArgv = {"/bin/sh", "-c", "echo boom >&2; exit 3"};
    Daemon daemon(opts);
    daemon.start();
    HttpClient client(daemon.port());
    const std::string body =
        "{\"wait\":true,\"cells\":[{\"bench\":\"mst\","
        "\"input\":\"train\"}]}";

    HttpResponse first = client.post("/v1/grids", body);
    ASSERT_EQ(first.status, 200) << first.body;
    SCOPED_TRACE("results body: " + first.body);
    JsonValue firstDoc = parseJson(first.body);
    const JsonValue &cell = firstDoc.at("cells").asArray().at(0);
    EXPECT_EQ(cell.at("status").asString(), "failed");
    EXPECT_NE(cell.at("error").asString().find("boom"),
              std::string::npos);
    EXPECT_EQ(daemon.spawned(), 1u);

    // Status endpoint agrees, and the daemon still answers.
    JsonValue status = parseJson(client.get("/v1/grids/g1").body);
    EXPECT_EQ(status.at("failed").asI64(), 1);
    EXPECT_EQ(client.get("/healthz").status, 200);

    HttpResponse retry = client.post("/v1/grids", body);
    ASSERT_EQ(retry.status, 200);
    EXPECT_EQ(daemon.spawned(), 2u); // retried, not cached
}

TEST(ServerIntegration, CrashedChildIsIsolated)
{
    // The worker for mst segfaults; every other worker prints a
    // result. The crash fails only its own cell (with the signal),
    // is counted, and the pool keeps running cells, in the same
    // grid and in later ones.
    DaemonOptions opts = workerOptions();
    opts.workerArgv = {"/bin/sh", "-c",
                       "while read -r cell; do case $cell in *mst*) "
                       "kill -SEGV $$;; esac; printf 'ok 2\\n{}' >&3; "
                       "done"};
    Daemon daemon(opts);
    daemon.start();
    HttpClient client(daemon.port());

    HttpResponse first = client.post(
        "/v1/grids",
        "{\"wait\":true,\"cells\":["
        "{\"bench\":\"mst\",\"input\":\"train\"},"
        "{\"bench\":\"health\",\"input\":\"train\"},"
        "{\"bench\":\"perimeter\",\"input\":\"train\"}]}");
    ASSERT_EQ(first.status, 200) << first.body;
    SCOPED_TRACE("results body: " + first.body);
    const JsonValue firstDoc = parseJson(first.body);
    const auto &cells = firstDoc.at("cells").asArray();
    ASSERT_EQ(cells.size(), 3u);
    EXPECT_EQ(cells[0].at("status").asString(), "failed");
    EXPECT_NE(cells[0].at("error").asString().find("signal"),
              std::string::npos);
    EXPECT_EQ(cells[1].at("status").asString(), "done");
    EXPECT_EQ(cells[2].at("status").asString(), "done");

    HttpResponse later = client.post(
        "/v1/grids", "{\"wait\":true,\"cells\":[{\"bench\":"
                     "\"bisort\",\"input\":\"train\"}]}");
    ASSERT_EQ(later.status, 200) << later.body;
    EXPECT_EQ(parseJson(later.body)
                  .at("cells")
                  .asArray()
                  .at(0)
                  .at("status")
                  .asString(),
              "done");

    const JsonValue metrics = parseJson(client.get("/metrics").body);
    EXPECT_EQ(metrics.at("ecdpd.pool.crashed").asI64(), 1);
    EXPECT_EQ(metrics.at("ecdpd.pool.spawned").asI64(), 4);
}

TEST(ServerIntegration, ErrorSurfaceAndMetrics)
{
    Daemon daemon(workerOptions());
    daemon.start();
    HttpClient client(daemon.port());

    EXPECT_EQ(client.get("/healthz").body, "{\"ok\":true}");
    EXPECT_EQ(client.get("/nope").status, 404);
    EXPECT_EQ(client.get("/v1/grids/g999").status, 404);
    EXPECT_EQ(client.post("/v1/grids", "not json").status, 400);
    EXPECT_EQ(client.post("/v1/grids", "{\"cells\":[]}").status,
              400);
    EXPECT_EQ(client.post("/v1/grids",
                          "{\"cells\":[{\"bench\":\"mst\","
                          "\"frobnicate\":1}]}")
                  .status,
              400);
    EXPECT_EQ(client.get("/v1/cells/not-hex").status, 400);
    EXPECT_EQ(client.get("/v1/cells/0123456789abcdef").status, 404);

    JsonValue metrics = parseJson(client.get("/metrics").body);
    EXPECT_GE(metrics.at("ecdpd.requests.total").asI64(), 8);
    EXPECT_GE(metrics.at("ecdpd.requests.bad").asI64(), 6);
    EXPECT_EQ(metrics.at("ecdpd.pool.shards").asI64(), 2);
    EXPECT_EQ(metrics.at("ecdpd.cells.inflight").asI64(), 0);
}

TEST(ServerIntegration, DestructionWithCellsStillInFlightIsClean)
{
    // Regression for a destruction-order use-after-free: cells still
    // pending when the Daemon dies used to reach onCellReady (via
    // the flights the pool's teardown left open) after the grid
    // state was already destroyed. One slow worker on a 1-thread
    // pool plus a queue of distinct cells forces exactly that
    // teardown path.
    DaemonOptions opts = workerOptions();
    opts.workers = 1;
    opts.workerArgv = {"/bin/sh", "-c", "sleep 0.3; echo spun"};
    {
        Daemon daemon(opts);
        daemon.start();
        HttpClient client(daemon.port());
        HttpResponse submit = client.post(
            "/v1/grids",
            "{\"cells\":[{\"bench\":\"mst\",\"input\":\"train\"},"
            "{\"bench\":\"health\",\"input\":\"train\"},"
            "{\"bench\":\"perimeter\",\"input\":\"train\"},"
            "{\"bench\":\"bisort\",\"input\":\"train\"}]}");
        ASSERT_EQ(submit.status, 202) << submit.body;
        EXPECT_GE(daemon.cellsInflight(), 1u);
        // Destructor runs with cells pending, queued and in flight.
    }
}

TEST(ServerIntegration, CompletedGridsEvictBeyondCap)
{
    DaemonOptions opts = workerOptions();
    opts.completedGridCap = 1;
    Daemon daemon(opts);
    daemon.start();
    HttpClient client(daemon.port());

    ASSERT_EQ(client.post("/v1/grids",
                          "{\"wait\":true,\"cells\":[{\"bench\":"
                          "\"mst\",\"input\":\"train\"}]}")
                  .status,
              200);
    EXPECT_EQ(client.get("/v1/grids/g1").status, 200);

    ASSERT_EQ(client.post("/v1/grids",
                          "{\"wait\":true,\"cells\":[{\"bench\":"
                          "\"health\",\"input\":\"train\"}]}")
                  .status,
              200);
    // g2's completion pushed g1 (the oldest completed grid) out.
    EXPECT_EQ(client.get("/v1/grids/g1").status, 404);
    EXPECT_EQ(client.get("/v1/grids/g2").status, 200);
    EXPECT_EQ(daemon.gridsTracked(), 1u);

    // The evicted grid's result bytes are still content-addressed
    // in the store.
    const CellSpec spec = parseCellSpec(
        parseJson("{\"bench\":\"mst\",\"input\":\"train\"}"));
    EXPECT_EQ(client.get("/v1/cells/" + hex16(cellKey(spec))).status,
              200);

    JsonValue metrics = parseJson(client.get("/metrics").body);
    EXPECT_EQ(metrics.at("ecdpd.grids.evicted").asI64(), 1);
    EXPECT_EQ(metrics.at("ecdpd.grids.tracked").asI64(), 1);
}

TEST(ServerIntegration, DrainedClientQuotaEntriesAreDropped)
{
    // Quota bookkeeping must not leak an entry per client name: a
    // completed grid drains its client to zero (entry erased), and a
    // rejected submission never creates one.
    DaemonOptions opts = workerOptions();
    opts.perClientLimit = 1;
    Daemon daemon(opts);
    daemon.start();
    HttpClient client(daemon.port());

    ASSERT_EQ(client.post("/v1/grids",
                          "{\"client\":\"alice\",\"wait\":true,"
                          "\"cells\":[{\"bench\":\"mst\","
                          "\"input\":\"train\"}]}")
                  .status,
              200);
    EXPECT_EQ(client.post("/v1/grids",
                          "{\"client\":\"carol\",\"cells\":["
                          "{\"bench\":\"mst\",\"input\":\"train\"},"
                          "{\"bench\":\"health\","
                          "\"input\":\"train\"}]}")
                  .status,
              429);
    EXPECT_EQ(daemon.clientsTracked(), 0u);
    JsonValue metrics = parseJson(client.get("/metrics").body);
    EXPECT_EQ(metrics.at("ecdpd.clients.tracked").asI64(), 0);
}

TEST(ServerIntegration, DiskCapBoundsSpillFilesAndExportsMetric)
{
    // --disk-cap end to end: two distinct cells spill two files, the
    // cap of one evicts the older, and the eviction is visible both
    // on disk and as ecdpd.store.disk_evicted in /metrics.
    DaemonOptions opts = workerOptions();
    opts.storeDir = testing::TempDir() + "/ecdpd_disk_cap";
    std::filesystem::remove_all(opts.storeDir);
    opts.storeDiskCap = 1;
    Daemon daemon(opts);
    daemon.start();
    HttpClient client(daemon.port());

    ASSERT_EQ(client.post("/v1/grids",
                          "{\"wait\":true,\"cells\":[{\"bench\":"
                          "\"mst\",\"input\":\"train\"},{\"bench\":"
                          "\"health\",\"input\":\"train\"}]}")
                  .status,
              200);
    JsonValue metrics = parseJson(client.get("/metrics").body);
    EXPECT_EQ(metrics.at("ecdpd.store.disk_evicted").asI64(), 1);

    std::size_t spillFiles = 0;
    for (const auto &entry :
         std::filesystem::directory_iterator(opts.storeDir)) {
        spillFiles +=
            entry.path().filename().string().rfind("cell-", 0) == 0;
    }
    EXPECT_EQ(spillFiles, 1u);
}

TEST(ServerIntegration, SpillFromBeforeTheStatsSchemaIsNotServed)
{
    // A spill written under the pre-schema key formula — FNV-1a 64
    // over the canonical cell JSON alone — holds bytes of an older
    // simulator. The schema-folded cellKey must miss it, so the cell
    // simulates afresh instead of serving the stale bytes.
    const CellSpec spec = parseCellSpec(
        parseJson("{\"bench\":\"mst\",\"input\":\"train\"}"));
    std::uint64_t preSchemaKey = 1469598103934665603ull;
    for (unsigned char c : canonicalCellJson(spec)) {
        preSchemaKey ^= c;
        preSchemaKey *= 1099511628211ull;
    }
    ASSERT_NE(cellKey(spec), preSchemaKey);

    DaemonOptions opts = workerOptions();
    opts.storeDir = testing::TempDir() + "/ecdpd_pre_schema";
    std::filesystem::remove_all(opts.storeDir);
    std::filesystem::create_directories(opts.storeDir);
    const std::string stale = "{\"stale\":true}";
    {
        std::ofstream out(opts.storeDir + "/" +
                              ResultStore::entryFileName(preSchemaKey),
                          std::ios::binary);
        out << "{\"version\":1,\"key\":\"" << hex16(preSchemaKey)
            << "\",\"bytes\":" << stale.size() << "}\n"
            << stale;
    }
    Daemon daemon(opts);
    daemon.start();
    HttpClient client(daemon.port());

    ASSERT_EQ(client.post("/v1/grids",
                          "{\"wait\":true,\"cells\":[{\"bench\":"
                          "\"mst\",\"input\":\"train\"}]}")
                  .status,
              200);
    EXPECT_EQ(daemon.spawned(), 1u);
    HttpResponse served =
        client.get("/v1/cells/" + hex16(cellKey(spec)));
    ASSERT_EQ(served.status, 200);
    EXPECT_NE(served.body, stale);
    std::filesystem::remove_all(opts.storeDir);
}

TEST(ServerIntegration, PendingPollsAnswerOutsideTheDaemonLock)
{
    // Regression for the respond-under-lock rework: the pending 202
    // poll, the status snapshot and the parked ?wait=1 poll all go
    // through the compute-under-lock / respond-outside split now —
    // this drives every branch of it against a deliberately slow
    // worker.
    DaemonOptions opts = workerOptions();
    opts.workers = 1;
    opts.workerArgv = {"/bin/sh", "-c",
                       "while read -r cell; do sleep 0.3; "
                       "printf 'ok 2\\n{}' >&3; done"};
    Daemon daemon(opts);
    daemon.start();
    HttpClient client(daemon.port());

    ASSERT_EQ(client.post("/v1/grids",
                          "{\"cells\":[{\"bench\":\"mst\","
                          "\"input\":\"train\"}]}")
                  .status,
              202);
    HttpResponse poll = client.get("/v1/grids/g1/results");
    // The worker sleeps 300 ms, so the immediate poll is pending
    // (tolerate a pathologically slow test host finishing first).
    ASSERT_TRUE(poll.status == 202 || poll.status == 200)
        << poll.body;
    if (poll.status == 202) {
        EXPECT_NE(poll.body.find("\"remaining\":1"),
                  std::string::npos);
    }
    EXPECT_EQ(client.get("/v1/grids/g1").status, 200);

    // Parked waiter: answered by the final cell completion.
    HttpResponse done = client.get("/v1/grids/g1/results?wait=1");
    ASSERT_EQ(done.status, 200) << done.body;
    EXPECT_NE(done.body.find("\"status\":\"done\""),
              std::string::npos);
}

TEST(ServerIntegration, ShutdownEndpointUnblocksWaiters)
{
    Daemon daemon(workerOptions());
    daemon.start();
    EXPECT_FALSE(daemon.shutdownRequested());
    HttpClient client(daemon.port());
    EXPECT_EQ(client.post("/v1/shutdown", "").status, 200);
    daemon.waitForShutdown(); // returns promptly
    EXPECT_TRUE(daemon.shutdownRequested());
}

TEST(ServerIntegration, CellsOnOneWorkerShareOneProcess)
{
    // --workers 1: every cell runs in the same long-lived worker, and
    // each result is byte-identical to a fresh in-process run of that
    // cell alone (what the worker memoized for earlier cells —
    // workloads, hint tables — changes no byte).
    const std::vector<std::string> cells = {
        "{\"bench\":\"mst\",\"config\":\"full\",\"input\":\"train\"}",
        "{\"bench\":\"health\",\"config\":\"ecdp\",\"input\":\"train\"}",
        "{\"bench\":\"mst\",\"input\":\"train\"}",
        "{\"bench\":\"health\",\"config\":\"full\",\"input\":\"train\"}",
    };
    DaemonOptions opts = workerOptions();
    opts.workers = 1;
    Daemon daemon(opts);
    daemon.start();
    HttpClient client(daemon.port());
    std::string grid = "{\"wait\":true,\"cells\":[";
    for (std::size_t i = 0; i < cells.size(); ++i)
        grid += (i ? "," : "") + cells[i];
    ASSERT_EQ(client.post("/v1/grids", grid + "]}").status, 200);
    EXPECT_EQ(daemon.spawned(), cells.size());
    EXPECT_EQ(daemon.processes(), 1u);
    EXPECT_EQ(daemon.retired(), 0u);

    for (const std::string &cell : cells) {
        const CellSpec spec = parseCellSpec(parseJson(cell));
        ExperimentContext ctx;
        HttpResponse raw =
            client.get("/v1/cells/" + hex16(cellKey(spec)));
        ASSERT_EQ(raw.status, 200) << cell;
        EXPECT_EQ(raw.body, cellStatsJson(spec, runCell(spec, ctx)))
            << cell;
    }
}

TEST(ServerIntegration, FailedCellReplacesItsWorker)
{
    // The worker answers mst with an error frame and exits: that cell
    // fails with the worker's text, and the next cell runs in a fresh
    // process.
    DaemonOptions opts = workerOptions();
    opts.workers = 1;
    opts.workerArgv = {
        "/bin/sh", "-c",
        R"(while read -r cell; do case $cell in *mst*) )"
        R"(printf 'error 4\nnope' >&3; exit 1;; esac; )"
        R"(printf 'ok 2\n{}' >&3; done)"};
    Daemon daemon(opts);
    daemon.start();
    HttpClient client(daemon.port());

    HttpResponse response = client.post(
        "/v1/grids",
        "{\"wait\":true,\"cells\":["
        "{\"bench\":\"mst\",\"input\":\"train\"},"
        "{\"bench\":\"health\",\"input\":\"train\"},"
        "{\"bench\":\"perimeter\",\"input\":\"train\"}]}");
    ASSERT_EQ(response.status, 200) << response.body;
    const JsonValue doc = parseJson(response.body);
    const auto &results = doc.at("cells").asArray();
    EXPECT_EQ(results[0].at("status").asString(), "failed");
    EXPECT_EQ(results[0].at("error").asString(), "nope");
    EXPECT_EQ(results[1].at("status").asString(), "done");
    EXPECT_EQ(results[2].at("status").asString(), "done");

    EXPECT_EQ(daemon.spawned(), 3u);
    const JsonValue metrics = parseJson(client.get("/metrics").body);
    EXPECT_EQ(metrics.at("ecdpd.pool.processes").asI64(), 2);
    EXPECT_EQ(metrics.at("ecdpd.pool.retired").asI64(), 1);
    EXPECT_EQ(metrics.at("ecdpd.pool.crashed").asI64(), 0);
}

TEST(ServerIntegration, NoWorkerOutlivesStop)
{
    // Two workers at stop(): one idle after answering health with its
    // pid, one stuck mid-cell on mst (it records its pid and never
    // replies). stop() reaps the first, kills the second after the
    // grace, and leaves no process behind.
    const std::string pidFile =
        testing::TempDir() + "/ecdpd_stuck_worker.pid";
    std::filesystem::remove(pidFile);
    DaemonOptions opts = workerOptions();
    opts.workerArgv = {
        "/bin/sh", "-c",
        R"(while read -r cell; do case $cell in *mst*) echo $$ > )" +
            pidFile +
            R"(; exec sleep 30;; esac; p="{\"pid\":$$}"; )"
            R"(printf 'ok %d\n%s' ${#p} "$p" >&3; done)"};
    Daemon daemon(opts);
    daemon.start();
    HttpClient client(daemon.port());

    ASSERT_EQ(client.post("/v1/grids",
                          "{\"cells\":[{\"bench\":\"mst\","
                          "\"input\":\"train\"}]}")
                  .status,
              202);
    pid_t stuckPid = -1;
    for (int i = 0; i < 500 && stuckPid <= 0; ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        std::ifstream in(pidFile);
        in >> stuckPid;
    }
    ASSERT_GT(stuckPid, 0);
    HttpResponse idle = client.post(
        "/v1/grids", "{\"wait\":true,\"cells\":[{\"bench\":"
                     "\"health\",\"input\":\"train\"}]}");
    ASSERT_EQ(idle.status, 200) << idle.body;
    const pid_t idlePid = static_cast<pid_t>(parseJson(idle.body)
                                                 .at("cells")
                                                 .asArray()
                                                 .at(0)
                                                 .at("stats")
                                                 .at("pid")
                                                 .asI64());
    EXPECT_NE(idlePid, stuckPid);
    EXPECT_EQ(daemon.processes(), 2u);

    const auto start = std::chrono::steady_clock::now();
    daemon.stop();
    EXPECT_LT(std::chrono::steady_clock::now() - start,
              std::chrono::seconds(10));
    for (pid_t pid : {stuckPid, idlePid}) {
        EXPECT_NE(::kill(pid, 0), 0) << pid;
        EXPECT_EQ(errno, ESRCH) << pid;
    }
    std::filesystem::remove(pidFile);
}

TEST(ServerIntegration, DoneCellsAnswerWithTheBytesTheyCompletedWith)
{
    // A memory-only store of one entry: health's result evicts mst's
    // before the grid is answered. The answer must still carry both,
    // from the bytes each cell completed with, not "stats":null.
    DaemonOptions opts = workerOptions();
    opts.workers = 1;
    opts.storeMemoryCap = 1;
    opts.workerArgv = {
        "/bin/sh", "-c",
        R"(while read -r c; do printf 'ok %d\n%s' ${#c} "$c" >&3; done)"};
    Daemon daemon(opts);
    daemon.start();
    HttpClient client(daemon.port());

    HttpResponse response = client.post(
        "/v1/grids",
        "{\"wait\":true,\"cells\":["
        "{\"bench\":\"mst\",\"input\":\"train\"},"
        "{\"bench\":\"health\",\"input\":\"train\"}]}");
    ASSERT_EQ(response.status, 200) << response.body;
    const JsonValue doc = parseJson(response.body);
    const auto &results = doc.at("cells").asArray();
    ASSERT_EQ(results.size(), 2u);
    EXPECT_EQ(results[0].at("status").asString(), "done");
    EXPECT_EQ(results[0].at("stats").at("bench").asString(), "mst");
    EXPECT_EQ(results[1].at("stats").at("bench").asString(), "health");
    EXPECT_EQ(daemon.store().evicted(), 1u);

    // The bytes are released at that first answer, so a re-poll reads
    // the store again: a cell it no longer holds answers "evicted",
    // never "done" with null stats.
    auto waitGrid = [&](const char *bench) {
        HttpResponse r = client.post(
            "/v1/grids", std::string("{\"wait\":true,\"cells\":[{"
                                     "\"bench\":\"") +
                             bench + "\",\"input\":\"train\"}]}");
        EXPECT_EQ(r.status, 200) << r.body;
        return parseJson(r.body);
    };
    const JsonValue g1 = waitGrid("mst");
    const JsonValue g2 = waitGrid("health");
    EXPECT_EQ(g1.at("cells").asArray()[0].at("stats").at("bench")
                  .asString(),
              "mst");
    EXPECT_EQ(g2.at("cells").asArray()[0].at("stats").at("bench")
                  .asString(),
              "health");
    HttpResponse repoll = client.get(
        "/v1/grids/" + g1.at("grid").asString() + "/results");
    ASSERT_EQ(repoll.status, 200) << repoll.body;
    const JsonValue cell =
        parseJson(repoll.body).at("cells").asArray()[0];
    EXPECT_EQ(cell.at("status").asString(), "evicted");
    EXPECT_EQ(cell.find("stats"), nullptr);
}

} // namespace
