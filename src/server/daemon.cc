#include "server/daemon.hh"

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "obs/metrics.hh"
#include "server/process_util.hh"
#include "stats/json.hh"

namespace ecdp
{
namespace server
{

namespace
{

HttpResponse
jsonResponse(int status, std::string body)
{
    HttpResponse response;
    response.status = status;
    response.contentType = "application/json";
    response.body = std::move(body);
    return response;
}

HttpResponse
errorResponse(int status, const std::string &message)
{
    return jsonResponse(status, "{\"error\":\"" +
                                    jsonEscape(message) + "\"}");
}

} // namespace

/** Every error response goes through here so requests.bad counts
 *  handler-level 400/404s, not just the router fallthrough. */
void
Daemon::respondError(HttpServer::Responder &respond, int status,
                     const std::string &message)
{
    badRequests_.fetch_add(1);
    respond(errorResponse(status, message));
}

namespace
{

std::string
keyHex(std::uint64_t key)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(key));
    return buf;
}

/** "gN" -> N's id string; also validates /v1/grids/<id> segments. */
bool
splitGridPath(const std::string &path, std::string &id,
              std::string &tail)
{
    const std::string prefix = "/v1/grids/";
    if (path.rfind(prefix, 0) != 0)
        return false;
    std::string rest = path.substr(prefix.size());
    std::size_t slash = rest.find('/');
    if (slash == std::string::npos) {
        id = rest;
        tail.clear();
    } else {
        id = rest.substr(0, slash);
        tail = rest.substr(slash + 1);
    }
    return !id.empty();
}

} // namespace

Daemon::Daemon(DaemonOptions opts)
    : opts_(std::move(opts)), workers_(opts_.workerArgv),
      server_([this](const HttpRequest &req,
                     HttpServer::Responder respond) {
          handle(req, std::move(respond));
      }),
      store_(opts_.storeDir, opts_.storeMemoryCap,
             opts_.storeDiskCap),
      pool_(opts_.workers)
{}

Daemon::~Daemon()
{
    stop();
}

void
Daemon::start()
{
    server_.start(opts_.port);
}

void
Daemon::stop()
{
    // Teardown order matters: first the server (no new requests;
    // late Responder calls are dropped), then the workers — idle ones
    // exit now, one mid-cell gets a short grace to reply and is then
    // killed — then the pool: running cells return (each reaps its
    // worker), queued ones are discarded. Last, every flight still
    // open, discarded cells included, fails with "daemon shutting
    // down"; those callbacks run through store_ into onCellReady
    // while mutex_/grids_ are still fully alive. After this, no
    // worker process is left and member destruction finds
    // everything quiesced.
    server_.stop();
    workers_.stop();
    pool_.stop();
    store_.failAllFlights("daemon shutting down");
    {
        MutexLock lock(shutdownMutex_);
        shutdownRequested_ = true;
    }
    shutdownCv_.notify_all();
}

void
Daemon::waitForShutdown()
{
    MutexLock lock(shutdownMutex_);
    shutdownCv_.wait(lock.native(), [&] {
        shutdownMutex_.assertHeld(); // the wait predicate runs locked
        return shutdownRequested_;
    });
}

void
Daemon::handle(const HttpRequest &req, HttpServer::Responder respond)
{
    requests_.fetch_add(1);
    const std::string path = req.path();
    try {
        if (req.method == "GET" && path == "/healthz") {
            respond(jsonResponse(200, "{\"ok\":true}"));
            return;
        }
        if (req.method == "GET" && path == "/metrics") {
            handleMetrics(respond);
            return;
        }
        if (req.method == "POST" && path == "/v1/grids") {
            handleSubmitGrid(req, respond);
            return;
        }
        if (req.method == "POST" && path == "/v1/shutdown") {
            respond(jsonResponse(200, "{\"ok\":true}"));
            {
                MutexLock lock(shutdownMutex_);
                shutdownRequested_ = true;
            }
            shutdownCv_.notify_all();
            return;
        }
        if (req.method == "GET" &&
            path.rfind("/v1/cells/", 0) == 0) {
            handleCellFetch(path.substr(10), respond);
            return;
        }
        std::string id, tail;
        if (req.method == "GET" && splitGridPath(path, id, tail)) {
            if (tail.empty()) {
                handleGridStatus(id, respond);
                return;
            }
            if (tail == "results") {
                handleGridResults(req, id, respond);
                return;
            }
        }
        respondError(respond, 404, "no such endpoint: " +
                                       req.method + " " + path);
    } catch (const std::exception &e) {
        respondError(respond, 400, e.what());
    }
}

void
Daemon::handleSubmitGrid(const HttpRequest &req,
                         HttpServer::Responder &respond)
{
    JsonValue body = parseJson(req.body);
    std::string client = "anonymous";
    if (const JsonValue *c = body.find("client"))
        client = c->asString();
    bool wait = false;
    if (const JsonValue *w = body.find("wait"))
        wait = w->asBool();
    const JsonValue *cellsJson = body.find("cells");
    if (!cellsJson || cellsJson->asArray().empty())
        throw std::runtime_error(
            "grid needs a non-empty \"cells\" array");

    // Parse every cell up front: a 400 must reject the whole grid
    // before any admission-state change.
    std::vector<CellSpec> specs;
    std::vector<std::uint64_t> keys;
    for (const JsonValue &c : cellsJson->asArray()) {
        specs.push_back(parseCellSpec(c));
        keys.push_back(cellKey(specs.back()));
    }
    const std::size_t n = specs.size();

    // Admission decisions are made under mutex_, but the rejection
    // response fires after it is released: respond() is a deferred
    // callback into the HTTP server, and callbacks never run under a
    // daemon lock (ecdplint: callback-under-lock).
    std::string gridId;
    std::string rejectWhy;
    {
        MutexLock lock(mutex_);
        const std::uint64_t inflightNow = inflight_.load();
        // Look up without inserting: a rejected submission must not
        // leave a zero-count quota entry behind.
        auto clientIt = clientInflight_.find(client);
        const std::size_t clientNow =
            clientIt == clientInflight_.end() ? 0
                                              : clientIt->second;
        if (inflightNow + n > opts_.admissionLimit) {
            admissionRejected_.fetch_add(1);
            rejectWhy = "admission queue full (" +
                        std::to_string(inflightNow) +
                        " in flight, " +
                        std::to_string(opts_.admissionLimit) +
                        " max)";
        } else if (opts_.perClientLimit != 0 &&
                   clientNow + n > opts_.perClientLimit) {
            quotaRejected_.fetch_add(1);
            rejectWhy = "client quota exceeded (" +
                        std::to_string(clientNow) + " in flight, " +
                        std::to_string(opts_.perClientLimit) +
                        " max for \"" + client + "\")";
        } else {
            // Check and admit in one critical section, so racing
            // submitters can never both squeeze past the limit.
            clientInflight_[client] = clientNow + n;
            const std::uint64_t inflightNew =
                inflight_.fetch_add(n) + n;
            std::uint64_t peak = inflightPeak_.load();
            while (inflightNew > peak &&
                   !inflightPeak_.compare_exchange_weak(
                       peak, inflightNew)) {
            }

            gridId = "g" + std::to_string(nextGridId_++);
            Grid &grid = grids_[gridId];
            grid.id = gridId;
            grid.client = client;
            grid.remaining = n;
            grid.submitted = Clock::now();
            grid.cells.resize(n);
            for (std::size_t i = 0; i < n; ++i)
                grid.cells[i].key = keys[i];
            if (wait)
                grid.waiters.push_back(respond);
            gridsSubmitted_.fetch_add(1);
            cellsSubmitted_.fetch_add(n);
        }
    }
    if (!rejectWhy.empty()) {
        respond(errorResponse(429, rejectWhy));
        return;
    }

    if (!wait) {
        respond(jsonResponse(
            202, "{\"grid\":\"" + gridId +
                     "\",\"cells\":" + std::to_string(n) + "}"));
    }

    // Outside the lock: fetchOrAttach fires hit callbacks
    // synchronously and onCellReady re-locks.
    for (std::size_t i = 0; i < n; ++i)
        launchCell(gridId, i, specs[i], keys[i]);
}

void
Daemon::launchCell(const std::string &gridId, std::size_t index,
                   const CellSpec &spec, std::uint64_t key)
{
    ResultStore::Role role = store_.fetchOrAttach(
        key, [this, gridId, index](ResultStore::Bytes bytes,
                                   const std::string &error) {
            onCellReady(gridId, index, bytes, error);
        });
    if (role != ResultStore::Role::Leader)
        return;
    pool_.submit([this, key, cellJson = canonicalCellJson(spec)] {
        runCellJob(key, cellJson);
    });
}

void
Daemon::runCellJob(std::uint64_t key, const std::string &cellJson)
{
    // An exception must not leave the job: the pool would park it
    // for a wait() nobody calls, and the flight would never close.
    spawned_.fetch_add(1);
    std::string output;
    std::string error;
    try {
        WorkerReply reply = workers_.run(cellJson);
        if (reply.ok) {
            output = std::move(reply.out);
        } else {
            if (reply.signal != 0)
                crashed_.fetch_add(1);
            error = reply.error;
        }
    } catch (const std::exception &e) {
        error = e.what(); // exec failure — the worker never ran
    }
    if (error.empty())
        store_.complete(key, std::move(output));
    else
        store_.fail(key, error);
}

void
Daemon::onCellReady(const std::string &gridId, std::size_t index,
                    const ResultStore::Bytes &bytes,
                    const std::string &error)
{
    std::vector<HttpServer::Responder> waiters;
    std::string resultsJson;
    {
        MutexLock lock(mutex_);
        auto it = grids_.find(gridId);
        if (it == grids_.end())
            return;
        Grid &grid = it->second;
        Cell &cell = grid.cells[index];
        if (cell.state != Cell::State::Pending)
            return; // defensive: double completion
        if (bytes) {
            cell.state = Cell::State::Done;
            cell.bytes = bytes;
            cellsCompleted_.fetch_add(1);
        } else {
            cell.state = Cell::State::Failed;
            cell.error = error;
            cellsFailed_.fetch_add(1);
        }
        --grid.remaining;
        inflight_.fetch_sub(1);
        auto client = clientInflight_.find(grid.client);
        if (client != clientInflight_.end()) {
            // Drop zero-count entries so one-shot client names don't
            // accumulate forever.
            if (client->second > 1)
                --client->second;
            else
                clientInflight_.erase(client);
        }

        const auto us =
            std::chrono::duration_cast<std::chrono::microseconds>(
                Clock::now() - grid.submitted)
                .count();
        const std::uint64_t latency =
            us < 0 ? 0 : static_cast<std::uint64_t>(us);
        latencyUsSum_.fetch_add(latency);
        latencyUsCount_.fetch_add(1);
        std::uint64_t prev = latencyUsMax_.load();
        while (latency > prev &&
               !latencyUsMax_.compare_exchange_weak(prev, latency)) {
        }

        if (grid.remaining == 0) {
            if (!grid.waiters.empty()) {
                waiters = std::move(grid.waiters);
                grid.waiters.clear();
                resultsJson = answerGridLocked(grid);
            }
            // Last: may erase grids_ entries (including this one's
            // siblings), so no grid references survive past it.
            noteGridCompletedLocked(gridId);
        }
    }
    for (HttpServer::Responder &respond : waiters)
        respond(jsonResponse(200, resultsJson));
}

void
Daemon::noteGridCompletedLocked(const std::string &gridId)
{
    if (opts_.completedGridCap == 0)
        return; // keep every grid forever
    completedGrids_.push_back(gridId);
    while (completedGrids_.size() > opts_.completedGridCap) {
        const std::string victim =
            std::move(completedGrids_.front());
        completedGrids_.pop_front();
        if (grids_.erase(victim) != 0)
            gridsEvicted_.fetch_add(1);
    }
}

std::string
Daemon::answerGridLocked(Grid &grid)
{
    std::ostringstream os;
    os << "{\"grid\":\"" << grid.id << "\",\"cells\":[";
    for (std::size_t i = 0; i < grid.cells.size(); ++i) {
        Cell &cell = grid.cells[i];
        os << (i ? "," : "") << "{\"key\":\"" << keyHex(cell.key)
           << "\"";
        switch (cell.state) {
          case Cell::State::Done: {
            ResultStore::Bytes bytes = std::move(cell.bytes);
            if (!bytes)
                bytes = store_.lookup(cell.key);
            if (bytes)
                os << ",\"status\":\"done\",\"stats\":" << *bytes;
            else
                os << ",\"status\":\"done\",\"stats\":null";
            break;
          }
          case Cell::State::Failed:
            os << ",\"status\":\"failed\",\"error\":\""
               << jsonEscape(cell.error) << "\"";
            break;
          case Cell::State::Pending:
            os << ",\"status\":\"pending\"";
            break;
        }
        os << "}";
    }
    os << "]}";
    return os.str();
}

std::string
Daemon::gridStatusJsonLocked(const Grid &grid) const
{
    std::size_t done = 0, failed = 0;
    for (const Cell &cell : grid.cells) {
        done += cell.state == Cell::State::Done;
        failed += cell.state == Cell::State::Failed;
    }
    std::ostringstream os;
    os << "{\"grid\":\"" << grid.id << "\",\"client\":\""
       << jsonEscape(grid.client)
       << "\",\"cells\":" << grid.cells.size() << ",\"done\":" << done
       << ",\"failed\":" << failed
       << ",\"pending\":" << grid.remaining << "}";
    return os.str();
}

void
Daemon::handleGridStatus(const std::string &id,
                         HttpServer::Responder &respond)
{
    // Render under the lock, respond after it: respond() is a
    // callback into the HTTP server and never runs under mutex_.
    std::string statusJson;
    {
        MutexLock lock(mutex_);
        auto it = grids_.find(id);
        if (it != grids_.end())
            statusJson = gridStatusJsonLocked(it->second);
    }
    if (statusJson.empty()) {
        respondError(respond, 404, "no such grid: " + id);
        return;
    }
    respond(jsonResponse(200, statusJson));
}

void
Daemon::handleGridResults(const HttpRequest &req,
                          const std::string &id,
                          HttpServer::Responder &respond)
{
    // Decide (and, for ?wait=1, park the responder) under the lock;
    // every actual respond() call fires after it is released.
    enum class Outcome
    {
        NotFound,
        Done,
        Parked,
        Pending,
    };
    Outcome outcome = Outcome::NotFound;
    std::string resultsJson;
    std::size_t remaining = 0;
    {
        MutexLock lock(mutex_);
        auto it = grids_.find(id);
        if (it != grids_.end()) {
            Grid &grid = it->second;
            if (grid.remaining == 0) {
                outcome = Outcome::Done;
                resultsJson = answerGridLocked(grid);
            } else if (req.queryParam("wait") == "1") {
                outcome = Outcome::Parked;
                grid.waiters.push_back(respond);
            } else {
                outcome = Outcome::Pending;
                remaining = grid.remaining;
            }
        }
    }
    switch (outcome) {
      case Outcome::NotFound:
        respondError(respond, 404, "no such grid: " + id);
        return;
      case Outcome::Done:
        respond(jsonResponse(200, resultsJson));
        return;
      case Outcome::Parked:
        return; // the final cell completion answers it
      case Outcome::Pending:
        respond(jsonResponse(
            202, "{\"status\":\"pending\",\"remaining\":" +
                     std::to_string(remaining) + "}"));
        return;
    }
}

void
Daemon::handleCellFetch(const std::string &hexKey,
                        HttpServer::Responder &respond)
{
    if (hexKey.empty() || hexKey.size() > 16 ||
        hexKey.find_first_not_of("0123456789abcdefABCDEF") !=
            std::string::npos) {
        respondError(respond, 400, "bad cell key: " + hexKey);
        return;
    }
    const std::uint64_t key =
        std::strtoull(hexKey.c_str(), nullptr, 16);
    if (ResultStore::Bytes bytes = store_.lookup(key))
        respond(jsonResponse(200, *bytes));
    else
        respondError(respond, 404, "no result for key " + hexKey);
}

void
Daemon::exportMetrics(obs::MetricRegistry &registry) const
{
    registry.counter("ecdpd.requests.total").set(requests_.load());
    registry.counter("ecdpd.requests.bad").set(badRequests_.load());
    registry.counter("ecdpd.grids.submitted")
        .set(gridsSubmitted_.load());
    registry.counter("ecdpd.cells.submitted")
        .set(cellsSubmitted_.load());
    registry.counter("ecdpd.cells.completed")
        .set(cellsCompleted_.load());
    registry.counter("ecdpd.cells.failed").set(cellsFailed_.load());
    registry.counter("ecdpd.cells.inflight").set(inflight_.load());
    registry.counter("ecdpd.cells.inflight_peak")
        .set(inflightPeak_.load());
    registry.counter("ecdpd.admission.rejected")
        .set(admissionRejected_.load());
    registry.counter("ecdpd.quota.rejected")
        .set(quotaRejected_.load());
    registry.counter("ecdpd.grids.tracked").set(gridsTracked());
    registry.counter("ecdpd.grids.evicted")
        .set(gridsEvicted_.load());
    registry.counter("ecdpd.clients.tracked").set(clientsTracked());
    registry.counter("ecdpd.latency.us.sum")
        .set(latencyUsSum_.load());
    registry.counter("ecdpd.latency.us.count")
        .set(latencyUsCount_.load());
    registry.counter("ecdpd.latency.us.max")
        .set(latencyUsMax_.load());
    registry.counter("ecdpd.queue.depth").set(pool_.queued());
    registry.counter("ecdpd.connections.open")
        .set(server_.connectionCount());
    registry.counter("ecdpd.store.memory_hits")
        .set(store_.memoryHits());
    registry.counter("ecdpd.store.disk_hits").set(store_.diskHits());
    registry.counter("ecdpd.store.dedup_attached")
        .set(store_.dedupAttached());
    registry.counter("ecdpd.store.leaders").set(store_.leaders());
    registry.counter("ecdpd.store.corrupt_rebuilds")
        .set(store_.corruptRebuilds());
    registry.counter("ecdpd.store.entries").set(store_.size());
    registry.counter("ecdpd.store.evicted").set(store_.evicted());
    registry.counter("ecdpd.store.disk_evicted")
        .set(store_.diskEvicted());
    registry.counter("ecdpd.pool.shards").set(pool_.threadCount());
    registry.counter("ecdpd.pool.spawned").set(spawned_.load());
    registry.counter("ecdpd.pool.crashed").set(crashed_.load());
    registry.counter("ecdpd.pool.processes")
        .set(workers_.processes());
    registry.counter("ecdpd.pool.retired").set(workers_.retired());
}

void
Daemon::handleMetrics(HttpServer::Responder &respond)
{
    // Snapshot the atomics into a throwaway registry: obs counters
    // are unsynchronized by design, so the daemon never increments
    // them from its many threads — it only renders them here.
    obs::MetricRegistry registry;
    exportMetrics(registry);
    std::ostringstream os;
    os << "{";
    bool first = true;
    for (const auto &[path, value] : registry.sorted()) {
        os << (first ? "" : ",") << "\"" << jsonEscape(path)
           << "\":" << value;
        first = false;
    }
    os << "}";
    respond(jsonResponse(200, os.str()));
}

} // namespace server
} // namespace ecdp
