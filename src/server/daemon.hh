/**
 * @file
 * ecdpd — the simulation-as-a-service daemon. Glues the subsystem
 * together: the epoll HTTP front door (http_server), the
 * content-addressed single-flight result store (result_store) and
 * a runner::ThreadPool whose jobs each simulate one cell in a
 * crash-isolated, long-lived worker process (process_util's
 * WorkerSet: one worker per pool thread, kept from cell to cell).
 *
 * Request lifecycle of one grid cell:
 *
 *   POST /v1/grids ──▶ admission + quota check (429 on overflow)
 *     └▶ parse + canonicalize every cell (400 on any bad one)
 *        └▶ store.fetchOrAttach(key):
 *             Hit       cell completes immediately (0 simulations)
 *             Follower  rides an in-flight leader (0 simulations)
 *             Leader    one pool job hands the cell to a worker
 *                       process, then store.complete() fans out to
 *                       every follower
 *
 * so N identical concurrent submissions cost exactly one simulation
 * and everyone gets byte-identical stats JSON. Responses for
 * wait-mode submissions and blocking results polls are deferred
 * through the server's thread-safe Responder — no thread is parked
 * per pending request, which is how thousands of cells stay in
 * flight on a handful of threads.
 *
 * Endpoints (all JSON):
 *
 *   GET  /healthz                     liveness probe
 *   GET  /metrics                     counters via obs::MetricRegistry
 *   POST /v1/grids                    {client, cells:[...], wait?}
 *   GET  /v1/grids/<id>               status summary
 *   GET  /v1/grids/<id>/results       full results; ?wait=1 blocks
 *   GET  /v1/cells/<hexkey>           raw stored stats bytes
 *   POST /v1/shutdown                 graceful stop
 */

#ifndef ECDP_SERVER_DAEMON_HH
#define ECDP_SERVER_DAEMON_HH

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "memsim/thread_annotations.hh"
#include "runner/thread_pool.hh"
#include "server/cell.hh"
#include "server/http_server.hh"
#include "server/process_util.hh"
#include "server/result_store.hh"

namespace ecdp
{
namespace obs
{
class MetricRegistry;
} // namespace obs

namespace server
{

struct DaemonOptions
{
    /** Port to bind (0 = ephemeral; read back via Daemon::port()). */
    std::uint16_t port = 0;
    /** Pool threads, each with at most one worker process (0 =
     *  runner::jobCountFromEnv(), as for any ThreadPool). */
    unsigned workers = 4;
    /** Daemon-wide bound on admitted-but-incomplete cells; a grid
     *  that would exceed it is rejected whole with 429. */
    std::size_t admissionLimit = 4096;
    /** Same bound per client name (0 = no per-client quota). */
    std::size_t perClientLimit = 0;
    /** Completed grids kept queryable before the oldest is evicted
     *  (0 = keep forever). Evicted grids 404; their cells stay
     *  fetchable via /v1/cells/<key> while stored. */
    std::size_t completedGridCap = 1024;
    /** Result-store in-memory entry bound (0 = unbounded); evicted
     *  entries reload from storeDir when one is set. */
    std::size_t storeMemoryCap = ResultStore::kDefaultMemoryCap;
    /** Result-store spill-file bound on disk (0 = unbounded),
     *  enforced oldest-first; evicted files re-simulate on demand. */
    std::size_t storeDiskCap = 0;
    /** Result-store spill directory ("" = memory-only). */
    std::string storeDir;
    /** Worker argv, e.g. {"/path/to/ecdpd", "--worker"}. */
    std::vector<std::string> workerArgv;
};

// ecdplint: long-lived
class Daemon
{
  public:
    explicit Daemon(DaemonOptions opts);
    ~Daemon();

    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    /** Bind and serve. Throws std::runtime_error on bind failure. */
    void start();

    /** Stop serving (idempotent; also run by the destructor). */
    void stop() ECDP_EXCLUDES(shutdownMutex_);

    /** Bound port (valid after start()). */
    std::uint16_t port() const { return server_.port(); }

    /** Block until POST /v1/shutdown or stop(). */
    void waitForShutdown() ECDP_EXCLUDES(shutdownMutex_);

    /** True once POST /v1/shutdown or stop() happened. */
    bool shutdownRequested() const ECDP_EXCLUDES(shutdownMutex_)
    {
        MutexLock lock(shutdownMutex_);
        return shutdownRequested_;
    }

    /** @{ Diagnostics for tests and serverbench. */
    const ResultStore &store() const { return store_; }
    /** Cells handed to a worker (one per simulated cell). */
    std::uint64_t spawned() const { return spawned_.load(); }
    /** Worker processes started, and those retired before stop(). */
    std::uint64_t processes() const { return workers_.processes(); }
    std::uint64_t retired() const { return workers_.retired(); }
    std::uint64_t cellsInflight() const { return inflight_.load(); }
    std::uint64_t inflightPeak() const
    {
        return inflightPeak_.load();
    }
    /** Client names with nonzero in-flight quota entries. */
    std::size_t clientsTracked() const ECDP_EXCLUDES(mutex_)
    {
        MutexLock lock(mutex_);
        return clientInflight_.size();
    }
    /** Grids currently queryable (admitted minus evicted). */
    std::size_t gridsTracked() const ECDP_EXCLUDES(mutex_)
    {
        MutexLock lock(mutex_);
        return grids_.size();
    }
    /** @} */

    /** Snapshot every daemon counter into @p registry under
     *  "ecdpd.*" — the /metrics endpoint renders exactly this. */
    void exportMetrics(obs::MetricRegistry &registry) const;

  private:
    using Clock = std::chrono::steady_clock;

    struct Cell
    {
        std::uint64_t key = 0;
        enum class State { Pending, Done, Failed };
        State state = State::Pending;
        std::string error;
        /** The bytes a Done cell completed with, held until the grid
         *  is first answered: the store may evict them before. */
        ResultStore::Bytes bytes;
    };

    struct Grid
    {
        std::string id;
        std::string client;
        std::vector<Cell> cells;
        std::size_t remaining = 0;
        Clock::time_point submitted;
        /** wait-mode submitters and blocked results polls. */
        std::vector<HttpServer::Responder> waiters;
    };

    void handle(const HttpRequest &req, HttpServer::Responder respond)
        ECDP_EXCLUDES(mutex_, shutdownMutex_);
    /** Handlers respond (a deferred callback that may re-enter the
     *  server) strictly outside mutex_ — hence EXCLUDES, and the
     *  compute-under-lock / respond-outside split in each body. */
    void handleSubmitGrid(const HttpRequest &req,
                          HttpServer::Responder &respond)
        ECDP_EXCLUDES(mutex_);
    void handleGridStatus(const std::string &id,
                          HttpServer::Responder &respond)
        ECDP_EXCLUDES(mutex_);
    void handleGridResults(const HttpRequest &req,
                           const std::string &id,
                           HttpServer::Responder &respond)
        ECDP_EXCLUDES(mutex_);
    void handleCellFetch(const std::string &hexKey,
                         HttpServer::Responder &respond);
    void handleMetrics(HttpServer::Responder &respond);
    /** Counted error reply (increments requests.bad). */
    void respondError(HttpServer::Responder &respond, int status,
                      const std::string &message);

    void launchCell(const std::string &gridId, std::size_t index,
                    const CellSpec &spec, std::uint64_t key)
        ECDP_EXCLUDES(mutex_);
    /** A pool job: simulate @p cellJson in a worker process and
     *  complete or fail flight @p key. Never throws. */
    void runCellJob(std::uint64_t key, const std::string &cellJson);
    void onCellReady(const std::string &gridId, std::size_t index,
                     const ResultStore::Bytes &bytes,
                     const std::string &error) ECDP_EXCLUDES(mutex_);
    /** Record @p gridId as completed and evict the oldest completed
     *  grids beyond opts_.completedGridCap; the caller must not
     *  touch grid references afterwards. */
    void noteGridCompletedLocked(const std::string &gridId)
        ECDP_REQUIRES(mutex_);

    /** Results JSON, from the bytes each Done cell completed with
     *  (a later answer reads the store again); releases them. */
    std::string answerGridLocked(Grid &grid) ECDP_REQUIRES(mutex_);
    /** Status JSON. */
    std::string gridStatusJsonLocked(const Grid &grid) const
        ECDP_REQUIRES(mutex_);

    DaemonOptions opts_;

    // Declaration order is load-bearing. All state that pool jobs
    // and completion callbacks (onCellReady) touch — mutex_, grids_,
    // clientInflight_, the counters below — is declared BEFORE the
    // server/store/pool, so it is destroyed after them. stop() tears
    // the subsystems down in the same order (server, then pool, then
    // store flights) before destruction even starts, so the
    // destructors below find everything quiesced.
    mutable AnnotatedMutex mutex_;
    std::map<std::string, Grid> grids_ ECDP_GUARDED_BY(mutex_);
    /** Completed grid ids, oldest first, for cap eviction. */
    std::deque<std::string> completedGrids_ ECDP_GUARDED_BY(mutex_);
    std::map<std::string, std::size_t> clientInflight_
        ECDP_GUARDED_BY(mutex_);
    std::uint64_t nextGridId_ ECDP_GUARDED_BY(mutex_) = 1;

    std::atomic<std::uint64_t> inflight_{0};
    std::atomic<std::uint64_t> inflightPeak_{0};
    std::atomic<std::uint64_t> requests_{0};
    std::atomic<std::uint64_t> badRequests_{0};
    std::atomic<std::uint64_t> gridsSubmitted_{0};
    std::atomic<std::uint64_t> cellsSubmitted_{0};
    std::atomic<std::uint64_t> cellsCompleted_{0};
    std::atomic<std::uint64_t> cellsFailed_{0};
    std::atomic<std::uint64_t> admissionRejected_{0};
    std::atomic<std::uint64_t> quotaRejected_{0};
    std::atomic<std::uint64_t> gridsEvicted_{0};
    /** Cell latency (admission to completion), microseconds. */
    std::atomic<std::uint64_t> latencyUsSum_{0};
    std::atomic<std::uint64_t> latencyUsCount_{0};
    std::atomic<std::uint64_t> latencyUsMax_{0};
    /** Cells handed to a worker, and workers that died on a signal. */
    std::atomic<std::uint64_t> spawned_{0};
    std::atomic<std::uint64_t> crashed_{0};
    /** The pool jobs' worker processes; outlives pool_, whose jobs
     *  use it. */
    WorkerSet workers_;

    mutable AnnotatedMutex shutdownMutex_;
    std::condition_variable shutdownCv_;
    bool shutdownRequested_ ECDP_GUARDED_BY(shutdownMutex_) = false;

    // Destroyed before the state above (see the ordering note): the
    // pool first — its jobs complete flights in store_, whose
    // callbacks respond through the server — the server last.
    HttpServer server_;
    ResultStore store_;
    runner::ThreadPool pool_;
};

} // namespace server
} // namespace ecdp

#endif // ECDP_SERVER_DAEMON_HH
