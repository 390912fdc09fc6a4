/**
 * @file
 * Pool of worker *processes*. Each job is one simulation: a
 * cell-spec JSON document piped to the stdin of a freshly spawned
 * `ecdpd --worker` child, whose stdout is the stats JSON. Crash
 * isolation is the point — a simulation that segfaults or aborts
 * kills its child and surfaces as a failed job, never as a dead
 * daemon.
 *
 * Scheduling: one FIFO queue under one mutex. Each shard thread runs
 * one child at a time and, when free, takes the oldest queued job,
 * so a shard busy with a slow cell never holds back the jobs behind
 * it.
 */

#ifndef ECDP_SERVER_WORKER_POOL_HH
#define ECDP_SERVER_WORKER_POOL_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "memsim/thread_annotations.hh"

namespace ecdp
{
namespace server
{

// ecdplint: long-lived
class WorkerPool
{
  public:
    /**
     * Completion callback. On success @p output is the child's
     * stdout and @p error is empty; on failure @p error describes
     * what happened (nonzero exit, signal, exec failure) including a
     * tail of the child's stderr. Runs on a shard thread — keep it
     * cheap and never let it throw.
     */
    using Done =
        std::function<void(std::string output, std::string error)>;

    /**
     * @p workerArgv is the argv of one worker invocation (e.g.
     * {"/path/to/ecdpd", "--worker"}); @p shards is the number of
     * shard threads (>= 1), each running at most one child at a
     * time.
     */
    WorkerPool(std::vector<std::string> workerArgv, unsigned shards);

    /** Runs stop(). */
    ~WorkerPool();

    WorkerPool(const WorkerPool &) = delete;
    WorkerPool &operator=(const WorkerPool &) = delete;

    /**
     * Join every shard (waiting out jobs already running) and fail
     * every job still queued with "worker pool shut down".
     * Idempotent; lets an owner tear the pool down while state the
     * completion callbacks touch is still alive, instead of relying
     * on member-destruction order.
     */
    void stop() ECDP_EXCLUDES(mutex_);

    /** Enqueue @p input for some shard; @p done fires exactly once. */
    void submit(std::string input, Done done) ECDP_EXCLUDES(mutex_);

    /**
     * Shards finish the job they are running but take no new one;
     * queued jobs wait for stop(), which fails them. A test hook: it
     * makes shutdown with a non-empty queue deterministic.
     */
    void holdShards() ECDP_EXCLUDES(mutex_);

    unsigned shards() const { return unsigned(shards_.size()); }

    /** Children spawned (== jobs executed, one process per job). */
    std::uint64_t spawned() const { return spawned_.load(); }

    /** Jobs whose child died on a signal. */
    std::uint64_t crashed() const { return crashed_.load(); }

    /** Jobs queued but not yet picked up (the queue depth). */
    std::size_t queued() const;

  private:
    struct Job
    {
        std::string input;
        Done done;
    };

    void shardLoop();
    bool takeJob(Job &job) ECDP_EXCLUDES(mutex_);
    void runJob(const Job &job);

    // ecdplint-allow(unbounded-container): written once at construction
    std::vector<std::string> workerArgv_;

    mutable AnnotatedMutex mutex_;
    std::condition_variable cv_;
    std::deque<Job> queue_ ECDP_GUARDED_BY(mutex_);
    bool stopping_ ECDP_GUARDED_BY(mutex_) = false;
    bool held_ ECDP_GUARDED_BY(mutex_) = false;

    std::atomic<std::uint64_t> spawned_{0};
    std::atomic<std::uint64_t> crashed_{0};

    // Last member: shard threads touch everything above, so they
    // must be joined (and destroyed) first.
    // ecdplint-allow(unbounded-container): written once at construction
    std::vector<std::thread> shards_;
};

} // namespace server
} // namespace ecdp

#endif // ECDP_SERVER_WORKER_POOL_HH
