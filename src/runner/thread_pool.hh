/**
 * @file
 * Fixed-size worker pool for `repro`'s job list and the ecdpd
 * daemon. Deliberately minimal: FIFO job queue, a wait() barrier,
 * stop(), and drain-then-join on destruction. Jobs are opaque void()
 * callables; result plumbing and ordering live in the caller (a
 * `repro` job fills the ExperimentContext memo, the daemon completes
 * a ResultStore flight).
 */

#ifndef ECDP_RUNNER_THREAD_POOL_HH
#define ECDP_RUNNER_THREAD_POOL_HH

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "memsim/thread_annotations.hh"

namespace ecdp
{
namespace runner
{

/** Largest worker count ECDP_JOBS or ecdpd --workers may ask for. */
constexpr unsigned kMaxThreads = 1024;

/**
 * Worker-thread count to use: the ECDP_JOBS environment variable when
 * set to an integer in [1, kMaxThreads], otherwise
 * std::thread::hardware_concurrency (minimum 1).
 */
unsigned jobCountFromEnv();

// simlint: long-lived
class ThreadPool
{
  public:
    /** @param threads Worker count; 0 means jobCountFromEnv(). */
    explicit ThreadPool(unsigned threads = 0);

    /** Waits for queued jobs, then joins the workers. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Enqueue @p job; after stop() it is discarded unrun. */
    void submit(std::function<void()> job) ECDP_EXCLUDES(mutex_);

    /**
     * Block until every submitted job has finished. A job that threw
     * does NOT kill its worker thread: the first escaped exception
     * is captured and rethrown here (then cleared, so the pool stays
     * usable); later ones are dropped.
     */
    void wait() ECDP_EXCLUDES(mutex_);

    /**
     * Let running jobs finish, discard the queued ones unrun, and
     * join the workers. Idempotent; afterwards wait() and the
     * destructor return at once. Lets an owner quiesce the pool
     * while the state its jobs touch is still alive. Never call it
     * from a job.
     */
    void stop() ECDP_EXCLUDES(mutex_);

    unsigned threadCount() const
    {
        return static_cast<unsigned>(workers_.size());
    }

    /** Jobs submitted but not yet picked up (the queue depth). */
    std::size_t queued() const ECDP_EXCLUDES(mutex_);

  private:
    void workerLoop();
    /** wait() without the rethrow, for the destructor. */
    void waitIdle() ECDP_EXCLUDES(mutex_);

    mutable AnnotatedMutex mutex_;
    std::condition_variable workReady_;
    std::condition_variable allIdle_;
    std::deque<std::function<void()>> queue_ ECDP_GUARDED_BY(mutex_);
    unsigned pending_ ECDP_GUARDED_BY(mutex_) = 0; // queued + running
    bool stopping_ ECDP_GUARDED_BY(mutex_) = false;
    std::exception_ptr firstError_ ECDP_GUARDED_BY(mutex_);

    // Last member: workers touch everything above, so they must be
    // joined (and destroyed) first.
    // simlint-allow(unbounded-container): written once at construction
    std::vector<std::thread> workers_;
};

} // namespace runner
} // namespace ecdp

#endif // ECDP_RUNNER_THREAD_POOL_HH
