#include "runner/thread_pool.hh"

#include <cstdlib>
#include <stdexcept>
#include <utility>

#include "memsim/parse_number.hh"

namespace ecdp
{
namespace runner
{

unsigned
jobCountFromEnv()
{
    if (const char *env = std::getenv("ECDP_JOBS")) {
        try {
            return parseNumber<unsigned>("ECDP_JOBS", env, 1,
                                         kMaxThreads);
        } catch (const std::invalid_argument &) {
            // Garbage or out of range: fall back to the hardware.
        }
    }
    unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

ThreadPool::ThreadPool(unsigned threads)
{
    if (threads == 0)
        threads = jobCountFromEnv();
    workers_.reserve(threads);
    for (unsigned i = 0; i < threads; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    waitIdle(); // never throws: a pending job error dies with us
    stop();     // the queue is empty now: this only joins
}

void
ThreadPool::stop()
{
    std::deque<std::function<void()>> discarded;
    {
        MutexLock lock(mutex_);
        stopping_ = true;
        discarded.swap(queue_);
        pending_ -= static_cast<unsigned>(discarded.size());
        if (pending_ == 0)
            allIdle_.notify_all();
    }
    workReady_.notify_all();
    for (std::thread &worker : workers_) {
        if (worker.joinable())
            worker.join();
    }
    // `discarded` dies here, outside the lock, with its captures.
}

void
ThreadPool::submit(std::function<void()> job)
{
    {
        MutexLock lock(mutex_);
        if (stopping_)
            return; // discarded; `job` dies after the lock is released
        queue_.push_back(std::move(job));
        ++pending_;
    }
    workReady_.notify_one();
}

std::size_t
ThreadPool::queued() const
{
    MutexLock lock(mutex_);
    return queue_.size();
}

void
ThreadPool::waitIdle()
{
    MutexLock lock(mutex_);
    allIdle_.wait(lock.native(), [this] {
        mutex_.assertHeld(); // the wait predicate runs locked
        return pending_ == 0;
    });
}

void
ThreadPool::wait()
{
    MutexLock lock(mutex_);
    allIdle_.wait(lock.native(), [this] {
        mutex_.assertHeld(); // the wait predicate runs locked
        return pending_ == 0;
    });
    if (firstError_) {
        std::exception_ptr error = std::exchange(firstError_, nullptr);
        lock.unlock();
        std::rethrow_exception(error);
    }
}

void
ThreadPool::workerLoop()
{
    MutexLock lock(mutex_);
    while (true) {
        workReady_.wait(lock.native(), [this] {
            mutex_.assertHeld(); // the wait predicate runs locked
            return stopping_ || !queue_.empty();
        });
        if (queue_.empty())
            return; // stopping_ and drained
        std::function<void()> job = std::move(queue_.front());
        queue_.pop_front();
        lock.unlock();
        // A throwing job must not take its worker thread (and with
        // it the whole process) down: capture the first exception
        // for wait() to rethrow on the submitting thread.
        std::exception_ptr error;
        try {
            job();
        } catch (...) {
            error = std::current_exception();
        }
        lock.lock();
        if (error && !firstError_)
            firstError_ = error;
        if (--pending_ == 0)
            allIdle_.notify_all();
    }
}

} // namespace runner
} // namespace ecdp
