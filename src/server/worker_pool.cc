#include "server/worker_pool.hh"

#include <stdexcept>
#include <utility>

#include "server/process_util.hh"

namespace ecdp
{
namespace server
{

WorkerPool::WorkerPool(std::vector<std::string> workerArgv,
                       unsigned shards)
    : workerArgv_(std::move(workerArgv))
{
    if (workerArgv_.empty())
        throw std::invalid_argument("WorkerPool: empty argv");
    if (shards == 0)
        shards = 1;
    shards_.reserve(shards);
    for (unsigned i = 0; i < shards; ++i)
        shards_.emplace_back([this] { shardLoop(); });
}

WorkerPool::~WorkerPool()
{
    stop();
}

void
WorkerPool::stop()
{
    std::deque<Job> orphans;
    {
        MutexLock lock(mutex_);
        stopping_ = true;
        orphans.swap(queue_);
    }
    cv_.notify_all();
    for (std::thread &shard : shards_) {
        if (shard.joinable())
            shard.join();
    }
    for (const Job &job : orphans)
        job.done("", "worker pool shut down");
}

void
WorkerPool::submit(std::string input, Done done)
{
    {
        MutexLock lock(mutex_);
        if (stopping_) {
            // Fire outside the lock below, like any other failure.
        } else {
            queue_.push_back(Job{std::move(input), std::move(done)});
            cv_.notify_one();
            return;
        }
    }
    done("", "worker pool shut down");
}

void
WorkerPool::holdShards()
{
    MutexLock lock(mutex_);
    held_ = true;
}

std::size_t
WorkerPool::queued() const
{
    MutexLock lock(mutex_);
    return queue_.size();
}

bool
WorkerPool::takeJob(Job &job)
{
    MutexLock lock(mutex_);
    cv_.wait(lock.native(), [&] {
        mutex_.assertHeld(); // the wait predicate runs locked
        return stopping_ || (!held_ && !queue_.empty());
    });
    if (queue_.empty())
        return false; // stopping_ with nothing left
    job = std::move(queue_.front());
    queue_.pop_front();
    return true;
}

void
WorkerPool::runJob(const Job &job)
{
    spawned_.fetch_add(1);
    std::string output;
    std::string error;
    try {
        ChildResult result = runChild(workerArgv_, job.input);
        if (result.ok) {
            output = std::move(result.out);
        } else {
            if (result.signal != 0)
                crashed_.fetch_add(1);
            error = result.describeFailure();
        }
    } catch (const std::exception &e) {
        error = e.what(); // exec failure — the child never ran
    }
    job.done(std::move(output), std::move(error));
}

void
WorkerPool::shardLoop()
{
    for (;;) {
        Job job;
        if (!takeJob(job))
            return;
        runJob(job);
    }
}

} // namespace server
} // namespace ecdp
