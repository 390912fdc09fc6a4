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
    queues_.resize(shards);
    shards_.reserve(shards);
    for (unsigned i = 0; i < shards; ++i)
        shards_.emplace_back([this, i] { shardLoop(i); });
}

WorkerPool::~WorkerPool()
{
    stop();
}

void
WorkerPool::stop()
{
    std::vector<Job> orphans;
    {
        MutexLock lock(mutex_);
        stopping_ = true;
        for (std::deque<Job> &queue : queues_) {
            for (Job &job : queue)
                orphans.push_back(std::move(job));
            queue.clear();
        }
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
            unsigned shard = nextShard_;
            nextShard_ = (nextShard_ + 1) % unsigned(queues_.size());
            queues_[shard].push_back(
                Job{std::move(input), std::move(done)});
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
    std::size_t depth = 0;
    for (const std::deque<Job> &queue : queues_)
        depth += queue.size();
    return depth;
}

bool
WorkerPool::takeJob(unsigned self, Job &job)
{
    MutexLock lock(mutex_);
    cv_.wait(lock.native(), [&] {
        mutex_.assertHeld(); // the wait predicate runs locked
        if (stopping_)
            return true;
        if (held_)
            return false;
        for (const std::deque<Job> &queue : queues_) {
            if (!queue.empty())
                return true;
        }
        return false;
    });
    if (!queues_[self].empty()) {
        job = std::move(queues_[self].front());
        queues_[self].pop_front();
        return true;
    }
    // Own deque is dry: steal from the back of the next non-empty
    // sibling, scanning from self+1 so thieves spread out.
    for (std::size_t i = 1; i < queues_.size(); ++i) {
        std::deque<Job> &victim =
            queues_[(self + i) % queues_.size()];
        if (!victim.empty()) {
            job = std::move(victim.back());
            victim.pop_back();
            stolen_.fetch_add(1);
            return true;
        }
    }
    return false; // stopping_ with nothing left
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
WorkerPool::shardLoop(unsigned self)
{
    for (;;) {
        Job job;
        if (!takeJob(self, job))
            return;
        runJob(job);
    }
}

} // namespace server
} // namespace ecdp
