// The work-stealing worker-process pool: completion plumbing, crash
// isolation (a dying child surfaces as a failed job, never as a dead
// pool), stealing between skewed shards, and shutdown semantics.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "server/worker_pool.hh"

namespace
{

using namespace ecdp::server;

/** Collects job completions and lets the test block until N. */
class Collector
{
  public:
    WorkerPool::Done done()
    {
        return [this](std::string output, std::string error) {
            std::lock_guard<std::mutex> lock(mutex_);
            outputs.push_back(std::move(output));
            errors.push_back(std::move(error));
            cv_.notify_all();
        };
    }

    void waitFor(std::size_t n)
    {
        std::unique_lock<std::mutex> lock(mutex_);
        cv_.wait(lock, [&] { return outputs.size() >= n; });
    }

    /** waitFor() with a deadline; false if it passed first. */
    bool waitFor(std::size_t n, std::chrono::seconds deadline)
    {
        std::unique_lock<std::mutex> lock(mutex_);
        return cv_.wait_for(lock, deadline,
                            [&] { return outputs.size() >= n; });
    }

    std::vector<std::string> outputs;
    std::vector<std::string> errors;

  private:
    std::mutex mutex_;
    std::condition_variable cv_;
};

TEST(WorkerPool, RunsJobsAndDeliversOutput)
{
    WorkerPool pool({"/bin/cat"}, 2);
    Collector collector;
    for (int i = 0; i < 8; ++i)
        pool.submit("job" + std::to_string(i), collector.done());
    collector.waitFor(8);
    EXPECT_EQ(pool.spawned(), 8u);
    std::vector<std::string> sorted = collector.outputs;
    std::sort(sorted.begin(), sorted.end());
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(sorted[std::size_t(i)],
                  "job" + std::to_string(i));
    for (const std::string &error : collector.errors)
        EXPECT_EQ(error, "");
}

TEST(WorkerPool, CrashedChildIsIsolated)
{
    // Every job reads a shell script from stdin; one of them
    // segfaults its own process. The pool must report that one job
    // as failed (with the signal) and keep executing the rest.
    WorkerPool pool({"/bin/sh"}, 2);
    Collector collector;
    pool.submit("kill -SEGV $$\n", collector.done());
    for (int i = 0; i < 4; ++i)
        pool.submit("echo ok\n", collector.done());
    collector.waitFor(5);

    std::size_t failed = 0;
    for (std::size_t i = 0; i < 5; ++i) {
        if (!collector.errors[i].empty()) {
            ++failed;
            EXPECT_NE(collector.errors[i].find("signal"),
                      std::string::npos)
                << collector.errors[i];
        } else {
            EXPECT_EQ(collector.outputs[i], "ok\n");
        }
    }
    EXPECT_EQ(failed, 1u);
    EXPECT_EQ(pool.crashed(), 1u);
    EXPECT_EQ(pool.spawned(), 5u);
}

TEST(WorkerPool, FailedJobCarriesExitCodeAndStderr)
{
    WorkerPool pool({"/bin/sh"}, 1);
    Collector collector;
    pool.submit("echo diagnostic >&2; exit 7\n", collector.done());
    collector.waitFor(1);
    EXPECT_NE(collector.errors[0].find("7"), std::string::npos);
    EXPECT_NE(collector.errors[0].find("diagnostic"),
              std::string::npos);
}

TEST(WorkerPool, IdleShardStealsFromLoadedShard)
{
    // Round-robin submission alternates shards 0/1; shard 0's jobs
    // sleep while shard 1's return instantly, so shard 1 drains its
    // own deque and must steal shard 0's backlog to finish the batch
    // quickly.
    WorkerPool pool({"/bin/sh"}, 2);
    Collector collector;
    constexpr int kPairs = 6;
    for (int i = 0; i < kPairs; ++i) {
        pool.submit("sleep 0.3; echo slow\n", collector.done());
        pool.submit("echo fast\n", collector.done());
    }
    collector.waitFor(2 * kPairs);
    EXPECT_GE(pool.stolen(), 1u);
    EXPECT_EQ(pool.spawned(), 2u * kPairs);
}

TEST(WorkerPool, DestructorFailsQueuedJobs)
{
    Collector collector;
    {
        // One shard, blocked on a slow job, with a queue behind it;
        // destruction must fail the queued jobs (not run or leak
        // them) and still deliver every callback exactly once.
        WorkerPool pool({"/bin/sh"}, 1);
        pool.submit("sleep 0.2; echo first\n", collector.done());
        for (int i = 0; i < 3; ++i)
            pool.submit("echo queued\n", collector.done());
        collector.waitFor(1);
    }
    ASSERT_EQ(collector.outputs.size(), 4u);
    EXPECT_EQ(collector.outputs[0], "first\n");
    // The shard may legitimately pop one more job before the
    // destructor drains the deque, but at least two of the three
    // queued jobs must be failed, and every callback must fire.
    std::size_t shutDown = 0;
    for (std::size_t i = 1; i < 4; ++i) {
        if (collector.errors[i].find("shut down") !=
            std::string::npos) {
            ++shutDown;
        } else {
            EXPECT_EQ(collector.outputs[i], "queued\n");
        }
    }
    EXPECT_GE(shutDown, 2u);
}

TEST(WorkerPool, ExplicitStopIsIdempotentAndFailsLateSubmits)
{
    // An owner can quiesce the pool explicitly (the daemon does this
    // in stop(), while the state its callbacks touch is still
    // alive); a second stop and post-stop submits are harmless.
    WorkerPool pool({"/bin/sh"}, 1);
    Collector collector;
    pool.submit("sleep 0.2; echo ran\n", collector.done());
    for (int i = 0; i < 2; ++i)
        pool.submit("echo queued\n", collector.done());
    collector.waitFor(1);
    pool.stop();
    ASSERT_EQ(collector.outputs.size(), 3u);
    pool.stop(); // idempotent: no double callbacks, no deadlock
    ASSERT_EQ(collector.outputs.size(), 3u);

    pool.submit("echo late\n", collector.done());
    collector.waitFor(4);
    EXPECT_NE(collector.errors[3].find("shut down"),
              std::string::npos);
    // Every job either ran or was failed — exactly one callback
    // each, none lost.
    for (std::size_t i = 0; i < 4; ++i) {
        EXPECT_TRUE(collector.errors[i].empty() !=
                    collector.outputs[i].empty())
            << i;
    }
}

TEST(WorkerPool, ConcurrentSpawnsOnTwoShardsAllComplete)
{
    // Two shards fork children at the same time. Every pipe end must
    // be close-on-exec: a child that inherits its sibling's stdin
    // write end keeps that sibling from seeing EOF until it exits
    // itself, so two children holding each other's wait forever.
    Collector collector;
    WorkerPool pool({"/bin/cat"}, 2);
    constexpr int kJobs = 2000;
    for (int i = 0; i < kJobs; ++i)
        pool.submit("job" + std::to_string(i), collector.done());
    ASSERT_TRUE(collector.waitFor(kJobs, std::chrono::seconds(60)))
        << "concurrently spawned workers never saw stdin EOF";
    EXPECT_EQ(pool.spawned(), std::uint64_t{kJobs});
    for (const std::string &error : collector.errors)
        EXPECT_EQ(error, "");
}

TEST(WorkerPool, QueueDepthDrainsToZero)
{
    WorkerPool pool({"/bin/cat"}, 2);
    Collector collector;
    for (int i = 0; i < 6; ++i)
        pool.submit("x", collector.done());
    collector.waitFor(6);
    // All callbacks delivered implies nothing left queued.
    EXPECT_EQ(pool.queued(), 0u);
}

} // namespace
