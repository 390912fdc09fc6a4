/**
 * @file
 * Tests for the parallel experiment runner: the thread pool (also
 * ecdpd's: FIFO behind a slow job, stop() discarding the queue), the
 * collision-free run memoization (configHash), timeout reporting,
 * the RunStats codec and the ECDP_RESULT_CACHE spill, and — most
 * importantly — that a parallel run produces exactly the statistics
 * of a serial one.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <future>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "runner/runner.hh"
#include "runner/thread_pool.hh"
#include "server/result_store.hh"
#include "sim/experiment.hh"
#include "sim/multicore.hh"
#include "sim/simulator.hh"
#include "stats/json.hh"

namespace ecdp
{
namespace
{

using runner::ExperimentRunner;
using runner::ThreadPool;

TEST(ThreadPoolTest, RunsEverySubmittedJob)
{
    std::atomic<int> count{0};
    ThreadPool pool(4);
    EXPECT_EQ(pool.threadCount(), 4u);
    for (int i = 0; i < 100; ++i)
        pool.submit([&count] { ++count; });
    pool.wait();
    EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, QueueDepthDrainsToZero)
{
    // ecdpd reports queued() as ecdpd.queue.depth: once every job
    // has run, nothing may still read as queued.
    std::atomic<int> count{0};
    ThreadPool pool(2);
    for (int i = 0; i < 6; ++i)
        pool.submit([&count] { ++count; });
    pool.wait();
    EXPECT_EQ(count.load(), 6);
    EXPECT_EQ(pool.queued(), 0u);
}

TEST(ThreadPoolTest, WaitIsReusable)
{
    std::atomic<int> count{0};
    ThreadPool pool(2);
    pool.submit([&count] { ++count; });
    pool.wait();
    EXPECT_EQ(count.load(), 1);
    pool.submit([&count] { ++count; });
    pool.submit([&count] { ++count; });
    pool.wait();
    EXPECT_EQ(count.load(), 3);
}

TEST(ThreadPoolTest, JobExceptionSurfacesInWaitNotTerminate)
{
    ThreadPool pool(2);
    std::atomic<int> ran{0};
    pool.submit([&ran] { ++ran; });
    pool.submit([] { throw std::logic_error("boom in worker"); });
    pool.submit([&ran] { ++ran; });
    // The original exception type crosses to the waiting thread.
    EXPECT_THROW(pool.wait(), std::logic_error);
    EXPECT_EQ(ran.load(), 2); // the other jobs still ran

    // The pool survives: the error was cleared, workers are alive.
    pool.submit([&ran] { ++ran; });
    pool.wait();
    EXPECT_EQ(ran.load(), 3);
}

TEST(ThreadPoolTest, DestructorDrainsTheQueue)
{
    std::atomic<int> count{0};
    {
        ThreadPool pool(2);
        for (int i = 0; i < 10; ++i)
            pool.submit([&count] { ++count; });
    }
    EXPECT_EQ(count.load(), 10);
}

/** Poll @p done for up to 10 s; false if it never held. */
template <typename Pred>
bool
eventually(Pred done)
{
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!done()) {
        if (std::chrono::steady_clock::now() > deadline)
            return false;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return true;
}

TEST(ThreadPoolTest, FreeThreadRunsTheJobsQueuedBehindASlowOne)
{
    // One shared FIFO: while one thread sits in a slow job, the other
    // takes every job queued behind it. The slow job is released only
    // once all fast jobs have run, so a pool that parked them behind
    // it would fail the deadline instead.
    ThreadPool pool(2);
    std::mutex mutex;
    std::vector<std::string> order;
    auto record = [&](const char *what) {
        std::lock_guard<std::mutex> lock(mutex);
        order.emplace_back(what);
    };
    std::promise<void> release;
    std::shared_future<void> released = release.get_future().share();
    pool.submit([&, released] {
        released.wait();
        record("slow");
    });
    constexpr std::size_t kFast = 5;
    for (std::size_t i = 0; i < kFast; ++i)
        pool.submit([&] { record("fast"); });
    const bool fastRan = eventually([&] {
        std::lock_guard<std::mutex> lock(mutex);
        return order.size() == kFast;
    });
    release.set_value();
    pool.wait();
    EXPECT_TRUE(fastRan) << "fast jobs waited behind the slow one";
    ASSERT_EQ(order.size(), kFast + 1);
    for (std::size_t i = 0; i < kFast; ++i)
        EXPECT_EQ(order[i], "fast") << i;
    EXPECT_EQ(order[kFast], "slow");
}

TEST(ThreadPoolTest, StopDiscardsQueuedJobsAndFinishesTheRunningOne)
{
    ThreadPool pool(1);
    std::promise<void> started;
    std::promise<void> release;
    std::shared_future<void> released = release.get_future().share();
    std::atomic<bool> firstDone{false};
    std::atomic<int> othersRan{0};
    pool.submit([&, released] {
        started.set_value();
        released.wait();
        firstDone = true;
    });
    for (int i = 0; i < 3; ++i)
        pool.submit([&othersRan] { ++othersRan; });
    started.get_future().wait();
    EXPECT_EQ(pool.queued(), 3u);

    // stop() blocks joining the busy thread, so it runs on a helper.
    // The one thread is inside job 1, so only stop() can empty the
    // queue while job 1 still runs.
    std::thread stopper([&pool] { pool.stop(); });
    const bool queueTaken = eventually([&] { return pool.queued() == 0; });
    EXPECT_TRUE(queueTaken);
    EXPECT_FALSE(firstDone.load());
    release.set_value();
    stopper.join();

    EXPECT_TRUE(firstDone.load());
    EXPECT_EQ(othersRan.load(), 0);
    pool.wait(); // returns at once: nothing is pending
    pool.stop(); // idempotent
}

TEST(ThreadPoolTest, SubmitAfterStopNeverRuns)
{
    std::atomic<int> ran{0};
    ThreadPool pool(2);
    pool.submit([&ran] { ++ran; });
    pool.wait();
    pool.stop();
    pool.submit([&ran] { ++ran; });
    EXPECT_EQ(pool.queued(), 0u);
    pool.wait(); // the discarded job is never counted as pending
    EXPECT_EQ(ran.load(), 1);
}

TEST(ThreadPoolTest, JobCountRespectsEnvironment)
{
    ::setenv("ECDP_JOBS", "3", 1);
    EXPECT_EQ(runner::jobCountFromEnv(), 3u);
    ::setenv("ECDP_JOBS", "1", 1);
    EXPECT_EQ(runner::jobCountFromEnv(), 1u);
    // Garbage and zero fall back to hardware concurrency (>= 1).
    ::setenv("ECDP_JOBS", "0", 1);
    EXPECT_GE(runner::jobCountFromEnv(), 1u);
    ::setenv("ECDP_JOBS", "banana", 1);
    EXPECT_GE(runner::jobCountFromEnv(), 1u);
    // A prefix is not a count, and 1025 is past the clamp.
    ::setenv("ECDP_JOBS", "3x", 1);
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    EXPECT_EQ(runner::jobCountFromEnv(), hw);
    ::setenv("ECDP_JOBS", "1025", 1);
    EXPECT_EQ(runner::jobCountFromEnv(), hw);
    ::unsetenv("ECDP_JOBS");
    EXPECT_GE(runner::jobCountFromEnv(), 1u);
}

TEST(ConfigHashTest, IdenticalConfigsHashEqual)
{
    EXPECT_EQ(configHash(configs::byName("baseline")),
              configHash(configs::byName("baseline")));
    EXPECT_EQ(configHash(SystemConfig{}), configHash(SystemConfig{}));
}

TEST(ConfigHashTest, EveryTweakedKnobChangesTheHash)
{
    const std::uint64_t base = configHash(SystemConfig{});
    auto tweaked = [](auto mutate) {
        SystemConfig cfg;
        mutate(cfg);
        return configHash(cfg);
    };
    EXPECT_NE(base, tweaked([](SystemConfig &c) { c.l2Bytes *= 2; }));
    EXPECT_NE(base, tweaked([](SystemConfig &c) { c.l2Assoc = 4; }));
    EXPECT_NE(base, tweaked([](SystemConfig &c) {
                  c.engines[1] = "cdp";
              }));
    EXPECT_NE(base, tweaked([](SystemConfig &c) {
                  c.throttlePolicy = "coordinated";
              }));
    EXPECT_NE(base,
              tweaked([](SystemConfig &c) { c.throttleRlSeed = 2; }));
    EXPECT_NE(tweaked([](SystemConfig &c) { c.engines = {"ab", "c"}; }),
              tweaked([](SystemConfig &c) { c.engines = {"a", "bc"}; }));
    EXPECT_NE(base, tweaked([](SystemConfig &c) {
                  c.coordThresholds.tCoverage += 0.1;
              }));
    EXPECT_NE(base, tweaked([](SystemConfig &c) {
                  c.maxCycles = Cycle{1000};
              }));
    EXPECT_NE(base, tweaked([](SystemConfig &c) {
                  c.idealLds = true;
              }));
    EXPECT_NE(base, tweaked([](SystemConfig &c) {
                  c.prefetchQueueEntries = 64;
              }));
}

TEST(ConfigHashTest, HintsHashByContentNotAddress)
{
    HintTable a;
    a.entry(0x400).set(1);
    HintTable b;
    b.entry(0x400).set(1);
    SystemConfig cfg_a;
    cfg_a.hints = &a;
    SystemConfig cfg_b;
    cfg_b.hints = &b;
    EXPECT_EQ(configHash(cfg_a), configHash(cfg_b));

    // An empty table is not the same as no table, and different
    // content hashes differently.
    SystemConfig no_hints;
    HintTable empty;
    SystemConfig empty_hints;
    empty_hints.hints = &empty;
    EXPECT_NE(configHash(no_hints), configHash(empty_hints));
    b.entry(0x400).set(2);
    EXPECT_NE(configHash(cfg_a), configHash(cfg_b));
}

TEST(ExperimentContextTest, ReusedLabelNeverSelectsAResult)
{
    // The label only names trace flushes; the config's content picks
    // the memo entry. (The old name+key memoization returned the
    // "noprefetch" stats for the second call.)
    ExperimentContext ctx;
    const RunStats &np = ctx.run("parser", configs::byName("noprefetch"), "x");
    const RunStats &base = ctx.run("parser", configs::byName("baseline"), "x");
    EXPECT_NE(&np, &base);
    EXPECT_NE(np.ipc, base.ipc);
}

TEST(ExperimentContextTest, SameConfigUnderTwoLabelsRunsOnce)
{
    ExperimentContext ctx;
    const RunStats &a = ctx.run("parser", configs::byName("noprefetch"), "x");
    const RunStats &b = ctx.run("parser", configs::byName("noprefetch"), "y");
    EXPECT_EQ(&a, &b);
}

TEST(SimulatorTimeout, SingleCoreWatchdogSetsTimedOut)
{
    SystemConfig cfg = configs::byName("noprefetch");
    cfg.maxCycles = Cycle{5000};
    RunStats stats = simulate(cfg, buildWorkload("parser",
                                                 InputSet::Train));
    EXPECT_TRUE(stats.timedOut);
    EXPECT_EQ(stats.cycles, cfg.maxCycles);
    // A finished run must not be flagged.
    cfg.maxCycles = Cycle{4'000'000'000ull};
    RunStats done = simulate(cfg, buildWorkload("parser",
                                                InputSet::Train));
    EXPECT_FALSE(done.timedOut);
    EXPECT_GT(done.instructions, 0u);
}

TEST(SimulatorTimeout, MultiCoreWatchdogSetsTimedOut)
{
    SystemConfig cfg = configs::byName("noprefetch");
    cfg.maxCycles = Cycle{5000};
    const Workload a = buildWorkload("parser", InputSet::Train);
    const Workload b = buildWorkload("bisort", InputSet::Train);
    MultiCoreResult result =
        simulateMultiCore(cfg, {&a, &b}, {1.0, 1.0});
    EXPECT_TRUE(result.timedOut);
    ASSERT_EQ(result.perCore.size(), 2u);
    EXPECT_TRUE(result.perCore[0].timedOut);
    EXPECT_TRUE(result.perCore[1].timedOut);
}

namespace
{

void
expectSameStats(const RunStats &a, const RunStats &b)
{
    EXPECT_EQ(a.workload, b.workload);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.ipc, b.ipc);
    EXPECT_EQ(a.timedOut, b.timedOut);
    EXPECT_EQ(a.busTransactions, b.busTransactions);
    EXPECT_EQ(a.bpki, b.bpki);
    EXPECT_EQ(a.demandLoads, b.demandLoads);
    EXPECT_EQ(a.l2DemandAccesses, b.l2DemandAccesses);
    EXPECT_EQ(a.l2DemandMisses, b.l2DemandMisses);
    EXPECT_EQ(a.l2LdsMisses, b.l2LdsMisses);
    ASSERT_EQ(a.engineStats.size(), b.engineStats.size());
    for (std::size_t i = 0; i < a.engineStats.size(); ++i) {
        const RunStats::EngineRunStats &x = a.engineStats[i];
        const RunStats::EngineRunStats &y = b.engineStats[i];
        EXPECT_EQ(x.instance, y.instance);
        EXPECT_EQ(x.engine, y.engine);
        EXPECT_EQ(x.issued, y.issued);
        EXPECT_EQ(x.used, y.used);
        EXPECT_EQ(x.late, y.late);
        EXPECT_EQ(x.dropped, y.dropped);
        EXPECT_EQ(x.usefulLatencySum, y.usefulLatencySum);
        EXPECT_EQ(x.usefulLatencyCount, y.usefulLatencyCount);
        EXPECT_EQ(x.finalLevel, y.finalLevel);
        EXPECT_EQ(x.finalEnabled, y.finalEnabled);
    }
    ASSERT_EQ(a.pgStats.size(), b.pgStats.size());
    for (const auto &[id, pg] : a.pgStats) {
        auto it = b.pgStats.find(id);
        ASSERT_NE(it, b.pgStats.end());
        EXPECT_EQ(pg.issued, it->second.issued);
        EXPECT_EQ(pg.used, it->second.used);
    }
    EXPECT_EQ(a.intervals, b.intervals);
    ASSERT_EQ(a.intervalSeries.size(), b.intervalSeries.size());
    for (std::size_t i = 0; i < a.intervalSeries.size(); ++i) {
        const IntervalSample &x = a.intervalSeries[i];
        const IntervalSample &y = b.intervalSeries[i];
        EXPECT_EQ(x.cycle, y.cycle);
        ASSERT_EQ(x.slots.size(), y.slots.size());
        for (std::size_t k = 0; k < x.slots.size(); ++k) {
            EXPECT_EQ(x.slots[k].accuracy, y.slots[k].accuracy);
            EXPECT_EQ(x.slots[k].coverage, y.slots[k].coverage);
            EXPECT_EQ(x.slots[k].level, y.slots[k].level);
            EXPECT_EQ(x.slots[k].enabled, y.slots[k].enabled);
        }
        EXPECT_EQ(x.policy, y.policy);
    }
    EXPECT_EQ(a.throttlePolicy, b.throttlePolicy);
    EXPECT_EQ(a.throttlePolicyState, b.throttlePolicyState);
}

} // namespace

TEST(ExperimentRunnerTest, ParallelRunsMatchSerialExactly)
{
    const std::vector<std::string> names{"parser", "bisort", "mst"};
    const std::vector<std::pair<std::string, SystemConfig>> grid{
        {"np", configs::byName("noprefetch")},
        {"base", configs::byName("baseline")},
        {"ideal", configs::byName("ideal-lds")},
    };

    ExperimentContext serial_ctx;
    ExperimentContext parallel_ctx;
    ExperimentRunner parallel(parallel_ctx, 4);
    parallel.setProgressStream(nullptr);
    for (const auto &[key, cfg] : grid) {
        for (const std::string &name : names) {
            parallel.submit(name, key,
                            [cfg](ExperimentContext &,
                                  const std::string &) { return cfg; });
        }
    }
    const auto &results = parallel.wait();
    ASSERT_EQ(results.size(), names.size() * grid.size());

    std::size_t i = 0;
    for (const auto &[key, cfg] : grid) {
        for (const std::string &name : names) {
            const RunStats &serial = serial_ctx.run(name, cfg, key);
            ASSERT_EQ(results[i].name, name);
            ASSERT_EQ(results[i].key, key);
            ASSERT_NE(results[i].stats, nullptr);
            EXPECT_TRUE(results[i].error.empty());
            expectSameStats(serial, *results[i].stats);
            // The runner memoized into its context: a serial re-run
            // must return the very same object.
            EXPECT_EQ(results[i].stats,
                      &parallel_ctx.run(name, cfg, key));
            ++i;
        }
    }
}

TEST(ExperimentRunnerTest, FailedJobsSurfaceInWait)
{
    ExperimentContext ctx;
    ExperimentRunner parallel(ctx, 2);
    parallel.setProgressStream(nullptr);
    parallel.submit("parser", "ok",
                    [](ExperimentContext &, const std::string &) {
                        return configs::byName("noprefetch");
                    });
    parallel.submit("parser", "boom",
                    [](ExperimentContext &,
                       const std::string &) -> SystemConfig {
                        throw std::runtime_error("no such config");
                    });
    EXPECT_THROW(parallel.wait(), std::runtime_error);
}

TEST(ExperimentRunnerTest, SubmitFutureCarriesStatsOrException)
{
    ExperimentContext ctx;
    ExperimentRunner parallel(ctx, 2);
    parallel.setProgressStream(nullptr);
    std::shared_future<const RunStats *> good = parallel.submit(
        "parser", "np",
        [](ExperimentContext &, const std::string &) {
            return configs::byName("noprefetch");
        });
    std::shared_future<const RunStats *> bad = parallel.submit(
        "parser", "boom",
        [](ExperimentContext &,
           const std::string &) -> SystemConfig {
            throw std::logic_error("deliberately broken config");
        });

    // The success future resolves to the memoized stats object.
    const RunStats *stats = good.get();
    ASSERT_NE(stats, nullptr);
    EXPECT_EQ(stats, &ctx.run("parser", configs::byName("noprefetch"), "np"));

    // The failure future rethrows the worker's ORIGINAL exception
    // (std::logic_error, not a flattened runtime_error).
    EXPECT_THROW(bad.get(), std::logic_error);
    try {
        bad.get();
        FAIL() << "expected the job exception";
    } catch (const std::logic_error &e) {
        EXPECT_STREQ(e.what(), "deliberately broken config");
    }

    // wait() still reports the grid-level failure.
    EXPECT_THROW(parallel.wait(), std::runtime_error);
}

TEST(RunStatsCodec, RoundTripsExactly)
{
    ExperimentContext ctx;
    RunStats stats =
        simulate(configs::byName("noprefetch"), ctx.ref("parser"));
    stats.pgStats[PgId{0x400, -2}] = PgStats{17, 5};
    // Exercise the interval-series and policy legs even though a
    // noPrefetch run records none of its own.
    IntervalSample sample;
    sample.cycle = Cycle{12345};
    sample.slots.resize(3);
    sample.slots[0].accuracy = 0.125;
    sample.slots[1].accuracy = 1.0 / 3.0; // not exactly representable
    sample.slots[0].coverage = 0.75;
    sample.slots[2].coverage = 0.5;
    sample.slots[0].level = AggLevel::Conservative;
    sample.slots[0].enabled = false;
    sample.slots[2].level = AggLevel::VeryConservative;
    sample.policy = "{\"q\":[1,2]}";
    stats.intervalSeries.push_back(sample);
    stats.throttlePolicy = "tabular-rl";
    stats.throttlePolicyState = "{\"visits\":3}";

    std::optional<RunStats> decoded =
        decodeRunStats(encodeRunStats(stats), "parser");
    ASSERT_TRUE(decoded.has_value());
    expectSameStats(stats, *decoded);

    // Truncated or foreign bytes are a miss, never a throw.
    const std::string bytes = encodeRunStats(stats);
    EXPECT_FALSE(decodeRunStats(bytes.substr(0, bytes.size() / 2),
                                "parser")
                     .has_value());
    EXPECT_FALSE(decodeRunStats("{\"cycles\":1}", "parser").has_value());
}

TEST(ResultSpill, ContextUsesCacheAcrossInstances)
{
    const std::string dir = testing::TempDir() + "/ecdp_cache_ctx";
    std::filesystem::remove_all(dir);
    ::setenv("ECDP_RESULT_CACHE", dir.c_str(), 1);

    RunStats first;
    {
        ExperimentContext ctx;
        first = ctx.run("parser", configs::byName("noprefetch"), "np");
    }
    const std::uint64_t key = runKey("parser", configs::byName("noprefetch"));
    EXPECT_TRUE(std::filesystem::exists(
        dir + "/" + server::ResultStore::entryFileName(key)));
    {
        ExperimentContext ctx;
        const RunStats &again =
            ctx.run("parser", configs::byName("noprefetch"), "np");
        expectSameStats(first, again);
    }
    ::unsetenv("ECDP_RESULT_CACHE");
    std::filesystem::remove_all(dir);
}

} // namespace
} // namespace ecdp
