// Child-process plumbing: stdin/stdout/stderr round trips, exit and
// signal decoding, exec-failure reporting, the concurrent-drain
// guarantee that a chatty child cannot deadlock the parent, and
// children spawned from two pool threads at once (as ecdpd does).

#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <vector>

#include "runner/thread_pool.hh"
#include "server/process_util.hh"

namespace
{

using namespace ecdp::server;

TEST(ProcessUtil, RoundTripsStdinToStdout)
{
    ChildResult result = runChild({"/bin/cat"}, "hello worker");
    EXPECT_TRUE(result.ok);
    EXPECT_EQ(result.exitCode, 0);
    EXPECT_EQ(result.signal, 0);
    EXPECT_EQ(result.out, "hello worker");
    EXPECT_EQ(result.describeFailure(), "");
}

TEST(ProcessUtil, CapturesStderrSeparately)
{
    ChildResult result = runChild(
        {"/bin/sh", "-c", "echo OUT; echo ERR >&2"}, "");
    EXPECT_TRUE(result.ok);
    EXPECT_EQ(result.out, "OUT\n");
    EXPECT_EQ(result.err, "ERR\n");
}

TEST(ProcessUtil, ReportsNonZeroExit)
{
    ChildResult result = runChild(
        {"/bin/sh", "-c", "echo why >&2; exit 3"}, "");
    EXPECT_FALSE(result.ok);
    EXPECT_EQ(result.exitCode, 3);
    EXPECT_EQ(result.signal, 0);
}

TEST(ProcessUtil, FailureTextCarriesExitCodeAndStderrTail)
{
    // ecdpd fails a cell with this text, so both the status and the
    // worker's last words must reach the client.
    ChildResult result = runChild(
        {"/bin/sh", "-c", "echo diagnostic >&2; exit 7"}, "");
    const std::string why = result.describeFailure();
    EXPECT_NE(why.find("status 7"), std::string::npos) << why;
    EXPECT_NE(why.find("diagnostic"), std::string::npos) << why;
}

TEST(ProcessUtil, DecodesTerminatingSignal)
{
    ChildResult result =
        runChild({"/bin/sh", "-c", "kill -SEGV $$"}, "");
    EXPECT_FALSE(result.ok);
    EXPECT_EQ(result.signal, 11);
    EXPECT_NE(result.describeFailure().find("signal"),
              std::string::npos);
}

TEST(ProcessUtil, ThrowsWhenExecutableMissing)
{
    EXPECT_THROW(runChild({"/no/such/binary/anywhere"}, ""),
                 std::runtime_error);
}

TEST(ProcessUtil, LargeBidirectionalTrafficDoesNotDeadlock)
{
    // 4 MB in, 4 MB out on stdout AND stderr: far beyond any pipe
    // buffer, so this hangs unless all three pipes are drained
    // concurrently.
    const std::string input(4 * 1024 * 1024, 'x');
    ChildResult result = runChild(
        {"/bin/sh", "-c", "tee /dev/stderr"}, input);
    EXPECT_TRUE(result.ok);
    EXPECT_EQ(result.out.size(), input.size());
    EXPECT_EQ(result.err.size(), input.size());
}

TEST(ProcessUtil, PoolJobsDeliverEachChildsOutput)
{
    // A handful of children run from two pool threads, as ecdpd runs
    // its cells: each job gets its own child's stdout, intact.
    constexpr std::size_t kJobs = 8;
    std::vector<ChildResult> results(kJobs);
    {
        ecdp::runner::ThreadPool pool(2);
        for (std::size_t i = 0; i < kJobs; ++i) {
            pool.submit([&results, i] {
                results[i] =
                    runChild({"/bin/cat"}, "job" + std::to_string(i));
            });
        }
        pool.wait();
    }
    for (std::size_t i = 0; i < kJobs; ++i) {
        EXPECT_EQ(results[i].describeFailure(), "") << i;
        EXPECT_EQ(results[i].out, "job" + std::to_string(i));
        EXPECT_EQ(results[i].err, "");
    }
}

TEST(ProcessUtil, ConcurrentSpawnsOnTwoPoolThreadsAllComplete)
{
    // Two pool threads fork children at the same time. Every pipe end
    // must be close-on-exec: a child that inherits its sibling's
    // stdin write end keeps that sibling from seeing EOF until it
    // exits itself, so two children holding each other's wait
    // forever (and the ctest TIMEOUT fails this test).
    constexpr std::size_t kJobs = 2000;
    std::vector<ChildResult> results(kJobs);
    {
        ecdp::runner::ThreadPool pool(2);
        for (std::size_t i = 0; i < kJobs; ++i) {
            pool.submit([&results, i] {
                results[i] =
                    runChild({"/bin/cat"}, "job" + std::to_string(i));
            });
        }
        pool.wait();
    }
    for (std::size_t i = 0; i < kJobs; ++i) {
        EXPECT_TRUE(results[i].ok) << i << results[i].describeFailure();
        EXPECT_EQ(results[i].out, "job" + std::to_string(i));
    }
}

TEST(ProcessUtil, SelfExePathPointsAtThisBinary)
{
    const std::string path = selfExePath("fallback");
    EXPECT_NE(path.find("ecdp_tests"), std::string::npos);
}

} // namespace
