// Worker processes: the request-line / reply-frame round trip, one
// process kept for many requests, exit and signal decoding with the
// stderr tail, exec-failure reporting, retirement (error reply, crash,
// peak RSS) and respawn, the full-duplex guarantee that a 4 MB
// request, reply and stderr cannot deadlock, stray stdout that cannot
// corrupt a frame, workers started from two pool threads at once (as
// ecdpd does), and a stop that kills a worker stuck mid-request.

#include <gtest/gtest.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstddef>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/wait.h>

#include "runner/thread_pool.hh"
#include "server/process_util.hh"

namespace
{

using namespace ecdp::server;

/** A worker that answers each request line with itself. */
const std::vector<std::string> kEcho = {
    "/bin/sh", "-c",
    "while read -r c; do printf 'ok %d\\n%s' ${#c} \"$c\" >&3; done"};

bool
processGone(pid_t pid)
{
    return ::kill(pid, 0) != 0 && errno == ESRCH;
}

TEST(ProcessUtil, RoundTripsARequestLineToAReplyFrame)
{
    WorkerProcess::Counters counters;
    WorkerProcess worker(kEcho, counters);
    WorkerReply reply = worker.request("hello worker");
    EXPECT_TRUE(reply.ok);
    EXPECT_EQ(reply.out, "hello worker");
    EXPECT_EQ(reply.error, "");
    EXPECT_EQ(reply.signal, 0);
}

TEST(ProcessUtil, ManyRequestsShareOneProcess)
{
    WorkerProcess::Counters counters;
    WorkerProcess worker(kEcho, counters);
    EXPECT_TRUE(worker.request("r0").ok);
    const pid_t first = worker.pid();
    for (int i = 1; i < 20; ++i) {
        WorkerReply reply = worker.request("r" + std::to_string(i));
        EXPECT_TRUE(reply.ok) << reply.error;
        EXPECT_EQ(reply.out, "r" + std::to_string(i));
    }
    EXPECT_EQ(worker.pid(), first);
    EXPECT_EQ(counters.started.load(), 1u);
    EXPECT_EQ(counters.retired.load(), 0u);
    // stop() closes stdin, and the worker's loop ends on its own.
    const int status = worker.stop();
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
    EXPECT_TRUE(processGone(first));
}

TEST(ProcessUtil, CapturesStderrSeparately)
{
    // stderr never mixes into the frame, and a failure carries it.
    WorkerProcess::Counters counters;
    WorkerProcess talker({"/bin/sh", "-c",
                          "read -r c; echo ERR >&2; "
                          "printf 'ok 2\\n{}' >&3; read -r c"},
                         counters);
    WorkerReply reply = talker.request("x");
    EXPECT_TRUE(reply.ok);
    EXPECT_EQ(reply.out, "{}");

    WorkerProcess dying({"/bin/sh", "-c", "echo ERR >&2; exit 1"},
                        counters);
    reply = dying.request("x");
    EXPECT_FALSE(reply.ok);
    EXPECT_EQ(reply.out, "");
    EXPECT_NE(reply.error.find("ERR"), std::string::npos)
        << reply.error;
}

TEST(ProcessUtil, ReportsNonZeroExit)
{
    WorkerProcess::Counters counters;
    WorkerProcess worker({"/bin/sh", "-c", "echo why >&2; exit 3"},
                         counters);
    WorkerReply reply = worker.request("x");
    EXPECT_FALSE(reply.ok);
    EXPECT_EQ(reply.exitCode, 3);
    EXPECT_EQ(reply.signal, 0);
    EXPECT_EQ(worker.pid(), -1); // reaped
    EXPECT_EQ(counters.retired.load(), 1u);
}

TEST(ProcessUtil, FailureTextCarriesExitCodeAndStderrTail)
{
    // ecdpd fails a cell with this text, so both the status and the
    // worker's last words must reach the client.
    WorkerProcess::Counters counters;
    WorkerProcess worker(
        {"/bin/sh", "-c", "echo diagnostic >&2; exit 7"}, counters);
    const std::string why = worker.request("x").error;
    EXPECT_NE(why.find("status 7"), std::string::npos) << why;
    EXPECT_NE(why.find("diagnostic"), std::string::npos) << why;
}

TEST(ProcessUtil, DecodesTerminatingSignal)
{
    // A crash mid-request: the request fails with the signal and what
    // the worker said before it died.
    WorkerProcess::Counters counters;
    WorkerProcess worker({"/bin/sh", "-c",
                          "while read -r c; do echo last words >&2; "
                          "kill -SEGV $$; done"},
                         counters);
    WorkerReply reply = worker.request("x");
    EXPECT_FALSE(reply.ok);
    EXPECT_EQ(reply.signal, SIGSEGV);
    EXPECT_NE(reply.error.find("signal 11"), std::string::npos)
        << reply.error;
    EXPECT_NE(reply.error.find("last words"), std::string::npos)
        << reply.error;
}

TEST(ProcessUtil, RespawnsAfterACrash)
{
    WorkerProcess::Counters counters;
    WorkerProcess worker(
        {"/bin/sh", "-c",
         "while read -r c; do case $c in crash) kill -SEGV $$;; esac; "
         "printf 'ok %d\\n%s' ${#c} \"$c\" >&3; done"},
        counters);
    EXPECT_TRUE(worker.request("a").ok);
    EXPECT_EQ(worker.request("crash").signal, SIGSEGV);
    WorkerReply after = worker.request("b");
    EXPECT_TRUE(after.ok) << after.error;
    EXPECT_EQ(after.out, "b");
    EXPECT_EQ(counters.started.load(), 2u);
    EXPECT_EQ(counters.retired.load(), 1u);
}

TEST(ProcessUtil, ErrorReplyRetiresTheWorker)
{
    // An "error" frame fails the request with its text, and the next
    // request runs in a fresh process.
    WorkerProcess::Counters counters;
    WorkerProcess worker(
        {"/bin/sh", "-c",
         "while read -r c; do case $c in bad) "
         "printf 'error 4\\nnope' >&3; exit 1;; esac; "
         "printf 'ok %d\\n%s' ${#c} \"$c\" >&3; done"},
        counters);
    EXPECT_TRUE(worker.request("a").ok);
    const pid_t first = worker.pid();
    WorkerReply bad = worker.request("bad");
    EXPECT_FALSE(bad.ok);
    EXPECT_EQ(bad.error, "nope");
    EXPECT_EQ(worker.pid(), -1);
    EXPECT_TRUE(processGone(first));
    EXPECT_TRUE(worker.request("b").ok);
    EXPECT_EQ(counters.started.load(), 2u);
    EXPECT_EQ(counters.retired.load(), 1u);
}

TEST(ProcessUtil, PeakRssBoundRetiresTheWorker)
{
    // Any shell passes a 1 KiB bound: the reply is delivered, then
    // the worker retires, and the next request starts a fresh one.
    WorkerProcess::Counters counters;
    WorkerProcess worker(kEcho, counters, 1);
    WorkerReply reply = worker.request("a");
    EXPECT_TRUE(reply.ok);
    EXPECT_EQ(reply.out, "a");
    EXPECT_EQ(worker.pid(), -1);
    EXPECT_EQ(counters.retired.load(), 1u);
    EXPECT_TRUE(worker.request("b").ok);
    EXPECT_EQ(counters.started.load(), 2u);
}

TEST(ProcessUtil, MalformedFrameIsAProtocolError)
{
    WorkerProcess::Counters counters;
    WorkerProcess worker({"/bin/sh", "-c",
                          "read -r c; printf 'hello\\n' >&3; "
                          "read -r c"},
                         counters);
    WorkerReply reply = worker.request("x");
    EXPECT_FALSE(reply.ok);
    EXPECT_NE(reply.error.find("protocol"), std::string::npos)
        << reply.error;
    EXPECT_EQ(worker.pid(), -1);
}

TEST(ProcessUtil, ThrowsWhenExecutableMissing)
{
    WorkerProcess::Counters counters;
    WorkerProcess worker({"/no/such/binary/anywhere"}, counters);
    EXPECT_THROW(worker.request("x"), std::runtime_error);
    EXPECT_EQ(counters.started.load(), 0u);
}

TEST(ProcessUtil, StrayStdoutCannotCorruptAFrame)
{
    // The worker's fd 1 is its stderr: prints before, between and
    // after frames never reach the reply channel.
    WorkerProcess::Counters counters;
    WorkerProcess worker({"/bin/sh", "-c",
                          "echo stray; while read -r c; do "
                          "echo stray ok 9; printf 'ok 2\\n{}' >&3; "
                          "echo more stray; done"},
                         counters);
    for (int i = 0; i < 3; ++i) {
        WorkerReply reply = worker.request("x");
        EXPECT_TRUE(reply.ok) << reply.error;
        EXPECT_EQ(reply.out, "{}");
    }
    EXPECT_EQ(counters.started.load(), 1u);
}

TEST(ProcessUtil, LargeBidirectionalTrafficDoesNotDeadlock)
{
    // A 4 MB request line, echoed to stderr as it is read, and a 4 MB
    // reply: far beyond any pipe buffer, so this hangs unless the
    // request is fed while the reply and stderr are drained.
    const std::size_t size = 4 * 1024 * 1024;
    const std::string n = std::to_string(size);
    WorkerProcess::Counters counters;
    WorkerProcess worker(
        {"/bin/sh", "-c",
         "head -c " + std::to_string(size + 1) +
             " | tee /dev/stderr >/dev/null; printf 'ok " + n +
             "\\n' >&3; head -c " + n + " /dev/zero >&3; read -r c"},
        counters);
    const std::string line(size, 'x');
    WorkerReply reply = worker.request(line);
    EXPECT_TRUE(reply.ok) << reply.error;
    EXPECT_EQ(reply.out.size(), size);
    EXPECT_EQ(reply.out, std::string(size, '\0'));
}

TEST(ProcessUtil, PoolJobsDeliverEachChildsOutput)
{
    // Requests from two pool threads, as ecdpd runs its cells: each
    // job gets its own reply, intact, and no more workers start than
    // there are threads.
    constexpr std::size_t kJobs = 8;
    std::vector<WorkerReply> replies(kJobs);
    WorkerSet workers(kEcho);
    {
        ecdp::runner::ThreadPool pool(2);
        for (std::size_t i = 0; i < kJobs; ++i) {
            pool.submit([&replies, &workers, i] {
                replies[i] = workers.run("job" + std::to_string(i));
            });
        }
        pool.wait();
        EXPECT_LE(workers.processes(), 2u);
        workers.stop(); // before the pool threads that started them end
    }
    for (std::size_t i = 0; i < kJobs; ++i) {
        EXPECT_EQ(replies[i].error, "") << i;
        EXPECT_EQ(replies[i].out, "job" + std::to_string(i));
    }
    EXPECT_EQ(workers.retired(), 0u);
}

TEST(ProcessUtil, ConcurrentSpawnsOnTwoPoolThreadsAllComplete)
{
    // Two pool threads start workers at the same time. Every pipe end
    // must be close-on-exec: a worker that inherits its sibling's
    // stdin write end keeps that sibling from seeing EOF, so the
    // sibling's stop() would have to kill it instead of reaping a
    // clean exit.
    constexpr std::size_t kJobs = 2000;
    std::vector<WorkerReply> replies(kJobs);
    std::vector<int> statuses(kJobs, -1);
    WorkerProcess::Counters counters;
    {
        ecdp::runner::ThreadPool pool(2);
        for (std::size_t i = 0; i < kJobs; ++i) {
            pool.submit([&, i] {
                WorkerProcess worker(kEcho, counters);
                replies[i] = worker.request("job" + std::to_string(i));
                statuses[i] = worker.stop();
            });
        }
        pool.wait();
    }
    for (std::size_t i = 0; i < kJobs; ++i) {
        EXPECT_TRUE(replies[i].ok) << i << replies[i].error;
        EXPECT_EQ(replies[i].out, "job" + std::to_string(i));
        EXPECT_TRUE(WIFEXITED(statuses[i]) &&
                    WEXITSTATUS(statuses[i]) == 0)
            << i << " status " << statuses[i];
    }
    EXPECT_EQ(counters.started.load(), kJobs);
}

TEST(ProcessUtil, StopKillsAWorkerStuckMidRequest)
{
    // The worker records its pid and never replies. stop() gives it
    // the grace, then kills it; its run() fails, and no process is
    // left behind.
    const std::string pidFile =
        testing::TempDir() + "/ecdp_stuck_worker.pid";
    std::filesystem::remove(pidFile);
    WorkerSet workers({"/bin/sh", "-c",
                       "read -r c; echo $$ > " + pidFile +
                           "; exec sleep 30"});
    WorkerReply reply;
    ecdp::runner::ThreadPool pool(1);
    pool.submit([&] { reply = workers.run("x"); });
    pid_t pid = -1;
    for (int i = 0; i < 500 && pid <= 0; ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        std::ifstream in(pidFile);
        in >> pid;
    }
    ASSERT_GT(pid, 0);

    const auto start = std::chrono::steady_clock::now();
    workers.stop();
    pool.wait();
    const auto took = std::chrono::steady_clock::now() - start;
    EXPECT_FALSE(reply.ok);
    EXPECT_NE(reply.error.find("shutting down"), std::string::npos)
        << reply.error;
    EXPECT_LT(took, std::chrono::seconds(10));
    EXPECT_TRUE(processGone(pid));
    EXPECT_EQ(workers.run("y").error, "workers stopped: shutting down");
    std::filesystem::remove(pidFile);
}

TEST(ProcessUtil, SelfExePathPointsAtThisBinary)
{
    const std::string path = selfExePath("fallback");
    EXPECT_NE(path.find("ecdp_tests"), std::string::npos);
}

} // namespace
