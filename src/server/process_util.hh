/**
 * @file
 * Long-lived worker processes for the ecdpd pool — the only place in
 * the tree allowed to fork/exec (enforced by the simlint
 * raw-process-spawn rule). Both ends of the worker protocol live
 * here:
 *
 *   request  one line on the worker's stdin: the canonical cell
 *            JSON, '\n'-terminated (a request holds no newline).
 *   reply    one frame on the worker's fd kReplyFd:
 *            "<status> <length>\n" and exactly <length> payload
 *            bytes. Status "ok": the payload is the result. Status
 *            "error": the payload says why; the worker then exits.
 *
 * The worker's fd 1 is its stderr pipe, so a stray print to stdout
 * lands in the diagnostics and can never corrupt a frame.
 *
 * Everything is checked: a failed fork/exec/pipe surfaces as an
 * exception, a worker that dies before a full frame fails its request
 * with the decoded exit status or signal and its stderr tail, and
 * every process is reaped. A worker retires (exits, and the next
 * request starts a fresh one) after any request that is not "ok" and
 * once its peak RSS passes a fixed bound.
 */

#ifndef ECDP_SERVER_PROCESS_UTIL_HH
#define ECDP_SERVER_PROCESS_UTIL_HH

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include <sys/types.h>

#include "memsim/thread_annotations.hh"

namespace ecdp
{
namespace server
{

/** The worker's reply channel (its stdout is its stderr). */
constexpr int kReplyFd = 3;

/** A worker whose peak RSS passes this retires after its reply: it
 *  bounds the memo of workloads and hints a worker keeps. One worker
 *  that served the 21 benchmarks x 5 fig07 configs on both inputs
 *  peaks near 200 MiB. */
constexpr std::size_t kWorkerPeakRssLimitKiB = 512 * 1024;

/** How long a stopping worker may take to exit (or to finish the
 *  request in flight) before it is killed. */
constexpr std::chrono::milliseconds kWorkerStopGrace{1000};

/** Outcome of one request. */
struct WorkerReply
{
    /** True when a full "ok" frame arrived; out holds its payload. */
    bool ok = false;
    std::string out;
    /** Why not ok ("" when ok): an "error" frame's text, or how the
     *  worker died, with the tail of its stderr. */
    std::string error;
    /** When the worker died before a full frame: its exit code if
     *  it exited (else -1), or the signal that killed it (else 0). A
     *  kill at shutdown reports neither. */
    int exitCode = -1;
    int signal = 0;
};

/**
 * One worker process, started on the first request and kept for the
 * next: one request in flight at a time. Not thread-safe; WorkerSet
 * hands each one to a single caller at a time.
 */
class WorkerProcess
{
  public:
    /** Counters shared by the workers of one set. */
    struct Counters
    {
        /** Processes started. */
        std::atomic<std::uint64_t> started{0};
        /** Processes that ended before a stop(): after a failed
         *  request or past the peak-RSS bound. */
        std::atomic<std::uint64_t> retired{0};
    };

    /**
     * @param argv Worker command (argv[0] = executable path).
     * @param counters Where starts and retirements are counted.
     * @param peakRssLimitKiB Retire after a reply above this.
     */
    WorkerProcess(std::vector<std::string> argv, Counters &counters,
                  std::size_t peakRssLimitKiB = kWorkerPeakRssLimitKiB);
    ~WorkerProcess();

    WorkerProcess(const WorkerProcess &) = delete;
    WorkerProcess &operator=(const WorkerProcess &) = delete;

    /**
     * Send @p line (no newline inside) and wait for its reply frame,
     * starting the process first when none runs. Throws
     * std::runtime_error when the process cannot be started (pipe,
     * fork or exec failure). Once @p cancelFd (when >= 0) turns
     * readable, the worker gets kWorkerStopGrace to reply and is
     * then killed.
     */
    WorkerReply request(const std::string &line, int cancelFd = -1);

    /** Close the worker's stdin and reap it, killing it after
     *  @p grace; returns its wait status (0 when no process ran). */
    int stop(std::chrono::milliseconds grace = kWorkerStopGrace);

    /** The running process, or -1. */
    pid_t pid() const { return pid_; }

  private:
    void start();
    /** End the process (stdin closed first) and close its pipes;
     *  returns its wait status. */
    int finish(std::chrono::milliseconds grace);

    std::vector<std::string> argv_;
    Counters &counters_;
    std::size_t peakRssLimitKiB_;
    pid_t pid_ = -1;
    int inFd_ = -1;
    int replyFd_ = -1;
    int errFd_ = -1;
};

/**
 * The daemon's workers: one per pool thread that has run a request,
 * each kept for the next request. Thread-safe.
 */
// ecdplint: long-lived
class WorkerSet
{
  public:
    explicit WorkerSet(std::vector<std::string> argv);
    /** stop(). */
    ~WorkerSet();

    WorkerSet(const WorkerSet &) = delete;
    WorkerSet &operator=(const WorkerSet &) = delete;

    /**
     * Run one request on an idle worker, starting one when none is
     * idle, so there are never more workers than concurrent callers.
     * Throws as WorkerProcess::request does. After stop(), fails at
     * once.
     */
    WorkerReply run(const std::string &line) ECDP_EXCLUDES(mutex_);

    /**
     * Idle workers exit now; a worker mid-request gets
     * kWorkerStopGrace to reply, is then killed, and is reaped when
     * its run() returns. Idempotent.
     */
    void stop() ECDP_EXCLUDES(mutex_);

    /** @{ Processes started, and those retired before stop(). */
    std::uint64_t processes() const
    {
        return counters_.started.load();
    }
    std::uint64_t retired() const { return counters_.retired.load(); }
    /** @} */

  private:
    /** Put @p worker back on the idle list, or stop it when the set
     *  is stopping. */
    void release(std::unique_ptr<WorkerProcess> worker)
        ECDP_EXCLUDES(mutex_);

    // ecdplint-allow(unbounded-container): written once at construction
    std::vector<std::string> argv_;
    WorkerProcess::Counters counters_;
    /** Becomes readable on stop(): wakes every request in flight. */
    int stopPipe_[2] = {-1, -1};

    mutable AnnotatedMutex mutex_;
    bool stopping_ ECDP_GUARDED_BY(mutex_) = false;
    // ecdplint-cap(--workers): one entry per concurrent run() caller
    std::vector<std::unique_ptr<WorkerProcess>> idle_
        ECDP_GUARDED_BY(mutex_);
};

/**
 * The worker's side of the protocol: answer each request line on
 * stdin with handle()'s result as an "ok" frame on kReplyFd, until
 * stdin closes (returns 0). An exception from handle() is sent as an
 * "error" frame and ends the loop (returns 1), so a failed request
 * retires the worker.
 */
int serveWorkerRequests(
    const std::function<std::string(const std::string &)> &handle);

/**
 * Absolute path of the running executable (/proc/self/exe), falling
 * back to @p argv0 when the proc link is unavailable. The daemon
 * re-executes itself in --worker mode through this.
 */
std::string selfExePath(const char *argv0);

} // namespace server
} // namespace ecdp

#endif // ECDP_SERVER_PROCESS_UTIL_HH
