#include "server/process_util.hh"

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <thread>
#include <utility>

#include <fcntl.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include "memsim/parse_number.hh"

namespace ecdp
{
namespace server
{

namespace
{

using Clock = std::chrono::steady_clock;

/** Bytes of a worker's stderr kept for a failure report. */
constexpr std::size_t kErrTail = 512;
/** Longest reply header: "error " + 20 digits + '\n' fits. */
constexpr std::size_t kMaxHeader = 32;
/** Largest reply payload a worker may announce. */
constexpr std::size_t kMaxReply = std::size_t(1) << 30;

void
closeFd(int &fd)
{
    if (fd >= 0)
        ::close(fd);
    fd = -1;
}

struct Pipe
{
    int fds[2] = {-1, -1};

    // Close-on-exec: a child forked by another thread must not inherit
    // this pipe, or it would hold our worker's stdin open forever. The
    // dup2 onto the worker's fds below clears the flag on the copies
    // we hand over.
    Pipe()
    {
        if (::pipe2(fds, O_CLOEXEC) != 0)
            throw std::runtime_error(
                "pipe: " + std::string(std::strerror(errno)));
    }

    ~Pipe()
    {
        closeFd(fds[0]);
        closeFd(fds[1]);
    }

    /** Hand end @p i over to the caller. */
    int take(int i)
    {
        const int fd = fds[i];
        fds[i] = -1;
        return fd;
    }
};

void
setNonBlocking(int fd)
{
    ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
}

bool
writeAll(int fd, const char *data, std::size_t size)
{
    while (size > 0) {
        const ssize_t n = ::write(fd, data, size);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        data += n;
        size -= static_cast<std::size_t>(n);
    }
    return true;
}

/** Peak RSS of @p pid in KiB (VmHWM), or 0 when unreadable. */
std::size_t
peakRssKiB(pid_t pid)
{
    std::ifstream status("/proc/" + std::to_string(pid) + "/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtoull(line.c_str() + 6, nullptr, 10);
    }
    return 0;
}

/** "worker killed by signal 11: <stderr tail>" and the like. */
std::string
describeDeath(int status, const std::string &err)
{
    std::string why;
    if (WIFSIGNALED(status)) {
        why = "worker killed by signal " +
              std::to_string(WTERMSIG(status));
    } else {
        why = "worker exited with status " +
              std::to_string(WEXITSTATUS(status)) +
              " before replying";
    }
    // Keep the tail of stderr: the last words are the useful ones.
    std::string tail = err;
    if (tail.size() > kErrTail)
        tail = "..." + tail.substr(tail.size() - kErrTail);
    while (!tail.empty() && tail.back() == '\n')
        tail.pop_back();
    if (!tail.empty())
        why += ": " + tail;
    return why;
}

} // namespace

WorkerProcess::WorkerProcess(std::vector<std::string> argv,
                             Counters &counters,
                             std::size_t peakRssLimitKiB)
    : argv_(std::move(argv)), counters_(counters),
      peakRssLimitKiB_(peakRssLimitKiB)
{
    if (argv_.empty())
        throw std::runtime_error("worker: empty argv");
}

WorkerProcess::~WorkerProcess()
{
    stop();
}

void
WorkerProcess::start()
{
    // A worker dying mid-request must surface as EPIPE + wait status,
    // not kill the daemon with SIGPIPE.
    static const bool sigpipeIgnored = [] {
        ::signal(SIGPIPE, SIG_IGN);
        return true;
    }();
    (void)sigpipeIgnored;

    // Built before fork: the child of a multi-threaded process may
    // only make async-signal-safe calls, so it must not allocate.
    std::vector<char *> args;
    args.reserve(argv_.size() + 1);
    for (const std::string &a : argv_)
        args.push_back(const_cast<char *>(a.c_str()));
    args.push_back(nullptr);

    Pipe toWorker;
    Pipe reply;
    Pipe err;
    // Detect exec failure through a pipe that exec closes: it stays
    // silent on success and carries errno when exec fails.
    Pipe execStatus;

    const pid_t parent = ::getpid();
    const pid_t pid = ::fork();
    if (pid < 0)
        throw std::runtime_error("fork: " +
                                 std::string(std::strerror(errno)));
    if (pid == 0) {
        // The worker dies with the pool thread that started it, so it
        // cannot outlive a daemon that was killed outright.
        ::prctl(PR_SET_PDEATHSIG, SIGKILL);
        if (::getppid() != parent)
            ::_exit(127);
        // Lift every end clear of fds 0..kReplyFd first, so that no
        // dup2 below overwrites an end it still needs.
        const int lifted[4] = {
            ::fcntl(toWorker.fds[0], F_DUPFD_CLOEXEC, kReplyFd + 1),
            ::fcntl(reply.fds[1], F_DUPFD_CLOEXEC, kReplyFd + 1),
            ::fcntl(err.fds[1], F_DUPFD_CLOEXEC, kReplyFd + 1),
            ::fcntl(execStatus.fds[1], F_DUPFD_CLOEXEC, kReplyFd + 1),
        };
        int e = 0;
        if (lifted[0] < 0 || lifted[1] < 0 || lifted[2] < 0 ||
            lifted[3] < 0 || ::dup2(lifted[0], STDIN_FILENO) < 0 ||
            ::dup2(lifted[2], STDOUT_FILENO) < 0 ||
            ::dup2(lifted[2], STDERR_FILENO) < 0 ||
            ::dup2(lifted[1], kReplyFd) < 0) {
            e = errno;
        } else {
            ::execv(args[0], args.data());
            e = errno;
        }
        [[maybe_unused]] ssize_t n =
            ::write(lifted[3] >= 0 ? lifted[3] : execStatus.fds[1],
                    &e, sizeof(e));
        ::_exit(127);
    }

    // Parent.
    closeFd(toWorker.fds[0]);
    closeFd(reply.fds[1]);
    closeFd(err.fds[1]);
    closeFd(execStatus.fds[1]);
    int execErrno = 0;
    ssize_t n;
    do {
        n = ::read(execStatus.fds[0], &execErrno, sizeof(execErrno));
    } while (n < 0 && errno == EINTR);
    if (n == static_cast<ssize_t>(sizeof(execErrno))) {
        int status = 0;
        while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
        }
        throw std::runtime_error("exec " + argv_[0] + ": " +
                                 std::strerror(execErrno));
    }

    pid_ = pid;
    inFd_ = toWorker.take(1);
    replyFd_ = reply.take(0);
    errFd_ = err.take(0);
    // Non-blocking: a large request is fed in the poll loop, and
    // stale stderr is drained without waiting.
    setNonBlocking(inFd_);
    setNonBlocking(errFd_);
    counters_.started.fetch_add(1);
}

WorkerReply
WorkerProcess::request(const std::string &line, int cancelFd)
{
    if (line.find('\n') != std::string::npos)
        throw std::invalid_argument("worker request holds a newline");
    int status = 0;
    if (pid_ >= 0 && ::waitpid(pid_, &status, WNOHANG) == pid_) {
        // Killed from outside between requests: reap it, and let a
        // fresh worker take this request.
        pid_ = -1;
        closeFd(inFd_);
        closeFd(replyFd_);
        closeFd(errFd_);
        counters_.retired.fetch_add(1);
    }
    char buf[64 * 1024];
    if (pid_ < 0) {
        start();
    } else {
        // Only this request's stderr explains its outcome: drop what
        // the worker said since its last reply. (A fresh worker's
        // first words are kept: it may die before reading a byte.)
        while (::read(errFd_, buf, sizeof(buf)) > 0) {
        }
    }

    const std::string frame = line + '\n';
    std::size_t sent = 0;
    std::string in;            // reply bytes so far
    std::size_t headerSize = 0; // once the header is read
    std::size_t frameSize = 0;
    bool okFrame = false;
    std::string protocolError;
    std::string err;
    bool inOpen = true, replyOpen = true, errOpen = true;
    bool cancelled = false, killed = false;
    Clock::time_point killAt = Clock::time_point::max();

    // Full duplex in ONE poll loop: feed the request while draining
    // the reply and stderr, so neither side can fill a pipe and wait
    // on the other. Ends on a full frame, on a protocol error, once
    // the worker is gone (both pipes at EOF), or at the kill.
    auto frameDone = [&] {
        return frameSize != 0 && in.size() == frameSize;
    };
    while (!frameDone() && protocolError.empty() &&
           (replyOpen || errOpen)) {
        if (Clock::now() >= killAt) {
            ::kill(pid_, SIGKILL);
            killed = true;
            break;
        }
        pollfd pfds[4];
        nfds_t nfds = 0;
        if (inOpen && sent < frame.size())
            pfds[nfds++] = pollfd{inFd_, POLLOUT, 0};
        if (replyOpen)
            pfds[nfds++] = pollfd{replyFd_, POLLIN, 0};
        if (errOpen)
            pfds[nfds++] = pollfd{errFd_, POLLIN, 0};
        if (cancelFd >= 0 && !cancelled)
            pfds[nfds++] = pollfd{cancelFd, POLLIN, 0};
        int timeoutMs = -1;
        if (killAt != Clock::time_point::max()) {
            const auto left =
                std::chrono::duration_cast<std::chrono::milliseconds>(
                    killAt - Clock::now())
                    .count();
            timeoutMs = left < 0 ? 0 : static_cast<int>(left) + 1;
        }
        if (::poll(pfds, nfds, timeoutMs) < 0 && errno != EINTR)
            break;
        for (nfds_t i = 0; i < nfds; ++i) {
            const int fd = pfds[i].fd;
            if (pfds[i].revents == 0)
                continue;
            if (fd == cancelFd) {
                cancelled = true;
                killAt = std::min(killAt,
                                  Clock::now() + kWorkerStopGrace);
                continue;
            }
            if (fd == inFd_) {
                const ssize_t n = ::write(inFd_, frame.data() + sent,
                                          frame.size() - sent);
                if (n > 0)
                    sent += static_cast<std::size_t>(n);
                else if (n < 0 && errno != EINTR && errno != EAGAIN)
                    inOpen = false; // EPIPE: the wait status explains
                continue;
            }
            const ssize_t n = ::read(fd, buf, sizeof(buf));
            if (n < 0 && (errno == EINTR || errno == EAGAIN))
                continue;
            if (n <= 0) {
                (fd == replyFd_ ? replyOpen : errOpen) = false;
                // A worker that shut its reply channel is ending: give
                // it the grace to exit before it is killed.
                if (fd == replyFd_)
                    killAt = std::min(
                        killAt, Clock::now() + kWorkerStopGrace);
                continue;
            }
            if (fd == errFd_) {
                err.append(buf, static_cast<std::size_t>(n));
                if (err.size() > 2 * kErrTail)
                    err.erase(0, err.size() - kErrTail);
                continue;
            }
            in.append(buf, static_cast<std::size_t>(n));
            if (frameSize == 0) {
                const std::size_t eol = in.find('\n');
                if (eol == std::string::npos) {
                    if (in.size() > kMaxHeader)
                        protocolError = "reply header too long";
                    continue;
                }
                const std::string header = in.substr(0, eol);
                const std::size_t space = header.find(' ');
                const std::string kind = header.substr(0, space);
                std::size_t size = 0;
                if ((kind != "ok" && kind != "error") ||
                    space == std::string::npos ||
                    !parsesWhole(header.substr(space + 1),
                                 std::size_t(0), kMaxReply, size)) {
                    protocolError =
                        "bad reply header \"" + header + "\"";
                    continue;
                }
                okFrame = kind == "ok";
                headerSize = eol + 1;
                frameSize = headerSize + size;
                in.reserve(frameSize);
            }
            if (frameSize != 0 && in.size() > frameSize)
                protocolError = "bytes after the reply frame";
        }
    }

    WorkerReply reply;
    if (protocolError.empty() && !killed && frameDone()) {
        in.erase(0, headerSize);
        if (okFrame) {
            reply.ok = true;
            reply.out = std::move(in);
            if (peakRssLimitKiB_ != 0 &&
                peakRssKiB(pid_) > peakRssLimitKiB_) {
                finish(kWorkerStopGrace);
                counters_.retired.fetch_add(1);
            }
        } else {
            // The worker exits after an error reply.
            reply.error = std::move(in);
            finish(kWorkerStopGrace);
            counters_.retired.fetch_add(1);
        }
        return reply;
    }

    if (!protocolError.empty() && !killed) {
        ::kill(pid_, SIGKILL);
        killed = true;
    }
    status = finish(kWorkerStopGrace);
    if (cancelled && killed) {
        reply.error = "worker killed mid-request: shutting down";
        return reply;
    }
    counters_.retired.fetch_add(1);
    if (!protocolError.empty()) {
        reply.error = "worker protocol error: " + protocolError;
        return reply;
    }
    reply.error = describeDeath(status, err);
    if (WIFSIGNALED(status))
        reply.signal = WTERMSIG(status);
    else
        reply.exitCode = WEXITSTATUS(status);
    return reply;
}

int
WorkerProcess::finish(std::chrono::milliseconds grace)
{
    // EOF on stdin ends a healthy worker's request loop.
    closeFd(inFd_);
    int status = 0;
    const Clock::time_point killAt = Clock::now() + grace;
    auto nap = std::chrono::microseconds(100);
    for (;;) {
        const pid_t r = ::waitpid(pid_, &status, WNOHANG);
        if (r == pid_ || (r < 0 && errno != EINTR))
            break;
        if (Clock::now() >= killAt) {
            ::kill(pid_, SIGKILL);
            while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
            }
            break;
        }
        std::this_thread::sleep_for(nap);
        nap = std::min(nap * 2, std::chrono::microseconds(5000));
    }
    closeFd(replyFd_);
    closeFd(errFd_);
    pid_ = -1;
    return status;
}

int
WorkerProcess::stop(std::chrono::milliseconds grace)
{
    return pid_ >= 0 ? finish(grace) : 0;
}

WorkerSet::WorkerSet(std::vector<std::string> argv)
    : argv_(std::move(argv))
{
    if (::pipe2(stopPipe_, O_CLOEXEC) != 0)
        throw std::runtime_error(
            "pipe: " + std::string(std::strerror(errno)));
}

WorkerSet::~WorkerSet()
{
    stop();
    closeFd(stopPipe_[0]);
    closeFd(stopPipe_[1]);
}

WorkerReply
WorkerSet::run(const std::string &line)
{
    std::unique_ptr<WorkerProcess> worker;
    {
        MutexLock lock(mutex_);
        if (stopping_) {
            WorkerReply reply;
            reply.error = "workers stopped: shutting down";
            return reply;
        }
        if (!idle_.empty()) {
            worker = std::move(idle_.back());
            idle_.pop_back();
        }
    }
    if (!worker)
        worker = std::make_unique<WorkerProcess>(argv_, counters_);
    // On a throw the worker is dropped; its destructor reaps it.
    WorkerReply reply = worker->request(line, stopPipe_[0]);
    release(std::move(worker));
    return reply;
}

void
WorkerSet::release(std::unique_ptr<WorkerProcess> worker)
{
    {
        MutexLock lock(mutex_);
        if (!stopping_) {
            idle_.push_back(std::move(worker));
            return;
        }
    }
    worker->stop();
}

void
WorkerSet::stop()
{
    std::vector<std::unique_ptr<WorkerProcess>> idle;
    bool first = false;
    {
        MutexLock lock(mutex_);
        first = !stopping_;
        stopping_ = true;
        idle.swap(idle_);
    }
    if (first) {
        const char wake = 1;
        [[maybe_unused]] ssize_t n = ::write(stopPipe_[1], &wake, 1);
    }
    for (std::unique_ptr<WorkerProcess> &worker : idle)
        worker->stop();
}

int
serveWorkerRequests(
    const std::function<std::string(const std::string &)> &handle)
{
    std::string line;
    while (std::getline(std::cin, line)) {
        bool ok = true;
        std::string payload;
        try {
            payload = handle(line);
        } catch (const std::exception &e) {
            ok = false;
            payload = e.what();
        }
        const std::string header = std::string(ok ? "ok " : "error ") +
                                   std::to_string(payload.size()) +
                                   "\n";
        if (!writeAll(kReplyFd, header.data(), header.size()) ||
            !writeAll(kReplyFd, payload.data(), payload.size()))
            return 1;
        if (!ok)
            return 1;
    }
    return 0;
}

std::string
selfExePath(const char *argv0)
{
    char buf[4096];
    ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
    if (n > 0) {
        buf[n] = '\0';
        return buf;
    }
    return argv0 ? argv0 : "";
}

} // namespace server
} // namespace ecdp
