#include "server/process_util.hh"

#include <cerrno>
#include <cstring>
#include <stdexcept>

#include <csignal>

#include <fcntl.h>
#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

namespace ecdp
{
namespace server
{

namespace
{

struct Pipe
{
    int fds[2] = {-1, -1};

    // Close-on-exec: a child forked by another thread must not inherit
    // this pipe, or it would hold our child's stdin open forever. The
    // dup2 onto stdio below clears the flag on the copies we hand over.
    Pipe()
    {
        if (::pipe2(fds, O_CLOEXEC) != 0)
            throw std::runtime_error(
                "pipe: " + std::string(std::strerror(errno)));
    }

    ~Pipe()
    {
        closeRead();
        closeWrite();
    }

    int readEnd() const { return fds[0]; }
    int writeEnd() const { return fds[1]; }

    void closeRead()
    {
        if (fds[0] >= 0)
            ::close(fds[0]);
        fds[0] = -1;
    }

    void closeWrite()
    {
        if (fds[1] >= 0)
            ::close(fds[1]);
        fds[1] = -1;
    }
};

} // namespace

std::string
ChildResult::describeFailure() const
{
    if (ok)
        return "";
    std::string why;
    if (signal != 0) {
        why = "worker killed by signal " + std::to_string(signal);
    } else {
        why = "worker exited with status " + std::to_string(exitCode);
    }
    if (!err.empty()) {
        // Keep the tail of stderr: the exception message is last.
        std::string tail = err;
        if (tail.size() > 512)
            tail = "..." + tail.substr(tail.size() - 512);
        while (!tail.empty() && tail.back() == '\n')
            tail.pop_back();
        why += ": " + tail;
    }
    return why;
}

ChildResult
runChild(const std::vector<std::string> &argv,
         const std::string &input)
{
    if (argv.empty())
        throw std::runtime_error("runChild: empty argv");

    // A child dying mid-write must surface as EPIPE + wait status,
    // not kill the daemon with SIGPIPE.
    static const bool sigpipeIgnored = [] {
        ::signal(SIGPIPE, SIG_IGN);
        return true;
    }();
    (void)sigpipeIgnored;

    Pipe toChild;
    Pipe fromChild;
    Pipe errFromChild;
    // Detect exec failure in the child through a pipe that exec closes:
    // it stays silent on success and carries errno when exec fails.
    Pipe execStatus;

    pid_t pid = ::fork();
    if (pid < 0)
        throw std::runtime_error("fork: " +
                                 std::string(std::strerror(errno)));
    if (pid == 0) {
        // Child: wire the pipes onto stdio and exec.
        ::dup2(toChild.readEnd(), STDIN_FILENO);
        ::dup2(fromChild.writeEnd(), STDOUT_FILENO);
        ::dup2(errFromChild.writeEnd(), STDERR_FILENO);
        toChild.closeRead();
        toChild.closeWrite();
        fromChild.closeRead();
        fromChild.closeWrite();
        errFromChild.closeRead();
        errFromChild.closeWrite();
        execStatus.closeRead();

        std::vector<char *> args;
        args.reserve(argv.size() + 1);
        for (const std::string &a : argv)
            args.push_back(const_cast<char *>(a.c_str()));
        args.push_back(nullptr);
        ::execv(args[0], args.data());
        int err = errno;
        [[maybe_unused]] ssize_t n =
            ::write(execStatus.writeEnd(), &err, sizeof(err));
        ::_exit(127);
    }

    // Parent.
    toChild.closeRead();
    fromChild.closeWrite();
    errFromChild.closeWrite();
    execStatus.closeWrite();

    {
        int execErrno = 0;
        ssize_t n = ::read(execStatus.readEnd(), &execErrno,
                           sizeof(execErrno));
        if (n == static_cast<ssize_t>(sizeof(execErrno))) {
            int status = 0;
            ::waitpid(pid, &status, 0);
            throw std::runtime_error(
                "exec " + argv[0] + ": " +
                std::strerror(execErrno));
        }
    }

    ChildResult result;
    // Full-duplex: feed stdin and drain stdout/stderr in ONE poll
    // loop. A child that echoes input back (or is chatty on stderr)
    // fills a pipe long before a large stdin is fully written;
    // writing stdin to completion first would deadlock against it.
    std::size_t off = 0;
    int inFd = toChild.writeEnd();
    // Non-blocking stdin feed: a blocking write of the whole input
    // would stall inside write() once the pipe fills, poll or not.
    ::fcntl(inFd, F_SETFL,
            ::fcntl(inFd, F_GETFL) | O_NONBLOCK);
    int outFd = fromChild.readEnd();
    int errFd = errFromChild.readEnd();
    bool inOpen = !input.empty();
    bool outOpen = true, errOpen = true;
    if (!inOpen)
        toChild.closeWrite();
    char buf[16 * 1024];
    while (inOpen || outOpen || errOpen) {
        pollfd pfds[3];
        nfds_t nfds = 0;
        if (inOpen)
            pfds[nfds++] = pollfd{inFd, POLLOUT, 0};
        if (outOpen)
            pfds[nfds++] = pollfd{outFd, POLLIN, 0};
        if (errOpen)
            pfds[nfds++] = pollfd{errFd, POLLIN, 0};
        if (::poll(pfds, nfds, -1) < 0) {
            if (errno == EINTR)
                continue;
            break;
        }
        for (nfds_t i = 0; i < nfds; ++i) {
            if (pfds[i].revents == 0)
                continue;
            if (pfds[i].fd == inFd && inOpen) {
                ssize_t n = ::write(inFd, input.data() + off,
                                    input.size() - off);
                if (n > 0) {
                    off += static_cast<std::size_t>(n);
                } else if (n < 0 && errno != EINTR &&
                           errno != EAGAIN) {
                    // EPIPE: child died early; wait status explains.
                    off = input.size();
                }
                if (off == input.size()) {
                    inOpen = false;
                    toChild.closeWrite();
                }
                continue;
            }
            if (!(pfds[i].revents & (POLLIN | POLLHUP | POLLERR)))
                continue;
            ssize_t n = ::read(pfds[i].fd, buf, sizeof(buf));
            if (n > 0) {
                (pfds[i].fd == outFd ? result.out : result.err)
                    .append(buf, static_cast<std::size_t>(n));
            } else if (n == 0 ||
                       (n < 0 && errno != EINTR &&
                        errno != EAGAIN)) {
                (pfds[i].fd == outFd ? outOpen : errOpen) = false;
            }
        }
    }
    toChild.closeWrite();

    int status = 0;
    while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    if (WIFEXITED(status)) {
        result.exitCode = WEXITSTATUS(status);
        result.ok = result.exitCode == 0;
    } else if (WIFSIGNALED(status)) {
        result.signal = WTERMSIG(status);
    }
    return result;
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
