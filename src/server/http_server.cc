#include "server/http_server.hh"

#include <cerrno>
#include <cstring>
#include <stdexcept>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

namespace ecdp
{
namespace server
{

namespace
{

void
setNonBlocking(int fd)
{
    int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags >= 0)
        ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

} // namespace

HttpServer::HttpServer(Handler handler)
    : handler_(std::move(handler))
{}

HttpServer::~HttpServer()
{
    stop();
}

void
HttpServer::start(std::uint16_t port)
{
    listenFd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (listenFd_ < 0)
        throw std::runtime_error("socket: " +
                                 std::string(std::strerror(errno)));
    int one = 1;
    ::setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one,
                 sizeof(one));

    sockaddr_in sin{};
    sin.sin_family = AF_INET;
    sin.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    sin.sin_port = htons(port);
    if (::bind(listenFd_, reinterpret_cast<sockaddr *>(&sin),
               sizeof(sin)) != 0) {
        std::string why = std::strerror(errno);
        ::close(listenFd_);
        listenFd_ = -1;
        throw std::runtime_error("bind 127.0.0.1:" +
                                 std::to_string(port) + ": " + why);
    }
    if (::listen(listenFd_, 512) != 0) {
        std::string why = std::strerror(errno);
        ::close(listenFd_);
        listenFd_ = -1;
        throw std::runtime_error("listen: " + why);
    }
    socklen_t len = sizeof(sin);
    ::getsockname(listenFd_, reinterpret_cast<sockaddr *>(&sin),
                  &len);
    port_ = ntohs(sin.sin_port);
    setNonBlocking(listenFd_);

    epollFd_ = ::epoll_create1(EPOLL_CLOEXEC);
    wakeFd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (epollFd_ < 0 || wakeFd_ < 0)
        throw std::runtime_error("epoll/eventfd setup failed");

    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = listenFd_;
    ::epoll_ctl(epollFd_, EPOLL_CTL_ADD, listenFd_, &ev);
    ev.events = EPOLLIN;
    ev.data.fd = wakeFd_;
    ::epoll_ctl(epollFd_, EPOLL_CTL_ADD, wakeFd_, &ev);

    stopping_.store(false);
    started_ = true;
    thread_ = std::thread([this] { loop(); });
}

void
HttpServer::stop()
{
    if (!started_)
        return;
    stopping_.store(true);
    wake();
    thread_.join();
    started_ = false;

    {
        // Closed under the completion lock so late Responder calls
        // (worker threads finishing after stop) see -1 and drop.
        MutexLock lock(completionMutex_);
        completions_.clear();
        if (wakeFd_ >= 0)
            ::close(wakeFd_);
        wakeFd_ = -1;
    }
    for (auto &[fd, conn] : conns_)
        ::close(fd);
    conns_.clear();
    connCount_.store(0);
    if (listenFd_ >= 0)
        ::close(listenFd_);
    if (epollFd_ >= 0)
        ::close(epollFd_);
    listenFd_ = epollFd_ = -1;
}

void
HttpServer::wake()
{
    std::uint64_t one = 1;
    [[maybe_unused]] ssize_t n =
        ::write(wakeFd_, &one, sizeof(one));
}

void
HttpServer::loop()
{
    epoll_event events[128];
    while (!stopping_.load()) {
        int n = ::epoll_wait(epollFd_, events, 128, 500);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            break;
        }
        for (int i = 0; i < n; ++i) {
            int fd = events[i].data.fd;
            if (fd == listenFd_) {
                acceptReady();
                continue;
            }
            if (fd == wakeFd_) {
                std::uint64_t junk;
                while (::read(wakeFd_, &junk, sizeof(junk)) > 0) {
                }
                continue;
            }
            auto it = conns_.find(fd);
            if (it == conns_.end())
                continue;
            if (events[i].events & (EPOLLHUP | EPOLLERR)) {
                closeConn(fd);
                continue;
            }
            if (events[i].events & EPOLLIN)
                readReady(it->second);
            // readReady may have closed the connection.
            auto again = conns_.find(fd);
            if (again != conns_.end() &&
                (events[i].events & EPOLLOUT)) {
                flush(again->second);
            }
        }
        drainCompletions();
    }
}

void
HttpServer::acceptReady()
{
    while (true) {
        int fd = ::accept4(listenFd_, nullptr, nullptr, SOCK_CLOEXEC);
        if (fd < 0)
            return; // EAGAIN or transient error: try next wakeup
        if (conns_.size() >= kMaxConnections) {
            ::close(fd);
            continue;
        }
        setNonBlocking(fd);
        int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one,
                     sizeof(one));
        Connection conn;
        conn.fd = fd;
        conn.gen = nextGen_++;
        conns_.emplace(fd, std::move(conn));
        connCount_.store(conns_.size());
        epoll_event ev{};
        ev.events = EPOLLIN;
        ev.data.fd = fd;
        ::epoll_ctl(epollFd_, EPOLL_CTL_ADD, fd, &ev);
    }
}

void
HttpServer::readReady(Connection &conn)
{
    // While a response is outstanding, don't read at all: the bytes
    // stay in the kernel socket buffer (TCP backpressure), so a peer
    // streaming a pipelined follow-up cannot grow the parser buffer
    // while we are parked — and a malformed follow-up can never be
    // answered before (or instead of) the pending response.
    // updateEpoll() drops EPOLLIN for the duration; this guard covers
    // events already reported before the interest change.
    if (conn.awaiting)
        return;

    char buf[16 * 1024];
    while (true) {
        ssize_t n = ::read(conn.fd, buf, sizeof(buf));
        if (n > 0) {
            conn.parser.feed(buf, static_cast<std::size_t>(n));
            continue;
        }
        if (n == 0) {
            closeConn(conn.fd);
            return;
        }
        if (errno == EAGAIN || errno == EWOULDBLOCK)
            break;
        if (errno == EINTR)
            continue;
        closeConn(conn.fd);
        return;
    }

    // next() is what detects most malformed input, so check for
    // failure after it — a failure answered here and not on some
    // later readability event, which a parked peer may never cause.
    std::optional<HttpRequest> req = conn.parser.next();
    if (conn.parser.failed()) {
        if (!conn.errorSent) {
            conn.errorSent = true;
            HttpResponse err;
            err.status = conn.parser.errorStatus();
            err.body = "{\"error\":\"malformed request\"}";
            err.closeConnection = true;
            conn.out += serializeResponse(err);
            conn.closeAfterWrite = true;
        }
        flush(conn);
        return;
    }
    if (!req)
        return;
    conn.awaiting = true;
    if (!req->keepAlive())
        conn.closeAfterWrite = true;
    int fd = conn.fd;
    std::uint64_t gen = conn.gen;
    Responder respond = [this, fd, gen](HttpResponse response) {
        // The lock also guards wakeFd_ against stop(): once the
        // server is stopped the response is dropped instead of
        // touching a closed (possibly reused) descriptor.
        MutexLock lock(completionMutex_);
        if (wakeFd_ < 0)
            return;
        completions_.push_back(
            Completion{fd, gen, std::move(response)});
        std::uint64_t one = 1;
        [[maybe_unused]] ssize_t n =
            ::write(wakeFd_, &one, sizeof(one));
    };
    handler_(*req, std::move(respond));
    // Stop polling EPOLLIN until the response has been written (the
    // handler only queues completions, so conn is still valid).
    updateEpoll(conn);
}

void
HttpServer::drainCompletions()
{
    std::deque<Completion> batch;
    {
        MutexLock lock(completionMutex_);
        batch.swap(completions_);
    }
    for (Completion &done : batch) {
        auto it = conns_.find(done.fd);
        if (it == conns_.end() || it->second.gen != done.gen)
            continue; // connection died; drop the response
        Connection &conn = it->second;
        if (done.response.closeConnection)
            conn.closeAfterWrite = true;
        conn.out += serializeResponse(done.response);
        conn.awaiting = false;
        flush(conn);
        auto again = conns_.find(done.fd);
        if (again == conns_.end())
            continue;
        // The parser may hold a pipelined follow-up request.
        readReady(again->second);
    }
}

void
HttpServer::flush(Connection &conn)
{
    while (!conn.out.empty()) {
        ssize_t n = ::send(conn.fd, conn.out.data(),
                           conn.out.size(), MSG_NOSIGNAL);
        if (n > 0) {
            conn.out.erase(0, static_cast<std::size_t>(n));
            continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
            break;
        if (n < 0 && errno == EINTR)
            continue;
        closeConn(conn.fd);
        return;
    }
    if (conn.out.empty() && conn.closeAfterWrite && !conn.awaiting) {
        closeConn(conn.fd);
        return;
    }
    updateEpoll(conn);
}

void
HttpServer::updateEpoll(Connection &conn)
{
    epoll_event ev{};
    // No EPOLLIN while a response is pending (see readReady);
    // EPOLLHUP/EPOLLERR are always reported, so a dying peer is
    // still noticed.
    ev.events = (conn.awaiting ? 0u : EPOLLIN) |
                (conn.out.empty() ? 0u : EPOLLOUT);
    ev.data.fd = conn.fd;
    ::epoll_ctl(epollFd_, EPOLL_CTL_MOD, conn.fd, &ev);
}

void
HttpServer::closeConn(int fd)
{
    auto it = conns_.find(fd);
    if (it == conns_.end())
        return;
    ::epoll_ctl(epollFd_, EPOLL_CTL_DEL, fd, nullptr);
    ::close(fd);
    conns_.erase(it);
    connCount_.store(conns_.size());
}

} // namespace server
} // namespace ecdp
