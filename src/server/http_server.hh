/**
 * @file
 * Embedded epoll HTTP server — the async front door of ecdpd.
 *
 * One event-loop thread owns the listen socket, every connection and
 * all parser state; handlers run on that thread and must not block.
 * A handler answers through the Responder it is given, either
 * immediately or later from any thread (the scheduler's completion
 * callbacks use this): responses are queued and the loop is woken
 * through an eventfd, so thousands of requests can be left pending
 * while their grid cells simulate without tying up a thread each.
 *
 * Deliberately minimal: HTTP/1.1 keep-alive, one outstanding request
 * per connection (no response interleaving), bounded connection
 * count. Everything above that — routing, admission control, quotas —
 * lives in Daemon.
 */

#ifndef ECDP_SERVER_HTTP_SERVER_HH
#define ECDP_SERVER_HTTP_SERVER_HH

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <thread>

#include "memsim/thread_annotations.hh"
#include "server/http.hh"

namespace ecdp
{
namespace server
{

// simlint: long-lived
class HttpServer
{
  public:
    /**
     * Completion callback handed to the handler. Thread-safe; call
     * exactly once. Calling after the connection died is harmless
     * (the response is dropped).
     */
    using Responder = std::function<void(HttpResponse)>;

    /** Request handler; runs on the loop thread, must not block. */
    using Handler =
        std::function<void(const HttpRequest &, Responder)>;

    static constexpr std::size_t kMaxConnections = 4096;

    explicit HttpServer(Handler handler);
    ~HttpServer();

    HttpServer(const HttpServer &) = delete;
    HttpServer &operator=(const HttpServer &) = delete;

    /**
     * Bind 127.0.0.1:@p port (0 = ephemeral), listen, and start the
     * loop thread. Throws std::runtime_error on bind failure.
     */
    void start(std::uint16_t port);

    /** Stop the loop and close every connection. Idempotent. */
    void stop();

    /** The bound port (valid after start()). */
    std::uint16_t port() const { return port_; }

    /** Connections currently open (diagnostics). */
    std::size_t connectionCount() const { return connCount_.load(); }

  private:
    struct Connection
    {
        int fd = -1;
        std::uint64_t gen = 0;
        HttpRequestParser parser;
        std::string out;       // unsent response bytes
        bool awaiting = false; // handler owes a response
        bool closeAfterWrite = false;
        bool errorSent = false; // parse-failure 4xx already queued
    };

    struct Completion
    {
        int fd;
        std::uint64_t gen;
        HttpResponse response;
    };

    void loop();
    void acceptReady();
    void readReady(Connection &conn);
    void flush(Connection &conn);
    void closeConn(int fd);
    void drainCompletions();
    void updateEpoll(Connection &conn);
    void wake();

    Handler handler_;
    int listenFd_ = -1;
    int epollFd_ = -1;
    // Owned by the loop thread for reads/wakes; stop() closes it
    // under completionMutex_ (after the join) so a late Responder
    // sees -1 and drops its response instead of touching a closed,
    // possibly reused descriptor. Not GUARDED_BY: the loop thread
    // reads it lock-free, which is safe only because the close
    // happens after thread_.join().
    int wakeFd_ = -1;
    std::uint16_t port_ = 0;
    // Loop-thread-only state; no lock by design (single owner).
    std::uint64_t nextGen_ = 1;
    // simlint-cap(kMaxConnections): acceptReady() closes above cap
    std::map<int, Connection> conns_;
    std::atomic<std::size_t> connCount_{0};

    AnnotatedMutex completionMutex_;
    std::deque<Completion> completions_
        ECDP_GUARDED_BY(completionMutex_);

    std::atomic<bool> stopping_{false};
    bool started_ = false;

    // Last member: the loop thread touches everything above, so it
    // must be joined (and destroyed) first.
    std::thread thread_;
};

} // namespace server
} // namespace ecdp

#endif // ECDP_SERVER_HTTP_SERVER_HH
