#include "server/http_client.hh"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

namespace ecdp
{
namespace server
{

namespace
{

int
connectLoopback(std::uint16_t port)
{
    int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0)
        throw std::runtime_error("socket: " +
                                 std::string(std::strerror(errno)));
    sockaddr_in sin{};
    sin.sin_family = AF_INET;
    sin.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    sin.sin_port = htons(port);
    if (::connect(fd, reinterpret_cast<sockaddr *>(&sin),
                  sizeof(sin)) != 0) {
        std::string why = std::strerror(errno);
        ::close(fd);
        throw std::runtime_error("connect 127.0.0.1:" +
                                 std::to_string(port) + ": " + why);
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    return fd;
}

void
writeAllFd(int fd, const std::string &data)
{
    std::size_t off = 0;
    while (off < data.size()) {
        ssize_t n = ::send(fd, data.data() + off,
                           data.size() - off, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            throw std::runtime_error(
                "write: " + std::string(std::strerror(errno)));
        }
        off += static_cast<std::size_t>(n);
    }
}

} // namespace

HttpClient::HttpClient(std::uint16_t port)
    : fd_(connectLoopback(port)), port_(port)
{}

HttpClient::~HttpClient()
{
    if (fd_ >= 0)
        ::close(fd_);
}

HttpResponse
HttpClient::get(const std::string &target)
{
    return roundTrip("GET", target, "");
}

HttpResponse
HttpClient::post(const std::string &target, const std::string &body)
{
    return roundTrip("POST", target, body);
}

HttpResponse
HttpClient::roundTrip(const std::string &method,
                      const std::string &target,
                      const std::string &body)
{
    std::string req = method + " " + target + " HTTP/1.1\r\n" +
                      "Host: 127.0.0.1\r\n";
    if (!body.empty() || method == "POST") {
        req += "Content-Type: application/json\r\n";
        req +=
            "Content-Length: " + std::to_string(body.size()) + "\r\n";
    }
    req += "\r\n" + body;
    writeAllFd(fd_, req);

    std::string &buf = pending_;
    auto readMore = [&] {
        char chunk[16 * 1024];
        ssize_t n = ::read(fd_, chunk, sizeof(chunk));
        if (n < 0 && errno == EINTR)
            return true;
        if (n <= 0)
            throw std::runtime_error("server closed connection");
        buf.append(chunk, static_cast<std::size_t>(n));
        return true;
    };

    std::size_t headEnd;
    while ((headEnd = buf.find("\r\n\r\n")) == std::string::npos)
        readMore();

    std::string head = buf.substr(0, headEnd);
    HttpResponse resp;
    {
        std::size_t sp = head.find(' ');
        if (head.compare(0, 8, "HTTP/1.1") != 0 ||
            sp == std::string::npos) {
            throw std::runtime_error("malformed response");
        }
        resp.status = std::atoi(head.c_str() + sp + 1);
    }
    std::size_t contentLength = 0;
    std::size_t pos = head.find("\r\n");
    while (pos != std::string::npos && pos + 2 < head.size()) {
        std::size_t end = head.find("\r\n", pos + 2);
        std::string line = head.substr(
            pos + 2,
            (end == std::string::npos ? head.size() : end) - pos - 2);
        std::size_t colon = line.find(':');
        if (colon != std::string::npos) {
            std::string name = line.substr(0, colon);
            for (char &c : name)
                c = static_cast<char>(
                    std::tolower(static_cast<unsigned char>(c)));
            if (name == "content-length") {
                contentLength = static_cast<std::size_t>(
                    std::strtoull(line.c_str() + colon + 1, nullptr,
                                  10));
            } else if (name == "connection" &&
                       line.find("close", colon) !=
                           std::string::npos) {
                resp.closeConnection = true;
            }
        }
        pos = end;
    }

    while (buf.size() < headEnd + 4 + contentLength)
        readMore();
    resp.body = buf.substr(headEnd + 4, contentLength);
    buf.erase(0, headEnd + 4 + contentLength);

    if (resp.closeConnection) {
        ::close(fd_);
        fd_ = connectLoopback(port_);
        pending_.clear();
    }
    return resp;
}

} // namespace server
} // namespace ecdp
