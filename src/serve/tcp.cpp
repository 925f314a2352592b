#include "serve/tcp.h"

#include <cerrno>
#include <cstring>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/uio.h>
#include <unistd.h>

#include "support/env.h"
#include "telemetry/telemetry.h"

namespace madfhe {
namespace serve {

namespace {

/** Ceiling on one frame; a hostile length prefix must not allocate. */
constexpr u64 kMaxFrameBytes = 256ULL << 20;

/** Bound on consecutive EINTR wakeups per buffer: a signal storm must
 *  not turn a blocking read into an unbounded spin. */
constexpr int kMaxEintrRetries = 4096;

enum class IoResult
{
    Ok,      ///< full buffer transferred
    Eof,     ///< clean close before the first byte
    Timeout, ///< SO_RCVTIMEO fired before the first byte (idle)
    Error,   ///< reset, mid-buffer EOF/stall, or EINTR storm
};

IoResult
readAll(int fd, void* buf, size_t len)
{
    u8* p = static_cast<u8*>(buf);
    size_t got = 0;
    int eintr = 0;
    while (got < len) {
        const ssize_t n = ::recv(fd, p + got, len - got, 0);
        if (n > 0) {
            got += static_cast<size_t>(n);
            eintr = 0;
            continue;
        }
        if (n == 0)
            return got == 0 ? IoResult::Eof : IoResult::Error;
        if (errno == EINTR) {
            if (++eintr > kMaxEintrRetries)
                return IoResult::Error;
            continue;
        }
        if (errno == EAGAIN || errno == EWOULDBLOCK)
            return got == 0 ? IoResult::Timeout : IoResult::Error;
        return IoResult::Error;
    }
    return IoResult::Ok;
}

/**
 * Send every byte of the non-empty buffers iov[0, cnt). Each attempt is
 * one sendmsg() — a writev that takes MSG_NOSIGNAL — and a partial write
 * advances through the vector.
 */
bool
writeAll(int fd, iovec* iov, size_t cnt)
{
    int eintr = 0;
    while (cnt > 0) {
        msghdr msg{};
        msg.msg_iov = iov;
        msg.msg_iovlen = cnt;
        const ssize_t n = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
        if (n > 0) {
            size_t sent = static_cast<size_t>(n);
            while (cnt > 0 && sent >= iov->iov_len) {
                sent -= iov->iov_len;
                ++iov;
                --cnt;
            }
            if (cnt > 0) {
                iov->iov_base = static_cast<u8*>(iov->iov_base) + sent;
                iov->iov_len -= sent;
            }
            eintr = 0;
            continue;
        }
        if (n < 0 && errno == EINTR) {
            if (++eintr > kMaxEintrRetries)
                return false;
            continue;
        }
        // A send timeout mid-frame is unrecoverable at frame
        // granularity: the peer has a partial message.
        return false;
    }
    return true;
}

/**
 * The length prefix and the frame leave in one write: a separate 8-byte
 * prefix segment would hold the payload back behind Nagle until the
 * peer's delayed ACK (~40 ms on Linux).
 */
bool
sendFrame(int fd, const std::string& frame)
{
    u64 len = frame.size();
    iovec iov[2] = {{&len, sizeof(len)},
                    {const_cast<char*>(frame.data()), frame.size()}};
    return writeAll(fd, iov, frame.empty() ? 1 : 2);
}

/**
 * Receive one frame. When `stopping` is given, an *idle* receive
 * timeout (no byte of the length prefix yet) re-checks it and keeps
 * waiting — a quiet client is not an error; without it (client path)
 * any timeout fails. A timeout, stall, or EOF mid-frame always fails:
 * the stream is desynchronized. Throws on a hostile length prefix —
 * the bounds check runs before any allocation.
 */
bool
recvFrame(int fd, std::string& frame,
          const std::atomic<bool>* stopping = nullptr)
{
    u64 len = 0;
    for (;;) {
        const IoResult r = readAll(fd, &len, sizeof(len));
        if (r == IoResult::Ok)
            break;
        if (r == IoResult::Timeout && stopping != nullptr &&
            !stopping->load())
            continue;
        return false;
    }
    MAD_REQUIRE(len <= kMaxFrameBytes, "tcp: implausible frame length");
    frame.resize(len);
    if (len == 0)
        return true;
    if (readAll(fd, frame.data(), len) != IoResult::Ok) {
        TELEM_COUNT("serve.tcp.midframe_drops", 1);
        return false;
    }
    return true;
}

/** Arm per-syscall send/receive timeouts from MADFHE_TCP_TIMEOUT_MS
 *  (0 / unset = block forever, the historical behavior). */
void
applySocketTimeouts(int fd)
{
    const u64 ms = env::u64Or("MADFHE_TCP_TIMEOUT_MS", 0);
    if (ms == 0)
        return;
    timeval tv{};
    tv.tv_sec = static_cast<time_t>(ms / 1000);
    tv.tv_usec = static_cast<suseconds_t>((ms % 1000) * 1000);
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

/** Per-connection socket options for both ends: I/O timeouts and
 *  TCP_NODELAY, so a reply is sent as soon as it is written. */
void
configureConnection(int fd)
{
    applySocketTimeouts(fd);
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

} // namespace

TcpFrontEnd::TcpFrontEnd(Server& server_, std::uint16_t port)
    : server(server_)
{
    listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
    MAD_CHECK(listen_fd >= 0, "tcp: socket() failed");
    const int one = 1;
    ::setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    MAD_CHECK(::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr),
                     sizeof(addr)) == 0,
              "tcp: bind() failed");
    MAD_CHECK(::listen(listen_fd, 16) == 0, "tcp: listen() failed");

    socklen_t addr_len = sizeof(addr);
    MAD_CHECK(::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr),
                            &addr_len) == 0,
              "tcp: getsockname() failed");
    port_ = ntohs(addr.sin_port);

    acceptor = std::thread([this] { acceptLoop(); });
}

TcpFrontEnd::~TcpFrontEnd()
{
    stop();
}

void
TcpFrontEnd::stop()
{
    bool expected = false;
    if (stopping.compare_exchange_strong(expected, true)) {
        // shutdown() unblocks accept(); the fds unblock the readers.
        ::shutdown(listen_fd, SHUT_RDWR);
        ::close(listen_fd);
        std::lock_guard<std::mutex> lock(conns_mu);
        for (const std::unique_ptr<Conn>& c : conns)
            if (c->fd >= 0)
                ::shutdown(c->fd, SHUT_RDWR);
    }
    if (acceptor.joinable())
        acceptor.join();
    // Handlers observe the shutdown, close their own fds and finish;
    // all that is left here is joining them.
    std::vector<std::unique_ptr<Conn>> doomed;
    {
        std::lock_guard<std::mutex> lock(conns_mu);
        doomed.swap(conns);
    }
    for (std::unique_ptr<Conn>& c : doomed)
        if (c->thread.joinable())
            c->thread.join();
}

size_t
TcpFrontEnd::liveConnections() const
{
    std::lock_guard<std::mutex> lock(conns_mu);
    size_t live = 0;
    for (const std::unique_ptr<Conn>& c : conns)
        if (!c->done.load())
            ++live;
    return live;
}

void
TcpFrontEnd::reapFinishedLocked()
{
    for (auto it = conns.begin(); it != conns.end();) {
        if ((*it)->done.load()) {
            (*it)->thread.join();
            it = conns.erase(it);
        } else {
            ++it;
        }
    }
}

void
TcpFrontEnd::acceptLoop()
{
    for (;;) {
        const int fd = ::accept(listen_fd, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR && !stopping.load())
                continue;
            return; // listener closed by stop()
        }
        configureConnection(fd);
        std::lock_guard<std::mutex> lock(conns_mu);
        if (stopping.load()) {
            ::close(fd);
            return;
        }
        reapFinishedLocked();
        conns.push_back(std::make_unique<Conn>());
        Conn* conn = conns.back().get();
        conn->fd = fd;
        TELEM_COUNT("serve.tcp.accepts", 1);
        conn->thread = std::thread([this, conn] { serveConnection(conn); });
    }
}

void
TcpFrontEnd::serveConnection(Conn* conn)
{
    const int fd = conn->fd;
    std::string frame;
    for (;;) {
        bool got = false;
        try {
            got = recvFrame(fd, frame, &stopping);
        } catch (...) {
            // Hostile framing (oversized length prefix, truncated
            // header). Report the typed error — CorruptStream with its
            // breadcrumbs intact, not a silent drop — then close; the
            // stream position is unrecoverable.
            const auto [kind, what] = classifyCurrentException();
            TELEM_COUNT("serve.tcp.recv_errors", 1);
            Response resp;
            resp.ok = false;
            resp.error_kind = kind;
            resp.error = what;
            sendFrame(fd, encodeResponse(resp)); // best effort
            break;
        }
        if (!got)
            break;
        std::string reply;
        try {
            reply = encodeResponse(server.submitFrame(frame).get());
        } catch (...) {
            // Mid-dispatch throw (batcher closed on stop, queue-full
            // shed racing admission, a fault escaping the dispatcher):
            // the client still gets the real MadError kind and message
            // before the connection drops.
            const auto [kind, what] = classifyCurrentException();
            TELEM_COUNT("serve.tcp.submit_errors", 1);
            Response resp;
            resp.ok = false;
            resp.error_kind = kind;
            resp.error = what;
            sendFrame(fd, encodeResponse(resp)); // best effort
            break;
        }
        if (!sendFrame(fd, reply))
            break;
    }
    // Close under the lock and poison the slot so stop() never calls
    // shutdown() on a recycled descriptor number.
    {
        std::lock_guard<std::mutex> lock(conns_mu);
        ::close(conn->fd);
        conn->fd = -1;
    }
    conn->done.store(true);
    TELEM_COUNT("serve.tcp.closes", 1);
}

int
tcpConnect(const std::string& host, std::uint16_t port)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    MAD_CHECK(fd >= 0, "tcp: socket() failed");
    configureConnection(fd);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    MAD_REQUIRE(::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) == 1,
                "tcp: bad host address '" + host + "'");
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
        ::close(fd);
        throw UserError("tcp: connect to " + host + " failed");
    }
    return fd;
}

std::string
tcpRequest(const std::string& host, std::uint16_t port, const std::string& frame)
{
    const int fd = tcpConnect(host, port);
    std::string reply;
    const bool ok = sendFrame(fd, frame) && recvFrame(fd, reply);
    ::close(fd);
    MAD_CHECK(ok, "tcp: request round-trip failed");
    return reply;
}

} // namespace serve
} // namespace madfhe
