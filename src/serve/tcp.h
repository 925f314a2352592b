/**
 * @file
 * Minimal TCP front end for the serving runtime: length-prefixed serve
 * frames over a localhost socket, one connection per client.
 *
 * Wire protocol: each message is a little-endian u64 byte count followed
 * by that many bytes of serve frame (request.h framing — magic, header
 * checksum checkpoint, serialized-v2 ciphertext payloads). The front end
 * decodes through Server::submitFrame, so a corrupted frame comes back
 * as a typed error response instead of killing the connection, and a
 * hostile length prefix is rejected before allocation.
 *
 * Both ends set TCP_NODELAY and send each frame (length prefix and
 * payload) in a single write, so no reply waits on Nagle's algorithm.
 *
 * Robustness (see DESIGN.md "Robustness model"): all socket I/O
 * tolerates partial reads/writes and bounded EINTR storms;
 * MADFHE_TCP_TIMEOUT_MS arms SO_RCVTIMEO/SO_SNDTIMEO so a stalled peer
 * cannot wedge a connection thread — a timeout while *idle* (no frame
 * in progress) just re-checks for shutdown, a timeout or disconnect
 * *mid-frame* drops the connection. Each connection owns its fd and
 * closes it when the session ends (under the connection lock, so stop()
 * can never shut down a recycled descriptor), finished handler threads
 * are reaped by the acceptor, and liveConnections() exposes the leak
 * check the chaos tests assert on.
 *
 * This is deliberately small — enough to demo and test real
 * client/server traffic (examples/encrypted_kv.cpp) without pulling in
 * an RPC dependency; production deployments would put their own
 * transport in front of Server::submit.
 */
#ifndef MADFHE_SERVE_TCP_H
#define MADFHE_SERVE_TCP_H

#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "serve/server.h"

namespace madfhe {
namespace serve {

class TcpFrontEnd
{
  public:
    /** Listen on 127.0.0.1:`port` (0 = ephemeral; see port()). */
    explicit TcpFrontEnd(Server& server, std::uint16_t port = 0);
    ~TcpFrontEnd();

    TcpFrontEnd(const TcpFrontEnd&) = delete;
    TcpFrontEnd& operator=(const TcpFrontEnd&) = delete;

    /** The bound port (useful with port 0). */
    std::uint16_t port() const { return port_; }

    /** Close the listener and every live connection, join all threads.
     *  Called by the destructor. */
    void stop();

    /** Connections whose handler is still running — 0 after every
     *  client has disconnected (leak assertion for tests). */
    size_t liveConnections() const;

  private:
    struct Conn
    {
        int fd = -1; ///< guarded by conns_mu; -1 once the handler closed it
        std::thread thread;
        std::atomic<bool> done{false};
    };

    void acceptLoop();
    void serveConnection(Conn* conn);
    void reapFinishedLocked(); ///< caller holds conns_mu

    Server& server;
    std::uint16_t port_ = 0;
    int listen_fd = -1;
    std::atomic<bool> stopping{false};
    std::thread acceptor;
    mutable std::mutex conns_mu;
    std::vector<std::unique_ptr<Conn>> conns;
};

/**
 * Open a client connection to `host`:`port` with the front end's socket
 * options (MADFHE_TCP_TIMEOUT_MS timeouts, TCP_NODELAY). The caller owns
 * and closes the returned fd. Throws UserError when the connect fails.
 */
int tcpConnect(const std::string& host, std::uint16_t port);

/**
 * Blocking client helper: connect, send one length-prefixed `frame`,
 * return the length-prefixed response frame's payload. Honors
 * MADFHE_TCP_TIMEOUT_MS as a per-syscall send/receive timeout.
 */
std::string tcpRequest(const std::string& host, std::uint16_t port,
                       const std::string& frame);

} // namespace serve
} // namespace madfhe

#endif // MADFHE_SERVE_TCP_H
