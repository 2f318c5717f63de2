/**
 * @file
 * The loopback listener under vnoised, its HTTP gateway, vnoise_router
 * and the faultnet proxy, plus the socket helpers they share.
 *
 * A Listener binds 127.0.0.1 (port 0 picks an ephemeral port) and runs
 * one accept thread that poll()s the listen socket plus a self-pipe.
 * Every accepted connection gets FD_CLOEXEC, the owner's socket
 * timeouts, and its own thread running the owner's handler. When a
 * handler returns, its socket is shut down and the thread asks the
 * accept loop (through the pipe) to reap it: join the thread, close
 * the socket. A long-lived daemon therefore holds one fd and one
 * thread per *live* client, not per past client.
 *
 * The Listener owns socket lifetime: a connection's socket is closed
 * only after its handler thread has been joined, so stop() can shut
 * down live sockets without racing a close onto a recycled
 * descriptor. What the owners keep is everything above the socket —
 * framing, the order of drain and teardown, how far stop() shuts a
 * socket down, and any lingering close.
 */

#ifndef VN_SERVICE_LISTENER_HH
#define VN_SERVICE_LISTENER_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>

namespace vn::service
{

/**
 * send() every byte with MSG_NOSIGNAL, surviving EINTR and partial
 * writes. False on error: a peer that vanished surfaces as EPIPE here,
 * never as a process-killing SIGPIPE.
 */
bool sendAll(int fd, const char *data, size_t len);
bool sendAll(int fd, const std::string &bytes);

/**
 * Connect a new FD_CLOEXEC socket to 127.0.0.1:port. Returns the
 * socket, or -1 with errno set. An interrupted connect() completes
 * asynchronously, so EINTR waits for the real outcome instead of
 * calling connect() again (which would fail with EALREADY).
 */
int dialLoopback(int port);

/**
 * Surface EOF to the peer, then discard whatever it still has in
 * flight, bounded by a 1 s receive timeout. Closing with unread bytes
 * queued would RST the connection and could destroy the last response
 * (an oversized-frame error, say) before the peer reads it.
 */
void lingerBeforeClose(int fd);

/** The loopback accept loop; see the file comment. */
class Listener
{
  public:
    /**
     * Serves one connection on its own thread. `index` is the 0-based
     * accept ordinal. The socket stays open until the handler returns.
     */
    using Handler = std::function<void(int fd, uint64_t index)>;

    /** @param owner prefixes fatal() messages ("Server", ...) */
    Listener(std::string owner, Handler handler);

    /** stop() if still running. */
    ~Listener();

    Listener(const Listener &) = delete;
    Listener &operator=(const Listener &) = delete;

    /**
     * Bind 127.0.0.1:port, listen, and spawn the accept loop; fatal()
     * on failure. Accepted sockets get the given receive and send
     * timeouts (<= 0: none).
     */
    void start(int port, double read_timeout_s = 0.0,
               double send_timeout_s = 0.0);

    /** The bound port (resolves port 0 after start()). */
    int port() const { return port_; }

    /**
     * Ask the accept loop to stop accepting; returns at once. Only
     * touches an atomic and a non-blocking pipe, so any thread may
     * call it.
     */
    void requestStop();

    /**
     * Block until the accept loop has stopped — after requestStop() or
     * a shutdown signal. Live connections keep being served.
     */
    void awaitStopRequest();

    /**
     * Stop accepting, shutdown(fd, how) every live socket, join every
     * handler thread, and close every descriptor. A second call does
     * nothing.
     */
    void stop(int how = SHUT_RDWR);

    /**
     * Route SIGINT/SIGTERM to this listener (one per process): the
     * first signal stops the accept loop like requestStop(); a second
     * exits the process at once with status 130, for an operator done
     * waiting on a drain. Call after start().
     */
    void installSignalHandlers();

    /** Connections accepted so far. */
    uint64_t accepted() const { return accepted_.load(); }

    /** Connections not yet reaped (live + finished-but-unjoined). */
    size_t liveConnections() const;

  private:
    struct Connection
    {
        int fd = -1;
        std::thread thread;
        std::atomic<bool> done{false};
    };

    void acceptLoop();
    void reap();
    void wakeWith(char byte);

    std::string owner_;
    Handler handler_;
    double read_timeout_s_ = 0.0;
    double send_timeout_s_ = 0.0;

    int listen_fd_ = -1;
    int wake_read_fd_ = -1;
    int wake_write_fd_ = -1;
    int port_ = 0;
    bool started_ = false;
    bool stopped_ = false;
    std::atomic<bool> stop_requested_{false};
    std::atomic<uint64_t> accepted_{0};

    mutable std::mutex mutex_; //!< guards connections_
    std::vector<std::unique_ptr<Connection>> connections_;

    std::thread accept_thread_;
};

} // namespace vn::service

#endif // VN_SERVICE_LISTENER_HH
