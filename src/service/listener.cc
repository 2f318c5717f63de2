#include "service/listener.hh"

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstring>
#include <iterator>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/time.h>
#include <unistd.h>

#include "util/logging.hh"

namespace vn::service
{

namespace
{

/** Listen backlog of every loopback listener. */
constexpr int kListenBacklog = 64;

/** Wake byte a finished handler sends; any other byte means stop. */
constexpr char kReapByte = 'r';

/** Wake-pipe write end for the signal handlers (one per process). */
std::atomic<int> g_signal_wake_fd{-1};

/** Shutdown signals received since installSignalHandlers(). */
std::atomic<int> g_signal_count{0};

extern "C" void
handleShutdownSignal(int)
{
    if (g_signal_count.fetch_add(1, std::memory_order_relaxed) >= 1) {
        // Second signal: the operator is done waiting for the
        // graceful drain. _exit is async-signal-safe and skips every
        // destructor — nothing below may be trusted mid-drain anyway.
        ::_exit(130);
    }
    int fd = g_signal_wake_fd.load(std::memory_order_relaxed);
    if (fd >= 0) {
        char byte = 's';
        // Best effort: a full pipe means a wake-up is already pending.
        [[maybe_unused]] ssize_t rc = ::write(fd, &byte, 1);
    }
}

sockaddr_in
loopbackAddress(int port)
{
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<uint16_t>(port));
    return addr;
}

/** Set FD_CLOEXEC, so a spawned child never inherits the descriptor. */
void
setCloexec(int fd)
{
    int flags = ::fcntl(fd, F_GETFD);
    if (flags >= 0)
        ::fcntl(fd, F_SETFD, flags | FD_CLOEXEC);
}

/**
 * Set SO_RCVTIMEO or SO_SNDTIMEO (`option`) on a socket; a value
 * <= 0 leaves the socket blocking forever.
 */
void
setSocketTimeout(int fd, int option, double seconds)
{
    if (seconds <= 0.0)
        return;
    timeval tv{};
    tv.tv_sec = static_cast<time_t>(seconds);
    tv.tv_usec = static_cast<suseconds_t>(
        (seconds - static_cast<double>(tv.tv_sec)) * 1e6);
    ::setsockopt(fd, SOL_SOCKET, option, &tv, sizeof(tv));
}

} // namespace

bool
sendAll(int fd, const char *data, size_t len)
{
    size_t done = 0;
    while (done < len) {
        ssize_t put = ::send(fd, data + done, len - done, MSG_NOSIGNAL);
        if (put < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        done += static_cast<size_t>(put);
    }
    return true;
}

bool
sendAll(int fd, const std::string &bytes)
{
    return sendAll(fd, bytes.data(), bytes.size());
}

int
dialLoopback(int port)
{
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return -1;
    setCloexec(fd);
    sockaddr_in addr = loopbackAddress(port);
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) == 0)
        return fd;
    if (errno == EINTR) {
        // POSIX: an interrupted connect() completes asynchronously.
        // Wait for writability, then read the real outcome from
        // SO_ERROR instead of treating the signal as a failure.
        pollfd pfd{fd, POLLOUT, 0};
        while (::poll(&pfd, 1, -1) < 0 && errno == EINTR) {
        }
        int err = 0;
        socklen_t len = sizeof(err);
        if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0)
            err = errno;
        if (err == 0)
            return fd;
        errno = err;
    }
    int saved = errno;
    ::close(fd);
    errno = saved;
    return -1;
}

void
lingerBeforeClose(int fd)
{
    ::shutdown(fd, SHUT_WR);
    setSocketTimeout(fd, SO_RCVTIMEO, 1.0);
    char sink[256];
    while (::read(fd, sink, sizeof(sink)) > 0) {
    }
}

Listener::Listener(std::string owner, Handler handler)
    : owner_(std::move(owner)), handler_(std::move(handler))
{}

Listener::~Listener()
{
    stop();
}

void
Listener::start(int port, double read_timeout_s, double send_timeout_s)
{
    if (started_)
        fatal(owner_, ": start() called twice");
    read_timeout_s_ = read_timeout_s;
    send_timeout_s_ = send_timeout_s;

    int pipe_fds[2];
    if (::pipe(pipe_fds) != 0)
        fatal(owner_, ": pipe: ", std::strerror(errno));
    wake_read_fd_ = pipe_fds[0];
    wake_write_fd_ = pipe_fds[1];
    setCloexec(wake_read_fd_);
    setCloexec(wake_write_fd_);
    // A signal handler must never block on a full pipe; a full pipe
    // already holds a pending wake-up.
    ::fcntl(wake_write_fd_, F_SETFL, O_NONBLOCK);

    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0)
        fatal(owner_, ": socket: ", std::strerror(errno));
    setCloexec(listen_fd_);
    int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one,
                 sizeof(one));

    // Loopback only: every listener here is a local co-processor or
    // scrape surface, not an exposed network service.
    sockaddr_in addr = loopbackAddress(port);
    if (::bind(listen_fd_, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0)
        fatal(owner_, ": bind 127.0.0.1:", port, ": ",
              std::strerror(errno));
    if (::listen(listen_fd_, kListenBacklog) != 0)
        fatal(owner_, ": listen: ", std::strerror(errno));

    socklen_t len = sizeof(addr);
    if (::getsockname(listen_fd_, reinterpret_cast<sockaddr *>(&addr),
                      &len) != 0)
        fatal(owner_, ": getsockname: ", std::strerror(errno));
    port_ = ntohs(addr.sin_port);

    started_ = true;
    accept_thread_ = std::thread([this] { acceptLoop(); });
}

void
Listener::requestStop()
{
    stop_requested_.store(true);
    wakeWith('q');
}

void
Listener::awaitStopRequest()
{
    if (accept_thread_.joinable())
        accept_thread_.join();
}

void
Listener::stop(int how)
{
    if (!started_ || stopped_)
        return;
    stopped_ = true;
    requestStop();
    awaitStopRequest();

    std::vector<std::unique_ptr<Connection>> conns;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        conns.swap(connections_);
    }
    for (auto &conn : conns)
        ::shutdown(conn->fd, how);
    for (auto &conn : conns) {
        conn->thread.join();
        ::close(conn->fd);
    }

    int ours = wake_write_fd_;
    g_signal_wake_fd.compare_exchange_strong(ours, -1);
    ::close(listen_fd_);
    ::close(wake_read_fd_);
    ::close(wake_write_fd_);
    listen_fd_ = wake_read_fd_ = wake_write_fd_ = -1;
}

void
Listener::installSignalHandlers()
{
    if (!started_)
        fatal(owner_, ": installSignalHandlers() before start()");
    g_signal_wake_fd.store(wake_write_fd_, std::memory_order_relaxed);
    g_signal_count.store(0, std::memory_order_relaxed);
    struct sigaction action{};
    action.sa_handler = handleShutdownSignal;
    sigemptyset(&action.sa_mask);
    ::sigaction(SIGINT, &action, nullptr);
    ::sigaction(SIGTERM, &action, nullptr);
}

size_t
Listener::liveConnections() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return connections_.size();
}

void
Listener::wakeWith(char byte)
{
    [[maybe_unused]] ssize_t rc = ::write(wake_write_fd_, &byte, 1);
}

void
Listener::reap()
{
    std::vector<std::unique_ptr<Connection>> finished;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto live_end = std::partition(
            connections_.begin(), connections_.end(),
            [](const std::unique_ptr<Connection> &c) {
                return !c->done.load();
            });
        finished.assign(std::make_move_iterator(live_end),
                        std::make_move_iterator(connections_.end()));
        connections_.erase(live_end, connections_.end());
    }
    for (auto &conn : finished) {
        conn->thread.join();
        ::close(conn->fd);
    }
}

void
Listener::acceptLoop()
{
    while (true) {
        pollfd fds[2] = {
            {listen_fd_, POLLIN, 0},
            {wake_read_fd_, POLLIN, 0},
        };
        if (::poll(fds, 2, -1) < 0) {
            if (errno == EINTR)
                continue;
            return;
        }
        if (fds[1].revents != 0) {
            char buf[64];
            ssize_t got = ::read(wake_read_fd_, buf, sizeof(buf));
            bool quit = stop_requested_.load();
            for (ssize_t i = 0; i < got; ++i)
                quit = quit || buf[i] != kReapByte;
            reap();
            if (quit)
                return;
        }
        if ((fds[0].revents & POLLIN) == 0)
            continue;

        int fd = ::accept(listen_fd_, nullptr, nullptr);
        if (fd < 0)
            continue;
        setCloexec(fd);
        setSocketTimeout(fd, SO_RCVTIMEO, read_timeout_s_);
        setSocketTimeout(fd, SO_SNDTIMEO, send_timeout_s_);

        uint64_t index = accepted_.fetch_add(1);
        auto owned = std::make_unique<Connection>();
        Connection &conn = *owned;
        conn.fd = fd;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            connections_.push_back(std::move(owned));
        }
        // conn.thread is only touched by this thread (start here, join
        // in reap()) or after it exits (stop()).
        conn.thread = std::thread([this, &conn, index] {
            handler_(conn.fd, index);
            ::shutdown(conn.fd, SHUT_RDWR);
            conn.done.store(true);
            wakeWith(kReapByte);
        });
    }
}

} // namespace vn::service
