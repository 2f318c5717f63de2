/**
 * @file
 * vnoised: the TCP daemon serving the simulator over the framed JSON
 * protocol (protocol.hh).
 *
 * A loopback Listener (listener.hh) gives each accepted connection a
 * reader thread that decodes frames, answers the control verbs
 * (ping/stats/shutdown) inline, and hands compute verbs to the
 * Dispatcher. Responses are written under a per-connection mutex, so
 * a completion firing on the batcher thread never interleaves bytes
 * with an inline control response.
 *
 * Shutdown (SIGINT/SIGTERM via installSignalHandlers(), the
 * `shutdown` verb, or beginShutdown()) is graceful: the listener
 * closes, the dispatcher drains every admitted request — responses
 * still go out — and only then are connections torn down.
 */

#ifndef VN_SERVICE_SERVER_HH
#define VN_SERVICE_SERVER_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "service/dispatcher.hh"
#include "service/http.hh"
#include "service/listener.hh"
#include "service/metrics.hh"

namespace vn::service
{

/** Daemon knobs (see docs/serving.md). */
struct ServerConfig
{
    /** TCP port on 127.0.0.1; 0 picks an ephemeral port (tests). */
    int port = 0;

    /**
     * Port of the HTTP/1.1 observability gateway (`/metrics`,
     * `/healthz`, `/readyz`, `POST /v1/query`); 0 picks an ephemeral
     * port, a negative value (the default) disables the gateway.
     */
    int http_port = -1;

    /** Gateway limits/timeouts (`http.port` is taken from above). */
    HttpConfig http;

    /** Largest accepted request frame payload. */
    size_t max_frame_bytes = kDefaultMaxFrameBytes;

    /**
     * Result text per `stream_chunk` frame. Clamped so a worst-case
     * JSON-escaped chunk still fits one frame.
     */
    size_t stream_chunk_bytes = kDefaultStreamChunkBytes;

    /**
     * Results whose encoded text exceeds this are streamed (to clients
     * that sent `accept_stream`) or answered `result_too_large`
     * (to clients that did not). 0 (the default) derives the
     * threshold from `max_frame_bytes` minus envelope headroom.
     */
    size_t stream_threshold_bytes = 0;

    /**
     * SO_SNDTIMEO on every accepted connection. Completions are
     * written from the single batcher thread, so a client that submits
     * requests and then stops reading would otherwise stall every
     * other client's responses; after this long the stuck connection
     * is dropped instead. <= 0 disables the timeout.
     */
    double send_timeout_s = 5.0;

    /**
     * Upper bound on the graceful drain at shutdown. A wedged batch
     * (a pathological campaign, a filesystem hang) must not turn
     * SIGTERM into a forever-hang: after this many seconds the drain
     * is abandoned, queued requests are answered `shutting_down`, and
     * teardown proceeds (drainedCleanly() turns false). <= 0 (the
     * default, for embedded/test servers) waits indefinitely; the
     * standalone daemons default to 30 s via --drain-timeout-s.
     */
    double drain_timeout_s = 0.0;

    /** Admission / batching knobs. */
    DispatcherConfig dispatcher;

    /**
     * Optional backend identity announced in the `ping` handshake
     * (`vnoised --advertise`). A router lists backends by this name in
     * its ring and metrics; empty means "derive from the port".
     */
    std::string advertise;
};

/** Frame/verb-level error counters (server side of `stats`). */
struct ServerCounters
{
    uint64_t connections = 0;
    uint64_t frames = 0; //!< well-formed frames received
    uint64_t malformed = 0;
    uint64_t oversized = 0;
    uint64_t unknown_verbs = 0;
    uint64_t bad_requests = 0;
    uint64_t streams = 0;       //!< results served as chunked streams
    uint64_t stream_chunks = 0; //!< stream_chunk frames written
    uint64_t stream_aborts = 0; //!< streams cut short (peer gone)
    uint64_t result_too_large = 0; //!< oversized result, no opt-in
};

/** The vnoised daemon; see the file comment. */
class Server
{
  public:
    /**
     * @param ctx    harness configuration shared by every request;
     *               `ctx.kit` must outlive the server
     * @param config daemon knobs
     */
    Server(const AnalysisContext &ctx, ServerConfig config);

    /** beginShutdown() + wait() if still running. */
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /** Bind, listen, and spawn the accept loop. fatal() on failure. */
    void start();

    /** The bound port (resolves port 0 after start()). */
    int port() const { return listener_.port(); }

    /** Bound HTTP gateway port after start(); -1 when disabled. */
    int httpPort() const { return http_ ? http_->port() : -1; }

    /**
     * Route SIGINT/SIGTERM to beginShutdown() of this server (one
     * server per process); a SECOND signal forces immediate process
     * exit (status 130) for operators done waiting on the drain.
     * Call after start().
     */
    void installSignalHandlers();

    /** Async-signal-safe shutdown trigger; returns immediately. */
    void beginShutdown();

    /**
     * Block until shutdown is triggered, then drain the dispatcher
     * (in-flight requests complete and their responses are written),
     * close every connection, and join all threads.
     */
    void wait();

    /**
     * False when wait() abandoned the drain at the configured
     * drain_timeout_s. A standalone daemon should then exit nonzero
     * via std::_Exit — the wedged batcher thread cannot be joined.
     */
    bool drainedCleanly() const { return drained_cleanly_.load(); }

    /** Dispatcher counters + latency window (for tests/bench). */
    const Dispatcher &dispatcher() const { return *dispatcher_; }

    /** Frame/verb-level counters. */
    ServerCounters serverCounters() const;

    /** The registry behind `/metrics` (shared with the dispatcher). */
    const MetricsRegistry &metrics() const { return metrics_; }

    /**
     * Mutable registry handle, for wiring an in-process
     * ResilientClient's retry/breaker/pool series into this server's
     * `stats` and `/metrics` (benches, tests, embedded deployments).
     */
    MetricsRegistry &metricsMutable() { return metrics_; }

    /** Campaign-scope fingerprint announced in the ping handshake. */
    const std::string &scopeFingerprint() const
    {
        return scope_fingerprint_;
    }

    /** Test hook, forwarded to the dispatcher. */
    void pauseForTest(bool paused) { dispatcher_->pauseForTest(paused); }

    /** Test hook (scripted stuck batcher), forwarded likewise. */
    void setBatchHookForTest(std::function<void()> hook)
    {
        dispatcher_->setBatchHookForTest(std::move(hook));
    }

    /** Connections not yet reaped (live + finished-but-unjoined). */
    size_t liveConnectionsForTest() const
    {
        return listener_.liveConnections();
    }

  private:
    struct Connection
    {
        int fd = -1; //!< owned by the listener
        std::mutex write_mutex;
        std::atomic<bool> open{true}; //!< false once the reader hung up
        uint64_t client_id = 0;       //!< WFQ flow identity
    };

    void handleConnection(int fd, uint64_t index);
    bool handleFrame(const std::shared_ptr<Connection> &conn,
                     const std::string &payload);
    void sendJson(Connection &conn, const Json &response);
    void sendStream(Connection &conn, const Json &id,
                    const std::string &verb_name,
                    const std::string &result_text);
    size_t streamThresholdBytes() const;
    Json statsJson() const;

    ServerConfig config_;
    std::string scope_fingerprint_; //!< hex fnv1a(analysisScope(ctx))
    MetricsRegistry metrics_;
    std::unique_ptr<Dispatcher> dispatcher_;
    std::unique_ptr<HttpGateway> http_;

    std::atomic<bool> shutting_down_{false};
    std::atomic<bool> drained_cleanly_{true};
    bool started_ = false;
    bool waited_ = false;
    Dispatcher::Clock::time_point started_at_;

    mutable std::mutex counters_mutex_;
    ServerCounters counters_; //!< `connections` comes from listener_

    Listener listener_; //!< last: its threads use every member above
};

} // namespace vn::service

#endif // VN_SERVICE_SERVER_HH
