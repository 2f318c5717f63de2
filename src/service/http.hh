/**
 * @file
 * HTTP/1.1 observability gateway for vnoised.
 *
 * A second loopback listener in front of the framed protocol, speaking
 * just enough strict HTTP/1.1 for standard tooling:
 *
 *   GET  /metrics   Prometheus text exposition 0.0.4 — every counter
 *                   the framed `stats` verb serves, the dispatcher
 *                   queue depth, and the request-latency / batch-size
 *                   histograms (one source of truth, two encodings).
 *   GET  /healthz   liveness ("ok" while the process runs).
 *   GET  /readyz    readiness (503 once the daemon starts draining).
 *   POST /v1/query  {"verb": ..., "params": {...}, "deadline_ms": N}
 *                   translated onto the framed request path, so curl
 *                   alone can drive a simulation.
 *
 * The parser is deliberately strict: CRLF line endings, known methods
 * only, Content-Length bodies only (chunked transfer coding is
 * rejected), hard caps on header and body bytes. Violations are
 * answered with exact status codes (400/404/405/413/431) and the
 * connection is closed; pipelined well-formed requests on one
 * connection are answered in order. A connection that dribbles bytes
 * slower than the read timeout (slow loris) is dropped.
 *
 * One thread per connection on the shared loopback Listener, same as
 * the framed protocol — the gateway serves scrapers and the odd curl,
 * not thousands of sockets.
 */

#ifndef VN_SERVICE_HTTP_HH
#define VN_SERVICE_HTTP_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "service/dispatcher.hh"
#include "service/listener.hh"
#include "service/metrics.hh"

namespace vn::service
{

/** Gateway knobs (see docs/serving.md). */
struct HttpConfig
{
    /** TCP port on 127.0.0.1; 0 picks an ephemeral port (tests). */
    int port = 0;

    /** Cap on request line + headers, terminator included (431). */
    size_t max_header_bytes = 8192;

    /** Cap on a request body / declared Content-Length (413). */
    size_t max_body_bytes = 1 << 20;

    /**
     * SO_RCVTIMEO on accepted connections: a peer that stalls
     * mid-request longer than this is disconnected (slow loris).
     * Also bounds how long an idle keep-alive connection is kept.
     */
    double read_timeout_s = 10.0;

    /** SO_SNDTIMEO, like the framed listener's send timeout. */
    double send_timeout_s = 5.0;
};

/** One header field; `name` is stored lower-cased. */
struct HttpHeader
{
    std::string name;
    std::string value;
};

/** A parsed request (server side) after parseHttpRequest() == Ok. */
struct HttpRequest
{
    std::string method; //!< verbatim ("GET", "POST", ...)
    std::string target; //!< verbatim request target ("/metrics")
    std::vector<HttpHeader> headers;
    std::string body;

    /** Value of the first `name` header (lower-case), or nullptr. */
    const std::string *header(const std::string &name) const;
};

/** Outcome of one incremental parse attempt. */
enum class HttpParseStatus
{
    NeedMore,        //!< incomplete; read more bytes and retry
    Ok,              //!< one request parsed and consumed from buffer
    BadRequest,      //!< 400: syntax, version, or framing violation
    HeadersTooLarge, //!< 431
    BodyTooLarge,    //!< 413: declared Content-Length over the cap
};

/**
 * Strict incremental HTTP/1.1 request parser. Examines `buffer`; on
 * Ok fills `request` and erases the consumed bytes (leftover pipelined
 * bytes stay). On an error status `detail` (if non-null) receives a
 * one-line reason. The buffer is left untouched on NeedMore/errors.
 */
HttpParseStatus parseHttpRequest(std::string &buffer,
                                 HttpRequest &request,
                                 const HttpConfig &limits,
                                 std::string *detail = nullptr);

/** A response, as parsed by the test/bench client helpers. */
struct HttpResponse
{
    int status = 0;
    std::string reason;
    std::vector<HttpHeader> headers;
    std::string body;

    const std::string *header(const std::string &name) const;
};

/** Serialize a response (status line, headers, Content-Length body). */
std::string buildHttpResponse(int status, const std::string &content_type,
                              const std::string &body,
                              const std::vector<HttpHeader> &extra = {},
                              bool close = false);

/**
 * Client-side helper for tests and benches: read one response from
 * `fd`, accumulating into `buffer` (pipelined leftovers persist
 * across calls). False on EOF/timeout/garbage before a full response.
 */
bool readHttpResponse(int fd, std::string &buffer, HttpResponse &out);

/**
 * One-shot client for tests and benches: connect to 127.0.0.1:port,
 * send `raw` verbatim, read one response. Throws std::runtime_error
 * on connect/transport failure.
 */
HttpResponse httpRequestForTest(int port, const std::string &raw);

/**
 * Render the Prometheus text exposition (version 0.0.4).
 *
 * `stats` is the framed `stats` verb's document: every numeric leaf
 * is emitted as `vnoised_<path>` (counter sections get a `_total`
 * suffix), so the two encodings can never drift apart. Queue depth
 * and the registry histograms ride along.
 */
std::string renderPrometheus(const Json &stats, size_t queue_depth,
                             const MetricsRegistry &metrics);

/** The gateway; owned by Server when ServerConfig::http_port >= 0,
 *  and by the router daemon (dispatcher-less) for its own metrics. */
class HttpGateway
{
  public:
    /** Callbacks into the owning server (avoids a header cycle). */
    struct Hooks
    {
        /** The framed `stats` verb's document. */
        std::function<Json()> stats_json;

        /** True once the daemon began draining (readiness). */
        std::function<bool()> draining;
    };

    /**
     * @param dispatcher compute path behind `POST /v1/query`; may be
     *                   nullptr for observability-only gateways (the
     *                   router), where /v1/query answers 404 and the
     *                   queue-depth gauge reads 0
     */
    HttpGateway(Dispatcher *dispatcher, MetricsRegistry &metrics,
                HttpConfig config, Hooks hooks);

    /** stop() if still running. */
    ~HttpGateway();

    HttpGateway(const HttpGateway &) = delete;
    HttpGateway &operator=(const HttpGateway &) = delete;

    /** Bind, listen, spawn the accept loop. fatal() on failure. */
    void start();

    /** The bound port (resolves port 0 after start()). */
    int port() const { return listener_.port(); }

    /** Close the listener, hang up connections, join. Idempotent. */
    void stop();

  private:
    void handleConnection(int fd);

    /** Route one parsed request to a serialized response. */
    std::string handleRequest(const HttpRequest &request, bool &close);
    std::string handleQuery(const HttpRequest &request, bool &close);

    Dispatcher *dispatcher_; //!< nullptr: no /v1/query compute path
    MetricsRegistry &metrics_;
    HttpConfig config_;
    Hooks hooks_;
    std::atomic<bool> stopping_{false};

    Listener listener_; //!< last: its threads use every member above
};

} // namespace vn::service

#endif // VN_SERVICE_HTTP_HH
