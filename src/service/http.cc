#include "service/http.hh"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <future>

#include <unistd.h>

#include "util/logging.hh"

namespace vn::service
{

namespace
{

/** RFC 9110 token characters (methods, header names). */
bool
isTokenChar(char c)
{
    if ((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
        (c >= '0' && c <= '9'))
        return true;
    return std::strchr("!#$%&'*+-.^_`|~", c) != nullptr;
}

bool
isToken(const std::string &s)
{
    if (s.empty())
        return false;
    for (char c : s)
        if (!isTokenChar(c))
            return false;
    return true;
}

std::string
lowered(std::string s)
{
    for (char &c : s)
        if (c >= 'A' && c <= 'Z')
            c = static_cast<char>(c - 'A' + 'a');
    return s;
}

std::string
trimmedOws(const std::string &s)
{
    size_t b = 0, e = s.size();
    while (b < e && (s[b] == ' ' || s[b] == '\t'))
        ++b;
    while (e > b && (s[e - 1] == ' ' || s[e - 1] == '\t'))
        --e;
    return s.substr(b, e - b);
}

const char *
reasonPhrase(int status)
{
    switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 413: return "Content Too Large";
    case 431: return "Request Header Fields Too Large";
    case 500: return "Internal Server Error";
    case 503: return "Service Unavailable";
    case 504: return "Gateway Timeout";
    default: return "Response";
    }
}

std::string
number17g(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

/** Status of a `POST /v1/query` answered with this wire error code. */
int
queryStatus(const std::string &code)
{
    if (code == "malformed_body" || code == "bad_request" ||
        code == "unknown_verb")
        return 400;
    if (code == "overloaded" || code == "shutting_down")
        return 503;
    if (code == "deadline_exceeded")
        return 504;
    return 500;
}

} // namespace

const std::string *
HttpRequest::header(const std::string &name) const
{
    for (const HttpHeader &h : headers)
        if (h.name == name)
            return &h.value;
    return nullptr;
}

const std::string *
HttpResponse::header(const std::string &name) const
{
    for (const HttpHeader &h : headers)
        if (h.name == name)
            return &h.value;
    return nullptr;
}

HttpParseStatus
parseHttpRequest(std::string &buffer, HttpRequest &request,
                 const HttpConfig &limits, std::string *detail)
{
    auto fail = [detail](HttpParseStatus status, const char *why) {
        if (detail)
            *detail = why;
        return status;
    };

    size_t term = buffer.find("\r\n\r\n");
    if (term == std::string::npos) {
        if (buffer.size() > limits.max_header_bytes)
            return fail(HttpParseStatus::HeadersTooLarge,
                        "header section exceeds the limit");
        return HttpParseStatus::NeedMore;
    }
    size_t head_bytes = term + 4;
    if (head_bytes > limits.max_header_bytes)
        return fail(HttpParseStatus::HeadersTooLarge,
                    "header section exceeds the limit");

    // Split the header section into CRLF-terminated lines; a stray
    // lone CR or LF ends up inside a line and is rejected below.
    std::vector<std::string> lines;
    size_t pos = 0;
    while (pos < term) {
        size_t eol = buffer.find("\r\n", pos);
        if (eol > term)
            eol = term;
        lines.push_back(buffer.substr(pos, eol - pos));
        pos = eol + 2;
    }
    if (lines.empty())
        return fail(HttpParseStatus::BadRequest, "empty request");

    // Request line: METHOD SP TARGET SP HTTP/1.1 — single spaces,
    // exactly three parts.
    const std::string &line = lines[0];
    size_t sp1 = line.find(' ');
    size_t sp2 = sp1 == std::string::npos
                     ? std::string::npos
                     : line.find(' ', sp1 + 1);
    if (sp1 == std::string::npos || sp2 == std::string::npos ||
        line.find(' ', sp2 + 1) != std::string::npos)
        return fail(HttpParseStatus::BadRequest,
                    "malformed request line");
    std::string method = line.substr(0, sp1);
    std::string target = line.substr(sp1 + 1, sp2 - sp1 - 1);
    std::string version = line.substr(sp2 + 1);
    if (!isToken(method))
        return fail(HttpParseStatus::BadRequest, "malformed method");
    if (target.empty() || target[0] != '/')
        return fail(HttpParseStatus::BadRequest,
                    "request target must be origin-form");
    for (char c : target)
        if (static_cast<unsigned char>(c) <= 0x20 ||
            static_cast<unsigned char>(c) == 0x7f)
            return fail(HttpParseStatus::BadRequest,
                        "control character in request target");
    if (version != "HTTP/1.1")
        return fail(HttpParseStatus::BadRequest,
                    "only HTTP/1.1 is served");

    std::vector<HttpHeader> headers;
    for (size_t i = 1; i < lines.size(); ++i) {
        const std::string &field = lines[i];
        if (field.empty())
            return fail(HttpParseStatus::BadRequest,
                        "empty header line");
        if (field[0] == ' ' || field[0] == '\t')
            return fail(HttpParseStatus::BadRequest,
                        "obsolete line folding is not accepted");
        size_t colon = field.find(':');
        if (colon == std::string::npos)
            return fail(HttpParseStatus::BadRequest,
                        "header line without ':'");
        std::string name = field.substr(0, colon);
        if (!isToken(name)) // also rejects "Name : v" (space in name)
            return fail(HttpParseStatus::BadRequest,
                        "malformed header name");
        std::string value = trimmedOws(field.substr(colon + 1));
        for (char c : value)
            if (static_cast<unsigned char>(c) < 0x20 && c != '\t')
                return fail(HttpParseStatus::BadRequest,
                            "control character in header value");
        headers.push_back(HttpHeader{lowered(std::move(name)),
                                     std::move(value)});
    }

    // Body framing: Content-Length only. Chunked (any
    // Transfer-Encoding) is rejected — the simulator gateway has no
    // use for streaming uploads, and refusing it outright removes a
    // whole class of request-smuggling ambiguity.
    uint64_t content_length = 0;
    bool have_length = false;
    for (const HttpHeader &h : headers) {
        if (h.name == "transfer-encoding")
            return fail(HttpParseStatus::BadRequest,
                        "transfer codings are not accepted; use "
                        "Content-Length");
        if (h.name != "content-length")
            continue;
        if (have_length)
            return fail(HttpParseStatus::BadRequest,
                        "duplicate Content-Length");
        if (h.value.empty() || h.value.size() > 18)
            return fail(HttpParseStatus::BadRequest,
                        "malformed Content-Length");
        for (char c : h.value)
            if (c < '0' || c > '9')
                return fail(HttpParseStatus::BadRequest,
                            "malformed Content-Length");
        content_length = std::strtoull(h.value.c_str(), nullptr, 10);
        have_length = true;
    }
    if (content_length > limits.max_body_bytes)
        return fail(HttpParseStatus::BodyTooLarge,
                    "declared Content-Length exceeds the limit");
    if (buffer.size() < head_bytes + content_length)
        return HttpParseStatus::NeedMore;

    request.method = std::move(method);
    request.target = std::move(target);
    request.headers = std::move(headers);
    request.body = buffer.substr(head_bytes, content_length);
    buffer.erase(0, head_bytes + static_cast<size_t>(content_length));
    return HttpParseStatus::Ok;
}

std::string
buildHttpResponse(int status, const std::string &content_type,
                  const std::string &body,
                  const std::vector<HttpHeader> &extra, bool close)
{
    std::string out = "HTTP/1.1 " + std::to_string(status) + " " +
                      reasonPhrase(status) + "\r\n";
    out += "Content-Type: " + content_type + "\r\n";
    out += "Content-Length: " + std::to_string(body.size()) + "\r\n";
    for (const HttpHeader &h : extra)
        out += h.name + ": " + h.value + "\r\n";
    if (close)
        out += "Connection: close\r\n";
    out += "\r\n";
    out += body;
    return out;
}

bool
readHttpResponse(int fd, std::string &buffer, HttpResponse &out)
{
    while (true) {
        size_t term = buffer.find("\r\n\r\n");
        if (term != std::string::npos) {
            // Status line + headers are complete; is the body?
            std::vector<std::string> lines;
            size_t pos = 0;
            while (pos < term) {
                size_t eol = buffer.find("\r\n", pos);
                if (eol > term)
                    eol = term;
                lines.push_back(buffer.substr(pos, eol - pos));
                pos = eol + 2;
            }
            if (lines.empty() ||
                lines[0].rfind("HTTP/1.1 ", 0) != 0 ||
                lines[0].size() < 12)
                return false;
            out.status = std::atoi(lines[0].c_str() + 9);
            size_t sp = lines[0].find(' ', 9);
            out.reason = sp == std::string::npos
                             ? ""
                             : lines[0].substr(sp + 1);
            out.headers.clear();
            size_t length = 0;
            for (size_t i = 1; i < lines.size(); ++i) {
                size_t colon = lines[i].find(':');
                if (colon == std::string::npos)
                    return false;
                HttpHeader h{lowered(lines[i].substr(0, colon)),
                             trimmedOws(lines[i].substr(colon + 1))};
                if (h.name == "content-length")
                    length = static_cast<size_t>(
                        std::strtoull(h.value.c_str(), nullptr, 10));
                out.headers.push_back(std::move(h));
            }
            if (buffer.size() >= term + 4 + length) {
                out.body = buffer.substr(term + 4, length);
                buffer.erase(0, term + 4 + length);
                return true;
            }
        }
        char chunk[4096];
        ssize_t got = ::read(fd, chunk, sizeof(chunk));
        if (got < 0 && errno == EINTR)
            continue;
        if (got <= 0)
            return false;
        buffer.append(chunk, static_cast<size_t>(got));
    }
}

HttpResponse
httpRequestForTest(int port, const std::string &raw)
{
    int fd = dialLoopback(port);
    if (fd < 0)
        throw std::runtime_error("httpRequestForTest: connect failed");
    HttpResponse response;
    std::string buffer;
    bool ok = sendAll(fd, raw) &&
              readHttpResponse(fd, buffer, response);
    ::close(fd);
    if (!ok)
        throw std::runtime_error(
            "httpRequestForTest: no complete response");
    return response;
}

namespace
{

void
renderHistogram(std::string &out, const std::string &name,
                const char *help, const HistogramSnapshot &snap)
{
    out += "# HELP " + name + " " + help + "\n";
    out += "# TYPE " + name + " histogram\n";
    for (size_t i = 0; i < snap.upper_bounds.size(); ++i) {
        char le[40];
        std::snprintf(le, sizeof(le), "%g", snap.upper_bounds[i]);
        out += name + "_bucket{le=\"" + le + "\"} " +
               std::to_string(snap.counts[i]) + "\n";
    }
    out += name + "_bucket{le=\"+Inf\"} " +
           std::to_string(snap.counts.back()) + "\n";
    out += name + "_sum " + number17g(snap.sum) + "\n";
    out += name + "_count " + std::to_string(snap.count) + "\n";
}

/** Emit every numeric leaf under `node` as vnoised_<path>[_total]. */
void
renderStatsSection(std::string &out, const Json &node,
                   const std::string &path, bool counters)
{
    if (node.isNumber()) {
        std::string name = "vnoised_" + path + (counters ? "_total" : "");
        // A gauge-section leaf already named `*_total` (the resilience
        // section mixes counters and gauges) is a counter too.
        bool counter =
            counters || (name.size() > 6 &&
                         name.compare(name.size() - 6, 6, "_total") == 0);
        out += "# TYPE " + name + (counter ? " counter\n" : " gauge\n");
        out += name + " " + number17g(node.asNumber()) + "\n";
        return;
    }
    if (!node.isObject())
        return;
    for (const auto &[key, value] : node.members())
        renderStatsSection(out, value,
                           path.empty() ? key : path + "_" + key,
                           counters);
}

} // namespace

std::string
renderPrometheus(const Json &stats, size_t queue_depth,
                 const MetricsRegistry &metrics)
{
    std::string out;
    // The framed `stats` document IS the metric source: cumulative
    // sections become counters, scalar leaves become gauges, so the
    // two encodings cannot drift apart.
    for (const auto &[key, value] : stats.members()) {
        bool counters = key == "requests" || key == "batching" ||
                        key == "campaign" || key == "server";
        renderStatsSection(out, value, key, counters);
    }

    out += "# HELP vnoised_queue_depth Requests admitted but not yet "
           "batched.\n";
    out += "# TYPE vnoised_queue_depth gauge\n";
    out += "vnoised_queue_depth " + std::to_string(queue_depth) + "\n";

    out += "# TYPE vnoised_http_requests_total counter\n";
    out += "vnoised_http_requests_total " +
           std::to_string(metrics.http_requests.value()) + "\n";
    out += "# TYPE vnoised_http_errors_total counter\n";
    out += "vnoised_http_errors_total " +
           std::to_string(metrics.http_errors.value()) + "\n";

    renderHistogram(out, "vnoised_request_latency_ms",
                    "Admission-to-completion latency of compute "
                    "requests (milliseconds).",
                    metrics.request_latency_ms.snapshot());
    renderHistogram(out, "vnoised_batch_size",
                    "Requests per dispatched batch.",
                    metrics.batch_size.snapshot());
    renderHistogram(out, "vnoised_interactive_wait_ms",
                    "Interactive-tier queue wait plus inline "
                    "interactive verb handling (milliseconds).",
                    metrics.interactive_wait_ms.snapshot());
    renderHistogram(out, "vnoised_batch_wait_ms",
                    "Batch-tier queue wait (milliseconds).",
                    metrics.batch_wait_ms.snapshot());
    return out;
}

HttpGateway::HttpGateway(Dispatcher *dispatcher,
                         MetricsRegistry &metrics, HttpConfig config,
                         Hooks hooks)
    : dispatcher_(dispatcher), metrics_(metrics), config_(config),
      hooks_(std::move(hooks)),
      listener_("HttpGateway", [this](int fd, uint64_t) {
          handleConnection(fd);
      })
{
    if (config_.port < 0 || config_.port > 65535)
        fatal("HttpGateway: port must be in [0, 65535]");
    if (config_.max_header_bytes < 64)
        fatal("HttpGateway: max_header_bytes must be >= 64");
}

HttpGateway::~HttpGateway()
{
    stop();
}

void
HttpGateway::start()
{
    listener_.start(config_.port, config_.read_timeout_s,
                    config_.send_timeout_s);
}

void
HttpGateway::stop()
{
    stopping_.store(true);
    listener_.stop(SHUT_RDWR);
}

void
HttpGateway::handleConnection(int fd)
{
    std::string buffer;
    while (!stopping_.load()) {
        HttpRequest request;
        std::string detail;
        HttpParseStatus status =
            parseHttpRequest(buffer, request, config_, &detail);
        if (status == HttpParseStatus::NeedMore) {
            char chunk[4096];
            ssize_t got = ::read(fd, chunk, sizeof(chunk));
            if (got < 0 && errno == EINTR)
                continue;
            // got == 0: peer closed (possibly mid-request). got < 0
            // with EAGAIN/EWOULDBLOCK: the read timeout expired — a
            // slow-loris peer or an idle keep-alive connection.
            // Either way, hang up without a response.
            if (got <= 0)
                break;
            buffer.append(chunk, static_cast<size_t>(got));
            continue;
        }
        if (status != HttpParseStatus::Ok) {
            int code = status == HttpParseStatus::HeadersTooLarge
                           ? 431
                           : status == HttpParseStatus::BodyTooLarge
                                 ? 413
                                 : 400;
            metrics_.http_requests.add();
            metrics_.http_errors.add();
            // The stream cannot be trusted for resync after a framing
            // violation: answer, then close.
            sendAll(fd, buildHttpResponse(code, "text/plain",
                                          detail + "\n", {}, true));
            break;
        }

        bool close = false;
        if (const std::string *c = request.header("connection"))
            close = lowered(*c) == "close";
        std::string response = handleRequest(request, close);
        if (!sendAll(fd, response) || close)
            break;
        // Leftover bytes in `buffer` are the next pipelined request.
    }
}

std::string
HttpGateway::handleRequest(const HttpRequest &request, bool &close)
{
    auto respond = [this, &close](int status, const std::string &type,
                                  const std::string &body,
                                  std::vector<HttpHeader> extra = {}) {
        metrics_.http_requests.add();
        if (status >= 400)
            metrics_.http_errors.add();
        return buildHttpResponse(status, type, body, extra, close);
    };

    std::string path =
        request.target.substr(0, request.target.find('?'));

    if (request.method != "GET" && request.method != "POST")
        return respond(405, "text/plain", "method not allowed\n",
                       {{"Allow", path == "/v1/query" ? "POST"
                                                      : "GET"}});
    if (request.method == "GET" && !request.body.empty())
        return respond(400, "text/plain",
                       "GET request must not carry a body\n");

    if (path == "/metrics") {
        if (request.method != "GET")
            return respond(405, "text/plain", "method not allowed\n",
                           {{"Allow", "GET"}});
        std::string text = renderPrometheus(
            hooks_.stats_json ? hooks_.stats_json() : Json::object(),
            dispatcher_ ? dispatcher_->queueDepth() : 0, metrics_);
        return respond(200,
                       "text/plain; version=0.0.4; charset=utf-8",
                       text);
    }
    if (path == "/healthz") {
        if (request.method != "GET")
            return respond(405, "text/plain", "method not allowed\n",
                           {{"Allow", "GET"}});
        return respond(200, "text/plain", "ok\n");
    }
    if (path == "/readyz") {
        if (request.method != "GET")
            return respond(405, "text/plain", "method not allowed\n",
                           {{"Allow", "GET"}});
        if (hooks_.draining && hooks_.draining())
            return respond(503, "text/plain", "draining\n");
        return respond(200, "text/plain", "ready\n");
    }
    if (path == "/v1/query") {
        // Observability-only gateways (the router's) have no compute
        // path behind them; the route simply does not exist there.
        if (!dispatcher_)
            return respond(404, "text/plain", "not found\n");
        if (request.method != "POST")
            return respond(405, "text/plain", "method not allowed\n",
                           {{"Allow", "POST"}});
        return handleQuery(request, close);
    }
    return respond(404, "text/plain", "not found\n");
}

std::string
HttpGateway::handleQuery(const HttpRequest &request, bool &close)
{
    auto respond = [this, &close](int status, const Json &body) {
        metrics_.http_requests.add();
        if (status >= 400)
            metrics_.http_errors.add();
        std::vector<HttpHeader> extra;
        if (status == 503)
            extra.push_back({"Retry-After", "1"});
        return buildHttpResponse(status, "application/json",
                                 body.dump() + "\n", extra, close);
    };
    auto fail = [&respond](const Json &id, const WireError &error) {
        return respond(queryStatus(error.code),
                       makeErrorResponse(id, error));
    };

    if (request.header("content-length") == nullptr)
        return fail(Json(), {"bad_request",
                             "POST /v1/query requires a Content-Length "
                             "body"});

    std::variant<DecodedRequest, RejectedRequest> decoded =
        decodeRequest(request.body);
    if (auto *rejected = std::get_if<RejectedRequest>(&decoded)) {
        // The envelope here is a body, not a frame.
        if (rejected->error.code == "malformed_frame")
            rejected->error.code = "malformed_body";
        return fail(rejected->id, rejected->error);
    }
    DecodedRequest &query = std::get<DecodedRequest>(decoded);

    switch (query.verb) {
    case Verb::Ping: {
        Json result = Json::object();
        result.set("pong", Json::boolean(true));
        result.set("protocol",
                   Json::number(static_cast<double>(kProtocolVersion)));
        return respond(200, makeOkResponse(query.id, std::move(result)));
    }
    case Verb::Stats:
        return respond(200,
                       makeOkResponse(query.id, hooks_.stats_json
                                                    ? hooks_.stats_json()
                                                    : Json::object()));
    case Verb::Shutdown:
        // The HTTP side is observability surface; lifecycle stays on
        // the framed protocol and signals.
        return fail(query.id,
                    {"bad_request", "shutdown is not served over HTTP; "
                                    "use the framed protocol or SIGTERM"});
    default:
        break;
    }

    std::optional<Dispatcher::Clock::time_point> deadline;
    if (query.deadline_ms)
        deadline = Dispatcher::Clock::now() +
                   std::chrono::microseconds(static_cast<int64_t>(
                       *query.deadline_ms * 1000.0));

    // The connection thread blocks for the completion; the promise is
    // shared so the batcher-side completion never touches a stack
    // object this thread may already have abandoned.
    auto promise = std::make_shared<
        std::promise<std::variant<AnyResult, WireError>>>();
    std::future<std::variant<AnyResult, WireError>> future =
        promise->get_future();
    dispatcher_->submit(std::move(query.request), deadline,
                        [promise](std::variant<AnyResult, WireError>
                                      outcome) {
                            promise->set_value(std::move(outcome));
                        });
    std::variant<AnyResult, WireError> outcome = future.get();

    if (std::holds_alternative<AnyResult>(outcome))
        return respond(200,
                       makeOkResponse(query.id,
                                      encodeResult(std::get<AnyResult>(
                                          outcome))));
    return fail(query.id, std::get<WireError>(outcome));
}

} // namespace vn::service
