/**
 * @file
 * Conformance tests of the HTTP/1.1 observability gateway, plus the
 * metrics-correctness property: the Prometheus `/metrics` text and
 * the framed `stats` verb are two encodings of the same counters and
 * must agree exactly.
 *
 * The conformance tests run against a server with no stressmark kit:
 * they exercise parsing, routing, limits, and status codes
 * (400/404/405/413/431/503) without ever reaching a computation. The
 * metrics test builds the reduced kit and runs real queries.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <thread>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include "envelope_table.hh"
#include "service/client.hh"
#include "service/faultnet.hh"
#include "service/http.hh"
#include "service/protocol.hh"
#include "service/resilient.hh"
#include "service/server.hh"

namespace
{

using namespace vn;
using namespace vn::service;

/** Context with no kit: conformance requests never compute. */
vn::AnalysisContext
bareContext()
{
    vn::AnalysisContext ctx;
    ctx.campaign.cache_dir.clear();
    return ctx;
}

/** ServerConfig with both listeners on ephemeral ports. */
ServerConfig
httpEnabledConfig()
{
    ServerConfig config;
    config.port = 0;      // never a hard-coded port: parallel ctest
    config.http_port = 0; // must not collide across test binaries
    return config;
}

int
connectTo(int port)
{
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<uint16_t>(port));
    EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                        sizeof(addr)),
              0);
    return fd;
}

std::string
simpleGet(const std::string &target)
{
    return "GET " + target + " HTTP/1.1\r\nHost: localhost\r\n\r\n";
}

std::string
jsonPost(const std::string &body)
{
    return "POST /v1/query HTTP/1.1\r\nHost: localhost\r\n"
           "Content-Type: application/json\r\n"
           "Content-Length: " +
           std::to_string(body.size()) + "\r\n\r\n" + body;
}

TEST(HttpConformance, HealthReadyAndMetricsEndpoints)
{
    auto ctx = bareContext();
    Server server(ctx, httpEnabledConfig());
    server.start();
    int port = server.httpPort();
    ASSERT_GT(port, 0);

    HttpResponse health = httpRequestForTest(port, simpleGet("/healthz"));
    EXPECT_EQ(health.status, 200);
    EXPECT_EQ(health.body, "ok\n");

    HttpResponse ready = httpRequestForTest(port, simpleGet("/readyz"));
    EXPECT_EQ(ready.status, 200);
    EXPECT_EQ(ready.body, "ready\n");

    HttpResponse metrics =
        httpRequestForTest(port, simpleGet("/metrics"));
    EXPECT_EQ(metrics.status, 200);
    const std::string *type = metrics.header("content-type");
    ASSERT_NE(type, nullptr);
    EXPECT_NE(type->find("version=0.0.4"), std::string::npos);
    EXPECT_NE(metrics.body.find(
                  "# TYPE vnoised_requests_received_total counter"),
              std::string::npos);
    EXPECT_NE(metrics.body.find("vnoised_queue_depth 0"),
              std::string::npos);
    EXPECT_NE(metrics.body.find(
                  "vnoised_request_latency_ms_bucket{le=\"+Inf\"}"),
              std::string::npos);

    // A query string is routing-transparent.
    HttpResponse with_query =
        httpRequestForTest(port, simpleGet("/healthz?verbose=1"));
    EXPECT_EQ(with_query.status, 200);

    server.beginShutdown();
    server.wait();
}

TEST(HttpConformance, NotFoundAndMethodNotAllowed)
{
    auto ctx = bareContext();
    Server server(ctx, httpEnabledConfig());
    server.start();
    int port = server.httpPort();

    EXPECT_EQ(httpRequestForTest(port, simpleGet("/nope")).status, 404);
    EXPECT_EQ(httpRequestForTest(port, simpleGet("/metrics/sub")).status,
              404);

    HttpResponse post_metrics = httpRequestForTest(
        port, "POST /metrics HTTP/1.1\r\nHost: x\r\n"
              "Content-Length: 0\r\n\r\n");
    EXPECT_EQ(post_metrics.status, 405);
    const std::string *allow = post_metrics.header("allow");
    ASSERT_NE(allow, nullptr);
    EXPECT_EQ(*allow, "GET");

    HttpResponse get_query =
        httpRequestForTest(port, simpleGet("/v1/query"));
    EXPECT_EQ(get_query.status, 405);
    allow = get_query.header("allow");
    ASSERT_NE(allow, nullptr);
    EXPECT_EQ(*allow, "POST");

    EXPECT_EQ(httpRequestForTest(
                  port, "DELETE /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
                  .status,
              405);

    server.beginShutdown();
    server.wait();
}

TEST(HttpConformance, RequestLineAndHeaderStrictness)
{
    auto ctx = bareContext();
    Server server(ctx, httpEnabledConfig());
    server.start();
    int port = server.httpPort();

    auto statusOf = [port](const std::string &raw) {
        return httpRequestForTest(port, raw).status;
    };

    // Missing request-line parts, wrong version, doubled spaces.
    EXPECT_EQ(statusOf("GET/healthz HTTP/1.1\r\n\r\n"), 400);
    EXPECT_EQ(statusOf("GET /healthz\r\n\r\n"), 400);
    EXPECT_EQ(statusOf("GET /healthz HTTP/1.0\r\n\r\n"), 400);
    EXPECT_EQ(statusOf("GET  /healthz HTTP/1.1\r\n\r\n"), 400);
    EXPECT_EQ(statusOf("GET /healthz HTTP/1.1 extra\r\n\r\n"), 400);
    // Target must be origin-form.
    EXPECT_EQ(statusOf("GET healthz HTTP/1.1\r\n\r\n"), 400);
    // Malformed headers: no colon, space in name, folded line,
    // control byte in value.
    EXPECT_EQ(statusOf("GET /healthz HTTP/1.1\r\nweird\r\n\r\n"), 400);
    EXPECT_EQ(
        statusOf("GET /healthz HTTP/1.1\r\nBad Name: v\r\n\r\n"), 400);
    EXPECT_EQ(statusOf(
                  "GET /healthz HTTP/1.1\r\nA: b\r\n folded\r\n\r\n"),
              400);
    EXPECT_EQ(statusOf("GET /healthz HTTP/1.1\r\nA: b\x01\r\n\r\n"),
              400);
    // Unknown scheme-ish method token is still a token: routed, 405.
    EXPECT_EQ(statusOf("BREW /healthz HTTP/1.1\r\n\r\n"), 405);
    // Non-token method is a parse error.
    EXPECT_EQ(statusOf("GE T /healthz HTTP/1.1\r\n\r\n"), 400);

    server.beginShutdown();
    server.wait();
}

TEST(HttpConformance, OversizedHeadersAre431)
{
    auto ctx = bareContext();
    ServerConfig config = httpEnabledConfig();
    config.http.max_header_bytes = 256;
    Server server(ctx, config);
    server.start();
    int port = server.httpPort();

    // Terminated but oversized header section.
    std::string big = "GET /healthz HTTP/1.1\r\nX-Pad: " +
                      std::string(400, 'a') + "\r\n\r\n";
    EXPECT_EQ(httpRequestForTest(port, big).status, 431);

    // Unterminated dribble past the limit: the server must not wait
    // for a terminator that never comes before rejecting.
    EXPECT_EQ(httpRequestForTest(
                  port, "GET /" + std::string(600, 'x'))
                  .status,
              431);

    server.beginShutdown();
    server.wait();
}

TEST(HttpConformance, ContentLengthEdgeCases)
{
    auto ctx = bareContext();
    ServerConfig config = httpEnabledConfig();
    config.http.max_body_bytes = 1024;
    Server server(ctx, config);
    server.start();
    int port = server.httpPort();

    // Absent on POST /v1/query: explicit 400 with a JSON error.
    HttpResponse absent = httpRequestForTest(
        port, "POST /v1/query HTTP/1.1\r\nHost: x\r\n\r\n");
    EXPECT_EQ(absent.status, 400);
    EXPECT_NE(absent.body.find("Content-Length"), std::string::npos);

    // Zero: an empty body is not a JSON object.
    HttpResponse zero = httpRequestForTest(
        port, "POST /v1/query HTTP/1.1\r\nHost: x\r\n"
              "Content-Length: 0\r\n\r\n");
    EXPECT_EQ(zero.status, 400);
    EXPECT_NE(zero.body.find("malformed_body"), std::string::npos);

    // Overlong: declared length beyond the cap, body never read.
    HttpResponse overlong = httpRequestForTest(
        port, "POST /v1/query HTTP/1.1\r\nHost: x\r\n"
              "Content-Length: 4096\r\n\r\n");
    EXPECT_EQ(overlong.status, 413);

    // Mismatched: duplicate and non-numeric Content-Length.
    EXPECT_EQ(httpRequestForTest(
                  port, "POST /v1/query HTTP/1.1\r\n"
                        "Content-Length: 2\r\nContent-Length: 3\r\n"
                        "\r\n{}")
                  .status,
              400);
    EXPECT_EQ(httpRequestForTest(
                  port, "POST /v1/query HTTP/1.1\r\n"
                        "Content-Length: two\r\n\r\n")
                  .status,
              400);
    EXPECT_EQ(httpRequestForTest(
                  port, "POST /v1/query HTTP/1.1\r\n"
                        "Content-Length: -1\r\n\r\n")
                  .status,
              400);

    // Chunked transfer coding is rejected outright.
    EXPECT_EQ(httpRequestForTest(
                  port, "POST /v1/query HTTP/1.1\r\n"
                        "Transfer-Encoding: chunked\r\n\r\n"
                        "0\r\n\r\n")
                  .status,
              400);

    // A GET must not carry a body.
    EXPECT_EQ(httpRequestForTest(
                  port, "GET /healthz HTTP/1.1\r\n"
                        "Content-Length: 2\r\n\r\nhi")
                  .status,
              400);

    server.beginShutdown();
    server.wait();
}

TEST(HttpConformance, PipelinedRequestsAnswerInOrder)
{
    auto ctx = bareContext();
    Server server(ctx, httpEnabledConfig());
    server.start();
    int fd = connectTo(server.httpPort());

    std::string two = simpleGet("/healthz") + simpleGet("/readyz");
    ASSERT_EQ(::send(fd, two.data(), two.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(two.size()));

    std::string buffer;
    HttpResponse first, second, third;
    ASSERT_TRUE(readHttpResponse(fd, buffer, first));
    ASSERT_TRUE(readHttpResponse(fd, buffer, second));
    EXPECT_EQ(first.status, 200);
    EXPECT_EQ(first.body, "ok\n");
    EXPECT_EQ(second.status, 200);
    EXPECT_EQ(second.body, "ready\n");

    // The connection is still usable afterwards (keep-alive).
    std::string again = simpleGet("/metrics");
    ASSERT_EQ(::send(fd, again.data(), again.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(again.size()));
    ASSERT_TRUE(readHttpResponse(fd, buffer, third));
    EXPECT_EQ(third.status, 200);
    ::close(fd);

    // Connection: close is honored.
    int fd2 = connectTo(server.httpPort());
    std::string closing = "GET /healthz HTTP/1.1\r\n"
                          "Connection: close\r\n\r\n";
    ASSERT_EQ(
        ::send(fd2, closing.data(), closing.size(), MSG_NOSIGNAL),
        static_cast<ssize_t>(closing.size()));
    std::string buffer2;
    HttpResponse closed;
    ASSERT_TRUE(readHttpResponse(fd2, buffer2, closed));
    EXPECT_EQ(closed.status, 200);
    char byte;
    EXPECT_EQ(::read(fd2, &byte, 1), 0); // server hung up
    ::close(fd2);

    server.beginShutdown();
    server.wait();
}

TEST(HttpConformance, PrematureCloseIsHarmless)
{
    auto ctx = bareContext();
    Server server(ctx, httpEnabledConfig());
    server.start();
    int port = server.httpPort();

    // Half a request line, then close; half a body, then close.
    int fd = connectTo(port);
    ASSERT_GT(::send(fd, "GET /hea", 8, MSG_NOSIGNAL), 0);
    ::close(fd);
    fd = connectTo(port);
    std::string partial = "POST /v1/query HTTP/1.1\r\n"
                          "Content-Length: 100\r\n\r\n{\"verb";
    ASSERT_GT(::send(fd, partial.data(), partial.size(), MSG_NOSIGNAL),
              0);
    ::close(fd);

    // The gateway survives and keeps serving.
    EXPECT_EQ(httpRequestForTest(port, simpleGet("/healthz")).status,
              200);

    server.beginShutdown();
    server.wait();
}

TEST(HttpConformance, SlowLorisHitsReadTimeout)
{
    auto ctx = bareContext();
    ServerConfig config = httpEnabledConfig();
    config.http.read_timeout_s = 0.3;
    Server server(ctx, config);
    server.start();

    int fd = connectTo(server.httpPort());
    // Partial headers, then silence: the server must hang up on its
    // own rather than hold the connection (and its thread) forever.
    ASSERT_GT(::send(fd, "GET /healthz HTTP/1.1\r\nX-Slow: 1", 32,
                     MSG_NOSIGNAL),
              0);
    timeval tv{5, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    char byte;
    ssize_t got = ::read(fd, &byte, 1);
    EXPECT_EQ(got, 0) << "expected EOF from the read timeout";
    ::close(fd);

    server.beginShutdown();
    server.wait();
}

TEST(HttpConformance, QueryValidationErrors)
{
    auto ctx = bareContext();
    Server server(ctx, httpEnabledConfig());
    server.start();
    int port = server.httpPort();

    HttpResponse bad_json = httpRequestForTest(port, jsonPost("{nope"));
    EXPECT_EQ(bad_json.status, 400);
    EXPECT_NE(bad_json.body.find("malformed_body"), std::string::npos);

    HttpResponse not_object = httpRequestForTest(port, jsonPost("[1]"));
    EXPECT_EQ(not_object.status, 400);

    HttpResponse no_verb =
        httpRequestForTest(port, jsonPost("{\"id\":1}"));
    EXPECT_EQ(no_verb.status, 400);
    EXPECT_NE(no_verb.body.find("bad_request"), std::string::npos);

    HttpResponse unknown = httpRequestForTest(
        port, jsonPost("{\"verb\":\"frobnicate\"}"));
    EXPECT_EQ(unknown.status, 400);
    EXPECT_NE(unknown.body.find("unknown_verb"), std::string::npos);

    HttpResponse shutdown_verb = httpRequestForTest(
        port, jsonPost("{\"verb\":\"shutdown\"}"));
    EXPECT_EQ(shutdown_verb.status, 400);

    HttpResponse bad_params = httpRequestForTest(
        port, jsonPost("{\"verb\":\"sweep\","
                       "\"params\":{\"freq_hz\":\"fast\"}}"));
    EXPECT_EQ(bad_params.status, 400);

    HttpResponse bad_deadline = httpRequestForTest(
        port, jsonPost("{\"verb\":\"sweep\","
                       "\"params\":{\"freq_hz\":2.4e6},"
                       "\"deadline_ms\":\"soon\"}"));
    EXPECT_EQ(bad_deadline.status, 400);

    // Control verbs that ARE served: ping and stats.
    HttpResponse ping = httpRequestForTest(
        port, jsonPost("{\"id\":7,\"verb\":\"ping\"}"));
    EXPECT_EQ(ping.status, 200);
    Json ping_body = Json::parse(ping.body);
    EXPECT_TRUE(ping_body.at("ok").asBool());
    EXPECT_EQ(ping_body.at("id").asNumber(), 7.0);
    EXPECT_TRUE(ping_body.at("result").at("pong").asBool());

    HttpResponse stats = httpRequestForTest(
        port, jsonPost("{\"verb\":\"stats\"}"));
    EXPECT_EQ(stats.status, 200);
    Json stats_body = Json::parse(stats.body);
    EXPECT_TRUE(stats_body.at("result").has("requests"));

    server.beginShutdown();
    server.wait();
}

TEST(HttpConformance, EnvelopeTableAnswersEveryRowAndKeepsTheConnection)
{
    auto ctx = bareContext();
    Server server(ctx, httpEnabledConfig());
    server.start();

    int fd = connectTo(server.httpPort());
    std::string buffer;
    for (envelope::Row row : envelope::rows()) {
        SCOPED_TRACE(row.payload);
        // The gateway's own name for an envelope that is no object.
        if (row.code == "malformed_frame")
            row.code = "malformed_body";
        HttpResponse response;
        ASSERT_TRUE(sendAll(fd, jsonPost(row.payload)));
        ASSERT_TRUE(readHttpResponse(fd, buffer, response));
        EXPECT_EQ(response.status, row.code.empty() ? 200 : 400);
        envelope::expectAnswer(row, Json::parse(response.body));

        ASSERT_TRUE(
            sendAll(fd, jsonPost(R"({"id":"next","verb":"ping"})")));
        ASSERT_TRUE(readHttpResponse(fd, buffer, response))
            << "the connection did not survive the row";
        EXPECT_EQ(response.status, 200);
    }
    ::close(fd);

    server.beginShutdown();
    server.wait();
}

TEST(HttpConformance, DeadlineExpiredMapsTo504)
{
    auto ctx = bareContext();
    Server server(ctx, httpEnabledConfig());
    server.start();
    server.pauseForTest(true);

    HttpResponse response;
    std::thread requester([&] {
        response = httpRequestForTest(
            server.httpPort(),
            jsonPost("{\"verb\":\"sweep\","
                     "\"params\":{\"freq_hz\":2.4e6},"
                     "\"deadline_ms\":0}"));
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    server.pauseForTest(false);
    requester.join();
    EXPECT_EQ(response.status, 504);
    EXPECT_NE(response.body.find("deadline_exceeded"),
              std::string::npos);

    server.beginShutdown();
    server.wait();
}

TEST(HttpConformance, OverloadedMapsTo503)
{
    auto ctx = bareContext();
    ServerConfig config = httpEnabledConfig();
    config.dispatcher.queue_depth = 1;
    Server server(ctx, config);
    server.start();
    server.pauseForTest(true);

    // Fill the queue over the framed protocol (deadline 0, so the
    // eventual drain answers it without computing — no kit needed).
    int fd = connectTo(server.port());
    Json fill = Json::object();
    fill.set("id", Json::number(1));
    fill.set("verb", Json::str("sweep"));
    Json params = Json::object();
    params.set("freq_hz", Json::number(2.4e6));
    fill.set("params", std::move(params));
    fill.set("deadline_ms", Json::number(0));
    ASSERT_TRUE(writeFrame(fd, fill.dump()));

    // Give the framed request time to be admitted.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));

    HttpResponse overloaded = httpRequestForTest(
        server.httpPort(),
        jsonPost("{\"verb\":\"sweep\",\"params\":{\"freq_hz\":1e6}}"));
    EXPECT_EQ(overloaded.status, 503);
    EXPECT_NE(overloaded.body.find("overloaded"), std::string::npos);
    const std::string *retry = overloaded.header("retry-after");
    ASSERT_NE(retry, nullptr);

    server.beginShutdown();
    server.wait();
    ::close(fd);
}

TEST(HttpConformance, ReadyzReportsDraining)
{
    auto ctx = bareContext();
    Server server(ctx, httpEnabledConfig());
    server.start();
    int port = server.httpPort();

    EXPECT_EQ(httpRequestForTest(port, simpleGet("/readyz")).status,
              200);
    server.beginShutdown();
    // The gateway keeps serving while the drain runs: liveness stays
    // green, readiness flips to 503 so a load balancer stops routing.
    HttpResponse ready = httpRequestForTest(port, simpleGet("/readyz"));
    EXPECT_EQ(ready.status, 503);
    EXPECT_EQ(ready.body, "draining\n");
    EXPECT_EQ(httpRequestForTest(port, simpleGet("/healthz")).status,
              200);
    server.wait();
}

// ---------------------------------------------------------------------
// Metrics correctness: /metrics vs the framed `stats` verb.

const vn::CoreModel &
testCore()
{
    static vn::CoreModel c;
    return c;
}

/** Reduced-cost kit (same recipe as test_service.cc). */
const vn::StressmarkKit &
testKit()
{
    static auto k = [] {
        bool prev = vn::setQuiet(true);
        vn::StressmarkKitParams params;
        params.epi_reps = 300;
        params.search.ipc_filter_keep = 32;
        params.search.ipc_eval_instrs = 200;
        params.search.power_eval_instrs = 800;
        vn::StressmarkKit built(testCore(), params);
        vn::setQuiet(prev);
        return built;
    }();
    return k;
}

/** Parse Prometheus text exposition into name{labels} -> value. */
std::map<std::string, double>
parseExposition(const std::string &text)
{
    std::map<std::string, double> values;
    size_t pos = 0;
    while (pos < text.size()) {
        size_t eol = text.find('\n', pos);
        if (eol == std::string::npos)
            eol = text.size();
        std::string line = text.substr(pos, eol - pos);
        pos = eol + 1;
        if (line.empty() || line[0] == '#')
            continue;
        size_t sp = line.rfind(' ');
        if (sp == std::string::npos)
            continue;
        values[line.substr(0, sp)] =
            std::strtod(line.c_str() + sp + 1, nullptr);
    }
    return values;
}

/** Assert every numeric leaf of a stats section matches /metrics.
 *  Counter sections get `_total` appended per leaf; gauge-flavored
 *  sections (resilience) use their leaf names as-is. */
void
expectSectionMatches(const Json &node, const std::string &path,
                     const std::map<std::string, double> &metrics,
                     bool append_total = true)
{
    if (node.isNumber()) {
        std::string name =
            "vnoised_" + path + (append_total ? "_total" : "");
        auto it = metrics.find(name);
        ASSERT_NE(it, metrics.end()) << name << " missing from /metrics";
        EXPECT_EQ(it->second, node.asNumber()) << name;
        return;
    }
    ASSERT_TRUE(node.isObject());
    for (const auto &[key, value] : node.members())
        expectSectionMatches(value, path + "_" + key, metrics,
                             append_total);
}

TEST(HttpMetrics, MetricsMatchFramedStatsExactly)
{
    vn::AnalysisContext ctx;
    ctx.kit = &testKit();
    ctx.window = 6e-6;
    ctx.unsync_draws = 2;
    ctx.consecutive_events = 200;
    ctx.campaign.cache_dir.clear();

    // Submit index 3 (the resilient sweep below; the three HTTP
    // sweeps take 0..2) is rejected `overloaded` once, forcing
    // exactly one retry into the resilience counters.
    ScriptedFaultHook hook(FaultSchedule().overloaded(3, 1, 2.0));
    ServerConfig config = httpEnabledConfig();
    config.dispatcher.fault = &hook;
    Server server(ctx, config);
    server.start();
    int http_port = server.httpPort();

    // Known outcomes: two distinct sweeps and a repeat over HTTP (the
    // repeat recomputes — sequential, so no coalescing guarantee), one
    // unknown verb and one ping over the framed protocol.
    for (const char *freq : {"2.4e6", "1.1e6", "2.4e6"}) {
        HttpResponse r = httpRequestForTest(
            http_port, jsonPost(std::string("{\"verb\":\"sweep\","
                                            "\"params\":{\"freq_hz\":") +
                                freq + ",\"synchronized\":true}}"));
        ASSERT_EQ(r.status, 200);
        Json body = Json::parse(r.body);
        ASSERT_TRUE(body.at("ok").asBool());
        EXPECT_EQ(body.at("result").at("freq_hz").asNumber(),
                  std::strtod(freq, nullptr));
    }

    Client client(server.port());
    EXPECT_EQ(client.ping(), kProtocolVersion);
    EXPECT_THROW(client.call("frobnicate", Json::object()),
                 ServiceError);

    // A resilient sweep wired to the server's registry: attempt one
    // is rejected by the fault hook, attempt two computes. The retry
    // and pool gauges land in the registry and must round-trip
    // through both encodings below.
    ResilientClientConfig rconfig;
    rconfig.port = server.port();
    rconfig.retry.backoff_base_ms = 1.0;
    rconfig.retry.backoff_cap_ms = 10.0;
    rconfig.retry.call_deadline_ms = 120000.0;
    rconfig.metrics = &server.metricsMutable();
    ResilientClient resilient(rconfig);
    FreqSweepPoint retried =
        resilient.sweep(SweepRequest{{3.3e6, true}});
    EXPECT_EQ(retried.freq_hz, 3.3e6);
    EXPECT_EQ(resilient.counters().retries, 1u);
    EXPECT_EQ(hook.injected(), 1u);

    // Durability counters are process-wide: a corrupt cache entry
    // encountered by ANY ResultCache in the process must surface in
    // this server's cache section — campaigns open short-lived cache
    // instances, so the section aggregates across them.
    runtime::CacheCounters cache_before =
        runtime::ResultCache::globalCounters();
    {
        std::string scratch_dir = "http_metrics_cache_scratch";
        std::filesystem::remove_all(scratch_dir);
        runtime::ResultCache scratch(scratch_dir);
        vn::KeyValueFile kv;
        kv.set("x", 1.0);
        ASSERT_TRUE(scratch.store(1, kv));
        for (const auto &entry :
             std::filesystem::directory_iterator(scratch_dir)) {
            std::ofstream out(entry.path(), std::ios::trunc);
            out << "torn";
        }
        EXPECT_FALSE(scratch.load(1).has_value());
        std::filesystem::remove_all(scratch_dir);
    }

    // Source of truth, encoding one: the framed stats document.
    Json stats = client.stats();
    // Encoding two: the Prometheus exposition. No requests run
    // between the two reads, so every counter must agree exactly.
    HttpResponse scrape =
        httpRequestForTest(http_port, simpleGet("/metrics"));
    ASSERT_EQ(scrape.status, 200);
    std::map<std::string, double> metrics =
        parseExposition(scrape.body);

    for (const char *section :
         {"requests", "batching", "campaign", "server"})
        expectSectionMatches(stats.at(section), section, metrics);
    // The resilience section mixes counters and gauges, so its leaves
    // already carry `_total` where they are counters.
    expectSectionMatches(stats.at("resilience"), "resilience", metrics,
                         /*append_total=*/false);
    // The cache durability section's leaves are pre-suffixed `_total`.
    expectSectionMatches(stats.at("cache"), "cache", metrics,
                         /*append_total=*/false);

    // The injected corruption above is visible, exactly once, in both
    // encodings.
    EXPECT_EQ(stats.at("cache").at("corrupt_total").asNumber(),
              static_cast<double>(cache_before.corrupt + 1));
    EXPECT_EQ(metrics.at("vnoised_cache_corrupt_total"),
              static_cast<double>(cache_before.corrupt + 1));
    EXPECT_NE(scrape.body.find(
                  "# TYPE vnoised_cache_corrupt_total counter"),
              std::string::npos);

    // Spot-check the known outcomes on both sides.
    EXPECT_EQ(metrics.at("vnoised_requests_completed_ok_total"), 4.0);
    EXPECT_EQ(metrics.at("vnoised_requests_rejected_overloaded_total"),
              1.0);
    EXPECT_EQ(metrics.at("vnoised_server_unknown_verbs_total"), 1.0);
    EXPECT_EQ(stats.at("requests").at("completed_ok").asNumber(), 4.0);

    // The resilient sweep's one retry (and its idle pooled
    // connection) are visible in both encodings.
    EXPECT_EQ(metrics.at("vnoised_resilience_retries_total"), 1.0);
    EXPECT_EQ(metrics.at("vnoised_resilience_breaker_opens_total"),
              0.0);
    EXPECT_EQ(metrics.at("vnoised_resilience_breaker_state"), 0.0);
    EXPECT_EQ(metrics.at("vnoised_resilience_pool_in_use"), 0.0);
    EXPECT_EQ(metrics.at("vnoised_resilience_pool_idle"), 1.0);
    EXPECT_NE(scrape.body.find(
                  "# TYPE vnoised_resilience_retries_total counter"),
              std::string::npos);
    EXPECT_NE(scrape.body.find(
                  "# TYPE vnoised_resilience_breaker_state gauge"),
              std::string::npos);

    // Histogram coherence: one latency observation per completion,
    // one batch-size observation per executed batch.
    double completed =
        stats.at("requests").at("completed_ok").asNumber() +
        stats.at("requests").at("completed_error").asNumber();
    EXPECT_EQ(metrics.at("vnoised_request_latency_ms_count"),
              completed);
    EXPECT_EQ(metrics.at("vnoised_batch_size_count"),
              stats.at("batching").at("batches").asNumber());
    // Buckets are cumulative and end at +Inf == count.
    EXPECT_EQ(
        metrics.at("vnoised_request_latency_ms_bucket{le=\"+Inf\"}"),
        completed);

    // The gateway accounts for itself too: the three sweep POSTs are
    // counted; the scrape increments after rendering its own text.
    EXPECT_EQ(metrics.at("vnoised_http_requests_total"), 3.0);
    EXPECT_EQ(metrics.at("vnoised_http_errors_total"), 0.0);

    server.beginShutdown();
    server.wait();
}

} // namespace
