#include "service/server.hh"

#include <algorithm>
#include <cstdio>

#include "analysis/campaigns.hh"
#include "runtime/cache.hh"
#include "runtime/hash.hh"
#include "util/logging.hh"
#include "util/stats.hh"

namespace vn::service
{

void
ServerConfig::validate() const
{
    if (port < 0 || port > 65535)
        fatal("Server: port must be in [0, 65535]");
    if (http_port > 65535)
        fatal("Server: http_port must be in [0, 65535], or negative "
              "for no gateway");
    if (max_frame_bytes < 64)
        fatal("Server: max_frame_bytes must be >= 64");
    dispatcher.validate();
}

Server::Server(const AnalysisContext &ctx, ServerConfig config)
    : config_(config),
      listener_("Server", [this](int fd, uint64_t index) {
          handleConnection(fd, index);
      })
{
    config_.validate();
    // Both listeners and the dispatcher share one registry, so the
    // framed `stats` verb and `/metrics` report the same numbers.
    config_.dispatcher.metrics = &metrics_;
    dispatcher_ = std::make_unique<Dispatcher>(ctx, config_.dispatcher);

    // Fingerprint of the campaign scope (chip config + windowing +
    // seed), announced in the `ping` handshake. A router refuses to
    // mix backends whose fingerprints disagree: they would compute
    // different answers for the same request.
    char hex[17];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(
                      runtime::fnv1a(analysisScope(ctx))));
    scope_fingerprint_ = hex;
}

Server::~Server()
{
    if (started_ && !waited_) {
        beginShutdown();
        wait();
    }
}

void
Server::start()
{
    // Set before the accept thread exists: `stats` reads it.
    started_at_ = Dispatcher::Clock::now();
    listener_.start(config_.port, 0.0, config_.send_timeout_s);
    dispatcher_->start();
    started_ = true;

    if (config_.http_port >= 0) {
        HttpConfig http = config_.http;
        http.port = config_.http_port;
        http_ = std::make_unique<HttpGateway>(
            dispatcher_.get(), metrics_, http,
            HttpGateway::Hooks{
                [this] { return statsJson(); },
                [this] { return shutting_down_.load(); },
            });
        http_->start();
    }
}

void
Server::installSignalHandlers()
{
    listener_.installSignalHandlers();
}

void
Server::beginShutdown()
{
    if (shutting_down_.exchange(true))
        return;
    listener_.requestStop();
}

void
Server::wait()
{
    if (!started_ || waited_)
        return;
    waited_ = true;

    // Returns once beginShutdown() or a signal stopped the accept loop.
    listener_.awaitStopRequest();
    shutting_down_.store(true);

    // Drain first: everything already admitted completes and its
    // response is written before any connection is torn down. With a
    // configured timeout the drain is bounded — a wedged batch must
    // not turn SIGTERM into a hang — and on expiry every
    // queued-but-unbatched request is answered `shutting_down` and
    // teardown proceeds without the batcher. drainedCleanly() reports
    // which way it went; a standalone daemon should then exit via
    // _Exit so the wedged thread is never joined.
    if (config_.drain_timeout_s > 0) {
        if (!dispatcher_->drainFor(config_.drain_timeout_s)) {
            size_t cancelled = dispatcher_->cancelPending();
            warn("Server: drain did not finish within ",
                 config_.drain_timeout_s, " s; cancelled ", cancelled,
                 " queued request(s)");
            drained_cleanly_.store(false);
        }
    } else {
        dispatcher_->drain();
    }

    listener_.stop(SHUT_RDWR);

    // The gateway outlives the drain so in-flight `/v1/query`
    // responses (completed by the drain above) are still written and
    // `/readyz` reports "draining" until the very end.
    if (http_)
        http_->stop();
}

ServerCounters
Server::serverCounters() const
{
    std::lock_guard<std::mutex> lock(counters_mutex_);
    ServerCounters counters = counters_;
    counters.connections = listener_.accepted();
    return counters;
}

void
Server::handleConnection(int fd, uint64_t index)
{
    auto conn = std::make_shared<Connection>();
    conn->fd = fd;
    // The 1-based accept ordinal doubles as the WFQ flow identity:
    // stable for the connection's lifetime, never reused.
    conn->client_id = index + 1;

    FrameStatus last = serveFrames(
        fd, config_.max_frame_bytes,
        [this, &conn](const std::string &payload) {
            return handleFrame(conn, payload);
        },
        [this, &conn](const Json &response) { sendJson(*conn, response); });
    if (last == FrameStatus::Oversized) {
        std::lock_guard<std::mutex> lock(counters_mutex_);
        ++counters_.oversized;
    }

    // The listener closes the socket once this thread is joined. A
    // completion firing later on the batcher thread takes the write
    // mutex and sees open == false, so it never writes to a closed —
    // possibly recycled — descriptor.
    std::lock_guard<std::mutex> lock(conn->write_mutex);
    conn->open.store(false);
}

bool
Server::handleFrame(const std::shared_ptr<Connection> &conn,
                    const std::string &payload)
{
    {
        std::lock_guard<std::mutex> lock(counters_mutex_);
        ++counters_.frames;
    }
    std::variant<DecodedRequest, RejectedRequest> decoded =
        decodeRequest(payload);
    if (auto *rejected = std::get_if<RejectedRequest>(&decoded)) {
        const std::string &code = rejected->error.code;
        uint64_t ServerCounters::*counter =
            code == "malformed_frame" ? &ServerCounters::malformed
            : code == "unknown_verb"  ? &ServerCounters::unknown_verbs
                                      : &ServerCounters::bad_requests;
        {
            std::lock_guard<std::mutex> lock(counters_mutex_);
            ++(counters_.*counter);
        }
        sendJson(*conn, makeErrorResponse(rejected->id, rejected->error));
        return true;
    }
    DecodedRequest &request = std::get<DecodedRequest>(decoded);
    switch (request.verb) {
    case Verb::Ping: {
        // Inline interactive verbs bypass the queue entirely; their
        // handling time feeds the interactive-tier histogram so the
        // tier's /metrics p99 covers them (the QoS bound the admission
        // tests assert).
        auto ping_start = Dispatcher::Clock::now();
        Json result = Json::object();
        result.set("pong", Json::boolean(true));
        result.set("protocol",
                   Json::number(static_cast<double>(kProtocolVersion)));
        // Handshake identity for fleet membership: a router checks
        // code_version against its own tag (version-skewed backends
        // are excluded so a deploy drains stale results) and scope
        // against the fleet consensus (a misconfigured backend would
        // silently compute different physics).
        result.set("code_version",
                   Json::str(std::string(runtime::kCodeVersionTag)));
        result.set("scope", Json::str(scope_fingerprint_));
        if (!config_.advertise.empty())
            result.set("advertise", Json::str(config_.advertise));
        sendJson(*conn, makeOkResponse(request.id, std::move(result)));
        metrics_.interactive_wait_ms.observe(
            std::chrono::duration<double, std::milli>(
                Dispatcher::Clock::now() - ping_start)
                .count());
        return true;
    }
    case Verb::Stats: {
        sendJson(*conn, makeOkResponse(request.id, statsJson()));
        return true;
    }
    case Verb::Shutdown: {
        Json result = Json::object();
        result.set("draining", Json::boolean(true));
        sendJson(*conn, makeOkResponse(request.id, std::move(result)));
        beginShutdown();
        return true;
    }
    default:
        break;
    }

    std::optional<Dispatcher::Clock::time_point> deadline;
    if (request.deadline_ms)
        deadline = Dispatcher::Clock::now() +
                   std::chrono::microseconds(static_cast<int64_t>(
                       *request.deadline_ms * 1000.0));

    dispatcher_->submit(
        std::move(request.request), deadline,
        [this, conn, id = std::move(request.id),
         accept_stream = request.accept_stream, verb = request.verb](
            std::variant<AnyResult, WireError> outcome) {
            if (std::holds_alternative<WireError>(outcome)) {
                sendJson(*conn,
                         makeErrorResponse(
                             id, std::get<WireError>(outcome)));
                return;
            }
            Json result = encodeResult(std::get<AnyResult>(outcome));
            std::string text = result.dump();
            if (text.size() <= streamThresholdBytes()) {
                sendJson(*conn, makeOkResponse(id, std::move(result)));
                return;
            }
            if (!accept_stream) {
                // Without the opt-in, an over-cap single frame would
                // desynchronize the client's reader; a structured
                // error it can parse is strictly better.
                {
                    std::lock_guard<std::mutex> lock(counters_mutex_);
                    ++counters_.result_too_large;
                }
                sendJson(*conn,
                         makeErrorResponse(
                             id,
                             WireError{
                                 "result_too_large",
                                 "result is " +
                                     std::to_string(text.size()) +
                                     " bytes; send accept_stream to "
                                     "receive it chunked"}));
                return;
            }
            sendStream(*conn, id, verb, text);
        },
        conn->client_id);
    return true;
}

size_t
Server::streamThresholdBytes() const
{
    if (config_.stream_threshold_bytes > 0)
        return config_.stream_threshold_bytes;
    // Auto: stream anything that could not ride one frame once the
    // response envelope is added.
    size_t headroom = 4096;
    return config_.max_frame_bytes > headroom
               ? config_.max_frame_bytes - headroom
               : config_.max_frame_bytes;
}

void
Server::sendStream(Connection &conn, const Json &id, Verb verb,
                   const std::string &result_text)
{
    // Worst-case JSON escaping doubles every data byte; clamp the
    // chunk so an escaped chunk plus envelope still fits one frame.
    size_t chunk_bytes = config_.stream_chunk_bytes;
    size_t wire_cap = (config_.max_frame_bytes - 256) / 2;
    if (chunk_bytes > wire_cap)
        chunk_bytes = wire_cap;
    if (chunk_bytes == 0)
        chunk_bytes = 1;
    size_t chunks = streamChunkCount(result_text.size(), chunk_bytes);

    // The whole stream goes out under the write mutex: frames of one
    // stream must never interleave with another response on this
    // connection. Chunk count is small (result bytes / 256 KiB) and
    // each write is bounded by SO_SNDTIMEO, so the hold is bounded.
    std::lock_guard<std::mutex> lock(conn.write_mutex);
    auto abort = [&] {
        std::lock_guard<std::mutex> clock(counters_mutex_);
        ++counters_.stream_aborts;
        conn.open.store(false);
        if (conn.fd >= 0)
            ::shutdown(conn.fd, SHUT_RDWR);
    };
    if (!conn.open.load()) {
        // Peer already hung up (reader saw EOF): reap, don't write.
        std::lock_guard<std::mutex> clock(counters_mutex_);
        ++counters_.stream_aborts;
        return;
    }
    {
        std::lock_guard<std::mutex> clock(counters_mutex_);
        ++counters_.streams;
    }
    if (!writeFrame(conn.fd,
                    makeStreamBegin(id, verbName(verb),
                                    result_text.size(), chunks,
                                    chunk_bytes)
                        .dump())) {
        abort();
        return;
    }
    for (size_t seq = 0; seq < chunks; ++seq) {
        if (!conn.open.load()) {
            abort();
            return;
        }
        size_t offset = seq * chunk_bytes;
        size_t len = std::min(chunk_bytes, result_text.size() - offset);
        if (!writeFrame(conn.fd,
                        makeStreamChunk(id, seq,
                                        result_text.substr(offset, len))
                            .dump())) {
            abort();
            return;
        }
        std::lock_guard<std::mutex> clock(counters_mutex_);
        ++counters_.stream_chunks;
    }
    if (!writeFrame(conn.fd,
                    makeStreamEnd(id, chunks,
                                  streamChecksumHex(result_text))
                        .dump()))
        abort();
}

void
Server::sendJson(Connection &conn, const Json &response)
{
    std::lock_guard<std::mutex> lock(conn.write_mutex);
    if (!conn.open.load())
        return;
    if (!writeFrame(conn.fd, response.dump())) {
        // Dead or stuck peer (SO_SNDTIMEO expired): give up on it and
        // wake its reader out of readFrame so the connection is
        // reaped instead of lingering half-dead.
        conn.open.store(false);
        ::shutdown(conn.fd, SHUT_RDWR);
    }
}

Json
Server::statsJson() const
{
    ServiceCounters c = dispatcher_->counters();
    ServerCounters s = serverCounters();
    std::vector<double> latency = dispatcher_->latencySamplesMs();

    auto n = [](double v) { return Json::number(v); };
    auto u = [](uint64_t v) {
        return Json::number(static_cast<double>(v));
    };

    Json requests = Json::object();
    requests.set("received", u(c.received));
    requests.set("admitted", u(c.admitted));
    requests.set("completed_ok", u(c.completed_ok));
    requests.set("completed_error", u(c.completed_error));
    requests.set("rejected_overloaded", u(c.rejected_overloaded));
    requests.set("rejected_shutdown", u(c.rejected_shutdown));
    requests.set("deadline_expired", u(c.deadline_expired));

    Json batching = Json::object();
    batching.set("batches", u(c.batches));
    batching.set("coalesced", u(c.coalesced));

    Json campaign = Json::object();
    campaign.set("jobs", u(c.campaign.jobs));
    campaign.set("cache_hits", u(c.campaign.cache_hits));
    campaign.set("executed", u(c.campaign.executed));
    campaign.set("retries", u(c.campaign.retries));
    campaign.set("failures", u(c.campaign.failures));
    campaign.set("journal_skips", u(c.campaign.journal_skips));
    campaign.set("cache_corrupt", u(c.campaign.cache_corrupt));
    campaign.set("steals", u(c.campaign.steals));

    // Result-cache durability series, from the process-wide aggregate
    // (batch campaigns open short-lived cache instances, so instance
    // counters alone would vanish with them). Leaves carry `_total`
    // so the Prometheus renderer exports them as counters — e.g.
    // `vnoised_cache_corrupt_total`.
    runtime::CacheCounters cache_counters =
        runtime::ResultCache::globalCounters();
    Json cache = Json::object();
    cache.set("corrupt_total", u(cache_counters.corrupt));
    cache.set("store_failures_total",
              u(cache_counters.store_failures));
    cache.set("tmp_reaped_total", u(cache_counters.tmp_reaped));
    cache.set("scrub_runs_total", u(cache_counters.scrub_runs));
    cache.set("scrub_scanned_total", u(cache_counters.scrub_scanned));
    cache.set("scrub_quarantined_total",
              u(cache_counters.scrub_quarantined));

    Json server = Json::object();
    server.set("connections", u(s.connections));
    server.set("frames", u(s.frames));
    server.set("malformed", u(s.malformed));
    server.set("oversized", u(s.oversized));
    server.set("unknown_verbs", u(s.unknown_verbs));
    server.set("bad_requests", u(s.bad_requests));
    server.set("streams", u(s.streams));
    server.set("stream_chunks", u(s.stream_chunks));
    server.set("stream_aborts", u(s.stream_aborts));
    server.set("result_too_large", u(s.result_too_large));

    // Per-tier admission series. Cumulative leaves carry the `_total`
    // suffix so the Prometheus renderer exports them as counters;
    // depth and the wait percentiles are gauges.
    Json admission = Json::object();
    for (int t = 0; t < kNumTiers; ++t) {
        Tier tier = static_cast<Tier>(t);
        std::string prefix = tierName(tier);
        admission.set(prefix + "_admitted_total",
                      u(c.tier[t].admitted));
        admission.set(prefix + "_rejected_overloaded_total",
                      u(c.tier[t].rejected_overloaded));
        admission.set(prefix + "_promoted_total",
                      u(c.tier[t].promoted));
        admission.set(prefix + "_depth", u(c.tier[t].depth));
        std::vector<double> waits =
            dispatcher_->tierWaitSamplesMs(tier);
        admission.set(prefix + "_wait_p50_ms",
                      n(percentile(waits, 50.0)));
        admission.set(prefix + "_wait_p99_ms",
                      n(percentile(waits, 99.0)));
    }

    // Client-resilience series (ResilientClient wired to this
    // registry); all zero unless an in-process client is configured
    // with metricsMutable(). `_total` leaves render as Prometheus
    // counters, the rest as gauges.
    Json resilience = Json::object();
    resilience.set("retries_total", u(metrics_.retries.value()));
    resilience.set("breaker_opens_total",
                   u(metrics_.breaker_opens.value()));
    resilience.set("breaker_state",
                   n(static_cast<double>(
                       metrics_.breaker_state.value())));
    resilience.set("pool_in_use",
                   n(static_cast<double>(
                       metrics_.pool_in_use.value())));
    resilience.set("pool_idle",
                   n(static_cast<double>(metrics_.pool_idle.value())));

    Json latency_ms = Json::object();
    latency_ms.set("window", u(latency.size()));
    latency_ms.set("p50", n(percentile(latency, 50.0)));
    latency_ms.set("p99", n(percentile(latency, 99.0)));

    Json stats = Json::object();
    stats.set("protocol",
              Json::number(static_cast<double>(kProtocolVersion)));
    stats.set("uptime_s",
              n(std::chrono::duration<double>(
                    Dispatcher::Clock::now() - started_at_)
                    .count()));
    stats.set("threads",
              Json::number(
                  static_cast<double>(dispatcher_->threads())));
    stats.set("requests", std::move(requests));
    stats.set("batching", std::move(batching));
    stats.set("campaign", std::move(campaign));
    stats.set("cache", std::move(cache));
    stats.set("server", std::move(server));
    stats.set("admission", std::move(admission));
    stats.set("resilience", std::move(resilience));
    stats.set("latency_ms", std::move(latency_ms));
    return stats;
}

} // namespace vn::service
