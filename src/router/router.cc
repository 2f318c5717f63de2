#include "router/router.hh"

#include <algorithm>
#include <chrono>

#include "service/client.hh"
#include "service/codec.hh"
#include "util/logging.hh"

namespace vn::router
{

using service::Json;
using service::WireError;

namespace
{

/** ServiceError::what() is "code: message"; recover the message. */
std::string
errorMessage(const service::ServiceError &error)
{
    std::string what = error.what();
    std::string prefix = error.code() + ": ";
    if (what.compare(0, prefix.size(), prefix) == 0)
        return what.substr(prefix.size());
    return what;
}

} // namespace

Router::Router(RouterConfig config)
    : config_(std::move(config)), ring_(config_.ring),
      listener_("Router", [this](int fd, uint64_t) {
          handleConnection(fd);
      })
{
    if (config_.port < 0 || config_.port > 65535)
        fatal("Router: port must be in [0, 65535]");
    if (config_.max_frame_bytes < 64)
        fatal("Router: max_frame_bytes must be >= 64");
    if (config_.backends.empty())
        fatal("Router: at least one backend required");
    if (config_.backend_pool_size < 1)
        fatal("Router: backend_pool_size must be >= 1");

    for (const BackendConfig &bc : config_.backends) {
        auto backend = std::make_unique<Backend>();
        backend->config = bc;
        if (backend->config.name.empty())
            backend->config.name = "b" + std::to_string(bc.port);
        service::ResilientClientConfig rc;
        rc.port = bc.port;
        rc.pool_size = config_.backend_pool_size;
        rc.retry = config_.retry;
        rc.breaker = config_.breaker;
        backend->client =
            std::make_unique<service::ResilientClient>(rc);
        ring_.add(backend->config.name); // fatal() on duplicates
        backends_.push_back(std::move(backend));
    }

    if (!config_.cache_dir.empty())
        cache_ = std::make_unique<runtime::ResultCache>(
            config_.cache_dir);
}

Router::~Router()
{
    if (started_ && !waited_) {
        beginShutdown();
        wait();
    }
}

void
Router::start()
{
    if (started_)
        fatal("Router: start() called twice");
    started_at_ = std::chrono::steady_clock::now();

    // One synchronous probe round before accepting traffic: routing
    // decisions are well-defined the moment start() returns, with no
    // window where every request bounces off an unprobed fleet.
    probeBackends();

    listener_.start(config_.port, 0.0, config_.send_timeout_s);
    started_ = true;
    health_thread_ = std::thread([this] { healthLoop(); });

    if (config_.http_port >= 0) {
        service::HttpConfig http = config_.http;
        http.port = config_.http_port;
        http_ = std::make_unique<service::HttpGateway>(
            nullptr, metrics_, http,
            service::HttpGateway::Hooks{
                [this] { return statsJson(); },
                [this] { return shutting_down_.load(); },
            });
        http_->start();
    }
}

void
Router::installSignalHandlers()
{
    listener_.installSignalHandlers();
}

void
Router::beginShutdown()
{
    if (shutting_down_.exchange(true))
        return;
    health_cv_.notify_all();
    listener_.requestStop();
}

void
Router::wait()
{
    if (!started_ || waited_)
        return;
    waited_ = true;

    // Returns once beginShutdown() or a signal stopped the accept loop.
    listener_.awaitStopRequest();
    shutting_down_.store(true);
    health_cv_.notify_all();
    if (health_thread_.joinable())
        health_thread_.join();

    // Half-close the read side only: a reader mid-forward still owns a
    // writable socket, so the in-flight response goes out before its
    // thread sees EOF and exits — the router's version of the drain.
    listener_.stop(SHUT_RD);

    if (http_)
        http_->stop();
}

RouterCounters
Router::counters() const
{
    std::lock_guard<std::mutex> lock(counters_mutex_);
    RouterCounters counters = counters_;
    counters.connections = listener_.accepted();
    return counters;
}

size_t
Router::healthyBackends() const
{
    size_t healthy = 0;
    for (const auto &backend : backends_)
        if (backend->healthy.load())
            ++healthy;
    return healthy;
}

std::string
Router::fleetScope() const
{
    std::lock_guard<std::mutex> lock(state_mutex_);
    return fleet_scope_;
}

Router::Backend *
Router::backendByName(const std::string &name)
{
    for (auto &backend : backends_)
        if (backend->config.name == name)
            return backend.get();
    return nullptr;
}

void
Router::healthLoop()
{
    std::unique_lock<std::mutex> lock(health_mutex_);
    auto period = std::chrono::microseconds(static_cast<int64_t>(
        std::max(1.0, config_.health_period_ms) * 1000.0));
    while (!shutting_down_.load()) {
        health_cv_.wait_for(lock, period, [this] {
            return shutting_down_.load();
        });
        if (shutting_down_.load())
            return;
        lock.unlock();
        probeBackends();
        lock.lock();
    }
}

void
Router::probeBackends()
{
    struct Probe
    {
        bool alive = false;
        std::string scope;
        std::string advertise;
    };
    std::vector<Probe> probes(backends_.size());

    for (size_t i = 0; i < backends_.size(); ++i) {
        const BackendConfig &bc = backends_[i]->config;
        Probe &probe = probes[i];
        try {
            // A throwaway direct connection, not the forwarding slot:
            // probes must not consume pool capacity, trip the breaker,
            // or sit behind its retry backoff.
            service::Client ping(bc.port);
            Json pong = ping.call("ping", Json::object());
            auto text = [&pong](const char *field) -> std::string {
                return pong.has(field) && pong.at(field).isString()
                           ? pong.at(field).asString()
                           : std::string();
            };
            std::string version = text("code_version");
            if (version != runtime::kCodeVersionTag) {
                // A backend built from different code would serve
                // answers this router's cache tag cannot distinguish;
                // exclude it until it is redeployed.
                std::lock_guard<std::mutex> lock(counters_mutex_);
                ++counters_.version_skew;
                continue;
            }
            probe.scope = text("scope");
            probe.advertise = text("advertise");
            probe.alive = true;
        } catch (const service::ServiceError &) {
            continue; // refused/torn/errored: plainly unhealthy
        }
        if (probe.alive && bc.http_port >= 0) {
            // Drain-awareness: /readyz flips to 503 the moment the
            // backend starts draining, before its listener closes.
            try {
                service::HttpResponse ready =
                    service::httpRequestForTest(
                        bc.http_port,
                        "GET /readyz HTTP/1.1\r\n"
                        "Host: 127.0.0.1\r\n"
                        "Connection: close\r\n\r\n");
                probe.alive = ready.status == 200;
            } catch (const std::exception &) {
                probe.alive = false;
            }
        }
    }

    // Scope consensus: the first live backend (configuration order)
    // speaks for the fleet; dissenters are excluded, because mixing
    // scopes would hand one campaign answers from another's physics.
    std::string consensus;
    for (size_t i = 0; i < backends_.size(); ++i)
        if (probes[i].alive) {
            consensus = probes[i].scope;
            break;
        }
    for (size_t i = 0; i < backends_.size(); ++i) {
        if (probes[i].alive && probes[i].scope != consensus) {
            probes[i].alive = false;
            std::lock_guard<std::mutex> lock(counters_mutex_);
            ++counters_.scope_mismatch;
        }
    }

    {
        std::lock_guard<std::mutex> lock(state_mutex_);
        if (!consensus.empty())
            fleet_scope_ = consensus;
        for (size_t i = 0; i < backends_.size(); ++i) {
            if (!probes[i].alive)
                continue;
            backends_[i]->scope = probes[i].scope;
            backends_[i]->advertise = probes[i].advertise;
        }
    }
    for (size_t i = 0; i < backends_.size(); ++i)
        backends_[i]->healthy.store(probes[i].alive);
}

void
Router::handleConnection(int fd)
{
    Connection conn{fd};
    std::string payload;
    while (true) {
        service::FrameStatus status = service::readFrame(
            conn.fd, payload, config_.max_frame_bytes);
        if (status == service::FrameStatus::Oversized) {
            sendJson(conn,
                     service::makeErrorResponse(
                         Json(),
                         WireError{"oversized_frame",
                                   "frame exceeds " +
                                       std::to_string(
                                           config_.max_frame_bytes) +
                                       " bytes"}));
            break;
        }
        if (status != service::FrameStatus::Ok)
            break;

        {
            std::lock_guard<std::mutex> lock(counters_mutex_);
            ++counters_.frames;
        }
        bool proceed = false;
        try {
            proceed = handleFrame(conn, payload);
        } catch (const std::exception &e) {
            sendJson(conn,
                     service::makeErrorResponse(
                         Json(),
                         WireError{"internal_error", e.what()}));
        }
        if (!proceed)
            break;
    }
    service::lingerBeforeClose(conn.fd);
}

bool
Router::handleFrame(Connection &conn, const std::string &payload)
{
    auto arrival = std::chrono::steady_clock::now();

    Json request;
    try {
        request = Json::parse(payload);
    } catch (const service::JsonError &e) {
        {
            std::lock_guard<std::mutex> lock(counters_mutex_);
            ++counters_.malformed;
        }
        sendJson(conn,
                 service::makeErrorResponse(
                     Json(), WireError{"malformed_frame", e.what()}));
        return true;
    }
    if (!request.isObject()) {
        std::lock_guard<std::mutex> lock(counters_mutex_);
        ++counters_.malformed;
        sendJson(conn,
                 service::makeErrorResponse(
                     Json(),
                     WireError{"malformed_frame",
                               "request must be a JSON object"}));
        return true;
    }

    Json id = request.has("id") ? request.at("id") : Json();

    if (!request.has("verb") || !request.at("verb").isString()) {
        std::lock_guard<std::mutex> lock(counters_mutex_);
        ++counters_.bad_requests;
        sendJson(conn,
                 service::makeErrorResponse(
                     id, WireError{"bad_request",
                                   "missing string field 'verb'"}));
        return true;
    }
    std::string verb_name = request.at("verb").asString();
    std::optional<service::Verb> verb =
        service::verbFromName(verb_name);
    if (!verb) {
        std::lock_guard<std::mutex> lock(counters_mutex_);
        ++counters_.unknown_verbs;
        sendJson(conn,
                 service::makeErrorResponse(
                     id, WireError{"unknown_verb",
                                   "unknown verb '" + verb_name +
                                       "'"}));
        return true;
    }

    switch (*verb) {
    case service::Verb::Ping: {
        Json result = Json::object();
        result.set("pong", Json::boolean(true));
        result.set("protocol",
                   Json::number(static_cast<double>(
                       service::kProtocolVersion)));
        result.set("router", Json::boolean(true));
        result.set("code_version",
                   Json::str(
                       std::string(runtime::kCodeVersionTag)));
        result.set("scope", Json::str(fleetScope()));
        result.set("backends",
                   Json::number(
                       static_cast<double>(backends_.size())));
        result.set("healthy",
                   Json::number(
                       static_cast<double>(healthyBackends())));
        sendJson(conn, service::makeOkResponse(id, std::move(result)));
        return true;
    }
    case service::Verb::Stats: {
        sendJson(conn, service::makeOkResponse(id, statsJson()));
        return true;
    }
    case service::Verb::Shutdown: {
        Json result = Json::object();
        result.set("draining", Json::boolean(true));
        sendJson(conn, service::makeOkResponse(id, std::move(result)));
        beginShutdown();
        return true;
    }
    default:
        break;
    }

    service::AnyRequest typed;
    try {
        Json params = request.has("params") ? request.at("params")
                                            : Json::object();
        typed = service::decodeRequestParams(*verb, params);
    } catch (const service::JsonError &e) {
        {
            std::lock_guard<std::mutex> lock(counters_mutex_);
            ++counters_.bad_requests;
        }
        sendJson(conn,
                 service::makeErrorResponse(
                     id, WireError{"bad_request", e.what()}));
        return true;
    }

    if (request.has("deadline_ms")) {
        const Json &raw = request.at("deadline_ms");
        double ms = raw.isNumber() ? raw.asNumber() : -1.0;
        if (!raw.isNumber() || !(ms >= 0) || ms > 3.6e6) {
            std::lock_guard<std::mutex> lock(counters_mutex_);
            ++counters_.bad_requests;
            sendJson(conn,
                     service::makeErrorResponse(
                         id,
                         WireError{
                             "bad_request",
                             "deadline_ms must be a number in "
                             "[0, 3.6e6]"}));
            return true;
        }
        // The router forwards synchronously (no queue), so the only
        // expiry it can observe itself is a deadline that was already
        // zero on arrival; anything longer is enforced upstream.
        auto deadline = arrival + std::chrono::microseconds(
                                      static_cast<int64_t>(ms * 1e3));
        if (std::chrono::steady_clock::now() >= deadline) {
            sendJson(conn,
                     service::makeErrorResponse(
                         id,
                         WireError{"deadline_exceeded",
                                   "deadline expired before "
                                   "forwarding"}));
            return true;
        }
    }

    // The routing key is the request's canonical identity — the same
    // string the backend's dispatcher coalesces on and the campaign
    // cache keys by — so repeats of one computation always land on
    // one backend, where they coalesce instead of recomputing.
    std::string routing_key = service::requestKey(typed);
    forward(conn, id, *verb, routing_key,
            service::encodeRequestParams(typed),
            request.boolOr("accept_stream", false));
    return true;
}

namespace
{

/**
 * StreamSink that relays backend stream frames to a downstream
 * connection verbatim except for the frame id, which is rewritten
 * from the upstream request's id to the downstream client's. A failed
 * downstream write aborts the relay (Client then throws `aborted`,
 * which is never retried — the downstream is gone either way).
 */
class RelaySink : public service::StreamSink
{
  public:
    RelaySink(std::function<bool(const Json &)> writer, Json id)
        : writer_(std::move(writer)), id_(std::move(id))
    {}

    bool
    onStreamFrame(const Json &frame,
                  service::StreamFrameKind) override
    {
        ++frames_;
        Json out = frame;
        out.set("id", id_);
        return writer_(out);
    }

    uint64_t frames() const { return frames_; }

  private:
    std::function<bool(const Json &)> writer_;
    Json id_;
    uint64_t frames_ = 0;
};

} // namespace

void
Router::forward(Connection &conn, const Json &id, service::Verb verb,
                const std::string &routing_key, Json params,
                bool accept_stream)
{
    // Shared result tier first: a hit needs no backend at all. The key
    // folds in runtime::kCodeVersionTag (via keyFor) and the fleet
    // scope, so a code deploy or a scope change simply misses.
    std::string scope = fleetScope();
    uint64_t cache_key = 0;
    bool cacheable = cache_ != nullptr && !scope.empty();
    if (cacheable) {
        cache_key =
            runtime::ResultCache::keyFor(scope, routing_key);
        if (auto hit = cache_->loadText(cache_key)) {
            try {
                Json result = Json::parse(*hit);
                {
                    std::lock_guard<std::mutex> lock(counters_mutex_);
                    ++counters_.cache_hits;
                }
                sendJson(conn, service::makeOkResponse(
                                    id, std::move(result)));
                return;
            } catch (const service::JsonError &) {
                // Corrupt blob: treat as a miss, overwrite below.
            }
        }
    }

    // Owner plus first distinct successor, skipping unhealthy members
    // in ring order — exactly the arc-only remap the ring guarantees.
    Backend *primary = nullptr;
    Backend *fallback = nullptr;
    for (const std::string &name :
         ring_.ownersOf(routing_key, ring_.size())) {
        Backend *backend = backendByName(name);
        if (!backend || !backend->healthy.load())
            continue;
        if (!primary)
            primary = backend;
        else {
            fallback = backend;
            break;
        }
    }
    if (!primary) {
        {
            std::lock_guard<std::mutex> lock(counters_mutex_);
            ++counters_.no_backend;
        }
        sendJson(conn,
                 service::makeErrorResponse(
                     id, WireError{"overloaded",
                                   "no healthy backend",
                                   config_.health_period_ms}));
        return;
    }

    // Client-side codes that mean "this backend, not this request":
    // the ring successor gets one shot before the client hears about
    // it. Wire-level errors other than `overloaded` are relayed as-is.
    auto transportFailure = [](const std::string &code) {
        return code == "io_error" || code == "circuit_open" ||
               code == "shutting_down" || code == "bad_response";
    };
    auto relayError = [&](const service::ServiceError &error) {
        if (transportFailure(error.code()))
            return WireError{"overloaded",
                             "backend unreachable (" + error.code() +
                                 "); fleet rebalancing",
                             config_.health_period_ms};
        return WireError{error.code(), errorMessage(error),
                         error.retryAfterMs()};
    };
    auto bump = [this](uint64_t RouterCounters::* field) {
        std::lock_guard<std::mutex> lock(counters_mutex_);
        ++(counters_.*field);
    };

    // Relay mode: when the client opted in to streaming, backend
    // stream frames pass straight through with the id rewritten; a
    // mid-stream backend failure retries/fails over below and the
    // fresh stream_begin restarts the downstream reassembly.
    RelaySink sink(
        [this, &conn](const Json &frame) {
            return sendJsonChecked(conn, frame);
        },
        id);
    service::StreamSink *relay = accept_stream ? &sink : nullptr;

    Json result;
    Backend *served = nullptr;
    try {
        result = primary->client->call(service::verbName(verb), params,
                                       relay);
        served = primary;
    } catch (const service::ServiceError &primary_error) {
        if (transportFailure(primary_error.code())) {
            // Fail fast for every later request on this arc; the
            // health thread revives the backend when it answers again.
            primary->healthy.store(false);
            if (!fallback) {
                sendJson(conn, service::makeErrorResponse(
                                    id, relayError(primary_error)));
                return;
            }
            bump(&RouterCounters::rebalanced);
            try {
                result = fallback->client->call(
                    service::verbName(verb), params, relay);
                served = fallback;
            } catch (const service::ServiceError &fallback_error) {
                sendJson(conn, service::makeErrorResponse(
                                    id, relayError(fallback_error)));
                return;
            }
        } else if (primary_error.code() == "overloaded" &&
                   config_.hedge_on_overload && fallback) {
            bump(&RouterCounters::hedged);
            try {
                result = fallback->client->call(
                    service::verbName(verb), params, relay);
                served = fallback;
            } catch (const service::ServiceError &) {
                // The hedge failing must not rewrite the admission
                // story: relay the PRIMARY owner's reject with its
                // retry_after_ms hint byte-for-byte intact.
                sendJson(conn, service::makeErrorResponse(
                                    id, relayError(primary_error)));
                return;
            }
        } else {
            sendJson(conn, service::makeErrorResponse(
                                id, relayError(primary_error)));
            return;
        }
    }

    // A streamed relay already delivered every frame downstream and
    // returned a null result; there is nothing left to send, and
    // nothing frame-sized to cache.
    bool streamed = relay && sink.frames() > 0 && result.isNull();

    served->forwarded.fetch_add(1);
    bump(&RouterCounters::forwarded);
    if (streamed) {
        bump(&RouterCounters::streamed_relays);
        return;
    }
    if (cacheable && cache_->storeText(cache_key, result.dump()))
        bump(&RouterCounters::cache_stores);
    sendJson(conn, service::makeOkResponse(id, std::move(result)));
}

void
Router::sendJson(Connection &conn, const Json &response)
{
    (void)sendJsonChecked(conn, response);
}

bool
Router::sendJsonChecked(Connection &conn, const Json &response)
{
    if (!conn.open)
        return false;
    if (!service::writeFrame(conn.fd, response.dump())) {
        conn.open = false;
        ::shutdown(conn.fd, SHUT_RDWR);
        return false;
    }
    return true;
}

Json
Router::statsJson() const
{
    RouterCounters c = counters();
    auto u = [](uint64_t v) {
        return Json::number(static_cast<double>(v));
    };
    auto n = [](double v) { return Json::number(v); };

    Json router = Json::object();
    router.set("connections_total", u(c.connections));
    router.set("frames_total", u(c.frames));
    router.set("malformed_total", u(c.malformed));
    router.set("bad_requests_total", u(c.bad_requests));
    router.set("unknown_verbs_total", u(c.unknown_verbs));
    router.set("forwarded_total", u(c.forwarded));
    router.set("streamed_relays_total", u(c.streamed_relays));
    router.set("rebalanced_total", u(c.rebalanced));
    router.set("hedged_total", u(c.hedged));
    router.set("cache_hits_total", u(c.cache_hits));
    router.set("cache_stores_total", u(c.cache_stores));
    // Integrity framing surfaces torn/flipped shared-tier blobs as
    // counted misses (from the router's long-lived cache instance).
    router.set("cache_corrupt_total",
               u(cache_ ? cache_->counters().corrupt : 0));
    router.set("cache_store_failures_total",
               u(cache_ ? cache_->counters().store_failures : 0));
    router.set("no_backend_total", u(c.no_backend));
    router.set("version_skew_total", u(c.version_skew));
    router.set("scope_mismatch_total", u(c.scope_mismatch));
    router.set("backends", u(backends_.size()));
    router.set("healthy_backends", u(healthyBackends()));
    router.set("scope", Json::str(fleetScope()));

    Json backends = Json::object();
    for (const auto &backend : backends_) {
        service::ResilienceCounters rc = backend->client->counters();
        Json b = Json::object();
        b.set("healthy",
              n(backend->healthy.load() ? 1.0 : 0.0));
        b.set("ring_share", n(ring_.shareOf(backend->config.name)));
        b.set("forwarded_total", u(backend->forwarded.load()));
        b.set("breaker_state",
              n(static_cast<double>(
                  backend->client->breakerState())));
        b.set("breaker_opens_total", u(rc.breaker_opens));
        b.set("retries_total", u(rc.retries));
        backends.set(backend->config.name, std::move(b));
    }

    Json stats = Json::object();
    stats.set("protocol",
              Json::number(
                  static_cast<double>(service::kProtocolVersion)));
    stats.set("uptime_s",
              n(std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - started_at_)
                    .count()));
    stats.set("router", std::move(router));
    stats.set("backends", std::move(backends));
    return stats;
}

} // namespace vn::router
