/**
 * @file
 * Tests of the vnoise_router fleet layer:
 *
 *  - Ring.*: placement is a pure function of (seed, member set,
 *    vnodes) — deterministic, insertion-order independent — and
 *    removing a member remaps ONLY that member's arc; shares are
 *    positive and sum to one.
 *  - Router.*: the control plane — the extended ping handshake, scope
 *    consensus excluding a dissenting backend, the no-healthy-owner
 *    reject, and the /metrics + drain-aware /readyz gateway.
 *  - RouterForward.*: the regression for the relay contract — a
 *    backend's `overloaded` reject crosses the router with its
 *    retry_after_ms hint byte-for-byte intact, and a resilient client
 *    on the far side still honors the hint as a backoff floor.
 *  - RouterE2E.*: the acceptance run — an 8-client campaign through
 *    the router over 4 backends returns byte-identical results to a
 *    single-node vnoised, including when one backend is killed
 *    mid-campaign (its arc fails over, everyone else's placement is
 *    untouched).
 *  - RouterCache.*: a repeated request is answered from the shared
 *    content-addressed result tier without touching a backend.
 *  - RouterFaultReplay.*: seeded faultnet carnage in front of one
 *    backend of a 4-backend fleet is absorbed by slot retries + ring
 *    fail-over with zero client-visible errors and byte-identical
 *    results (scripts/check.sh runs this with two different seeds).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <csignal>
#include <cstdlib>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include "router/ring.hh"
#include "router/router.hh"
#include "service/client.hh"
#include "service/faultnet.hh"
#include "service/http.hh"
#include "service/resilient.hh"
#include "service/server.hh"

namespace
{

using namespace vn;
using namespace vn::service;
using vn::router::BackendConfig;
using vn::router::Ring;
using vn::router::RingConfig;
using vn::router::Router;
using vn::router::RouterConfig;
using vn::router::RouterCounters;

/** Context with no kit: control-verb tests never reach a
 *  computation. */
vn::AnalysisContext
bareContext()
{
    vn::AnalysisContext ctx;
    ctx.campaign.cache_dir.clear();
    return ctx;
}

const vn::CoreModel &
core()
{
    static vn::CoreModel c;
    return c;
}

/** Reduced-cost kit (same recipe as test_service.cc). */
const vn::StressmarkKit &
kit()
{
    static auto k = [] {
        bool prev = vn::setQuiet(true);
        vn::StressmarkKitParams params;
        params.epi_reps = 300;
        params.search.ipc_filter_keep = 32;
        params.search.ipc_eval_instrs = 200;
        params.search.power_eval_instrs = 800;
        vn::StressmarkKit built(core(), params);
        vn::setQuiet(prev);
        return built;
    }();
    return k;
}

/** A per-process scratch directory under the gtest temp root. */
std::string
scratchDir(const std::string &leaf)
{
    std::string dir = ::testing::TempDir() + "vnoise_router_" +
                      std::to_string(::getpid()) + "_" + leaf;
    ::mkdir(dir.c_str(), 0755);
    return dir;
}

/**
 * Compute-capable context. Every fleet member (and the single-node
 * reference) shares one campaign cache directory: identical scopes
 * mean the first computation of each sweep point is the only one, and
 * a cache replay is bit-identical by the tier-3 cache guarantee — so
 * the byte-identity assertions below are really exercising the relay
 * path, not burning CPU on repeated simulation.
 */
vn::AnalysisContext
computeContext()
{
    static std::string cache = scratchDir("campaign_cache");
    vn::AnalysisContext ctx;
    ctx.kit = &kit();
    ctx.window = 6e-6;
    ctx.unsync_draws = 2;
    ctx.consecutive_events = 200;
    ctx.campaign.cache_dir = cache;
    return ctx;
}

/** A loopback port that nothing listens on. */
int
deadPort()
{
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    EXPECT_EQ(::bind(fd, reinterpret_cast<sockaddr *>(&addr),
                     sizeof(addr)),
              0);
    socklen_t len = sizeof(addr);
    EXPECT_EQ(::getsockname(fd, reinterpret_cast<sockaddr *>(&addr),
                            &len),
              0);
    int port = ntohs(addr.sin_port);
    ::close(fd); // bound but never listened: connects are refused
    return port;
}

/** The spec family every compute test in this file draws from. */
SweepRequest
sweepSpec(int c)
{
    return SweepRequest{{1.0e6 + 2e5 * c, true}};
}

Json
sweepParams(int c)
{
    return encodeRequestParams(AnyRequest(sweepSpec(c)));
}

/** Router config with probe-only health (no background flapping). */
RouterConfig
routerConfig(std::vector<BackendConfig> backends)
{
    RouterConfig config;
    config.port = 0;
    config.backends = std::move(backends);
    config.health_period_ms = 60000.0; // start()'s probe round only
    return config;
}

// ---------------------------------------------------------------------
// Ring: pure placement.

TEST(Ring, PlacementIsDeterministicAndInsertionOrderIndependent)
{
    RingConfig config;
    config.vnodes = 64;
    config.seed = 7;

    Ring forward(config), reversed(config);
    for (const char *m : {"a", "b", "c", "d"})
        forward.add(m);
    for (const char *m : {"d", "c", "b", "a"})
        reversed.add(m);

    Ring again(config);
    for (const char *m : {"a", "b", "c", "d"})
        again.add(m);

    for (int i = 0; i < 500; ++i) {
        std::string key = "key" + std::to_string(i);
        EXPECT_EQ(forward.ownerOf(key), again.ownerOf(key))
            << "same config, same members, different placement";
        EXPECT_EQ(forward.ownerOf(key), reversed.ownerOf(key))
            << "placement must not depend on insertion order";
        EXPECT_EQ(forward.keyPoint(key), again.keyPoint(key));
    }

    // A different seed is a different ring.
    RingConfig other = config;
    other.seed = 8;
    Ring reseeded(other);
    for (const char *m : {"a", "b", "c", "d"})
        reseeded.add(m);
    int moved = 0;
    for (int i = 0; i < 500; ++i) {
        std::string key = "key" + std::to_string(i);
        moved += reseeded.ownerOf(key) != forward.ownerOf(key);
    }
    EXPECT_GT(moved, 0);
}

TEST(Ring, RemovingAMemberRemapsOnlyItsOwnArc)
{
    RingConfig config;
    config.vnodes = 64;
    config.seed = 1;

    Ring full(config);
    for (const char *m : {"s0", "s1", "s2", "s3"})
        full.add(m);

    const int kKeys = 2000;
    std::vector<std::string> before(kKeys);
    int victim_keys = 0;
    for (int i = 0; i < kKeys; ++i) {
        before[static_cast<size_t>(i)] =
            full.ownerOf("key" + std::to_string(i));
        victim_keys += before[static_cast<size_t>(i)] == "s2";
    }
    ASSERT_GT(victim_keys, 0) << "the victim must own some keys";

    full.remove("s2");
    EXPECT_FALSE(full.contains("s2"));
    EXPECT_EQ(full.size(), 3u);

    // Placement is a function of the member set: the shrunken ring is
    // the same ring one would have built without the victim.
    Ring rebuilt(config);
    for (const char *m : {"s0", "s1", "s3"})
        rebuilt.add(m);

    for (int i = 0; i < kKeys; ++i) {
        std::string key = "key" + std::to_string(i);
        const std::string &now = full.ownerOf(key);
        EXPECT_EQ(now, rebuilt.ownerOf(key));
        if (before[static_cast<size_t>(i)] != "s2")
            EXPECT_EQ(now, before[static_cast<size_t>(i)])
                << key << " moved although its owner survived";
        else
            EXPECT_NE(now, "s2");
    }
}

TEST(Ring, SharesArePositiveAndSumToOne)
{
    Ring ring;
    for (const char *m : {"a", "b", "c", "d"})
        ring.add(m);

    double sum = 0.0;
    for (const std::string &m : ring.members()) {
        double share = ring.shareOf(m);
        EXPECT_GT(share, 0.0);
        EXPECT_LT(share, 1.0);
        sum += share;
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);
    EXPECT_EQ(ring.shareOf("absent"), 0.0);

    // Fallback order: owner first, then distinct successors.
    std::vector<std::string> owners = ring.ownersOf("some key", 3);
    ASSERT_EQ(owners.size(), 3u);
    EXPECT_EQ(owners[0], ring.ownerOf("some key"));
    std::set<std::string> distinct(owners.begin(), owners.end());
    EXPECT_EQ(distinct.size(), owners.size());
    EXPECT_EQ(ring.ownersOf("some key", 10).size(), 4u)
        << "limit clamps to the member count";
}

// ---------------------------------------------------------------------
// Router: control plane.

TEST(Router, PingAnnouncesTheFleetAndItsScope)
{
    auto ctx = bareContext();
    ServerConfig sconfig;
    sconfig.port = 0;
    Server backend(ctx, sconfig);
    backend.start();

    Router router(routerConfig({{"b0", backend.port(), -1}}));
    router.start();
    EXPECT_EQ(router.healthyBackends(), 1u);
    EXPECT_EQ(router.fleetScope(), backend.scopeFingerprint());

    Client client(router.port());
    Json result = client.call("ping", Json::object());
    EXPECT_TRUE(result.at("pong").asBool());
    EXPECT_TRUE(result.at("router").asBool());
    EXPECT_EQ(result.at("protocol").asNumber(), kProtocolVersion);
    EXPECT_EQ(result.at("scope").asString(),
              backend.scopeFingerprint());
    EXPECT_EQ(result.at("backends").asNumber(), 1.0);
    EXPECT_EQ(result.at("healthy").asNumber(), 1.0);

    // The stats document carries the ring and per-backend telemetry.
    Json stats = client.call("stats", Json::object());
    EXPECT_EQ(stats.at("router").at("healthy_backends").asNumber(),
              1.0);
    EXPECT_EQ(stats.at("backends").at("b0").at("ring_share").asNumber(),
              1.0);

    router.beginShutdown();
    router.wait();
    backend.beginShutdown();
    backend.wait();
}

TEST(Router, DissentingScopeIsExcludedFromTheFleet)
{
    auto ctx_a = bareContext();
    auto ctx_b = bareContext();
    ctx_b.window = 9e-6; // a different campaign scope

    ServerConfig sconfig;
    sconfig.port = 0;
    Server a(ctx_a, sconfig);
    Server b(ctx_b, sconfig);
    a.start();
    b.start();
    ASSERT_NE(a.scopeFingerprint(), b.scopeFingerprint());

    // Consensus is the first live backend in config order: `a` wins,
    // `b` would silently compute different answers and is excluded.
    Router router(routerConfig(
        {{"a", a.port(), -1}, {"b", b.port(), -1}}));
    router.start();
    EXPECT_EQ(router.healthyBackends(), 1u);
    EXPECT_EQ(router.fleetScope(), a.scopeFingerprint());
    EXPECT_GE(router.counters().scope_mismatch, 1u);

    router.beginShutdown();
    router.wait();
    a.beginShutdown();
    a.wait();
    b.beginShutdown();
    b.wait();
}

TEST(Router, NoHealthyOwnerIsARetryableReject)
{
    // The lone backend never answers a probe: compute requests are
    // shed with `overloaded` and the health period as the retry hint.
    RouterConfig config = routerConfig({{"dead", deadPort(), -1}});
    Router router(config);
    router.start();
    EXPECT_EQ(router.healthyBackends(), 0u);

    Client client(router.port());
    try {
        client.call("sweep", sweepParams(0));
        FAIL() << "no healthy backend can own the key";
    } catch (const ServiceError &e) {
        EXPECT_EQ(e.code(), "overloaded");
        EXPECT_EQ(e.retryAfterMs(), config.health_period_ms);
    }
    EXPECT_EQ(router.counters().no_backend, 1u);

    // Control verbs still answer: the router itself is healthy.
    EXPECT_TRUE(
        client.call("ping", Json::object()).at("pong").asBool());

    router.beginShutdown();
    router.wait();
}

TEST(RouterDeathTest, SecondShutdownSignalExitsWith130)
{
    // Like vnoised: a second SIGINT/SIGTERM during a slow drain (a
    // reader waiting out a backend deadline) exits at once.
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    EXPECT_EXIT(
        {
            Router router(routerConfig({{"dead", deadPort(), -1}}));
            router.start();
            router.installSignalHandlers();
            std::raise(SIGTERM); // begins the drain
            std::raise(SIGTERM); // the operator is done waiting
            std::_Exit(0);
        },
        ::testing::ExitedWithCode(130), "");
}

TEST(Router, MetricsGatewayExposesRingStateAndDrains)
{
    auto ctx = bareContext();
    ServerConfig sconfig;
    sconfig.port = 0;
    Server backend(ctx, sconfig);
    backend.start();

    RouterConfig config = routerConfig({{"b0", backend.port(), -1}});
    config.http_port = 0;
    Router router(config);
    router.start();
    ASSERT_GE(router.httpPort(), 0);

    std::string get_metrics =
        "GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n";
    HttpResponse metrics =
        httpRequestForTest(router.httpPort(), get_metrics);
    EXPECT_EQ(metrics.status, 200);
    for (const char *series :
         {"vnoised_router_forwarded_total",
          "vnoised_router_rebalanced_total",
          "vnoised_router_hedged_total",
          "vnoised_router_healthy_backends",
          "vnoised_backends_b0_ring_share",
          "vnoised_backends_b0_breaker_state"})
        EXPECT_NE(metrics.body.find(series), std::string::npos)
            << "missing series " << series;

    std::string get_readyz = "GET /readyz HTTP/1.1\r\nHost: t\r\n\r\n";
    EXPECT_EQ(httpRequestForTest(router.httpPort(), get_readyz).status,
              200);
    router.beginShutdown();
    EXPECT_EQ(httpRequestForTest(router.httpPort(), get_readyz).status,
              503)
        << "a draining router must fail readiness before it stops";

    router.wait();
    backend.beginShutdown();
    backend.wait();
}

// ---------------------------------------------------------------------
// RouterForward: the relay contract for backpressure.

TEST(RouterForward, RetryAfterHintSurvivesTheRelayUnmodified)
{
    // The backend sheds the first two submissions with a distinctive
    // retry_after_ms. With slot retries disabled the router must relay
    // that reject — not absorb it, not rewrite the hint.
    auto ctx = computeContext();
    ScriptedFaultHook hook(FaultSchedule().overloaded(0, 2, 77.5));
    ServerConfig sconfig;
    sconfig.port = 0;
    sconfig.dispatcher.fault = &hook;
    Server backend(ctx, sconfig);
    backend.start();

    RouterConfig config = routerConfig({{"b0", backend.port(), -1}});
    config.retry.max_attempts = 1; // relay the reject, don't retry it
    Router router(config);
    router.start();
    ASSERT_EQ(router.healthyBackends(), 1u);

    // A plain client sees the backend's hint byte-for-byte.
    Client plain(router.port());
    try {
        plain.call("sweep", sweepParams(0));
        FAIL() << "the hook rejects the first submission";
    } catch (const ServiceError &e) {
        EXPECT_EQ(e.code(), "overloaded");
        EXPECT_EQ(e.retryAfterMs(), 77.5);
    }

    // A resilient client behind the router floors its backoff at the
    // relayed hint, exactly as it would against a bare vnoised.
    ResilientClientConfig rconfig;
    rconfig.port = router.port();
    rconfig.retry.max_attempts = 4;
    rconfig.retry.backoff_base_ms = 0.1;
    rconfig.retry.backoff_cap_ms = 1.0;
    ResilientClient resilient(rconfig);
    std::vector<double> delays;
    resilient.setSleepForTest(
        [&](double ms) { delays.push_back(ms); });

    Json result = resilient.call("sweep", sweepParams(0));
    EXPECT_TRUE(result.isObject());
    ASSERT_EQ(delays.size(), 1u);
    EXPECT_GE(delays[0], 77.5)
        << "the relayed retry_after_ms must floor the client backoff";
    EXPECT_EQ(hook.injected(), 2u);

    router.beginShutdown();
    router.wait();
    backend.beginShutdown();
    backend.wait();
}

// ---------------------------------------------------------------------
// RouterE2E: the acceptance run.

TEST(RouterE2E, FleetMatchesSingleNodeEvenWhenABackendDies)
{
    const int kClients = 8;

    // Single-node reference: the canonical 17-digit dumps.
    auto ctx = computeContext();
    ServerConfig sconfig;
    sconfig.port = 0;
    std::vector<std::string> reference;
    {
        Server single(ctx, sconfig);
        single.start();
        Client client(single.port());
        for (int c = 0; c < kClients; ++c)
            reference.push_back(
                client.call("sweep", sweepParams(c)).dump());
        single.beginShutdown();
        single.wait();
    }

    // The fleet: four backends with identical scopes.
    std::vector<std::unique_ptr<Server>> fleet;
    std::vector<BackendConfig> backends;
    for (int i = 0; i < 4; ++i) {
        fleet.push_back(std::make_unique<Server>(ctx, sconfig));
        fleet.back()->start();
        backends.push_back(
            {"s" + std::to_string(i), fleet.back()->port(), -1});
    }
    Router router(routerConfig(std::move(backends)));
    router.start();
    ASSERT_EQ(router.healthyBackends(), 4u);

    // 8 concurrent clients, one request each, through the router.
    std::vector<std::string> dumps(static_cast<size_t>(kClients));
    std::atomic<int> errors{0};
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c) {
        threads.emplace_back([&, c] {
            try {
                Client client(router.port());
                dumps[static_cast<size_t>(c)] =
                    client.call("sweep", sweepParams(c)).dump();
            } catch (const ServiceError &) {
                ++errors;
            }
        });
    }
    for (auto &t : threads)
        t.join();
    ASSERT_EQ(errors.load(), 0);
    for (int c = 0; c < kClients; ++c)
        EXPECT_EQ(dumps[static_cast<size_t>(c)],
                  reference[static_cast<size_t>(c)])
            << "request " << c
            << " diverged between fleet and single node";

    // Requests spread across the ring, not onto one backend.
    std::map<std::string, uint64_t> spread;
    Json stats = Json::parse(router.statsJson().dump());
    for (const auto &[name, b] : stats.at("backends").members())
        spread[name] = static_cast<uint64_t>(
            b.at("forwarded_total").asNumber());
    uint64_t busiest = 0;
    for (const auto &[name, count] : spread)
        busiest = std::max(busiest, count);
    EXPECT_LT(busiest, static_cast<uint64_t>(kClients))
        << "all 8 keys on one backend is not a ring";

    // Kill the backend that owns request 0's key, mid-campaign.
    std::string victim =
        router.ring().ownerOf(requestKey(AnyRequest(sweepSpec(0))));
    size_t victim_index =
        static_cast<size_t>(victim.back() - '0');
    ASSERT_LT(victim_index, fleet.size());
    fleet[victim_index]->beginShutdown();
    fleet[victim_index]->wait();

    // Every key still answers — the victim's arc fails over to its
    // ring successor, and results stay byte-identical (the successor
    // replays the shared campaign cache or recomputes the same math).
    Client after(router.port());
    for (int c = 0; c < kClients; ++c)
        EXPECT_EQ(after.call("sweep", sweepParams(c)).dump(),
                  reference[static_cast<size_t>(c)])
            << "request " << c << " diverged after backend loss";
    RouterCounters counters = router.counters();
    EXPECT_GE(counters.rebalanced, 1u)
        << "the victim's keys must have failed over";
    EXPECT_EQ(counters.no_backend, 0u);

    router.beginShutdown();
    router.wait();
    for (size_t i = 0; i < fleet.size(); ++i) {
        if (i == victim_index)
            continue;
        fleet[i]->beginShutdown();
        fleet[i]->wait();
    }
}

// ---------------------------------------------------------------------
// RouterCache: the shared result tier.

TEST(RouterCache, RepeatedRequestIsServedWithoutABackend)
{
    auto ctx = computeContext();
    ServerConfig sconfig;
    sconfig.port = 0;
    Server backend(ctx, sconfig);
    backend.start();

    RouterConfig config = routerConfig({{"b0", backend.port(), -1}});
    config.cache_dir = scratchDir("router_cache");
    Router router(config);
    router.start();

    Client client(router.port());
    std::string first = client.call("sweep", sweepParams(0)).dump();
    std::string second = client.call("sweep", sweepParams(0)).dump();
    EXPECT_EQ(first, second)
        << "a cache replay must be byte-identical to the forward";

    RouterCounters counters = router.counters();
    EXPECT_EQ(counters.forwarded, 1u)
        << "the repeat must not reach a backend";
    EXPECT_EQ(counters.cache_stores, 1u);
    EXPECT_EQ(counters.cache_hits, 1u);

    router.beginShutdown();
    router.wait();
    backend.beginShutdown();
    backend.wait();
}

// ---------------------------------------------------------------------
// RouterFaultReplay: seeded carnage (check.sh runs two seeds).

TEST(RouterFaultReplay, SeededFaultsAreAbsorbedAndReplayIdentically)
{
    uint64_t seed = 17;
    if (const char *env = std::getenv("VNOISE_FAULT_SEED"))
        seed = std::strtoull(env, nullptr, 10);

    const int kRequests = 4;
    auto ctx = computeContext();
    ServerConfig sconfig;
    sconfig.port = 0;
    std::vector<std::unique_ptr<Server>> fleet;
    for (int i = 0; i < 4; ++i) {
        fleet.push_back(std::make_unique<Server>(ctx, sconfig));
        fleet.back()->start();
    }

    auto campaign = [&](int s0_port,
                        RouterCounters *counters_out) {
        // 4-backend fleet; s0 is the (possibly proxied) one.
        std::vector<BackendConfig> backends = {{"s0", s0_port, -1}};
        for (int i = 1; i < 4; ++i)
            backends.push_back(
                {"s" + std::to_string(i), fleet[static_cast<size_t>(i)]->port(), -1});
        RouterConfig config = routerConfig(std::move(backends));
        config.retry.max_attempts = 4;
        config.retry.backoff_base_ms = 0.5;
        config.retry.backoff_cap_ms = 5.0;
        Router router(config);
        router.start();
        Client client(router.port());
        std::vector<std::string> dumps;
        for (int c = 0; c < kRequests; ++c)
            dumps.push_back(
                client.call("sweep", sweepParams(c)).dump());
        if (counters_out)
            *counters_out = router.counters();
        router.beginShutdown();
        router.wait();
        return dumps;
    };

    // Fault-free reference through the same fleet.
    std::vector<std::string> reference =
        campaign(fleet[0]->port(), nullptr);

    // The same campaign with seeded faults between the router and s0:
    // slot retries and arc fail-over must absorb every one of them.
    FaultSchedule schedule =
        FaultSchedule::random(seed, 2 * kRequests, 3);
    auto faulted = [&](RouterCounters *counters_out) {
        FaultProxy proxy(fleet[0]->port(), schedule);
        proxy.start();
        auto dumps = campaign(proxy.port(), counters_out);
        proxy.stop();
        return dumps;
    };

    RouterCounters first_counters;
    std::vector<std::string> first = faulted(&first_counters);
    ASSERT_EQ(first.size(), reference.size());
    for (int c = 0; c < kRequests; ++c)
        EXPECT_EQ(first[static_cast<size_t>(c)],
                  reference[static_cast<size_t>(c)])
            << "request " << c << " diverged under seed " << seed;
    EXPECT_EQ(first_counters.no_backend, 0u);

    // Replay: the same seed produces the same client-visible bytes.
    std::vector<std::string> second = faulted(nullptr);
    ASSERT_EQ(second.size(), first.size());
    for (int c = 0; c < kRequests; ++c)
        EXPECT_EQ(second[static_cast<size_t>(c)],
                  first[static_cast<size_t>(c)])
            << "replay diverged for request " << c;

    for (auto &server : fleet) {
        server->beginShutdown();
        server->wait();
    }
}

// ---------------------------------------------------------------------
// RouterStream: >1 MiB results relayed chunk-by-chunk through the
// router, never buffered inside it.

/** 60000 undecimated samples: ~1.2 MB encoded, past the frame cap. */
DroopTraceSpec
bigTraceSpec()
{
    DroopTraceSpec spec;
    spec.freq_hz = 2.4e6;
    spec.window = 6e-5;
    spec.core = 1;
    spec.decimation = 1;
    return spec;
}

/** The in-process campaign's canonical dump of the big trace; also
 *  warms the shared campaign cache so every backend replays it. */
const std::string &
bigTraceReferenceDump()
{
    static std::string dump = [] {
        auto ctx = computeContext();
        auto traces = droopTraces(
            ctx, std::vector<DroopTraceSpec>{bigTraceSpec()});
        return encodeResult(AnyResult(traces[0])).dump();
    }();
    return dump;
}

TEST(RouterStream, LargeTraceRelaysThroughTheFleetByteIdentical)
{
    auto ctx = computeContext();
    Json params =
        encodeRequestParams(AnyRequest(TraceRequest{bigTraceSpec()}));
    ASSERT_GT(bigTraceReferenceDump().size(), kDefaultMaxFrameBytes)
        << "the fixture must exceed the frame cap to prove anything";

    std::vector<std::unique_ptr<Server>> fleet;
    std::vector<BackendConfig> backends;
    for (int b = 0; b < 4; ++b) {
        ServerConfig server_config;
        server_config.port = 0;
        fleet.push_back(std::make_unique<Server>(ctx, server_config));
        fleet.back()->start();
        backends.push_back(BackendConfig{"node" + std::to_string(b),
                                         fleet.back()->port()});
    }

    // Shared result cache ON: the test proves streamed results bypass
    // it (they would not fit a response frame anyway).
    RouterConfig config = routerConfig(backends);
    config.cache_dir = scratchDir("router_stream_cache");
    Router router(config);
    router.start();
    ASSERT_EQ(router.healthyBackends(), 4u);

    // Twice through the router: both relays, both byte-identical to
    // the in-process campaign — and the second is NOT a cache answer,
    // because nothing was stored.
    Client client(router.port());
    client.setAcceptStream(true);
    for (int round = 0; round < 2; ++round) {
        Json result = client.call("trace", params);
        EXPECT_EQ(result.dump(), bigTraceReferenceDump())
            << "round " << round;
    }
    RouterCounters counters = router.counters();
    EXPECT_EQ(counters.streamed_relays, 2u);
    EXPECT_EQ(counters.forwarded, 2u);
    EXPECT_EQ(counters.cache_stores, 0u)
        << "a streamed result must never be buffered into the cache";
    EXPECT_EQ(counters.cache_hits, 0u);
    EXPECT_EQ(counters.rebalanced, 0u);

    // Single node, no router: the same bytes. The relay added and
    // removed nothing.
    Client direct(fleet[0]->port());
    direct.setAcceptStream(true);
    EXPECT_EQ(direct.call("trace", params).dump(),
              bigTraceReferenceDump());

    // A router client that did NOT opt in still gets the structured
    // reject, relayed from the backend.
    Client plain(router.port());
    try {
        plain.call("trace", params);
        ADD_FAILURE() << "expected result_too_large";
    } catch (const ServiceError &e) {
        EXPECT_EQ(e.code(), "result_too_large") << e.what();
    }

    for (auto &server : fleet) {
        server->beginShutdown();
        server->wait();
    }
}

TEST(RouterStream, BackendCutMidStreamFailsOverByteIdentical)
{
    auto ctx = computeContext();
    Json params =
        encodeRequestParams(AnyRequest(TraceRequest{bigTraceSpec()}));
    std::string routing_key =
        requestKey(AnyRequest(TraceRequest{bigTraceSpec()}));

    // Ring placement is a pure function of (seed, members, vnodes),
    // so the trace's owner is known before any socket exists — only
    // that backend gets the fault proxy.
    const std::vector<std::string> names = {"node0", "node1", "node2",
                                            "node3"};
    RouterConfig config = routerConfig({});
    Ring ring(config.ring);
    for (const std::string &name : names)
        ring.add(name);
    std::string owner = ring.ownerOf(routing_key);
    std::string successor = ring.ownersOf(routing_key, 2)[1];
    ASSERT_NE(owner, successor);

    std::vector<std::unique_ptr<Server>> fleet;
    std::map<std::string, int> ports;
    for (const std::string &name : names) {
        ServerConfig server_config;
        server_config.port = 0;
        fleet.push_back(std::make_unique<Server>(ctx, server_config));
        fleet.back()->start();
        ports[name] = fleet.back()->port();
    }

    // The owner's proxy: request 0 is the router's start() health
    // ping; requests 1 and 2 are the trace's two forward attempts
    // (the router's per-slot policy is max_attempts = 2). Cutting
    // both — once deep in the stream, once mid-chunk — kills the
    // owner for this request, forcing ring fail-over to the
    // successor, which restarts the stream from a fresh begin.
    FaultProxy proxy(ports[owner], FaultSchedule()
                                       .cutMidFrame(1, 300000)
                                       .cutMidFrame(2, 120000));
    proxy.start();

    for (const std::string &name : names)
        config.backends.push_back(BackendConfig{
            name, name == owner ? proxy.port() : ports[name]});
    Router router(config);
    router.start();
    ASSERT_EQ(router.healthyBackends(), 4u);

    Client client(router.port());
    client.setAcceptStream(true);
    Json result = client.call("trace", params);
    EXPECT_EQ(result.dump(), bigTraceReferenceDump())
        << "fail-over reassembly diverged from the campaign bytes";

    RouterCounters counters = router.counters();
    EXPECT_GE(counters.rebalanced, 1u);
    EXPECT_EQ(counters.streamed_relays, 1u);
    FaultProxyCounters faults = proxy.counters();
    EXPECT_EQ(faults.injected_cuts, 2u);
    EXPECT_GT(faults.relayed_stream_frames, 0u)
        << "the cuts must land mid-stream, not before it";

    proxy.stop();
    for (auto &server : fleet) {
        server->beginShutdown();
        server->wait();
    }
}

} // namespace
