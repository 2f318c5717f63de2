/**
 * @file
 * serve_direct / serve_routed: an open-loop request schedule against an
 * in-process vnoised, either directly or through an in-process
 * vnoise_router in front of two backends.
 *
 * Requests are due at a fixed rate whatever the server does, and each
 * request's latency runs from its due time, so a stall that delays
 * later sends counts against them. Four sender threads share one
 * ResilientClient whose pool holds at most four connections.
 */

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <limits>
#include <optional>
#include <stdexcept>
#include <thread>

#include "router/router.hh"
#include "service/resilient.hh"
#include "service/server.hh"
#include "vnbench.hh"

namespace vnbench
{

namespace
{

namespace fs = std::filesystem;
using vn::service::AnyRequest;
using vn::service::AnyResult;

/**
 * Open-loop rate (requests per host second). The two-worker daemon
 * sustains about 200 req/s of the mix below, but from about 100 req/s
 * the median request waits behind a running batch instead of being
 * answered from the cache. 50 req/s, about a quarter of capacity, keeps
 * the median on the cache-hit path (README.md, "Rate").
 */
constexpr double kRate = 50.0;

/** A response later than this misses the dashboard's refresh. */
constexpr double kLimitMs = 500.0;

constexpr int kConnections = 4;
constexpr size_t kHotSweeps = 16;
constexpr size_t kVerifySamples = 16;

/** Map requests use MapRequest's default stimulus frequency. */
constexpr double kMapFreq = 2e6;

/**
 * The hot streamed trace: 60000 undecimated samples encode to ~1.2 MB,
 * past the 1 MiB frame cap, so it travels as a chunked stream.
 */
const vn::DroopTraceSpec kTrace{2.4e6, 6e-5, 1, 1};

enum class Kind
{
    HotSweep,
    ColdSweep,
    Map,
    Trace,
};

const char *
spanName(Kind kind)
{
    switch (kind) {
    case Kind::HotSweep: return "client.sweep_hot";
    case Kind::ColdSweep: return "client.sweep_cold";
    case Kind::Map: return "client.map";
    case Kind::Trace: return "client.trace";
    }
    return "client";
}

struct Request
{
    Kind kind = Kind::HotSweep;
    double due_s = 0.0;  //!< offset from the start of its phase
    AnyRequest request;
    size_t hot = 0;      //!< index into the hot set (HotSweep only)
};

struct Schedule
{
    std::vector<vn::SweepPointSpec> hot;
    std::vector<Request> requests;
};

/** A sweep point whose co-simulation window is the 8 us floor. */
vn::SweepPointSpec
randomPoint(vn::Rng &rng, bool synchronized)
{
    return {2e6 * std::pow(25.0, rng.uniform()), synchronized};
}

/**
 * Requests per frame, and the frame slots of the heavy requests; every
 * other slot is a hot sweep. A frame is 90% hot sweeps, 6% cold sweeps
 * (fresh frequencies, alternately synchronized), 2% maps (distinct
 * mappings) and 2% hot streamed traces. Heavy slots are spread so that
 * no two heavy requests queue behind each other at the nominal rate,
 * which keeps the tail from depending on where the seed happens to put
 * them.
 */
constexpr size_t kFrame = 50;
constexpr size_t kMapSlot = 0;
constexpr size_t kColdSlots[] = {8, 17, 42};
constexpr size_t kTraceSlot = 25;

Kind
slotKind(size_t slot)
{
    if (slot == kMapSlot)
        return Kind::Map;
    if (slot == kTraceSlot)
        return Kind::Trace;
    for (size_t c : kColdSlots)
        if (slot == c)
            return Kind::ColdSweep;
    return Kind::HotSweep;
}

/**
 * `frames` frames of the mix above. The seed draws the operands: the
 * hot set, which hot point each hot slot asks for, the cold
 * frequencies and the mappings.
 */
Schedule
makeSchedule(uint64_t seed, size_t frames)
{
    vn::Rng rng(seed);
    Schedule s;
    for (size_t i = 0; i < kHotSweeps; ++i)
        s.hot.push_back(randomPoint(rng, i % 2 == 0));

    std::vector<int> codes(729);
    for (int c = 0; c < 729; ++c)
        codes[static_cast<size_t>(c)] = c;
    for (size_t i = codes.size() - 1; i > 0; --i)
        std::swap(codes[i], codes[rng.below(i + 1)]);

    size_t cold_seen = 0, maps_seen = 0;
    for (size_t i = 0; i < frames * kFrame; ++i) {
        Request r;
        r.kind = slotKind(i % kFrame);
        r.due_s = static_cast<double>(i) / kRate;
        switch (r.kind) {
        case Kind::HotSweep:
            r.hot = rng.below(kHotSweeps);
            r.request = vn::service::SweepRequest{s.hot[r.hot]};
            break;
        case Kind::ColdSweep:
            r.request = vn::service::SweepRequest{
                randomPoint(rng, cold_seen++ % 2 == 0)};
            break;
        case Kind::Map: {
            int code = codes[maps_seen++ % codes.size()];
            vn::Mapping mapping;
            for (int c = 0; c < vn::kNumCores; ++c, code /= 3)
                mapping[c] = static_cast<vn::WorkloadClass>(code % 3);
            r.request = vn::service::MapRequest{mapping, kMapFreq};
            break;
        }
        case Kind::Trace:
            r.request = vn::service::TraceRequest{kTrace};
            break;
        }
        s.requests.push_back(std::move(r));
    }
    return s;
}

/**
 * One set-up: the kit, the daemon(s), the router, and the library
 * values every hot response must equal. Members are destroyed in
 * reverse order, so the router stops before its backends and the
 * backends before the kit they borrow.
 */
struct Deployment
{
    std::unique_ptr<vn::StressmarkKit> kit;
    vn::AnalysisContext ctx;
    std::vector<uint64_t> hot_ref; //!< digests of the hot set's values
    uint64_t trace_ref = 0;
    std::vector<std::unique_ptr<vn::service::Server>> servers;
    std::unique_ptr<vn::router::Router> router;

    int port() const
    {
        return router ? router->port() : servers.front()->port();
    }
};

std::unique_ptr<Deployment>
deploy(const Options &options, const Schedule &schedule, bool routed,
       const std::string &cache_dir)
{
    auto d = std::make_unique<Deployment>();
    d->kit = loadKit(options);
    vn::AnalysisContext &ctx = d->ctx;
    ctx.kit = d->kit.get();
    ctx.window = 8e-6; // serving prices the request path, not accuracy
    ctx.unsync_draws = 4;
    ctx.consecutive_events = 1000;
    ctx.seed = options.seed;
    ctx.campaign.jobs = 2;
    ctx.campaign.lanes = 8;
    ctx.campaign.cache_dir = cache_dir;

    // Warm the hot set through the library into the daemons' cache.
    for (const vn::FreqSweepPoint &p :
         vn::sweepStimulusPoints(ctx, schedule.hot))
        d->hot_ref.push_back(bitsOf(p));
    d->trace_ref = bitsOf(vn::droopTraces(ctx, {&kTrace, 1}).front());

    vn::service::ServerConfig config;
    config.dispatcher.queue_depth = 256;
    config.dispatcher.max_batch = 64;
    // Routed: two single-worker backends sharing one campaign cache,
    // so both deployments run two campaign workers.
    vn::AnalysisContext backend = ctx;
    backend.campaign.jobs = routed ? 1 : 2;
    for (int i = 0; i < (routed ? 2 : 1); ++i) {
        d->servers.push_back(
            std::make_unique<vn::service::Server>(backend, config));
        d->servers.back()->start();
    }
    if (routed) {
        vn::router::RouterConfig rc;
        for (size_t i = 0; i < d->servers.size(); ++i)
            rc.backends.push_back({"b" + std::to_string(i),
                                   d->servers[i]->port(), -1});
        rc.backend_pool_size = kConnections;
        d->router = std::make_unique<vn::router::Router>(std::move(rc));
        d->router->start();
    }
    return d;
}

/** What one request did. */
struct Sample
{
    double latency_ms = std::numeric_limits<double>::infinity(); //!< from due
    double service_ms = 0.0; //!< from send
    double late_ms = 0.0;    //!< send time minus due time
    bool ok = false;
    std::optional<AnyResult> cold; //!< kept for verification
};

/** Counters of every daemon and the router, summed, at one instant. */
struct Snapshot
{
    vn::service::ServiceCounters service;
    uint64_t streams = 0;
    uint64_t stream_chunks = 0;
    vn::router::RouterCounters router;
    size_t fact_hits = 0;
    size_t fact_misses = 0;
    //! Per daemon: dispatch latency samples, then each tier's waits.
    std::vector<std::array<size_t, 1 + vn::service::kNumTiers>> samples;
};

/** One daemon's dispatcher samples: latencies, or one tier's waits. */
std::vector<double>
dispatcherSamples(const vn::service::Server &server, int which)
{
    const vn::service::Dispatcher &dispatcher = server.dispatcher();
    return which == 0 ? dispatcher.latencySamplesMs()
                      : dispatcher.tierWaitSamplesMs(
                            static_cast<vn::service::Tier>(which - 1));
}

Snapshot
snapshot(const Deployment &d)
{
    Snapshot s;
    for (const auto &server : d.servers) {
        vn::service::ServiceCounters c = server->dispatcher().counters();
        s.service.completed_ok += c.completed_ok;
        s.service.completed_error += c.completed_error;
        s.service.rejected_overloaded += c.rejected_overloaded;
        s.service.batches += c.batches;
        s.service.coalesced += c.coalesced;
        s.service.campaign.add(c.campaign);
        vn::service::ServerCounters w = server->serverCounters();
        s.streams += w.streams;
        s.stream_chunks += w.stream_chunks;
        auto &counts = s.samples.emplace_back();
        for (size_t k = 0; k < counts.size(); ++k)
            counts[k] = dispatcherSamples(*server, static_cast<int>(k)).size();
    }
    if (d.router)
        s.router = d.router->counters();
    s.fact_hits = vn::FactorizationCache::global().hits();
    s.fact_misses = vn::FactorizationCache::global().misses();
    return s;
}

/**
 * Dispatcher samples recorded after a snapshot, over every daemon:
 * `which` 0 is dispatch latency, 1 + tier a tier's admission waits. The
 * rings keep the last 2048 samples in arrival order, more than a run.
 */
std::vector<double>
samplesSince(const Deployment &d, const Snapshot &from, int which)
{
    std::vector<double> out;
    for (size_t i = 0; i < d.servers.size(); ++i) {
        std::vector<double> all = dispatcherSamples(*d.servers[i], which);
        size_t skip = std::min(all.size(), from.samples[i][which]);
        out.insert(out.end(), all.begin() + static_cast<long>(skip),
                   all.end());
    }
    return out;
}

/** Send one request and wait for its result. */
AnyResult
call(vn::service::ResilientClient &client, const Request &r)
{
    switch (r.kind) {
    case Kind::HotSweep:
    case Kind::ColdSweep:
        return client.sweep(std::get<vn::service::SweepRequest>(r.request));
    case Kind::Map:
        return client.map(std::get<vn::service::MapRequest>(r.request));
    case Kind::Trace:
        return client.trace(std::get<vn::service::TraceRequest>(r.request));
    }
    throw std::logic_error("vnbench: unknown request kind");
}

/**
 * Check a response once its latency is taken: hot sweeps and traces
 * against the set-up's library values, bit for bit; cold responses are
 * kept for verifyCold().
 */
bool
check(const Request &r, const Deployment &d, AnyResult result, Sample &sample)
{
    switch (r.kind) {
    case Kind::HotSweep:
        return bitsOf(std::get<vn::FreqSweepPoint>(result)) ==
               d.hot_ref[r.hot];
    case Kind::Trace:
        return bitsOf(std::get<vn::DroopTrace>(result)) == d.trace_ref;
    case Kind::ColdSweep:
    case Kind::Map:
        sample.cold = std::move(result);
        return true;
    }
    return false;
}

/** Load-generator state of one phase. */
struct Phase
{
    size_t begin = 0;
    size_t end = 0;
    double wall_s = 0.0;
    double late_max_ms = 0.0;
    int in_flight_max = 0;
};

void
drive(const Deployment &d, const Schedule &s, std::vector<Sample> &samples,
      Phase &phase, Tracer *tracer)
{
    vn::service::ResilientClientConfig rc;
    rc.port = d.port();
    rc.pool_size = kConnections;
    rc.retry.call_deadline_ms = 10000.0;
    vn::service::ResilientClient client(rc);
    client.setAcceptStream(true);

    std::atomic<size_t> next{phase.begin};
    std::atomic<int> in_flight{0};
    std::atomic<int> in_flight_max{0};
    const double offset = s.requests[phase.begin].due_s;
    // A short lead lets every sender reach its first sleep.
    const Clock::time_point start =
        Clock::now() + std::chrono::milliseconds(20);
    SpanScope root(tracer, "loadgen.phase");

    auto sender = [&] {
        for (size_t i = next++; i < phase.end; i = next++) {
            const Request &r = s.requests[i];
            Clock::time_point due =
                start + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(r.due_s - offset));
            std::this_thread::sleep_until(due);
            Clock::time_point sent = Clock::now();
            int now_in_flight = ++in_flight;
            int seen = in_flight_max.load();
            while (now_in_flight > seen &&
                   !in_flight_max.compare_exchange_weak(seen, now_in_flight))
                ;
            Sample &sample = samples[i];
            std::optional<AnyResult> result;
            try {
                SpanScope span(tracer, spanName(r.kind), root.id(),
                               static_cast<int64_t>(i));
                result = call(client, r);
            } catch (const std::exception &e) {
                vn::warn("vnbench: request ", i, " failed: ", e.what());
            }
            Clock::time_point done = Clock::now();
            --in_flight;
            sample.ok = result && check(r, d, std::move(*result), sample);
            sample.late_ms = msBetween(due, sent);
            sample.service_ms = msBetween(sent, done);
            sample.latency_ms =
                sample.ok ? msBetween(due, done)
                          : std::numeric_limits<double>::infinity();
        }
    };
    std::vector<std::thread> senders;
    for (int t = 0; t < kConnections; ++t)
        senders.emplace_back(sender);
    for (std::thread &t : senders)
        t.join();
    phase.wall_s = secondsSince(start);
    phase.in_flight_max = in_flight_max.load();
    for (size_t i = phase.begin; i < phase.end; ++i)
        phase.late_max_ms = std::max(phase.late_max_ms, samples[i].late_ms);
}

/**
 * Recompute sampled cold responses through the library with a fresh,
 * cache-less context; returns how many disagreed (and marks them).
 */
uint64_t
verifyCold(const Deployment &d, const Schedule &s,
           std::vector<Sample> &samples, uint64_t seed)
{
    std::vector<size_t> cold;
    for (size_t i = 0; i < samples.size(); ++i)
        if (samples[i].cold)
            cold.push_back(i);
    vn::Rng rng(seed ^ 0x5eedull);
    for (size_t i = cold.size(); i > 1; --i)
        std::swap(cold[i - 1], cold[rng.below(i)]);
    cold.resize(std::min(cold.size(), kVerifySamples));

    vn::AnalysisContext fresh = d.ctx;
    fresh.campaign.cache_dir.clear();
    fresh.campaign.jobs = 3;
    std::vector<vn::SweepPointSpec> sweeps;
    std::vector<vn::Mapping> maps;
    for (size_t i : cold) {
        if (const auto *sw = std::get_if<vn::service::SweepRequest>(
                &s.requests[i].request))
            sweeps.push_back(sw->spec);
        else
            maps.push_back(
                std::get<vn::service::MapRequest>(s.requests[i].request)
                    .mapping);
    }
    std::vector<vn::FreqSweepPoint> sweep_ref =
        vn::sweepStimulusPoints(fresh, sweeps);
    std::vector<vn::MappingResult> map_ref;
    if (!maps.empty())
        map_ref = vn::MappingStudy(fresh, kMapFreq).runMany(maps);

    uint64_t mismatches = 0;
    size_t si = 0, mi = 0;
    for (size_t i : cold) {
        const AnyResult &got = *samples[i].cold;
        bool same =
            std::holds_alternative<vn::FreqSweepPoint>(got)
                ? bitsOf(std::get<vn::FreqSweepPoint>(got)) ==
                      bitsOf(sweep_ref[si++])
                : bitsOf(std::get<vn::MappingResult>(got)) ==
                      bitsOf(map_ref[mi++]);
        if (!same) {
            ++mismatches;
            samples[i].ok = false;
            samples[i].latency_ms = std::numeric_limits<double>::infinity();
        }
    }
    return mismatches;
}

std::vector<double>
latencies(const std::vector<Sample> &samples, size_t begin, size_t end,
          bool from_send)
{
    std::vector<double> out;
    for (size_t i = begin; i < end; ++i)
        out.push_back(from_send ? samples[i].service_ms
                                : samples[i].latency_ms);
    return out;
}

} // namespace

Outcome
runServe(const Options &options, bool routed)
{
    Outcome out;
    const size_t frames = std::max<size_t>(
        1, std::llround(kRate * options.seconds / kFrame));
    const Schedule schedule = makeSchedule(options.seed, frames);
    const size_t n = schedule.requests.size();
    const std::string scratch = scratchDir(options);

    // Set-up, repeated (see setupSeconds()): load the kit, warm the hot
    // set into a fresh cache, start the daemon(s) and the router.
    std::vector<double> setup_s;
    std::unique_ptr<Deployment> d;
    for (int i = 0; i < options.setups; ++i) {
        d.reset();
        const std::string cache = scratch + "/serve" + std::to_string(i);
        fs::remove_all(cache);
        Clock::time_point t0 = Clock::now();
        d = deploy(options, schedule, routed, cache);
        setup_s.push_back(secondsSince(t0));
    }

    // A traced run sends the first half of the schedule untraced (the
    // reference for trace.overhead_pct) and the second half traced.
    const bool traced = !options.trace_path.empty();
    Tracer tracer(traced);
    std::vector<Sample> samples(n);
    Phase plain{0, traced ? n / 2 : n}, spanned{n / 2, n};
    drive(*d, schedule, samples, plain, nullptr);
    const Snapshot mid = snapshot(*d);
    if (traced)
        drive(*d, schedule, samples, spanned, &tracer);
    const Snapshot last = snapshot(*d);

    const uint64_t mismatches =
        verifyCold(*d, schedule, samples, options.seed);
    out.attempted = n;
    for (const Sample &s : samples)
        out.failed += s.ok ? 0 : 1;
    if (out.failed > 0) {
        out.correct = false;
        out.failure = std::to_string(out.failed) + " failed requests (" +
                      std::to_string(mismatches) +
                      " sampled cold responses differ from the library)";
    }

    Metrics &m = out.metrics;
    if (!traced) {
        std::vector<double> lat = latencies(samples, 0, n, false);
        size_t good = std::count_if(lat.begin(), lat.end(),
                                    [](double ms) { return ms <= kLimitMs; });
        m.add("setup_s", setupSeconds(setup_s), "s");
        m.add("wall_s", plain.wall_s, "s");
        m.add("p50_ms", percentile(lat, 50), "ms");
        m.add("p99_ms", percentile(lat, 99), "ms");
        m.add("goodput_rps", static_cast<double>(good) / plain.wall_s,
              "req/s");
        m.add("peak_rss_mb", peakRssMb(), "MB");
        return out;
    }

    // Per-layer numbers from the traced half.
    const vn::service::ServiceCounters &a = mid.service, &b = last.service;
    std::vector<double> dispatch = samplesSince(*d, mid, 0);
    double client_p50 = percentile(
        latencies(samples, spanned.begin, spanned.end, true), 50);
    m.add("service.admission_wait_ms.interactive.p50",
          percentile(samplesSince(*d, mid,
                                  1 + static_cast<int>(
                                          vn::service::Tier::Interactive)),
                     50),
          "ms");
    m.add("service.admission_wait_ms.batch.p99",
          percentile(samplesSince(*d, mid,
                                  1 + static_cast<int>(
                                          vn::service::Tier::Batch)),
                     99),
          "ms");
    m.add("service.dispatch_ms.p50", percentile(dispatch, 50), "ms");
    m.add("service.wire_overhead_ms.p50",
          client_p50 - percentile(dispatch, 50), "ms");
    const double batches = static_cast<double>(b.batches - a.batches);
    const double completed =
        static_cast<double>(b.completed_ok + b.completed_error -
                            a.completed_ok - a.completed_error);
    m.add("service.batches", batches, "count");
    m.add("service.mean_batch_size", batches > 0 ? completed / batches : 0.0,
          "count");
    m.add("service.coalesced", static_cast<double>(b.coalesced - a.coalesced),
          "count");
    m.add("service.rejected_overloaded",
          static_cast<double>(b.rejected_overloaded - a.rejected_overloaded),
          "count");
    m.add("service.streams", static_cast<double>(last.streams - mid.streams),
          "count");
    m.add("service.stream_chunks",
          static_cast<double>(last.stream_chunks - mid.stream_chunks),
          "count");

    const vn::runtime::CampaignStats &ca = a.campaign, &cb = b.campaign;
    vn::runtime::CampaignStats window;
    window.jobs = cb.jobs - ca.jobs;
    window.executed = cb.executed - ca.executed;
    window.cache_hits = cb.cache_hits - ca.cache_hits;
    window.lane_batches = cb.lane_batches - ca.lane_batches;
    window.steals = cb.steals - ca.steals;
    window.retries = cb.retries - ca.retries;
    window.failures = cb.failures - ca.failures;
    window.cache_corrupt = cb.cache_corrupt - ca.cache_corrupt;
    setRuntimeMetrics(m, window, 1.0);
    auto diff = [](size_t x, size_t y) { return static_cast<double>(y - x); };
    m.add("circuit.factorization_misses",
          diff(mid.fact_misses, last.fact_misses), "count");
    m.add("circuit.factorization_hits", diff(mid.fact_hits, last.fact_hits),
          "count");

    const vn::router::RouterCounters &ra = mid.router, &rb = last.router;
    m.add("router.forwarded", static_cast<double>(rb.forwarded - ra.forwarded),
          "count");
    m.add("router.streamed_relays",
          static_cast<double>(rb.streamed_relays - ra.streamed_relays),
          "count");
    m.add("router.rebalanced",
          static_cast<double>(rb.rebalanced - ra.rebalanced), "count");
    m.add("router.hedged", static_cast<double>(rb.hedged - ra.hedged),
          "count");
    m.add("router.no_backend",
          static_cast<double>(rb.no_backend - ra.no_backend), "count");
    // The router's own frame handling: a ping it answers inline against
    // one a backend answers.
    m.add("router.ping_hop_us",
          routed ? pingP50Us(d->router->port(), 500) -
                       pingP50Us(d->servers.front()->port(), 500)
                 : 0.0,
          "us");
    m.add("loadgen.late_ms.max", spanned.late_max_ms, "ms");
    m.add("loadgen.in_flight.max", spanned.in_flight_max, "count");

    // The figure harnesses are not on this workload's path.
    for (const char *name :
         {"analysis.sweep_sync_s", "analysis.sweep_unsync_s",
          "analysis.margins_s", "analysis.mappings_s"})
        m.add(name, 0.0, "s");

    double plain_p50 =
        percentile(latencies(samples, plain.begin, plain.end, false), 50);
    double spanned_p50 =
        percentile(latencies(samples, spanned.begin, spanned.end, false), 50);
    m.add("trace.overhead_pct", 100.0 * (spanned_p50 / plain_p50 - 1.0), "%");
    runProbes(options, *d->kit, m);
    finishTrace(tracer, options,
                std::to_string(spanned.end - spanned.begin) + " requests");
    return out;
}

} // namespace vnbench
