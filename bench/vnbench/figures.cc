/**
 * @file
 * figures_cold / figures_warm: passes over a reduced Fig. 9 / Fig. 12 /
 * Fig. 13 campaign set, through the same harness entry points the fig
 * benches call.
 *
 * Every pass starts from an empty factorization cache, as a fresh
 * figure binary would. A cold pass also starts from an empty result
 * cache, so it computes and fsyncs every entry; a warm pass replays
 * the cache that set-up filled, so the solver does no work at all.
 */

#include <algorithm>
#include <array>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <sstream>

#include "service/json.hh"
#include "vnbench.hh"

namespace vnbench
{

namespace
{

namespace fs = std::filesystem;

/** Fig. 13's stimulus frequency (bench/fig13_propagation.cpp). */
constexpr double kFig13Freq = 2.4e6;

/** The campaign set one pass regenerates; generated from the seed. */
struct FigureSet
{
    std::vector<double> fig9_freqs;
    std::vector<vn::MarginSpec> fig12_cells;
    std::vector<vn::Mapping> fig13_mappings;

    size_t results() const
    {
        return 2 * fig9_freqs.size() + fig12_cells.size() +
               fig13_mappings.size();
    }
};

FigureSet
makeFigureSet(uint64_t seed, bool smoke)
{
    vn::Rng rng(seed);
    FigureSet set;

    // Fig. 9 points. Above ~0.5 MHz every point co-simulates the same
    // 24 us window, so the seed moves the frequencies (one log-uniform
    // draw per stratum of [0.5, 50] MHz) without moving the cost.
    const size_t points = smoke ? 2 : 6;
    for (size_t i = 0; i < points; ++i) {
        double u = (static_cast<double>(i) + rng.uniform()) /
                   static_cast<double>(points);
        set.fig9_freqs.push_back(0.5e6 * std::pow(100.0, u));
    }

    // Fig. 12 cells: two of the paper's stimulus frequencies whose Vmin
    // window is the 20 us floor, synchronized (100 consecutive events)
    // and free-running. Fixed, because a cell's cost depends on its
    // frequency; the seed still reaches the free-running cells through
    // the phase draws of ctx.seed.
    if (smoke)
        set.fig12_cells = {{2.5e6, 100}, {25e6, 0}};
    else
        set.fig12_cells = {{2.5e6, 100}, {2.5e6, 0}, {25e6, 100}, {25e6, 0}};

    // Fig. 13 mappings: a seeded sample of the 3^6 workload-to-core
    // mappings. Every mapping costs the same lane-steps.
    std::vector<int> codes(729);
    std::iota(codes.begin(), codes.end(), 0);
    for (size_t i = codes.size() - 1; i > 0; --i)
        std::swap(codes[i], codes[rng.below(i + 1)]);
    codes.resize(smoke ? 16 : 96);
    std::sort(codes.begin(), codes.end());
    for (int code : codes) {
        vn::Mapping mapping;
        for (int c = 0; c < vn::kNumCores; ++c, code /= 3)
            mapping[c] = static_cast<vn::WorkloadClass>(code % 3);
        set.fig13_mappings.push_back(mapping);
    }
    return set;
}

/**
 * One pass's results, in campaign order, and the host time of each of
 * its three figures (Fig. 9: the synchronized and the free-running
 * sweep, as fig9_sync_sweep runs them; Fig. 12; Fig. 13).
 */
struct PassResult
{
    std::vector<vn::FreqSweepPoint> sync;
    std::vector<vn::FreqSweepPoint> unsync;
    std::vector<vn::MarginPoint> margins;
    std::vector<vn::MappingResult> mappings;
    std::array<double, 3> figure_ms{};
};

PassResult
runPass(const vn::AnalysisContext &ctx, const FigureSet &set,
        Tracer *tracer, uint64_t parent)
{
    PassResult r;
    const Clock::time_point fig9 = Clock::now();
    {
        SpanScope span(tracer, "analysis.sweep_sync", parent);
        r.sync = vn::sweepStimulusFrequency(ctx, set.fig9_freqs, true);
    }
    {
        SpanScope span(tracer, "analysis.sweep_unsync", parent);
        r.unsync = vn::sweepStimulusFrequency(ctx, set.fig9_freqs, false);
    }
    const Clock::time_point fig12 = Clock::now();
    {
        SpanScope span(tracer, "analysis.margins", parent);
        r.margins = vn::marginPoints(ctx, set.fig12_cells);
    }
    const Clock::time_point fig13 = Clock::now();
    {
        SpanScope span(tracer, "analysis.mappings", parent);
        vn::MappingStudy study(ctx, kFig13Freq);
        r.mappings = study.runMany(set.fig13_mappings);
    }
    r.figure_ms = {msBetween(fig9, fig12), msBetween(fig12, fig13),
                   msBetween(fig13, Clock::now())};
    return r;
}

std::string
passDigest(const PassResult &r)
{
    Digest d;
    for (const auto &p : r.sync)
        digestInto(d, p);
    for (const auto &p : r.unsync)
        digestInto(d, p);
    for (const auto &p : r.margins)
        digestInto(d, p);
    for (const auto &m : r.mappings)
        digestInto(d, m);
    return d.hex();
}

/** The digest pinned in digests.json for this seed and size, if any. */
std::string
pinnedDigest(const Options &options)
{
    std::ifstream in(std::string(VNBENCH_SOURCE_DIR) + "/digests.json");
    if (!in)
        return "";
    std::stringstream text;
    text << in.rdbuf();
    vn::service::Json doc = vn::service::Json::parse(text.str());
    const std::string size = options.smoke ? "smoke" : "bench";
    const std::string seed = std::to_string(options.seed);
    if (!doc.has(size) || !doc.at(size).has(seed))
        return "";
    return doc.at(size).at(seed).asString();
}

vn::AnalysisContext
figureContext(const vn::StressmarkKit &kit, const Options &options,
              const std::string &cache_dir)
{
    // The fig benches' defaultContext() (bench/common.hh), on 3 of the
    // 4 cores, plus the benchmark's seed.
    vn::AnalysisContext ctx;
    ctx.kit = &kit;
    ctx.window = 24e-6;
    ctx.unsync_draws = 4;
    ctx.consecutive_events = 1000;
    ctx.seed = options.seed;
    ctx.campaign.jobs = 3;
    ctx.campaign.lanes = 8;
    ctx.campaign.cache_dir = cache_dir;
    return ctx;
}

/** Passes of one measured window and what they counted. */
struct Window
{
    std::vector<double> pass_ms;
    std::vector<double> figure_ms; //!< every figure of every pass
    vn::runtime::CampaignStats stats;
    size_t fact_hits = 0;
    size_t fact_misses = 0;
    uint64_t failed = 0; //!< passes whose digest differed
};

} // namespace

Outcome
runFigures(const Options &options, bool warm)
{
    Outcome out;
    const FigureSet set = makeFigureSet(options.seed, options.smoke);
    const std::string scratch = scratchDir(options);
    auto &fact_cache = vn::FactorizationCache::global();

    // Set-up: load the kit memo and build the context; a warm run also
    // fills an empty cache. Repeated; see setupSeconds().
    std::vector<double> setup_s;
    std::unique_ptr<vn::StressmarkKit> kit;
    vn::AnalysisContext ctx;
    // Every pass must reproduce this digest: the pinned one for seeds in
    // digests.json, else the first pass's.
    std::string expected = pinnedDigest(options);
    auto setup = [&](std::string cache) {
        fs::remove_all(cache);
        fact_cache.clear();
        Clock::time_point t0 = Clock::now();
        kit = loadKit(options);
        ctx = figureContext(*kit, options, cache);
        PassResult filled;
        if (warm)
            filled = runPass(ctx, set, nullptr, 0);
        setup_s.push_back(secondsSince(t0));
        if (warm) {
            std::string fill = passDigest(filled);
            ++out.attempted;
            if (expected.empty())
                expected = fill;
            if (fill != expected) {
                ++out.failed;
                out.failure = "fill pass digest " + fill + " != " + expected;
            }
        }
    };
    for (int i = 0; i < options.setups; ++i)
        setup(scratch + "/cache" + std::to_string(i));

    // Passes until the next one would overrun the window. A traced run
    // spends the first half untraced (the reference for
    // trace.overhead_pct) and the second half traced.
    const bool traced = !options.trace_path.empty();
    Tracer tracer(traced);
    auto measure = [&](double seconds, Tracer *t, Window &w) {
        size_t hits0 = fact_cache.hits(), misses0 = fact_cache.misses();
        Clock::time_point start = Clock::now();
        while (w.pass_ms.empty() ||
               secondsSince(start) + percentile(w.pass_ms, 50) / 1e3 <=
                   seconds) {
            if (!warm)
                fs::remove_all(ctx.campaign.cache_dir);
            fact_cache.clear();
            ctx.campaign.stats_sink = &w.stats;
            int64_t pass = static_cast<int64_t>(out.attempted);
            Clock::time_point t0 = Clock::now();
            PassResult result;
            {
                SpanScope span(t, "pass", 0, pass);
                result = runPass(ctx, set, t, span.id());
            }
            w.pass_ms.push_back(msBetween(t0, Clock::now()));
            w.figure_ms.insert(w.figure_ms.end(), result.figure_ms.begin(),
                               result.figure_ms.end());
            const std::string digest = passDigest(result);
            ++out.attempted;
            if (expected.empty())
                expected = digest;
            if (digest != expected) {
                ++w.failed;
                ++out.failed;
                if (out.failure.empty())
                    out.failure = "pass " + std::to_string(pass) +
                                  " digest " + digest + " != " + expected;
            }
            // A cold set-up takes under a millisecond, shorter than the
            // machine's slow phases (50 ms to 1 s), so it is repeated
            // after every pass to spread its samples over the run.
            if (!warm && !traced)
                for (int i = 0; i < options.setups; ++i)
                    setup(ctx.campaign.cache_dir);
        }
        w.fact_hits = fact_cache.hits() - hits0;
        w.fact_misses = fact_cache.misses() - misses0;
    };

    Window plain, spanned;
    measure(traced ? options.seconds / 2 : options.seconds, nullptr, plain);
    if (traced)
        measure(options.seconds / 2, &tracer, spanned);
    out.correct = out.failed == 0;
    out.digest = expected;

    Metrics &m = out.metrics;
    const double sum_ms =
        std::accumulate(plain.pass_ms.begin(), plain.pass_ms.end(), 0.0);
    const double passes = static_cast<double>(plain.pass_ms.size());
    if (!traced) {
        m.add("setup_s", setupSeconds(setup_s), "s");
        m.add("wall_s", sum_ms / passes / 1e3, "s");
        // Latency per figure, not per pass: a ~3.5 ms warm pass is hit
        // by one of the machine's millisecond stalls about once in a
        // hundred passes, so a p99 over passes read either side of that
        // edge from run to run (README.md, "Noise and bounds").
        m.add("p50_ms", percentile(plain.figure_ms, 50), "ms");
        m.add("p99_ms", percentile(plain.figure_ms, 99), "ms");
        m.add("goodput_rps",
              static_cast<double>(set.results()) *
                  (passes - static_cast<double>(plain.failed)) /
                  (sum_ms / 1e3),
              "req/s");
        m.add("peak_rss_mb", peakRssMb(), "MB");
        return out;
    }

    // Per-layer numbers from the traced half, per pass.
    const double n = static_cast<double>(spanned.pass_ms.size());
    for (const char *name : {"analysis.sweep_sync", "analysis.sweep_unsync",
                             "analysis.margins", "analysis.mappings"})
        m.add(std::string(name) + "_s",
              percentile(tracer.durationsMs(name), 50) / 1e3, "s");
    setRuntimeMetrics(m, spanned.stats, n);
    m.add("circuit.factorization_misses",
          static_cast<double>(spanned.fact_misses) / n, "count");
    m.add("circuit.factorization_hits",
          static_cast<double>(spanned.fact_hits) / n, "count");

    // Serving layers are not on this workload's path.
    for (const char *name :
         {"service.admission_wait_ms.interactive.p50",
          "service.admission_wait_ms.batch.p99", "service.dispatch_ms.p50",
          "service.wire_overhead_ms.p50", "loadgen.late_ms.max"})
        m.add(name, 0.0, "ms");
    m.add("router.ping_hop_us", 0.0, "us");
    m.add("service.mean_batch_size", 0.0, "count");
    for (const char *name :
         {"service.batches", "service.coalesced",
          "service.rejected_overloaded", "service.streams",
          "service.stream_chunks", "router.forwarded",
          "router.streamed_relays", "router.rebalanced", "router.hedged",
          "router.no_backend", "loadgen.in_flight.max"})
        m.add(name, 0.0, "count");

    const double spanned_sum = std::accumulate(
        spanned.pass_ms.begin(), spanned.pass_ms.end(), 0.0);
    m.add("trace.overhead_pct",
          100.0 * ((spanned_sum / n) / (sum_ms / passes) - 1.0), "%");
    runProbes(options, *kit, m);
    finishTrace(tracer, options,
                std::to_string(spanned.pass_ms.size()) + " passes");
    return out;
}

} // namespace vnbench
