/**
 * @file
 * vnoise_cli: command-line driver over the library, mirroring the
 * workflow a post-silicon characterization engineer would run from the
 * service element.
 *
 * Subcommands:
 *   impedance [--core N]                 PDN impedance profile
 *   epi [--top N]                        EPI profile excerpt (Table I)
 *   sweep [--sync] [--points N]          noise vs stimulus frequency
 *   stressmark --freq HZ [--no-sync] [--events N] [--misalign TICKS]
 *                                        build + run one stressmark
 *   vmin (--idle|--unsync|--sync)        margin experiment
 *   map --jobs K                         best/worst workload mapping
 *   spectrum [--freq HZ]                 droop spectrum of a run (FFT)
 *   serve [vnoised options]              run the vnoised daemon
 *   cache scrub [--cache-dir P]          verify/quarantine the cache
 *   query <verb> [--port N] ...          one request against vnoised
 */

#include <cmath>
#include <complex>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "args.hh"
#include "daemon.hh"
#include "service/client.hh"
#include "service/resilient.hh"
#include "vnoise/vnoise.hh"
#include "vnoise_version.hh"

namespace
{

using namespace vn;
using vn::tools::Args;

/** Flags accepted by every subcommand. */
const std::vector<std::string> kCommonFlags = {
    "config", "jobs", "cache-dir", "no-cache", "journal-dir", "resume"};

std::vector<std::string>
withCommon(std::vector<std::string> flags)
{
    flags.insert(flags.end(), kCommonFlags.begin(), kCommonFlags.end());
    return flags;
}

/** Campaign runtime knobs shared by all subcommands. */
vn::runtime::CampaignOptions
campaignOptions(const Args &args)
{
    vn::runtime::CampaignOptions options;
    options.jobs = static_cast<int>(args.number("jobs", 1));
    if (options.jobs < 1)
        fatal("vnoise_cli: --jobs must be >= 1");
    options.cache_dir =
        args.text("cache-dir", vn::defaultCacheDir());
    if (args.has("no-cache"))
        options.cache_dir.clear();
    options.journal_dir = args.text("journal-dir", "");
    options.resume = args.has("resume");
    if (options.resume && options.journal_dir.empty())
        fatal("vnoise_cli: --resume requires --journal-dir");
    if (options.resume && options.cache_dir.empty())
        fatal("vnoise_cli: --resume requires the result cache "
              "(drop --no-cache)");
    return options;
}

/** Chip configuration, optionally overridden by --config PATH. */
ChipConfig
chipConfig(const Args &args)
{
    std::string path = args.text("config", "");
    if (path.empty())
        return ChipConfig{};
    return loadChipConfig(path);
}

const CoreModel &
cliCore()
{
    static CoreModel core;
    return core;
}

const StressmarkKit &
kit()
{
    static StressmarkKit k = StressmarkKit::cached(
        cliCore(), vn::outputPath("vnoise_kit.cache"));
    return k;
}

int
cmdImpedance(const Args &args)
{
    int core = static_cast<int>(args.number("core", 0));
    ChipModel chip(chipConfig(args));
    auto profile = impedanceProfile(chip.pdn(), core, 1e3, 1e8, 30);
    TextTable table({"Frequency", "|Z| (mOhm)"});
    for (const auto &p : profile.points)
        table.addRow({freqLabel(p.freq_hz),
                      TextTable::num(std::abs(p.z) * 1e3, 3)});
    table.print(std::cout);
    std::printf("bands: board %s, die %s\n",
                freqLabel(profile.board_resonance_hz).c_str(),
                freqLabel(profile.die_resonance_hz).c_str());
    return 0;
}

int
cmdEpi(const Args &args)
{
    size_t top = static_cast<size_t>(args.number("top", 10));
    EpiProfiler profiler(kit().core(), 1000);
    auto profile = profiler.profile();
    TextTable table({"Rank", "Instr", "Power", "IPC"});
    for (size_t i = 0; i < std::min(top, profile.size()); ++i) {
        table.addRow({TextTable::num(static_cast<long long>(i + 1)),
                      profile[i].instr->mnemonic,
                      TextTable::num(profile[i].normalized, 2),
                      TextTable::num(profile[i].ipc, 2)});
    }
    table.print(std::cout);
    return 0;
}

int
cmdSweep(const Args &args)
{
    AnalysisContext ctx;
    ctx.chip_config = chipConfig(args);
    ctx.window = 20e-6;
    runtime::CampaignStats stats;
    ctx.campaign = campaignOptions(args);
    ctx.campaign.stats_sink = &stats;
    bool sync = args.has("sync");
    auto freqs = logspace(10e3, 50e6,
                          static_cast<size_t>(args.number("points", 9)));
    ctx.kit = &kit();
    auto points = sweepStimulusFrequency(ctx, freqs, sync);
    TextTable table({"Stimulus", "max %p2p", "min VDie"});
    for (const auto &p : points)
        table.addRow({freqLabel(p.freq_hz),
                      TextTable::num(p.max_p2p, 1),
                      TextTable::num(p.min_v, 4)});
    table.print(std::cout);
    inform("campaign: ", stats.summary());
    return 0;
}

int
cmdStressmark(const Args &args)
{
    StressmarkSpec spec;
    spec.stimulus_freq_hz = args.number("freq", 2.4e6);
    spec.consecutive_events =
        static_cast<int>(args.number("events", 1000));
    spec.synchronized = !args.has("no-sync");
    spec.misalignment_ticks =
        static_cast<uint64_t>(args.number("misalign", 0));
    Stressmark sm = kit().make(spec);

    std::printf("stressmark @ %s: %zu high + %zu low instrs/event, "
                "deltaP %.2f units\n",
                freqLabel(spec.stimulus_freq_hz).c_str(), sm.high_instrs,
                sm.low_instrs, sm.deltaPower());
    std::printf("high sequence: %s\n",
                sm.high_sequence.toString().c_str());

    ChipModel chip(chipConfig(args));
    std::array<CoreActivity, kNumCores> w = {
        sm.activity(), sm.activity(), sm.activity(),
        sm.activity(), sm.activity(), sm.activity()};
    auto r = chip.run(w, 30e-6);
    TextTable table({"Core", "%p2p", "Vmin"});
    for (int c = 0; c < kNumCores; ++c)
        table.addRow({"core" + std::to_string(c),
                      TextTable::num(r.core[c].p2p, 1),
                      TextTable::num(r.core[c].v_min, 4)});
    for (int u = 0; u < kNumSharedUnits; ++u)
        table.addRow({sharedUnitName(u),
                      TextTable::num(r.shared[u].p2p, 1),
                      TextTable::num(r.shared[u].v_min, 4)});
    table.print(std::cout);
    std::printf("chip power %.0f W, failure: %s\n", r.avg_power_watts,
                r.failed ? "YES" : "no");
    return 0;
}

int
cmdVmin(const Args &args)
{
    ChipConfig config = chipConfig(args);
    VminExperiment vmin(config);
    std::array<CoreActivity, kNumCores> w = {
        ChipModel(config).idleActivity(), ChipModel(config).idleActivity(),
        ChipModel(config).idleActivity(), ChipModel(config).idleActivity(),
        ChipModel(config).idleActivity(), ChipModel(config).idleActivity()};
    double window = 4e-6;
    if (args.has("sync") || args.has("unsync")) {
        StressmarkSpec spec;
        spec.stimulus_freq_hz = 2.4e6;
        spec.synchronized = args.has("sync");
        Stressmark sm = kit().make(spec);
        Rng rng(1);
        for (int c = 0; c < kNumCores; ++c) {
            double delay = args.has("unsync")
                               ? rng.uniform() / spec.stimulus_freq_hz
                               : 0.0;
            w[c] = sm.activity(delay);
        }
        window = 24e-6;
    }
    auto r = vmin.run(w, window);
    std::printf("margin: %.1f%% bias at first failure (%d steps)\n",
                r.bias_at_failure * 100.0, r.steps);
    return 0;
}

int
cmdMap(const Args &args)
{
    int workloads = static_cast<int>(args.number("workloads", 3));
    if (workloads < 1 || workloads > kNumCores)
        fatal("vnoise_cli map: --workloads must be in [1, 6]");
    AnalysisContext ctx;
    ctx.chip_config = chipConfig(args);
    ctx.window = 16e-6;
    runtime::CampaignStats stats;
    ctx.campaign = campaignOptions(args);
    ctx.campaign.stats_sink = &stats;
    ctx.kit = &kit();
    MappingStudy study(ctx, 2.4e6);
    auto opportunities = mappingOpportunity(study);
    inform("campaign: ", stats.summary());
    const auto &o = opportunities[static_cast<size_t>(workloads - 1)];
    auto show = [](const Mapping &m) {
        std::string s;
        for (int c = 0; c < kNumCores; ++c)
            s += m[c] == WorkloadClass::Max ? 'X' : '.';
        return s;
    };
    std::printf("%d workloads: best mapping %s (%.1f %%p2p), worst %s "
                "(%.1f %%p2p)\n",
                workloads, show(o.best_mapping).c_str(), o.best_noise,
                show(o.worst_mapping).c_str(), o.worst_noise);
    return 0;
}

int
cmdSpectrum(const Args &args)
{
    StressmarkSpec spec;
    spec.stimulus_freq_hz = args.number("freq", 2.4e6);
    ChipModel chip(chipConfig(args));
    Stressmark sm = kit().make(spec);
    RunOptions options;
    options.capture_traces = true;
    std::array<CoreActivity, kNumCores> w = {
        sm.activity(), sm.activity(), sm.activity(),
        sm.activity(), sm.activity(), sm.activity()};
    auto r = chip.run(w, 40e-6, options);

    auto trace = r.traces[0].slice(4e-6, 40e-6);
    auto spectrum = magnitudeSpectrum(trace.samples(), trace.dt());
    double fundamental =
        dominantFrequency(spectrum, spec.stimulus_freq_hz * 0.5,
                          spec.stimulus_freq_hz * 1.5);
    std::printf("droop spectrum of core 0 under the stressmark:\n");
    TextTable table({"Band", "Amplitude (mV)"});
    for (double f = spec.stimulus_freq_hz; f < 2e7;
         f += 2.0 * spec.stimulus_freq_hz) {
        double best = 0.0;
        for (const auto &p : spectrum)
            if (std::fabs(p.freq_hz - f) < 2.0 / (40e-6 - 4e-6))
                best = std::max(best, p.magnitude);
        table.addRow({freqLabel(f), TextTable::num(best * 1e3, 2)});
    }
    table.print(std::cout);
    std::printf("fundamental found at %s\n",
                freqLabel(fundamental).c_str());
    return 0;
}

void usage(std::FILE *out);

int
cmdCache(int argc, char **argv)
{
    if (argc < 3 || std::string(argv[2]) != "scrub") {
        std::fprintf(stderr,
                     "vnoise_cli cache: expected subcommand 'scrub'\n");
        return 2;
    }
    Args args("vnoise_cli", argc, argv, 3);
    if (!args.check({"cache-dir"}, usage))
        return 2;
    std::string dir = args.text("cache-dir", vn::defaultCacheDir());
    runtime::ResultCache cache(dir);
    runtime::ScrubReport report = cache.scrub();
    std::printf("scrubbed %s: %zu entries, %zu ok, %zu quarantined, "
                "%zu temp file(s) reaped\n",
                dir.c_str(), report.scanned, report.ok,
                report.quarantined, report.tmp_reaped);
    return 0;
}

/** Parse a --mapping string: 6 chars of {.,m,X} or {0,1,2}. */
Mapping
parseMapping(const std::string &text)
{
    if (text.size() != static_cast<size_t>(kNumCores))
        fatal("vnoise_cli query map: --mapping needs ", kNumCores,
              " characters of . (idle), m (medium), X (max)");
    Mapping mapping{};
    for (int c = 0; c < kNumCores; ++c) {
        switch (text[static_cast<size_t>(c)]) {
        case '.': case '0': mapping[c] = WorkloadClass::Idle; break;
        case 'm': case '1': mapping[c] = WorkloadClass::Medium; break;
        case 'X': case 'x': case '2': mapping[c] = WorkloadClass::Max; break;
        default:
            fatal("vnoise_cli query map: bad mapping character '",
                  text[static_cast<size_t>(c)], "'");
        }
    }
    return mapping;
}

int
cmdQuery(int argc, char **argv)
{
    if (argc < 3 || argv[2][0] == '-') {
        std::fprintf(stderr,
                     "vnoise_cli query: missing verb "
                     "(ping|stats|shutdown|sweep|map|margin|"
                     "guardband|trace)\n");
        return 2;
    }
    std::string verb = argv[2];
    Args args("vnoise_cli", argc, argv, 3);
    if (!args.check({"port", "router", "deadline-ms", "retries",
                     "backoff-ms", "call-deadline-ms", "accept-stream",
                     "freq", "sync", "events", "bias-step", "mapping",
                     "window", "core", "decimation", "intervals",
                     "mean-active", "seed"},
                    usage))
        return 2;

    int port =
        static_cast<int>(args.number("port", service::kDefaultPort));
    if (args.has("router")) {
        // --router HOST:PORT (or a bare port) aims the query at a
        // vnoise_router instead of a single daemon; the wire protocol
        // and exit codes are identical. The serving stack is loopback
        // only, so any HOST other than 127.0.0.1 is refused.
        if (args.has("port")) {
            std::fprintf(stderr,
                         "vnoise_cli query: --port and --router are "
                         "mutually exclusive\n");
            return 2;
        }
        std::string target = args.text("router", "");
        std::string host = "127.0.0.1";
        size_t colon = target.rfind(':');
        if (colon != std::string::npos) {
            host = target.substr(0, colon);
            target = target.substr(colon + 1);
        }
        if (host != "127.0.0.1" && host != "localhost") {
            std::fprintf(stderr,
                         "vnoise_cli query: --router host must be "
                         "127.0.0.1 (got '%s')\n",
                         host.c_str());
            return 2;
        }
        std::optional<double> value = tools::parseNumber(target);
        if (!value || *value != std::trunc(*value) || *value < 1 ||
            *value > 65535) {
            std::fprintf(stderr,
                         "vnoise_cli query: --router expects "
                         "HOST:PORT, got '%s'\n",
                         args.text("router", "").c_str());
            return 2;
        }
        port = static_cast<int>(*value);
    }
    int retries = static_cast<int>(args.number("retries", 3));
    if (retries < 0) {
        std::fprintf(stderr,
                     "vnoise_cli query: --retries must be >= 0\n");
        return 2;
    }

    // All queries ride the resilient layer: transient failures
    // (overloaded bursts, daemon restarts) are retried with backoff
    // within one wall-clock budget instead of surfacing immediately.
    service::ResilientClientConfig rconfig;
    rconfig.port = port;
    rconfig.pool_size = 1; // one sequential caller
    rconfig.retry.max_attempts = retries + 1;
    rconfig.retry.backoff_base_ms = args.number("backoff-ms", 10.0);
    rconfig.retry.call_deadline_ms =
        args.number("call-deadline-ms", 10000.0);
    if (args.has("deadline-ms"))
        rconfig.retry.attempt_deadline_ms =
            args.number("deadline-ms", 0);
    service::ResilientClient client(rconfig);
    // Opt in to chunked streaming so a long undecimated trace is not
    // bounded by the 1 MiB response frame cap; a server answering a
    // `result_too_large` error is telling you to pass this.
    if (args.has("accept-stream"))
        client.setAcceptStream(true);

    try {
        if (verb == "ping") {
            std::printf("pong (protocol %d)\n", client.ping());
            return 0;
        }
        if (verb == "stats") {
            std::printf("%s\n", client.stats().dump().c_str());
            return 0;
        }
        if (verb == "shutdown") {
            // Deliberately NOT retried: a lost response is
            // indistinguishable from a completed drain, and a retry
            // could kill a daemon that restarted in between.
            service::Client direct(port);
            direct.shutdown();
            std::printf("vnoised is draining\n");
            return 0;
        }

        service::AnyRequest request;
        if (verb == "sweep") {
            request = service::SweepRequest{
                {args.number("freq", 2.4e6), args.has("sync")}};
        } else if (verb == "map") {
            request = service::MapRequest{
                parseMapping(args.text("mapping", "XXX...")),
                args.number("freq", 2e6)};
        } else if (verb == "margin") {
            request = service::MarginRequest{
                {args.number("freq", 2.4e6),
                 static_cast<int>(args.number("events", 1000))},
                args.number("bias-step", 0.005)};
        } else if (verb == "guardband") {
            UtilizationTraceParams trace;
            trace.intervals =
                static_cast<size_t>(args.number("intervals", 2000));
            trace.mean_active_cores = args.number("mean-active", 3.0);
            trace.seed = static_cast<uint64_t>(args.number("seed", 7));
            request = service::GuardbandRequest{trace};
        } else if (verb == "trace") {
            request = service::TraceRequest{
                {args.number("freq", 2.4e6),
                 args.number("window", 20e-6),
                 static_cast<int>(args.number("core", 0)),
                 static_cast<unsigned>(args.number("decimation", 8))}};
        } else {
            std::fprintf(stderr,
                         "vnoise_cli query: unknown verb '%s'\n",
                         verb.c_str());
            return 2;
        }

        service::Json result =
            client.call(service::verbName(service::requestVerb(request)),
                        service::encodeRequestParams(request));
        std::printf("%s\n", result.dump().c_str());
        return 0;
    } catch (const service::ServiceError &e) {
        std::fprintf(stderr, "vnoise_cli query: %s\n", e.what());
        // Distinct exit codes so scripts can tell "the daemon is not
        // there" (3) and "the breaker gave up" (4) from an ordinary
        // service error (1).
        if (e.code() == "circuit_open")
            return 4;
        if (e.code() == "io_error")
            return 3;
        return 1;
    }
}

void
usage(std::FILE *out)
{
    std::fprintf(
        out,
        "usage: vnoise_cli <command> [options]\n"
        "  impedance [--core N]\n"
        "  epi [--top N]\n"
        "  sweep [--sync] [--points N]\n"
        "  stressmark [--freq HZ] [--events N] [--no-sync] "
        "[--misalign TICKS]\n"
        "  vmin [--idle|--unsync|--sync]\n"
        "  map [--workloads K]\n"
        "  spectrum [--freq HZ]\n"
        "  serve [vnoised options]         run the vnoised daemon, with\n"
        "        exactly vnoised's options (`vnoise_cli serve --help`)\n"
        "  cache scrub [--cache-dir P]     verify + quarantine corrupt\n"
        "        result-cache entries and reap stray temp files\n"
        "  query <verb> [--port N | --router HOST:PORT]\n"
        "        [--deadline-ms N] [--retries N] [--accept-stream]\n"
        "        [--backoff-ms N] [--call-deadline-ms N] [verb options]\n"
        "        verbs: ping stats shutdown sweep map margin guardband "
        "trace\n"
        "        (--router targets a vnoise_router fleet, default port "
        "7413;\n"
        "         retries with backoff on transient errors; exit codes:\n"
        "         0 ok, 1 service error, 2 usage, 3 unreachable,\n"
        "         4 circuit open — same codes against a router)\n"
        "  --version | --help\n"
        "common: --config PATH  (key=value chip configuration; see\n"
        "        saveChipConfig / docs)\n"
        "        --jobs N       (campaign worker threads, default 1)\n"
        "        --cache-dir P  (result cache; default VNOISE_CACHE_DIR\n"
        "                       or <VNOISE_OUT_DIR>/cache)\n"
        "        --no-cache     (disable the result cache)\n"
        "        --journal-dir P (completion journal for crash-safe\n"
        "                       campaigns; see --resume)\n"
        "        --resume       (replay the journal: skip jobs already\n"
        "                       completed by an interrupted run)\n");
}

/** Flag check shared by the table-driven commands. */
int
runChecked(const Args &args, std::vector<std::string> flags,
           int (*fn)(const Args &))
{
    if (!args.check(withCommon(std::move(flags)), usage))
        return 2;
    return fn(args);
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        usage(stderr);
        return 2;
    }
    std::string command = argv[1];
    if (command == "--help" || command == "-h" || command == "help") {
        usage(stdout);
        return 0;
    }
    if (command == "--version" || command == "version") {
        std::printf("vnoise_cli %s (protocol %d)\n", VN_VERSION,
                    vn::service::kProtocolVersion);
        return 0;
    }
    Args args("vnoise_cli", argc, argv, 2);
    if (command == "impedance")
        return runChecked(args, {"core"}, cmdImpedance);
    if (command == "epi")
        return runChecked(args, {"top"}, cmdEpi);
    if (command == "sweep")
        return runChecked(args, {"sync", "points"}, cmdSweep);
    if (command == "stressmark")
        return runChecked(args, {"freq", "events", "no-sync", "misalign"},
                          cmdStressmark);
    if (command == "vmin")
        return runChecked(args, {"idle", "unsync", "sync"}, cmdVmin);
    if (command == "map")
        return runChecked(args, {"workloads"}, cmdMap);
    if (command == "spectrum")
        return runChecked(args, {"freq"}, cmdSpectrum);
    if (command == "serve")
        return tools::vnoisedMain(args);
    if (command == "cache")
        return cmdCache(argc, argv);
    if (command == "query")
        return cmdQuery(argc, argv);
    std::fprintf(stderr, "vnoise_cli: unknown command '%s'\n",
                 command.c_str());
    usage(stderr);
    return 2;
}
