#include "daemon.hh"

#include <cstdio>
#include <cstdlib>

#include "service/server.hh"
#include "vnoise/vnoise.hh"
#include "vnoise_version.hh"

namespace vn::tools
{

namespace
{

const std::vector<std::string> kFlags = {
    "port", "http-port", "jobs", "queue-depth", "max-batch",
    "batch-window-ms", "config", "cache-dir", "no-cache",
    "interactive-weight", "batch-weight", "promotion-age-ms",
    "stream-chunk-bytes", "stream-threshold-bytes", "advertise",
    "drain-timeout-s"};

void
usage(std::FILE *out)
{
    std::fprintf(
        out,
        "usage: vnoised [--port N] [--http-port N] [--jobs N]\n"
        "               [--queue-depth N] [--max-batch N]\n"
        "               [--batch-window-ms N] [--config PATH]\n"
        "               [--cache-dir P] [--no-cache]\n"
        "               [--interactive-weight W] [--batch-weight W]\n"
        "               [--promotion-age-ms N]\n"
        "               [--stream-chunk-bytes N]\n"
        "               [--stream-threshold-bytes N]\n"
        "               [--advertise NAME] [--drain-timeout-s S]\n"
        "               [--version] [--help]\n"
        "Serves the voltage-noise simulator on 127.0.0.1 (default port "
        "%d).\n"
        "--http-port adds the HTTP/1.1 observability gateway "
        "(default %d;\n"
        "/metrics, /healthz, /readyz, POST /v1/query; 0 = ephemeral,\n"
        "negative = disabled).\n"
        "--advertise announces NAME in the ping handshake so a\n"
        "vnoise_router lists this backend under it.\n"
        "--interactive-weight/--batch-weight set the WFQ admission\n"
        "shares (default 4:1); --promotion-age-ms bounds starvation\n"
        "(default 1000, <= 0 disables promotion).\n"
        "--stream-chunk-bytes sizes chunked-result frames (default\n"
        "%zu); --stream-threshold-bytes streams results above it\n"
        "(default 0 = just under the frame cap).\n"
        "--drain-timeout-s bounds the graceful drain at shutdown\n"
        "(default 30; <= 0 waits forever); a second SIGINT/SIGTERM\n"
        "forces immediate exit.\n",
        service::kDefaultPort, service::kDefaultHttpPort,
        service::kDefaultStreamChunkBytes);
}

} // namespace

int
vnoisedMain(const Args &args)
{
    if (args.has("help") || args.stray() == "-h") {
        usage(stdout);
        return 0;
    }
    if (args.has("version")) {
        std::printf("vnoised %s (protocol %d)\n", VN_VERSION,
                    service::kProtocolVersion);
        return 0;
    }
    if (!args.check(kFlags, usage))
        return 2;

    service::ServerConfig config;
    config.port =
        static_cast<int>(args.number("port", service::kDefaultPort));
    config.http_port = static_cast<int>(
        args.number("http-port", service::kDefaultHttpPort));
    config.dispatcher.queue_depth =
        static_cast<int>(args.number("queue-depth", 64));
    config.dispatcher.max_batch =
        static_cast<int>(args.number("max-batch", 32));
    config.dispatcher.batch_window_ms =
        static_cast<int>(args.number("batch-window-ms", 0));
    config.dispatcher.wfq.interactive_weight = args.number(
        "interactive-weight", config.dispatcher.wfq.interactive_weight);
    config.dispatcher.wfq.batch_weight =
        args.number("batch-weight", config.dispatcher.wfq.batch_weight);
    config.dispatcher.wfq.promotion_age_ms = args.number(
        "promotion-age-ms", config.dispatcher.wfq.promotion_age_ms);
    config.stream_chunk_bytes = static_cast<size_t>(args.number(
        "stream-chunk-bytes",
        static_cast<double>(config.stream_chunk_bytes)));
    config.stream_threshold_bytes = static_cast<size_t>(args.number(
        "stream-threshold-bytes",
        static_cast<double>(config.stream_threshold_bytes)));
    config.advertise = args.text("advertise", "");
    config.drain_timeout_s = args.number("drain-timeout-s", 30.0);

    AnalysisContext ctx;
    if (args.has("config"))
        ctx.chip_config = loadChipConfig(args.text("config", ""));
    ctx.campaign.jobs = static_cast<int>(args.number("jobs", 1));
    if (ctx.campaign.jobs < 1)
        fatal("vnoised: --jobs must be >= 1");
    if (!args.has("no-cache"))
        ctx.campaign.cache_dir = args.text("cache-dir", defaultCacheDir());

    // Every flag has been read and every range checked, so a bad one
    // failed above: only now pay for the kit (a fresh output directory
    // runs the ~10 s sequence search).
    config.validate();
    CoreModel core;
    StressmarkKit kit =
        StressmarkKit::cached(core, outputPath("vnoise_kit.cache"));
    ctx.kit = &kit;

    service::Server server(ctx, config);
    server.start();
    server.installSignalHandlers();
    std::printf("vnoised %s listening on 127.0.0.1:%d "
                "(%d workers, queue depth %d)\n",
                VN_VERSION, server.port(), server.dispatcher().threads(),
                config.dispatcher.queue_depth);
    if (!config.advertise.empty())
        std::printf("vnoised: advertising as '%s' (scope %s)\n",
                    config.advertise.c_str(),
                    server.scopeFingerprint().c_str());
    if (server.httpPort() >= 0)
        std::printf("vnoised: HTTP gateway on 127.0.0.1:%d "
                    "(/metrics, /healthz, /readyz, /v1/query)\n",
                    server.httpPort());
    std::fflush(stdout);
    server.wait();

    service::ServiceCounters c = server.dispatcher().counters();
    std::printf("vnoised: drained after %llu requests "
                "(%llu ok, %llu errors, %llu batches, %zu cache hits)\n",
                static_cast<unsigned long long>(c.received),
                static_cast<unsigned long long>(c.completed_ok),
                static_cast<unsigned long long>(c.completed_error),
                static_cast<unsigned long long>(c.batches),
                c.campaign.cache_hits);
    if (!server.drainedCleanly()) {
        std::fprintf(stderr,
                     "vnoised: drain timed out; exiting without "
                     "joining the wedged batcher\n");
        std::fflush(nullptr);
        // _Exit skips destructors: ~Dispatcher would block forever on
        // the wedged batcher thread.
        std::_Exit(1);
    }
    return 0;
}

} // namespace vn::tools
