/**
 * @file
 * vnoise_router: the consistent-hash fleet router, as a binary.
 *
 * Forwards framed requests to a fleet of vnoised backends (see
 * docs/serving.md, "Fleet"). Backends are given as a comma-separated
 * list of ports or NAME=PORT pairs; an optional NAME=PORT:HTTPPORT
 * form adds the backend's gateway port so the health probe honors its
 * drain-aware /readyz.
 */

#include <cmath>
#include <cstdio>
#include <sstream>
#include <string>

#include "args.hh"
#include "router/router.hh"
#include "util/logging.hh"
#include "vnoise_version.hh"

namespace
{

void
usage(std::FILE *out)
{
    std::fprintf(
        out,
        "usage: vnoise_router --backends LIST [--port N] "
        "[--http-port N]\n"
        "                     [--vnodes N] [--ring-seed N]\n"
        "                     [--cache-dir P] "
        "[--health-period-ms N]\n"
        "                     [--no-hedge] [--version] [--help]\n"
        "Routes framed requests across a vnoised fleet on 127.0.0.1\n"
        "(default port %d; --http-port default %d serves /metrics,\n"
        "/healthz, /readyz; negative disables).\n"
        "--backends is comma-separated: PORT, NAME=PORT, or\n"
        "NAME=PORT:HTTPPORT (the last form makes the health probe\n"
        "consult the backend's drain-aware /readyz).\n",
        vn::service::kDefaultRouterPort,
        vn::service::kDefaultRouterHttpPort);
}

/** Parse one --backends element; fatal() on nonsense. */
vn::router::BackendConfig
parseBackend(const std::string &text)
{
    vn::router::BackendConfig backend;
    std::string rest = text;
    size_t eq = rest.find('=');
    if (eq != std::string::npos) {
        backend.name = rest.substr(0, eq);
        rest = rest.substr(eq + 1);
    }
    size_t colon = rest.find(':');
    auto port = [&text](const std::string &token) {
        std::optional<double> value = vn::tools::parseNumber(token);
        if (!value || *value != std::trunc(*value) ||
            std::fabs(*value) > 65535)
            vn::fatal("vnoise_router: bad backend '", text,
                      "' (want PORT, NAME=PORT, or NAME=PORT:HTTPPORT)");
        return static_cast<int>(*value);
    };
    backend.port = port(rest.substr(0, colon));
    if (colon != std::string::npos)
        backend.http_port = port(rest.substr(colon + 1));
    return backend;
}

} // namespace

int
main(int argc, char **argv)
{
    vn::tools::Args args("vnoise_router", argc, argv, 1);
    if (args.has("help") || args.stray() == "-h") {
        usage(stdout);
        return 0;
    }
    if (args.has("version")) {
        std::printf("vnoise_router %s (protocol %d)\n", VN_VERSION,
                    vn::service::kProtocolVersion);
        return 0;
    }
    if (!args.check({"backends", "port", "http-port", "vnodes",
                     "ring-seed", "cache-dir", "health-period-ms",
                     "no-hedge"},
                    usage))
        return 2;
    if (!args.has("backends")) {
        std::fprintf(stderr, "vnoise_router: --backends is required\n");
        usage(stderr);
        return 2;
    }

    vn::router::RouterConfig config;
    config.port = static_cast<int>(
        args.number("port", vn::service::kDefaultRouterPort));
    config.http_port = static_cast<int>(
        args.number("http-port", vn::service::kDefaultRouterHttpPort));
    config.ring.vnodes = static_cast<int>(args.number("vnodes", 64));
    config.ring.seed =
        static_cast<uint64_t>(args.number("ring-seed", 1));
    config.health_period_ms = args.number("health-period-ms", 200.0);
    config.hedge_on_overload = !args.has("no-hedge");
    config.cache_dir = args.text("cache-dir", "");

    std::istringstream list(args.text("backends", ""));
    for (std::string item; std::getline(list, item, ',');)
        if (!item.empty())
            config.backends.push_back(parseBackend(item));

    vn::router::Router router(std::move(config));
    router.start();
    router.installSignalHandlers();
    std::printf("vnoise_router %s listening on 127.0.0.1:%d "
                "(%zu backends, %zu healthy)\n",
                VN_VERSION, router.port(), router.ring().size(),
                router.healthyBackends());
    for (const std::string &name : router.ring().members())
        std::printf("vnoise_router: %s owns %.1f%% of the ring\n",
                    name.c_str(), 100.0 * router.ring().shareOf(name));
    if (router.httpPort() >= 0)
        std::printf("vnoise_router: HTTP gateway on 127.0.0.1:%d "
                    "(/metrics, /healthz, /readyz)\n",
                    router.httpPort());
    std::fflush(stdout);
    router.wait();

    vn::router::RouterCounters c = router.counters();
    std::printf("vnoise_router: drained after %llu frames "
                "(%llu forwarded, %llu rebalanced, %llu hedged, "
                "%llu cache hits)\n",
                static_cast<unsigned long long>(c.frames),
                static_cast<unsigned long long>(c.forwarded),
                static_cast<unsigned long long>(c.rebalanced),
                static_cast<unsigned long long>(c.hedged),
                static_cast<unsigned long long>(c.cache_hits));
    return 0;
}
