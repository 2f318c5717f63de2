/**
 * @file
 * vnbench command line.
 *
 *   vnbench prepare [--work DIR]
 *       One-time stressmark-kit search, memoized in DIR (users pay it
 *       once per output directory, so no workload times it).
 *   vnbench --workload W [--seed N] [--seconds S] [--trace FILE]
 *           [--work DIR]
 *       One run of workload W. Prints every metric as name, value and
 *       unit, then one JSON line {correct, attempted, failed, metrics}.
 *       With --trace the run is split: the first half untraced, the
 *       second half with spans (written to FILE as JSON lines), then
 *       the solo layer probes; the metrics are then the per-layer ones.
 *   vnbench --smoke [--work DIR]
 *       Every workload at ~1/20 size, untraced and traced, with the
 *       same correctness checks. Exits nonzero on any failure.
 *
 * Exit status: 0 when every output check passed, 1 otherwise.
 */

#include <malloc.h>

#include <cstdlib>
#include <cstring>
#include <filesystem>

#include "vnbench.hh"

namespace
{

using namespace vnbench;
namespace fs = std::filesystem;

const char *const kWorkloads[] = {"figures_cold", "figures_warm",
                                  "serve_direct", "serve_routed"};

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s prepare [--work DIR]\n"
                 "       %s --workload W [--seed N] [--seconds S] "
                 "[--trace FILE] [--work DIR]\n"
                 "       %s --smoke [--work DIR]\n"
                 "workloads: figures_cold figures_warm serve_direct "
                 "serve_routed\n",
                 argv0, argv0, argv0);
    std::exit(2);
}

Outcome
runWorkload(const Options &options)
{
    const std::string &w = options.workload;
    if (w == "figures_cold" || w == "figures_warm")
        return runFigures(options, w == "figures_warm");
    return runServe(options, w == "serve_routed");
}

/** Run one workload, print its metrics and result line; true if correct. */
bool
report(const Options &options)
{
    fs::remove_all(scratchDir(options));
    Outcome out = runWorkload(options);
    fs::remove_all(scratchDir(options));
    std::printf("%s seed %llu%s: %llu attempted, %llu failed%s%s\n",
                options.workload.c_str(),
                static_cast<unsigned long long>(options.seed),
                options.trace_path.empty() ? "" : " (traced)",
                static_cast<unsigned long long>(out.attempted),
                static_cast<unsigned long long>(out.failed),
                out.digest.empty() ? "" : ", digest ", out.digest.c_str());
    out.metrics.print(stdout);
    if (!out.correct)
        std::fprintf(stderr, "vnbench: %s: output check failed: %s\n",
                     options.workload.c_str(), out.failure.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                out.correct ? "true" : "false",
                static_cast<unsigned long long>(out.attempted),
                static_cast<unsigned long long>(out.failed),
                out.metrics.json().c_str());
    std::fflush(stdout);
    return out.correct;
}

int
prepare(const Options &options)
{
    if (fs::exists(kitMemoPath(options))) {
        std::printf("kit memo present: %s\n", kitMemoPath(options).c_str());
        return 0;
    }
    Metrics m;
    Clock::time_point t0 = Clock::now();
    vn::EpiProfiler(coreModel(), vn::StressmarkKitParams{}.epi_reps)
        .profile();
    m.add("stressmark.epi_profile_s", secondsSince(t0), "s");
    t0 = Clock::now();
    vn::StressmarkKit kit = vn::StressmarkKit::standard(coreModel());
    m.add("stressmark.kit_build_s", secondsSince(t0), "s");
    kit.saveCache(kitMemoPath(options));
    m.print(stdout);
    return fs::exists(kitMemoPath(options)) ? 0 : 1;
}

int
smoke(Options options)
{
    options.smoke = true;
    options.setups = 1;
    options.seconds = 1.0;
    bool ok = true;
    for (const char *w : kWorkloads) {
        options.workload = w;
        options.trace_path.clear();
        ok = report(options) && ok;
        options.trace_path =
            options.work_dir + "/smoke-trace-" + options.workload + ".jsonl";
        ok = report(options) && ok;
    }
    std::printf("vnbench smoke: %s\n", ok ? "ok" : "FAILED");
    return ok ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    // One arena and a fixed mmap threshold, so that peak_rss_mb counts
    // the memory in use rather than freed trace buffers that happen to
    // stay in some thread's arena.
    mallopt(M_ARENA_MAX, 1);
    mallopt(M_MMAP_THRESHOLD, 64 * 1024);
    Options options;
    bool prepare_mode = false, smoke_mode = false;
    for (int i = 1; i < argc; ++i) {
        auto value = [&] {
            if (i + 1 >= argc)
                usage(argv[0]);
            return std::string(argv[++i]);
        };
        std::string arg = argv[i];
        if (arg == "prepare" && i == 1)
            prepare_mode = true;
        else if (arg == "--smoke")
            smoke_mode = true;
        else if (arg == "--workload")
            options.workload = value();
        else if (arg == "--seed")
            options.seed = std::strtoull(value().c_str(), nullptr, 10);
        else if (arg == "--seconds")
            options.seconds = std::atof(value().c_str());
        else if (arg == "--trace")
            options.trace_path = value();
        else if (arg == "--work")
            options.work_dir = value();
        else
            usage(argv[0]);
    }
    if (options.work_dir.empty())
        options.work_dir = ".bench_build/vnbench-work";
    fs::create_directories(options.work_dir);
    // Library artifacts (CSV traces, default caches) stay in the work
    // directory too.
    setenv("VNOISE_OUT_DIR", (options.work_dir + "/out").c_str(), 1);
    vn::setQuiet(true);

    if (prepare_mode)
        return prepare(options);
    if (!fs::exists(kitMemoPath(options))) {
        std::fprintf(stderr, "vnbench: no kit memo in %s; run `vnbench "
                             "prepare` first\n",
                     options.work_dir.c_str());
        return 1;
    }
    try {
        if (smoke_mode)
            return smoke(options);
        bool known = false;
        for (const char *w : kWorkloads)
            known = known || options.workload == w;
        if (!known || !(options.seconds > 0.0))
            usage(argv[0]);
        if (!options.trace_path.empty())
            options.setups = 1; // setup_s is not reported when traced
        return report(options) ? 0 : 1;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "vnbench: %s\n", e.what());
        return 1;
    }
}
