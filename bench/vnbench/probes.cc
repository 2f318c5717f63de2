/**
 * @file
 * Solo layer probes for traced runs: each layer timed alone on inputs
 * shaped like the workloads' (the Fig. 12 cell activities for the
 * scalar chip run, the Fig. 13 mappings for the lane-batched run), so a
 * per-layer number can be set against the end-to-end rows it feeds.
 */

#include <cmath>
#include <filesystem>
#include <optional>

#include "service/client.hh"
#include "service/server.hh"
#include "vnbench.hh"

namespace vnbench
{

namespace
{

/** Keeps timed results observable so loops are not folded away. */
volatile double g_sink = 0.0;

/** Median over `reps` runs of fn()'s host ns per unit of work. */
template <typename Fn>
double
nsPerUnit(int reps, Fn fn)
{
    std::vector<double> per;
    for (int r = 0; r < reps; ++r) {
        Clock::time_point t0 = Clock::now();
        double units = fn();
        per.push_back(msBetween(t0, Clock::now()) * 1e6 / units);
    }
    return percentile(per, 50);
}

/** Six copies of the Fig. 12 cell stressmark (2.5 MHz, 100 events). */
std::array<vn::CoreActivity, vn::kNumCores>
cellActivities(const vn::StressmarkKit &kit)
{
    vn::StressmarkSpec spec;
    spec.stimulus_freq_hz = 2.5e6;
    spec.consecutive_events = 100;
    spec.synchronized = true;
    vn::Stressmark sm = kit.make(spec);
    return {sm.activity(), sm.activity(), sm.activity(),
            sm.activity(), sm.activity(), sm.activity()};
}

} // namespace

void
runProbes(const Options &options, const vn::StressmarkKit &kit, Metrics &m)
{
    const int reps = options.smoke ? 1 : 5;
    const double scale = options.smoke ? 0.1 : 1.0;
    auto count = [&](double n) {
        return static_cast<uint64_t>(std::max(1.0, n * scale));
    };

    std::vector<double> load_ms;
    for (int r = 0; r < 3; ++r) {
        Clock::time_point t0 = Clock::now();
        loadKit(options);
        load_ms.push_back(msBetween(t0, Clock::now()));
    }
    m.add("stressmark.kit_load_ms", percentile(load_ms, 50), "ms");

    double cycles_per_s = 1e9 / nsPerUnit(reps, [&] {
        vn::RunResult r = coreModel().run(kit.maxSequence(), count(2e5));
        return static_cast<double>(r.cycles);
    });
    m.add("uarch.core_cycles_per_s", cycles_per_s, "1/s");

    // The solve alone: the scalar path of ChipModel::run on the default
    // chip, and K=8 lanes on Fig. 13's 2 ns chip.
    vn::AnalysisContext ctx;
    ctx.kit = &kit;
    ctx.window = 24e-6;
    const vn::ChipModel chip;
    const vn::MappingStudy study(ctx, 2.4e6);
    std::vector<double> currents(chip.pdn().portCount(), 1.0);
    const double step_k1 = nsPerUnit(reps, [&] {
        vn::TransientSolver sim(chip.factorization());
        sim.initDcOperatingPoint(currents);
        uint64_t steps = count(2e4);
        for (uint64_t k = 0; k < steps; ++k)
            sim.step(currents);
        g_sink = sim.nodeVoltage(chip.pdn().core_node[0]);
        return static_cast<double>(steps);
    });
    m.add("circuit.step_ns.k1", step_k1, "ns");
    std::vector<double> lane_currents(8 * chip.pdn().portCount(), 1.0);
    const double step_k8 = nsPerUnit(reps, [&] {
        vn::BatchedTransientSolver sim(study.chip().factorization(), 8);
        sim.initDcOperatingPoint(lane_currents);
        uint64_t steps = count(5e3);
        for (uint64_t k = 0; k < steps; ++k)
            sim.step(lane_currents);
        g_sink = sim.nodeVoltage(7, chip.pdn().core_node[0]);
        return static_cast<double>(8 * steps);
    });
    m.add("circuit.step_ns_per_lane.k8", step_k8, "ns");

    // Whole chip steps: the solve plus activity, skitters, critpath and
    // meter.
    const auto cell = cellActivities(kit);
    const double run_window = 20e-6 * scale;
    const double run_steps = std::ceil(run_window / chip.config().dt);
    const double run_ns = nsPerUnit(reps, [&] {
        g_sink = chip.run(cell, run_window).maxP2p();
        return run_steps;
    });
    m.add("chip.run_ns_per_step", run_ns, "ns");
    m.add("chip.sim_us_per_host_s", 1e9 * chip.config().dt / run_ns * 1e6,
          "us/s");
    // The same, lane-batched over 8 Fig. 13 mappings; MappingStudy's
    // window is the context's 24 us at 2.4 MHz.
    std::vector<vn::Mapping> mappings;
    for (int code = 0; code < 729; code += 91) {
        vn::Mapping mapping;
        for (int c = 0, v = code; c < vn::kNumCores; ++c, v /= 3)
            mapping[c] = static_cast<vn::WorkloadClass>(v % 3);
        mappings.push_back(mapping);
    }
    std::vector<vn::MappingResult> mapped;
    const double batch_ns = nsPerUnit(reps, [&] {
        mapped = study.runBatch(mappings);
        return std::ceil(ctx.window / study.chip().config().dt) *
               static_cast<double>(mappings.size());
    });
    m.add("chip.runbatch_ns_per_lane_step.k8", batch_ns, "ns");
    m.add("chip.non_solve_share", 1.0 - step_k8 / batch_ns, "ratio");

    Clock::time_point t0 = Clock::now();
    vn::VminExperiment vmin(chip.config(), 0.005, 0.15);
    g_sink = vmin.run(cell, 20e-6 * scale).bias_at_failure;
    m.add("chip.vmin_cell_ms", msBetween(t0, Clock::now()), "ms");

    // The per-step work outside the solve, one call at a time.
    const uint64_t calls = count(1e6);
    m.add("chip.activity_advance_ns", nsPerUnit(reps, [&] {
              vn::CoreActivity a = cell[0];
              double sum = 0.0;
              for (uint64_t k = 0; k < calls; ++k)
                  sum += a.advance(chip.config().dt);
              g_sink = sum;
              return static_cast<double>(calls);
          }),
          "ns");
    // Voltages swing over the droop range the skitter resolves.
    auto volts = [](uint64_t k) {
        return 0.95 + 0.1 * static_cast<double>(k % 1024) / 1024.0;
    };
    m.add("measure.skitter_sample_ns", nsPerUnit(reps, [&] {
              vn::Skitter skitter(chip.config().skitter);
              for (uint64_t k = 0; k < calls; ++k)
                  skitter.sample(volts(k));
              g_sink = skitter.percentP2p();
              return static_cast<double>(calls);
          }),
          "ns");
    m.add("measure.critpath_check_ns", nsPerUnit(reps, [&] {
              vn::CriticalPathMonitor monitor(chip.config().critpath);
              uint64_t violations = 0;
              for (uint64_t k = 0; k < calls; ++k)
                  violations += monitor.violates(volts(k));
              g_sink = static_cast<double>(violations);
              return static_cast<double>(calls);
          }),
          "ns");
    m.add("measure.meter_sample_ns", nsPerUnit(reps, [&] {
              vn::PowerMeter meter;
              for (uint64_t k = 0; k < calls; ++k)
                  meter.sample(volts(k), 40.0);
              g_sink = meter.averageWatts();
              return static_cast<double>(calls);
          }),
          "ns");

    // Result cache on real entries: the mappings just computed.
    const std::string dir = scratchDir(options) + "/probe-cache";
    std::filesystem::remove_all(dir);
    vn::runtime::ResultCache cache(dir);
    std::vector<double> store_us, load_us;
    for (uint64_t i = 0; i < count(64); ++i) {
        vn::KeyValueFile kv;
        vn::encodeMappingResult(mapped[i % mapped.size()], kv);
        uint64_t key =
            vn::runtime::ResultCache::keyFor("vnbench", std::to_string(i));
        t0 = Clock::now();
        cache.store(key, kv);
        store_us.push_back(msBetween(t0, Clock::now()) * 1e3);
        t0 = Clock::now();
        std::optional<vn::KeyValueFile> entry = cache.load(key);
        load_us.push_back(msBetween(t0, Clock::now()) * 1e3);
        g_sink = entry ? static_cast<double>(entry->size()) : -1.0;
    }
    m.add("runtime.cache_store_us.p50", percentile(store_us, 50), "us");
    m.add("runtime.cache_load_us.p50", percentile(load_us, 50), "us");
    m.add("runtime.pool_dispatch_us", nsPerUnit(reps, [&] {
              vn::runtime::Pool pool(3);
              uint64_t tasks = count(3000);
              for (uint64_t k = 0; k < tasks; ++k)
                  pool.submit([] {});
              pool.wait();
              return static_cast<double>(tasks);
          }) / 1e3,
          "us");

    // Codec on the streamed 60000-sample trace.
    const vn::DroopTraceSpec spec{2.4e6, 6e-5, 1, 1};
    const vn::service::AnyResult trace = vn::droopTraces(ctx, {&spec, 1})[0];
    std::string text;
    m.add("service.codec_trace_encode_ms", nsPerUnit(reps, [&] {
              text = vn::service::encodeResult(trace).dump();
              return 1.0;
          }) / 1e6,
          "ms");
    m.add("service.codec_trace_decode_ms", nsPerUnit(reps, [&] {
              auto r = vn::service::decodeResult(
                  vn::service::Verb::Trace,
                  vn::service::Json::parse(text));
              g_sink = std::get<vn::DroopTrace>(r).v_max;
              return 1.0;
          }) / 1e6,
          "ms");

    // Protocol overhead alone: pings against an idle daemon.
    vn::service::Server server(ctx, vn::service::ServerConfig{});
    server.start();
    m.add("service.ping_rtt_us.p50",
          pingP50Us(server.port(), static_cast<int>(count(500))), "us");
}

double
pingP50Us(int port, int count)
{
    vn::service::Client client(port);
    std::vector<double> us;
    for (int i = 0; i < count; ++i) {
        Clock::time_point t0 = Clock::now();
        client.ping();
        us.push_back(msBetween(t0, Clock::now()) * 1e3);
    }
    return percentile(us, 50);
}

} // namespace vnbench
