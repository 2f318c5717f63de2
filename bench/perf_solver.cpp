/**
 * @file
 * google-benchmark microbenchmarks of the simulation substrate: PDN
 * transient stepping (one lane and lane-batched), AC solves, DC
 * operating points, and factorization-cache hits. These bound the
 * wall-clock cost of every experiment harness.
 *
 * Besides the usual google-benchmark CLI, `--table[=OUT.json]` runs a
 * fixed lane-count throughput comparison at K in {1, 2, 3, 4, 8, 16}
 * (K=1 is the one-lane solver every speedup is relative to) and (with
 * a path) writes a machine-readable BENCH_solver.json for the CI
 * regression gate (scripts/bench_gate.py). Beside the solver it times
 * the whole chip lane-step (ChipModel::runBatch: activity advance,
 * currents, the solve, window statistics, meter and R-Unit) at K=1 and
 * K=8. The configurations are timed in interleaved alternations, one
 * of each per alternation, so each alternation's ratios compare
 * adjacent measurements: `speedup_k8`, one lane's ns per step over
 * K=8's per lane-step, which the gate holds against a floor, and
 * `chip_solver_k1` / `chip_solver_k8`, the chip lane-step over the
 * solver step at the same K (1 + the non-solve share), of which the
 * gate holds the K=8 one under a ceiling. The JSON has the median of
 * each over the alternations, and each row's median ns/step/lane. It
 * also includes `calibration_ns`, the wall time of a fixed
 * dependent-FMA reference kernel, by which the gate normalizes the
 * solver rows. Table mode also asserts that every batched lane
 * reproduces the one-lane solver bit-for-bit before trusting the
 * timings.
 */

#include <benchmark/benchmark.h>

#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "vnoise/vnoise.hh"

namespace
{

const vn::ChipPdn &
pdn()
{
    static vn::ChipPdn p = vn::buildZec12Pdn();
    return p;
}

void
BM_TransientStep(benchmark::State &state)
{
    vn::TransientSolver sim(pdn().netlist, 1e-9);
    std::vector<double> load(pdn().portCount(), 0.0);
    sim.initDcOperatingPoint(load);
    load[0] = 20.0;
    for (auto _ : state) {
        sim.step(load);
        benchmark::DoNotOptimize(sim.nodeVoltage(pdn().core_node[0]));
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_TransientStep);

void
BM_TransientStepBatched(benchmark::State &state)
{
    const size_t lanes = static_cast<size_t>(state.range(0));
    vn::BatchedTransientSolver sim(pdn().netlist, 1e-9, lanes);
    std::vector<double> load(pdn().portCount() * lanes, 0.0);
    sim.initDcOperatingPoint(load);
    for (size_t k = 0; k < lanes; ++k)
        load[k * pdn().portCount()] = 20.0;
    for (auto _ : state) {
        sim.step(load);
        benchmark::DoNotOptimize(
            sim.nodeVoltage(lanes - 1, pdn().core_node[0]));
    }
    // Items = lane-steps, so items/sec is directly comparable with
    // BM_TransientStep.
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(lanes));
}
BENCHMARK(BM_TransientStepBatched)->Arg(1)->Arg(4)->Arg(8)->Arg(16);

void
BM_DcOperatingPoint(benchmark::State &state)
{
    vn::TransientSolver sim(pdn().netlist, 1e-9);
    std::vector<double> load(pdn().portCount(), 15.0);
    for (auto _ : state)
        sim.initDcOperatingPoint(load);
}
BENCHMARK(BM_DcOperatingPoint);

void
BM_AcImpedancePoint(benchmark::State &state)
{
    vn::AcAnalysis ac(pdn().netlist);
    double f = 1e4;
    for (auto _ : state) {
        benchmark::DoNotOptimize(ac.impedance(pdn().core_port[0], f));
        f = f < 1e8 ? f * 1.3 : 1e4;
    }
}
BENCHMARK(BM_AcImpedancePoint);

void
BM_SolverConstruction(benchmark::State &state)
{
    // With the factorization cache this is a hash + intern lookup, not
    // a fresh LU: the first construction in the process factorizes,
    // every later one shares it.
    for (auto _ : state) {
        vn::TransientSolver sim(pdn().netlist, 1e-9);
        benchmark::DoNotOptimize(&sim);
    }
}
BENCHMARK(BM_SolverConstruction);

void
BM_FactorizationCacheHit(benchmark::State &state)
{
    // Steady-state cost of FactorizationCache::get() on a hit: content
    // hash of the netlist + locked bucket probe.
    benchmark::DoNotOptimize(
        vn::FactorizationCache::global().get(pdn().netlist, 1e-9).get());
    for (auto _ : state) {
        auto fact = vn::FactorizationCache::global().get(pdn().netlist,
                                                         1e-9);
        benchmark::DoNotOptimize(fact.get());
    }
}
BENCHMARK(BM_FactorizationCacheHit);

void
BM_ChipCosimMicrosecond(benchmark::State &state)
{
    // One microsecond of full chip co-simulation (1000 steps) with six
    // square-wave workloads.
    vn::ChipModel chip;
    std::vector<vn::ActivityPhase> loop{{3.4, 200e-9}, {1.9, 200e-9}};
    vn::CoreActivity wave(loop);
    std::array<vn::CoreActivity, vn::kNumCores> w = {wave, wave, wave,
                                                     wave, wave, wave};
    for (auto _ : state) {
        auto r = chip.run(w, 1e-6);
        benchmark::DoNotOptimize(r.maxP2p());
    }
}
BENCHMARK(BM_ChipCosimMicrosecond)->Unit(benchmark::kMillisecond);

void
BM_ChipCosimMicrosecondBatched(benchmark::State &state)
{
    // Eight one-microsecond co-simulations advanced as lanes of one
    // batched solve; items/sec counts lane-runs for comparability with
    // BM_ChipCosimMicrosecond.
    const size_t lanes = 8;
    vn::ChipModel chip;
    std::vector<vn::ActivityPhase> loop{{3.4, 200e-9}, {1.9, 200e-9}};
    vn::CoreActivity wave(loop);
    std::array<vn::CoreActivity, vn::kNumCores> w = {wave, wave, wave,
                                                     wave, wave, wave};
    std::vector<std::array<vn::CoreActivity, vn::kNumCores>> workloads(
        lanes, w);
    for (auto _ : state) {
        auto r = chip.runBatch(workloads, 1e-6);
        benchmark::DoNotOptimize(r[lanes - 1].maxP2p());
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(lanes));
}
BENCHMARK(BM_ChipCosimMicrosecondBatched)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------
// --table mode: fixed comparison + JSON artifact for the CI gate.
// ---------------------------------------------------------------------

double
elapsedNs(const std::chrono::steady_clock::time_point &t0)
{
    return std::chrono::duration<double, std::nano>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/**
 * Wall time of a fixed dependent-FMA kernel (8192 multiply-adds x
 * 16384 sweeps). Solver stepping is dominated by exactly this kind of
 * dependent double-precision chain, so ns_per_step / calibration_ns is
 * stable across runner generations where raw ns is not.
 */
double
calibrationNs()
{
    constexpr int sweeps = 16384;
    constexpr int chain = 8192;
    double acc = 1.0;
    auto t0 = std::chrono::steady_clock::now();
    for (int s = 0; s < sweeps; ++s) {
        for (int i = 0; i < chain; ++i)
            acc = acc * 0.999999999 + 1e-12;
        benchmark::DoNotOptimize(acc);
    }
    return elapsedNs(t0);
}

/**
 * A K-lane solver on the zEC12 PDN with 20 A into core 0's port of
 * every lane, warmed up by a tenth of `steps`.
 */
struct LaneBench
{
    LaneBench(size_t lanes, uint64_t steps)
        : sim(pdn().netlist, 1e-9, lanes),
          load(pdn().portCount() * lanes, 0.0)
    {
        sim.initDcOperatingPoint(load);
        for (size_t k = 0; k < lanes; ++k)
            load[k * pdn().portCount()] = 20.0;
        for (uint64_t i = 0; i < steps / 10; ++i)
            sim.step(load);
    }

    /** ns per lane-step over `steps` steps. */
    double
    nsPerLaneStep(uint64_t steps)
    {
        auto t0 = std::chrono::steady_clock::now();
        for (uint64_t i = 0; i < steps; ++i)
            sim.step(load);
        double ns = elapsedNs(t0);
        benchmark::DoNotOptimize(
            sim.nodeVoltage(sim.lanes() - 1, pdn().core_node[0]));
        return ns / static_cast<double>(steps * sim.lanes());
    }

    vn::TransientSolver sim;
    std::vector<double> load;
};

/**
 * K chip co-simulations as lanes of one runBatch() of `steps` steps.
 * Lane k's core c runs one of three schedules, (k + c) mod 3, as the
 * Fig. 13 mapping batches do: idle, a 2.4 MHz max-power square wave or
 * a medium-power one, so every batch holds three distinct schedules.
 */
struct ChipBench
{
    ChipBench(size_t lanes, uint64_t steps) : duration(steps * 1e-9)
    {
        const vn::CoreActivity schedules[3] = {
            chip.idleActivity(),
            vn::CoreActivity({{3.6, 208e-9}, {1.3, 208e-9}}),
            vn::CoreActivity({{2.4, 208e-9}, {1.3, 208e-9}})};
        for (size_t k = 0; k < lanes; ++k) {
            std::array<vn::CoreActivity, vn::kNumCores> set = {
                schedules[k % 3],       schedules[(k + 1) % 3],
                schedules[(k + 2) % 3], schedules[k % 3],
                schedules[(k + 1) % 3], schedules[(k + 2) % 3]};
            workloads.push_back(set);
        }
    }

    /** ns per lane-step of one runBatch() over the whole duration. */
    double
    nsPerLaneStep()
    {
        auto t0 = std::chrono::steady_clock::now();
        auto runs = chip.runBatch(workloads, duration);
        double ns = elapsedNs(t0);
        benchmark::DoNotOptimize(runs.back().avg_power_watts);
        const double steps = std::ceil(duration / chip.config().dt);
        return ns / (steps * static_cast<double>(workloads.size()));
    }

    vn::ChipModel chip;
    double duration;
    std::vector<std::array<vn::CoreActivity, vn::kNumCores>> workloads;
};

/**
 * Every lane of a 16-lane batch must match a one-lane solver fed the
 * same stimulus bit-for-bit after 2000 steps. Returns false (and
 * complains) on any divergence — the gate must not bless timings from
 * a solver that broke determinism.
 */
bool
verifyBitIdentity()
{
    constexpr size_t lanes = 16;
    constexpr uint64_t steps = 2000;
    const size_t ports = pdn().portCount();

    vn::TransientSolver scalar(pdn().netlist, 1e-9);
    vn::BatchedTransientSolver batched(pdn().netlist, 1e-9, lanes);

    std::vector<double> load(ports, 0.0);
    load[0] = 20.0;
    load[ports - 1] = 5.0;
    std::vector<double> lane_load(ports * lanes);
    for (size_t k = 0; k < lanes; ++k)
        std::memcpy(&lane_load[k * ports], load.data(),
                    ports * sizeof(double));

    scalar.initDcOperatingPoint(load);
    batched.initDcOperatingPoint(lane_load);
    for (uint64_t i = 0; i < steps; ++i) {
        scalar.step(load);
        batched.step(lane_load);
    }

    for (size_t k = 0; k < lanes; ++k) {
        for (int c = 0; c < vn::kNumCores; ++c) {
            double vs = scalar.nodeVoltage(pdn().core_node[c]);
            double vb = batched.nodeVoltage(k, pdn().core_node[c]);
            if (std::memcmp(&vs, &vb, sizeof(double)) != 0) {
                std::fprintf(stderr,
                             "BIT-IDENTITY FAILURE: lane %zu core %d: "
                             "scalar %.17g != batched %.17g\n",
                             k, c, vs, vb);
                return false;
            }
        }
    }
    return true;
}

int
runTable(const char *json_path, uint64_t steps)
{
    constexpr size_t kConfigs = 6;
    constexpr size_t ks[kConfigs] = {1, 2, 3, 4, 8, 16};
    constexpr size_t kK8 = 4;
    constexpr size_t kChipConfigs = 2;
    constexpr size_t chip_ks[kChipConfigs] = {1, 8};
    constexpr size_t chip_solver[kChipConfigs] = {0, kK8};
    constexpr int kAlternations = 7;

    std::printf("perf_solver --table: %llu steps/config x %d "
                "alternations, zEC12 PDN, dt=1ns\n\n",
                static_cast<unsigned long long>(steps), kAlternations);

    if (!verifyBitIdentity())
        return 1;
    std::printf("bit-identity: 16 batched lanes == one lane over 2000 "
                "steps ... OK\n\n");

    double calib = calibrationNs();

    std::vector<LaneBench> benches;
    benches.reserve(kConfigs);
    for (size_t k : ks)
        benches.emplace_back(k, steps);
    std::vector<ChipBench> chips;
    chips.reserve(kChipConfigs);
    for (size_t k : chip_ks) {
        chips.emplace_back(k, steps);
        chips.back().nsPerLaneStep(); // warm-up
    }
    std::vector<double> ns[kConfigs];
    std::vector<double> chip_ns[kChipConfigs];
    std::vector<double> k8_ratios;
    std::vector<double> chip_ratios[kChipConfigs];
    for (int a = 0; a < kAlternations; ++a) {
        double alternation[kConfigs];
        for (size_t i = 0; i < kConfigs; ++i) {
            alternation[i] = benches[i].nsPerLaneStep(steps);
            ns[i].push_back(alternation[i]);
        }
        k8_ratios.push_back(alternation[0] / alternation[kK8]);
        for (size_t j = 0; j < kChipConfigs; ++j) {
            const double chip = chips[j].nsPerLaneStep();
            chip_ns[j].push_back(chip);
            chip_ratios[j].push_back(chip / alternation[chip_solver[j]]);
        }
    }
    double median_ns[kConfigs];
    for (size_t i = 0; i < kConfigs; ++i)
        median_ns[i] = vn::percentile(ns[i], 50.0);
    const double speedup_k8 = vn::percentile(k8_ratios, 50.0);
    double median_chip_ns[kChipConfigs];
    double chip_solver_ratio[kChipConfigs];
    for (size_t j = 0; j < kChipConfigs; ++j) {
        median_chip_ns[j] = vn::percentile(chip_ns[j], 50.0);
        chip_solver_ratio[j] = vn::percentile(chip_ratios[j], 50.0);
    }

    std::printf("%-28s %14s %10s\n", "config (median)", "ns/step/lane",
                "speedup");
    for (size_t i = 0; i < kConfigs; ++i) {
        char name[40];
        std::snprintf(name, sizeof(name), "K=%zu", ks[i]);
        std::printf("%-28s %14.1f %9.2fx\n", name, median_ns[i],
                    median_ns[0] / median_ns[i]);
    }
    for (size_t j = 0; j < kChipConfigs; ++j) {
        char name[40];
        std::snprintf(name, sizeof(name), "chip lane-step K=%zu",
                      chip_ks[j]);
        std::printf("%-28s %14.1f\n", name, median_chip_ns[j]);
    }
    std::printf("\nspeedup_k8 (median of %d paired alternations): "
                "%.2fx\n",
                kAlternations, speedup_k8);
    for (size_t j = 0; j < kChipConfigs; ++j)
        std::printf("chip_solver_k%zu (chip lane-step / solver step, "
                    "median of %d): %.3f\n",
                    chip_ks[j], kAlternations, chip_solver_ratio[j]);
    std::printf("calibration: %.3e ns (reference FMA kernel)\n", calib);

    if (json_path != nullptr) {
        std::FILE *f = std::fopen(json_path, "w");
        if (f == nullptr) {
            std::fprintf(stderr, "cannot write %s\n", json_path);
            return 1;
        }
        std::fprintf(f, "{\n");
        std::fprintf(f, "  \"schema\": \"vnoise-bench-solver-v2\",\n");
        std::fprintf(f, "  \"steps\": %llu,\n",
                     static_cast<unsigned long long>(steps));
        std::fprintf(f, "  \"alternations\": %d,\n", kAlternations);
        std::fprintf(f, "  \"calibration_ns\": %.17g,\n", calib);
        std::fprintf(f, "  \"lanes\": [\n");
        for (size_t i = 0; i < kConfigs; ++i) {
            std::fprintf(f,
                         "    {\"lanes\": %zu, \"ns_per_step_lane\": "
                         "%.17g, \"speedup_vs_one_lane\": %.17g}%s\n",
                         ks[i], median_ns[i], median_ns[0] / median_ns[i],
                         i + 1 < kConfigs ? "," : "");
        }
        std::fprintf(f, "  ],\n");
        std::fprintf(f, "  \"chip\": [\n");
        for (size_t j = 0; j < kChipConfigs; ++j) {
            std::fprintf(f,
                         "    {\"lanes\": %zu, \"ns_per_step_lane\": "
                         "%.17g}%s\n",
                         chip_ks[j], median_chip_ns[j],
                         j + 1 < kChipConfigs ? "," : "");
        }
        std::fprintf(f, "  ],\n");
        for (size_t j = 0; j < kChipConfigs; ++j)
            std::fprintf(f, "  \"chip_solver_k%zu\": %.17g,\n", chip_ks[j],
                         chip_solver_ratio[j]);
        std::fprintf(f, "  \"speedup_k8\": %.17g\n", speedup_k8);
        std::fprintf(f, "}\n");
        std::fclose(f);
        std::printf("wrote %s\n", json_path);
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const char *json_path = nullptr;
    bool table_mode = false;
    uint64_t steps = 100000;

    std::vector<char *> passthrough;
    passthrough.push_back(argv[0]);
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--table") == 0) {
            table_mode = true;
        } else if (std::strncmp(argv[i], "--table=", 8) == 0) {
            table_mode = true;
            json_path = argv[i] + 8;
        } else if (std::strcmp(argv[i], "--steps") == 0 &&
                   i + 1 < argc) {
            steps = std::strtoull(argv[++i], nullptr, 10);
        } else {
            passthrough.push_back(argv[i]);
        }
    }
    if (table_mode) {
        if (steps < 100) {
            std::fprintf(stderr, "--steps must be >= 100\n");
            return 1;
        }
        return runTable(json_path, steps);
    }

    int pass_argc = static_cast<int>(passthrough.size());
    benchmark::Initialize(&pass_argc, passthrough.data());
    if (benchmark::ReportUnrecognizedArguments(pass_argc,
                                               passthrough.data()))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
