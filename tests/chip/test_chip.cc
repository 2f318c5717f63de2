/**
 * @file
 * Chip co-simulation tests: idle behaviour, noise generation,
 * synchronization effects, process variation and Vmin experiments.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "chip/chip.hh"
#include "chip/vmin.hh"
#include "runtime/hash.hh"
#include "util/logging.hh"

namespace
{

constexpr double kHighPower = 3.46;  // max-power sequence, model units
constexpr double kLowPower = 1.874;  // min-power sequence

vn::CoreActivity
squareWave(double freq_hz, bool sync, uint64_t offset_ticks = 0)
{
    // 500 consecutive deltaI events per synchronization, as the paper's
    // stressmarks do (1000 events per 4 ms sync in section V-B).
    std::vector<vn::ActivityPhase> loop;
    for (int i = 0; i < 500; ++i) {
        loop.push_back({kHighPower, 0.5 / freq_hz});
        loop.push_back({kLowPower, 0.5 / freq_hz});
    }
    std::optional<vn::SyncSpec> s;
    if (sync)
        s = vn::SyncSpec{64000, offset_ticks, kLowPower};
    return vn::CoreActivity(loop, s);
}

std::array<vn::CoreActivity, vn::kNumCores>
allCores(const vn::CoreActivity &a)
{
    return {a, a, a, a, a, a};
}

TEST(ChipModelTest, IdleChipIsQuiet)
{
    vn::ChipModel chip;
    auto r = chip.run(allCores(chip.idleActivity()), 10e-6);
    EXPECT_FALSE(r.failed);
    EXPECT_LT(r.maxP2p(), 2.0);
    for (const auto &c : r.core) {
        EXPECT_GT(c.v_min, 0.99);
        EXPECT_LT(c.v_max, chip.supplyVoltage() + 1e-6);
    }
}

TEST(ChipModelTest, IdlePowerPlausible)
{
    // Six idle cores (static only) plus nest/MCU/GX background: the
    // input-rail power sits near 200 W for the default calibration.
    vn::ChipModel chip;
    auto r = chip.run(allCores(chip.idleActivity()), 5e-6);
    EXPECT_GT(r.avg_power_watts, 120.0);
    EXPECT_LT(r.avg_power_watts, 320.0);
}

TEST(ChipModelTest, StressmarkGeneratesNoise)
{
    vn::ChipModel chip;
    auto r = chip.run(allCores(squareWave(2.6e6, true)), 40e-6);
    EXPECT_GT(r.maxP2p(), 30.0);
    double vmin = 10.0;
    for (const auto &c : r.core)
        vmin = std::min(vmin, c.v_min);
    EXPECT_LT(vmin, 0.95);
}

TEST(ChipModelTest, SyncNoisierThanStaggered)
{
    // Perfectly aligned square waves beat deliberately spread ones:
    // the headline alignment result (Fig. 9 / Fig. 10).
    vn::ChipModel chip;
    auto synced = chip.run(allCores(squareWave(2.6e6, true)), 40e-6);

    std::array<vn::CoreActivity, vn::kNumCores> staggered = {
        squareWave(2.6e6, true, 0), squareWave(2.6e6, true, 1),
        squareWave(2.6e6, true, 2), squareWave(2.6e6, true, 3),
        squareWave(2.6e6, true, 4), squareWave(2.6e6, true, 5)};
    auto spread = chip.run(staggered, 40e-6);

    EXPECT_GT(synced.maxP2p(), spread.maxP2p() + 5.0);
}

TEST(ChipModelTest, ResonantStimulusNoisierThanOffResonance)
{
    // Single-core (others idle) so the sync bonus doesn't mask the
    // resonance; compare the die band against a high frequency.
    vn::ChipModel chip;
    std::array<vn::CoreActivity, vn::kNumCores> res = allCores(
        chip.idleActivity());
    res[0] = squareWave(2.6e6, false);
    auto at_res = chip.run(res, 40e-6);

    std::array<vn::CoreActivity, vn::kNumCores> off = allCores(
        chip.idleActivity());
    off[0] = squareWave(20e6, false);
    auto off_res = chip.run(off, 40e-6);

    EXPECT_GT(at_res.core[0].p2p, off_res.core[0].p2p);
}

TEST(ChipModelTest, MoreCoresMoreNoise)
{
    vn::ChipModel chip;
    auto one = allCores(chip.idleActivity());
    one[0] = squareWave(2.6e6, true);
    auto r1 = chip.run(one, 40e-6);

    auto all = allCores(squareWave(2.6e6, true));
    auto r6 = chip.run(all, 40e-6);

    EXPECT_GT(r6.maxP2p(), r1.maxP2p() + 10.0);
}

TEST(ChipModelTest, NoiseReachesIdleCores)
{
    // Noise propagates across the shared PDN: an idle core still reads
    // noise when its neighbours run stressmarks.
    vn::ChipModel chip;
    auto w = allCores(squareWave(2.6e6, true));
    w[3] = chip.idleActivity();
    auto r = chip.run(w, 40e-6);
    EXPECT_GT(r.core[3].p2p, 10.0);
}

TEST(ChipModelTest, TraceCaptureWorks)
{
    vn::ChipModel chip;
    vn::RunOptions options;
    options.capture_traces = true;
    options.trace_decimation = 2;
    auto r = chip.run(allCores(squareWave(2.6e6, true)), 5e-6, options);
    ASSERT_EQ(r.traces.size(), static_cast<size_t>(vn::kNumCores));
    EXPECT_GT(r.traces[0].size(), 1000u);
    EXPECT_NEAR(r.traces[0].dt(), 2e-9, 1e-15);
    EXPECT_GT(r.traces[0].peakToPeak(), 0.01);
}

TEST(ChipModelTest, BiasShiftsOperatingPoint)
{
    vn::ChipConfig config;
    config.bias = 0.05;
    vn::ChipModel biased(config);
    vn::ChipModel nominal;
    EXPECT_NEAR(biased.supplyVoltage(),
                nominal.supplyVoltage() * 0.95, 1e-9);

    auto r = biased.run(allCores(biased.idleActivity()), 5e-6);
    EXPECT_LT(r.core[0].v_mean, 1.01);
}

TEST(ChipModelTest, DeepBiasFailsUnderStress)
{
    vn::ChipConfig config;
    config.bias = 0.10;
    vn::ChipModel chip(config);
    auto r = chip.run(allCores(squareWave(2.6e6, true)), 40e-6);
    EXPECT_TRUE(r.failed);
    EXPECT_GE(r.failing_core, 0);
    EXPECT_GT(r.failure_time, 0.0);
}

TEST(ChipModelTest, VariationMakesCoresDiffer)
{
    // The discretized %p2p may land on the same latch step for all
    // cores, but the underlying voltage extremes differ with the
    // default process-variation profile.
    vn::ChipModel chip;
    auto r = chip.run(allCores(squareWave(2.6e6, true)), 40e-6);
    double lo = 1e9, hi = 0.0;
    for (const auto &c : r.core) {
        lo = std::min(lo, c.v_min);
        hi = std::max(hi, c.v_min);
    }
    EXPECT_GT(hi - lo, 1e-4); // at least 0.1 mV spread across cores
}

TEST(ChipModelTest, UniformProfileMirrorSymmetry)
{
    // With no process variation, mirrored cores (0/1, 2/3, 4/5) read
    // identical noise under identical workloads.
    vn::ChipConfig config;
    config.variation = vn::VariationProfile::uniform();
    vn::ChipModel chip(config);
    auto r = chip.run(allCores(squareWave(2.6e6, true)), 20e-6);
    EXPECT_NEAR(r.core[0].p2p, r.core[1].p2p, 1e-9);
    EXPECT_NEAR(r.core[2].p2p, r.core[3].p2p, 1e-9);
    EXPECT_NEAR(r.core[4].p2p, r.core[5].p2p, 1e-9);
}

TEST(VminTest, StressMarginSmallerThanIdleMargin)
{
    // The Vmin experiment: noisy workloads fail at a smaller undervolt
    // than idle (the entire premise of margin provisioning).
    vn::ChipConfig config;
    vn::VminExperiment vmin(config, 0.01, 0.2); // 1% steps for speed

    auto idle = vn::ChipModel(config).idleActivity();
    auto idle_result = vmin.run({idle, idle, idle, idle, idle, idle},
                                4e-6);

    auto stress = squareWave(2.6e6, true);
    auto stress_result = vmin.run(
        {stress, stress, stress, stress, stress, stress}, 20e-6);

    EXPECT_TRUE(idle_result.failed);
    EXPECT_TRUE(stress_result.failed);
    EXPECT_LT(stress_result.bias_at_failure,
              idle_result.bias_at_failure);
    // Sync stressmarks leave almost no margin (paper Fig. 12: 0-2%).
    EXPECT_LE(stress_result.bias_at_failure, 0.03);
    // Idle margin close to the full provisioned margin.
    EXPECT_GE(idle_result.bias_at_failure, 0.08);
}

TEST(VminTest, StepCountReported)
{
    vn::ChipConfig config;
    vn::VminExperiment vmin(config, 0.02, 0.2);
    auto idle = vn::ChipModel(config).idleActivity();
    auto r = vmin.run({idle, idle, idle, idle, idle, idle}, 2e-6);
    EXPECT_TRUE(r.failed);
    EXPECT_GE(r.steps, 2);
    EXPECT_NEAR(r.bias_at_failure,
                0.02 * static_cast<double>(r.steps - 1), 1e-12);
}

TEST(VminTest, LastStepPastMaxBiasRunsAtMaxBias)
{
    // 61 steps of 0.005 accumulate to 0.30000000000000016, past both
    // max_bias and the chip's bias limit; that step runs at max_bias.
    // A short critical path (v_crit 0.639 V) keeps idle cores passing
    // every step.
    vn::ChipConfig config;
    config.critpath.nominal_path_fraction = 0.3;
    vn::VminExperiment vmin(config, 0.005, 0.3);
    auto idle = vn::ChipModel(config).idleActivity();
    auto r = vmin.run(allCores(idle), 2e-6);
    EXPECT_FALSE(r.failed);
    EXPECT_EQ(r.bias_at_failure, 0.3);
    EXPECT_EQ(r.steps, 61);
    EXPECT_EQ(r.failing_core, -1);
}

/**
 * The one-step-at-a-time Vmin ladder: one scalar ChipModel per step,
 * stopping at the first failing step. The step that rounding carries
 * past max_bias runs at max_bias, as in VminExperiment.
 */
vn::VminResult
sequentialVmin(const vn::ChipConfig &base, double bias_step,
               double max_bias,
               const std::array<vn::CoreActivity, vn::kNumCores> &workloads,
               double window)
{
    vn::VminResult result;
    for (double bias = 0.0; bias <= max_bias + 1e-12; bias += bias_step) {
        vn::ChipConfig config = base;
        config.bias = std::min(bias, max_bias);
        ++result.steps;
        auto outcome = vn::ChipModel(config).run(workloads, window);
        if (outcome.failed) {
            result.bias_at_failure = config.bias;
            result.failed = true;
            result.failing_core = outcome.failing_core;
            return result;
        }
    }
    result.bias_at_failure = max_bias;
    return result;
}

TEST(VminTest, LaneScanMatchesSequentialLadder)
{
    vn::ChipConfig config;
    auto idle = vn::ChipModel(config).idleActivity();
    auto sync = allCores(squareWave(2.6e6, true));
    std::array<vn::CoreActivity, vn::kNumCores> staggered = {
        squareWave(2.6e6, true, 0), squareWave(2.6e6, true, 1),
        squareWave(2.6e6, true, 2), squareWave(2.6e6, true, 3),
        squareWave(2.6e6, true, 4), squareWave(2.6e6, true, 5)};
    const std::array<std::pair<const char *,
                               std::array<vn::CoreActivity, vn::kNumCores>>,
                     3>
        workloads = {{{"sync", sync},
                      {"staggered", staggered},
                      {"idle", allCores(idle)}}};

    bool beyond_first_chunk = false;
    bool none_failed = false;
    for (double step : {0.005, 0.01, 0.02}) {
        // max_bias 0.03 leaves idle cores passing every step.
        for (double max_bias : {0.15, 0.03}) {
            vn::VminExperiment vmin(config, step, max_bias);
            for (const auto &[name, w] : workloads) {
                SCOPED_TRACE(std::string(name) + " step " +
                             std::to_string(step) + " max " +
                             std::to_string(max_bias));
                auto lanes = vmin.run(w, 4e-6);
                auto ladder = sequentialVmin(config, step, max_bias, w, 4e-6);
                EXPECT_EQ(std::memcmp(&lanes.bias_at_failure,
                                      &ladder.bias_at_failure,
                                      sizeof(double)),
                          0)
                    << lanes.bias_at_failure << " vs "
                    << ladder.bias_at_failure;
                EXPECT_EQ(lanes.steps, ladder.steps);
                EXPECT_EQ(lanes.failed, ladder.failed);
                EXPECT_EQ(lanes.failing_core, ladder.failing_core);
                beyond_first_chunk |= ladder.failed && ladder.steps > 8;
                none_failed |= !ladder.failed;
            }
        }
    }
    EXPECT_TRUE(beyond_first_chunk);
    EXPECT_TRUE(none_failed);
}

TEST(ChipModelTest, SharedUnitSkittersReadNoise)
{
    // Paper Fig. 3: the nest, MCU and GX carry skitters too. Under an
    // all-core stressmark the nest (sitting on the big L3 decap, fed
    // through damping bridges) reads noise, but less than the worst
    // core.
    vn::ChipModel chip;
    auto r = chip.run(allCores(squareWave(2.6e6, true)), 30e-6);
    for (int u = 0; u < vn::kNumSharedUnits; ++u) {
        EXPECT_GT(r.shared[u].p2p, 2.0) << vn::sharedUnitName(u);
        EXPECT_LT(r.shared[u].v_min, chip.supplyVoltage());
    }
    // The nest is damped: discretized %p2p may tie with the cores, but
    // its deepest droop is strictly shallower than the worst core's.
    EXPECT_LE(r.shared[0].p2p, r.maxP2p());
    double worst_core_vmin = 10.0;
    for (const auto &c : r.core)
        worst_core_vmin = std::min(worst_core_vmin, c.v_min);
    EXPECT_GT(r.shared[0].v_min, worst_core_vmin);
}

TEST(ChipModelTest, SharedUnitNames)
{
    EXPECT_STREQ(vn::sharedUnitName(0), "nest");
    EXPECT_STREQ(vn::sharedUnitName(1), "mcu");
    EXPECT_STREQ(vn::sharedUnitName(2), "gx");
}

TEST(ChipModelTest, InvalidConfigIsFatal)
{
    bool prev = vn::setThrowOnError(true);
    vn::ChipConfig bad;
    bad.bias = 0.5;
    EXPECT_THROW(vn::ChipModel{bad}, vn::FatalError);
    vn::ChipConfig bad2;
    bad2.dt = 0.0;
    EXPECT_THROW(vn::ChipModel{bad2}, vn::FatalError);
    // A bias a hair past the limit is printed in full, not as "0.3".
    vn::ChipConfig bad3;
    bad3.bias = 0.30000000000000016;
    try {
        vn::ChipModel chip(bad3);
        ADD_FAILURE() << "bias past 0.3 accepted";
    } catch (const vn::FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("got 0.30000000000000016"),
                  std::string::npos)
            << e.what();
    }
    vn::setThrowOnError(prev);
}

TEST(ChipModelTest, NonFiniteInputsAreFatal)
{
    // NaN passes every "<= 0" test, and an infinite duration turns
    // into an undefined step count; each must be rejected up front.
    bool prev = vn::setThrowOnError(true);
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    for (double bad : {nan, inf}) {
        vn::ChipConfig dt;
        dt.dt = bad;
        EXPECT_THROW(vn::ChipModel{dt}, vn::FatalError);
        vn::ChipConfig amps;
        amps.power_unit_amps = bad;
        EXPECT_THROW(vn::ChipModel{amps}, vn::FatalError);
        vn::ChipConfig bias;
        bias.bias = bad;
        EXPECT_THROW(vn::ChipModel{bias}, vn::FatalError);
        vn::ChipConfig pdn;
        pdn.pdn.r_mb = bad;
        EXPECT_THROW(vn::ChipModel{pdn}, vn::FatalError);
    }

    vn::ChipModel chip;
    const auto idle = allCores(chip.idleActivity());
    const std::vector<std::array<vn::CoreActivity, vn::kNumCores>> batch = {
        idle};
    const std::vector<double> biases = {0.0, 0.1};
    for (double bad : {nan, inf}) {
        EXPECT_THROW(chip.run(idle, bad), vn::FatalError);
        EXPECT_THROW(chip.runBatch(batch, bad), vn::FatalError);
        EXPECT_THROW(chip.scanFailures(idle, biases, bad), vn::FatalError);
        const std::vector<double> bad_bias = {0.0, bad};
        EXPECT_THROW(chip.scanFailures(idle, bad_bias, 1e-6),
                     vn::FatalError);
    }

    vn::ChipConfig config;
    EXPECT_THROW(vn::VminExperiment(config, nan, 0.2), vn::FatalError);
    EXPECT_THROW(vn::VminExperiment(config, 0.01, nan), vn::FatalError);
    vn::setThrowOnError(prev);
}

TEST(ChipModelTest, SkitterLatchMonotoneAcrossEveryBoundary)
{
    // The readout from window extremes rests on latchedPosition being
    // non-decreasing in voltage. Walk +-256 ULPs around every latch
    // boundary for the default skitter and every core's gain scale.
    std::vector<vn::SkitterParams> all_params = {vn::SkitterParams{}};
    for (const auto &core : vn::VariationProfile::defaultZec12().core) {
        vn::SkitterParams params;
        params.gain *= core.skitter_gain_scale;
        all_params.push_back(params);
    }
    const double inf = std::numeric_limits<double>::infinity();
    for (const auto &params : all_params) {
        SCOPED_TRACE("gain " + std::to_string(params.gain));
        const vn::Skitter skitter(params);
        const double headroom = params.vnom - params.vth;
        for (int latch = 1; latch <= params.inverters; ++latch) {
            // Invert edgePosition() to land near the boundary.
            const double v =
                params.vth +
                headroom * std::pow(latch / skitter.nominalPosition(),
                                    1.0 / (params.alpha * params.gain));
            double x = v;
            for (int u = 0; u < 256; ++u)
                x = std::nextafter(x, -inf);
            int prev = skitter.latchedPosition(x);
            ASSERT_EQ(prev, latch - 1) << "v " << v;
            for (int u = 0; u < 512; ++u) {
                x = std::nextafter(x, inf);
                const int pos = skitter.latchedPosition(x);
                ASSERT_GE(pos, prev) << "latch " << latch << " v " << x;
                prev = pos;
            }
            ASSERT_EQ(prev, latch) << "v " << v;
        }
    }
}

TEST(ChipModelTest, SkitterReadoutMatchesPerSampleReplay)
{
    // run() and runBatch() read each skitter from the window's voltage
    // extremes. Replaying every captured sample from t >= warmup
    // through a sticky skitter must read the same latches and %p2p;
    // t is rebuilt by the solver's own `t += dt` accumulation.
    for (bool uniform : {false, true}) {
        SCOPED_TRACE(uniform ? "uniform variation" : "default variation");
        vn::ChipConfig config;
        if (uniform)
            config.variation = vn::VariationProfile::uniform();
        vn::ChipModel chip(config);
        vn::RunOptions options;
        options.capture_traces = true;
        options.trace_decimation = 1;

        const auto idle = chip.idleActivity();
        std::vector<std::array<vn::CoreActivity, vn::kNumCores>> workloads =
            {allCores(squareWave(2.6e6, true)),
             {squareWave(2.0e6, true), idle, squareWave(2.6e6, true, 7),
              idle, squareWave(1.1e6, true), idle},
             allCores(idle)};
        std::vector<vn::ChipRunResult> results =
            chip.runBatch(workloads, 3e-6, options);
        results.push_back(chip.run(workloads[0], 3e-6, options));

        int noisy = 0;
        for (size_t r = 0; r < results.size(); ++r) {
            for (int c = 0; c < vn::kNumCores; ++c) {
                SCOPED_TRACE("result " + std::to_string(r) + " core " +
                             std::to_string(c));
                vn::SkitterParams params = config.skitter;
                params.gain *= config.variation.core[c].skitter_gain_scale;
                vn::Skitter replay(params);
                const vn::Waveform &trace = results[r].traces[c];
                double t = 0.0;
                for (size_t i = 0; i < trace.size(); ++i) {
                    t += config.dt;
                    if (t >= options.warmup)
                        replay.sample(trace[i]);
                }
                const vn::CoreRunResult &core = results[r].core[c];
                EXPECT_EQ(core.min_latch, replay.minPosition());
                EXPECT_EQ(core.max_latch, replay.maxPosition());
                const double p2p = replay.percentP2p();
                EXPECT_EQ(std::memcmp(&core.p2p, &p2p, sizeof p2p), 0);
                noisy += core.max_latch > core.min_latch ? 1 : 0;
            }
        }
        // The windows cross latch boundaries, so the check has teeth.
        EXPECT_GT(noisy, 6);
    }
}

/**
 * FNV-1a of every field of a run result, each printed at %.17g (so
 * the digest moves with any bit of any double): every core's and
 * shared unit's readout, the power, the R-Unit verdict, the duration
 * and every sample of every trace.
 */
uint64_t
resultDigest(const vn::ChipRunResult &r)
{
    uint64_t h = vn::runtime::kFnvOffset;
    auto add = [&h](double v) {
        char text[32];
        std::snprintf(text, sizeof text, "%.17g;", v);
        h = vn::runtime::fnv1aAppend(h, text);
    };
    auto add_unit = [&](const vn::CoreRunResult &u) {
        add(u.p2p);
        add(u.min_latch);
        add(u.max_latch);
        add(u.v_min);
        add(u.v_max);
        add(u.v_mean);
    };
    for (const auto &c : r.core)
        add_unit(c);
    for (const auto &u : r.shared)
        add_unit(u);
    add(r.avg_power_watts);
    add(r.failed ? 1.0 : 0.0);
    add(r.failure_time);
    add(r.failing_core);
    add(r.duration);
    add(static_cast<double>(r.traces.size()));
    for (const auto &trace : r.traces) {
        add(trace.dt());
        add(static_cast<double>(trace.size()));
        for (size_t i = 0; i < trace.size(); ++i)
            add(trace[i]);
    }
    return h;
}

TEST(ChipModelTest, RunResultsMatchGoldenDigests)
{
    // Full-precision goldens of run(), pinned from the output of the
    // model before run() became a one-lane runBatch(): any change to
    // the solver, the chip loop or the readouts that moves one bit of
    // one field fails here.
    vn::ChipModel chip;
    auto idle = chip.run(allCores(chip.idleActivity()), 10e-6);
    EXPECT_EQ(resultDigest(idle), 0x16545abfa1efd56dull)
        << std::hex << resultDigest(idle);

    vn::RunOptions traced;
    traced.capture_traces = true;
    traced.trace_decimation = 3;
    auto synced = chip.run(allCores(squareWave(2.6e6, true)), 6e-6, traced);
    ASSERT_EQ(synced.traces.size(), static_cast<size_t>(vn::kNumCores));
    EXPECT_EQ(resultDigest(synced), 0x52c3e69b9c9e5b2bull)
        << std::hex << resultDigest(synced);

    vn::ChipConfig config;
    config.bias = 0.10;
    vn::ChipModel biased(config);
    auto failing = biased.run(allCores(squareWave(2.6e6, true)), 20e-6);
    ASSERT_TRUE(failing.failed);
    EXPECT_EQ(resultDigest(failing), 0x58070755771538adull)
        << std::hex << resultDigest(failing);
}

} // namespace
