/**
 * @file
 * Analysis-harness tests: each experiment driver is exercised at
 * reduced scale and checked against the paper's qualitative claims.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <string>
#include <unistd.h>

#include "analysis/campaigns.hh"
#include "analysis/guardband.hh"
#include "analysis/mapping.hh"
#include "analysis/margins.hh"
#include "analysis/sweeps.hh"
#include "util/logging.hh"

namespace
{

const vn::CoreModel &
core()
{
    static vn::CoreModel c;
    return c;
}

/** Cheap kit shared by all analysis tests. */
const vn::StressmarkKit &
kit()
{
    static auto k = [] {
        bool prev = vn::setQuiet(true);
        vn::StressmarkKitParams params;
        params.epi_reps = 200;
        params.search.num_candidates = 6;
        params.search.sequence_length = 4;
        params.search.ipc_filter_keep = 16;
        params.search.ipc_eval_instrs = 160;
        params.search.power_eval_instrs = 600;
        vn::StressmarkKit built(core(), params);
        vn::setQuiet(prev);
        return built;
    }();
    return k;
}

vn::AnalysisContext
context()
{
    vn::AnalysisContext ctx;
    ctx.kit = &kit();
    ctx.window = 8e-6;
    ctx.unsync_draws = 2;
    ctx.consecutive_events = 500;
    return ctx;
}

TEST(LogspaceTest, EndpointsAndSpacing)
{
    auto f = vn::logspace(1e3, 1e6, 4);
    ASSERT_EQ(f.size(), 4u);
    EXPECT_NEAR(f.front(), 1e3, 1e-6);
    EXPECT_NEAR(f.back(), 1e6, 1e-3);
    EXPECT_NEAR(f[1] / f[0], 10.0, 1e-9);
}

TEST(LogspaceTest, InvalidArgsAreFatal)
{
    bool prev = vn::setThrowOnError(true);
    EXPECT_THROW(vn::logspace(1e3, 1e2, 4), vn::FatalError);
    EXPECT_THROW(vn::logspace(1e3, 1e6, 1), vn::FatalError);
    vn::setThrowOnError(prev);
}

TEST(FreqSweepTest, SyncSweepShowsNoiseEverywhere)
{
    auto ctx = context();
    std::vector<double> freqs{4e5, 2.6e6, 2e7};
    auto points = vn::sweepStimulusFrequency(ctx, freqs, true);
    ASSERT_EQ(points.size(), 3u);
    for (const auto &p : points) {
        EXPECT_GT(p.max_p2p, 10.0) << p.freq_hz;
        EXPECT_LT(p.min_v, ctx.chip_config.pdn.vnom);
    }
}

TEST(FreqSweepTest, ResonanceDeeperThanHighFrequency)
{
    auto ctx = context();
    std::vector<double> freqs{2.6e6, 3e7};
    auto points = vn::sweepStimulusFrequency(ctx, freqs, true);
    EXPECT_LT(points[0].min_v, points[1].min_v);
}

TEST(FreqSweepTest, SyncBeatsUnsync)
{
    // The headline claim of Fig. 9 vs Fig. 7a.
    auto ctx = context();
    std::vector<double> freqs{2.6e6};
    auto synced = vn::sweepStimulusFrequency(ctx, freqs, true);
    auto unsynced = vn::sweepStimulusFrequency(ctx, freqs, false);
    EXPECT_GT(synced[0].max_p2p, unsynced[0].max_p2p);
}

TEST(FreqSweepTest, UnsyncShowsResonancePeak)
{
    // Fig. 7a: the free-running sweep peaks in the die band.
    auto ctx = context();
    ctx.unsync_draws = 3;
    std::vector<double> freqs{2.6e6, 4e7};
    auto points = vn::sweepStimulusFrequency(ctx, freqs, false);
    EXPECT_GT(points[0].max_p2p, points[1].max_p2p);
}

TEST(FreqSweepTest, ParallelSweepMatchesSerialBitwise)
{
    // The campaign runtime promises a parallel sweep is bit-identical
    // to a serial one (per-job derived seeds, ordered results) — check
    // it on the RNG-dependent unsync path.
    auto ctx = context();
    std::vector<double> freqs{4e5, 2.6e6, 2e7};
    ctx.campaign.jobs = 1;
    auto serial = vn::sweepStimulusFrequency(ctx, freqs, false);
    ctx.campaign.jobs = 3;
    auto parallel = vn::sweepStimulusFrequency(ctx, freqs, false);
    ASSERT_EQ(serial.size(), parallel.size());
    for (size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i].freq_hz, parallel[i].freq_hz);
        EXPECT_EQ(serial[i].max_p2p, parallel[i].max_p2p);
        EXPECT_EQ(serial[i].min_v, parallel[i].min_v);
    }
}

bool
samePoints(const std::vector<vn::FreqSweepPoint> &a,
           const std::vector<vn::FreqSweepPoint> &b)
{
    auto same = [](double x, double y) {
        return std::memcmp(&x, &y, sizeof(double)) == 0;
    };
    if (a.size() != b.size())
        return false;
    for (size_t i = 0; i < a.size(); ++i) {
        if (!same(a[i].freq_hz, b[i].freq_hz) ||
            !same(a[i].max_p2p, b[i].max_p2p) ||
            !same(a[i].min_v, b[i].min_v))
            return false;
        for (int c = 0; c < vn::kNumCores; ++c)
            if (!same(a[i].p2p[c], b[i].p2p[c]) ||
                !same(a[i].v_min[c], b[i].v_min[c]))
                return false;
    }
    return true;
}

/** Six points above 1.5 MHz: every one co-simulates the 8 us window. */
const std::vector<double> kSameWindowFreqs{2e6,  3e6,  5e6,
                                           8e6, 13e6, 21e6};

TEST(SweepPackingTest, SixPointsOnThreeWorkersRunAsThreeBatchesOfTwo)
{
    // The batch rule: ceil(6 / 3) = 2 points per batch, both for
    // one-lane synchronized points and for free-running points of
    // unsync_draws = 2 lanes each (at most 8 / 2 = 4 per batch).
    for (bool synchronized : {true, false}) {
        SCOPED_TRACE(synchronized ? "synchronized" : "free-running");
        auto ctx = context();
        ctx.campaign.jobs = 3;
        vn::runtime::CampaignStats stats;
        ctx.campaign.stats_sink = &stats;
        auto packed =
            vn::sweepStimulusFrequency(ctx, kSameWindowFreqs, synchronized);
        EXPECT_EQ(stats.jobs, 6u);
        EXPECT_EQ(stats.executed, 6u);
        EXPECT_EQ(stats.lane_batches, 3u);
        EXPECT_EQ(stats.cache_hits, 0u);

        // One lane per batch (lanes = 1 allows one point per batch)
        // gives the same bits.
        ctx.campaign.lanes = 1;
        ctx.campaign.stats_sink = nullptr;
        EXPECT_TRUE(samePoints(packed, vn::sweepStimulusFrequency(
                                           ctx, kSameWindowFreqs,
                                           synchronized)));
    }
}

TEST(SweepPackingTest, BatchRuleFollowsWorkersAndLanes)
{
    vn::runtime::CampaignOptions options;
    options.jobs = 3;
    options.lanes = 8;
    EXPECT_EQ(vn::pointsPerBatch(options, 6, 1), 2u);
    EXPECT_EQ(vn::pointsPerBatch(options, 6, 4), 2u);
    EXPECT_EQ(vn::pointsPerBatch(options, 96, 1), 8u);
    EXPECT_EQ(vn::pointsPerBatch(options, 63, 1), 8u);
    EXPECT_EQ(vn::pointsPerBatch(options, 9, 1), 3u);
    EXPECT_EQ(vn::pointsPerBatch(options, 1, 1), 1u);
    EXPECT_EQ(vn::pointsPerBatch(options, 40, 4), 2u);
    // A point wider than the lane budget still gets a batch of its own.
    EXPECT_EQ(vn::pointsPerBatch(options, 5, 16), 1u);
    options.lanes = 1;
    EXPECT_EQ(vn::pointsPerBatch(options, 6, 1), 1u);
    // A borrowed pool's threads count, not jobs.
    vn::runtime::Pool pool(2);
    options.lanes = 8;
    options.pool = &pool;
    EXPECT_EQ(vn::pointsPerBatch(options, 6, 1), 3u);
}

TEST(SweepPackingTest, PartlyCachedBatchesRecomputeOnlyTheirMissingPoints)
{
    const std::string dir = ::testing::TempDir() + "vnoise_sweep_pack_" +
                            std::to_string(::getpid());
    std::filesystem::remove_all(dir);
    for (bool synchronized : {true, false}) {
        SCOPED_TRACE(synchronized ? "synchronized" : "free-running");
        auto ctx = context();
        ctx.campaign.jobs = 3;
        ctx.campaign.cache_dir = dir;

        // Cache every other point, then sweep all six: each batch of
        // two holds one cached and one missing point.
        std::vector<double> every_other;
        for (size_t i = 0; i < kSameWindowFreqs.size(); i += 2)
            every_other.push_back(kSameWindowFreqs[i]);
        vn::sweepStimulusFrequency(ctx, every_other, synchronized);

        vn::runtime::CampaignStats stats;
        ctx.campaign.stats_sink = &stats;
        auto resumed =
            vn::sweepStimulusFrequency(ctx, kSameWindowFreqs, synchronized);
        EXPECT_EQ(stats.jobs, 6u);
        EXPECT_EQ(stats.cache_hits, 3u);
        EXPECT_EQ(stats.executed, 3u);
        EXPECT_EQ(stats.lane_batches, 0u);

        ctx.campaign.cache_dir.clear();
        ctx.campaign.stats_sink = nullptr;
        EXPECT_TRUE(samePoints(resumed, vn::sweepStimulusFrequency(
                                            ctx, kSameWindowFreqs,
                                            synchronized)));
    }
    std::filesystem::remove_all(dir);
}

TEST(SweepPackingTest, MixedPointsComeBackInRequestOrder)
{
    // Synchronized and free-running points, and a point with a window
    // of its own (below 1.5 MHz), interleaved: each lands at its own
    // index, with the bits of a sweep of its kind alone.
    auto ctx = context();
    ctx.campaign.jobs = 2;
    const std::vector<vn::SweepPointSpec> specs = {
        {3e6, true}, {5e6, false}, {1e6, true}, {8e6, true}, {3e6, false}};
    auto mixed = vn::sweepStimulusPoints(ctx, specs);
    ASSERT_EQ(mixed.size(), specs.size());
    for (size_t i = 0; i < specs.size(); ++i) {
        SCOPED_TRACE("point " + std::to_string(i));
        auto alone = vn::sweepStimulusFrequency(
            ctx, std::vector<double>{specs[i].freq_hz},
            specs[i].synchronized);
        EXPECT_TRUE(samePoints({mixed[i]}, alone));
    }
}

TEST(MisalignmentTest, SmallMisalignmentReducesNoise)
{
    // Fig. 10: one TOD tick of spread already cuts the sync bonus.
    auto ctx = context();
    std::vector<uint64_t> ticks{0, 2, 10};
    auto points = vn::sweepMisalignment(ctx, 2.6e6, ticks, 2);
    ASSERT_EQ(points.size(), 3u);
    EXPECT_GT(points[0].avg_max_p2p, points[2].avg_max_p2p);
    EXPECT_GE(points[0].avg_max_p2p, points[1].avg_max_p2p);
    EXPECT_NEAR(points[1].max_misalignment_s, 125e-9, 1e-12);
}

TEST(MappingTest, DeltaIFractionAndActiveCores)
{
    vn::Mapping m{vn::WorkloadClass::Max,    vn::WorkloadClass::Medium,
                  vn::WorkloadClass::Idle,   vn::WorkloadClass::Max,
                  vn::WorkloadClass::Medium, vn::WorkloadClass::Idle};
    EXPECT_DOUBLE_EQ(vn::deltaIFraction(m), 0.5);
    EXPECT_EQ(vn::activeCores(m), 4);
}

TEST(MappingTest, NoiseOrderedByWorkloadIntensity)
{
    auto ctx = context();
    vn::MappingStudy study(ctx, 2.6e6);

    vn::Mapping idle{};
    idle.fill(vn::WorkloadClass::Idle);
    vn::Mapping medium{};
    medium.fill(vn::WorkloadClass::Medium);
    vn::Mapping maxed{};
    maxed.fill(vn::WorkloadClass::Max);

    auto r_idle = study.run(idle);
    auto r_med = study.run(medium);
    auto r_max = study.run(maxed);

    EXPECT_LT(r_idle.max_p2p, r_med.max_p2p);
    EXPECT_LT(r_med.max_p2p, r_max.max_p2p);
    EXPECT_EQ(r_max.n_max, 6);
    EXPECT_EQ(r_med.n_medium, 6);
    EXPECT_DOUBLE_EQ(r_max.delta_i_fraction, 1.0);
    EXPECT_DOUBLE_EQ(r_med.delta_i_fraction, 0.5);
}

TEST(MappingTest, CorrelationMatrixFromResults)
{
    auto ctx = context();
    vn::MappingStudy study(ctx, 2.6e6);

    // A few varied mappings are enough for a meaningful matrix.
    std::vector<vn::MappingResult> results;
    for (int mask : {0x01, 0x07, 0x15, 0x2A, 0x3F, 0x38, 0x09}) {
        vn::Mapping m{};
        for (int c = 0; c < vn::kNumCores; ++c) {
            m[c] = (mask >> c) & 1 ? vn::WorkloadClass::Max
                                   : vn::WorkloadClass::Idle;
        }
        results.push_back(study.run(m));
    }
    auto matrix = vn::noiseCorrelationMatrix(results);
    ASSERT_EQ(matrix.size(), 6u);
    for (int i = 0; i < 6; ++i) {
        EXPECT_NEAR(matrix[i][i], 1.0, 1e-9);
        for (int j = 0; j < 6; ++j) {
            EXPECT_DOUBLE_EQ(matrix[i][j], matrix[j][i]);
            EXPECT_GT(matrix[i][j], 0.0); // noise is global (paper >0.91)
        }
    }
}

TEST(MappingTest, DetectClustersOnBlockMatrix)
{
    // Hand-built block-correlation matrix: cores {0,2,4} vs {1,3,5}.
    std::vector<std::vector<double>> m(6, std::vector<double>(6, 0.92));
    for (int i = 0; i < 6; ++i)
        m[i][i] = 1.0;
    for (int i : {0, 2, 4})
        for (int j : {0, 2, 4})
            if (i != j)
                m[i][j] = 0.99;
    for (int i : {1, 3, 5})
        for (int j : {1, 3, 5})
            if (i != j)
                m[i][j] = 0.99;

    auto clusters = vn::detectClusters(m);
    EXPECT_EQ(clusters[0], 0);
    EXPECT_EQ(clusters[2], 0);
    EXPECT_EQ(clusters[4], 0);
    EXPECT_EQ(clusters[1], 1);
    EXPECT_EQ(clusters[3], 1);
    EXPECT_EQ(clusters[5], 1);
}

TEST(MappingTest, OpportunityBestNotAboveWorst)
{
    auto ctx = context();
    ctx.window = 6e-6;
    vn::MappingStudy study(ctx, 2.6e6);
    auto opportunities = vn::mappingOpportunity(study);
    ASSERT_EQ(opportunities.size(), 6u);
    for (const auto &o : opportunities) {
        EXPECT_LE(o.best_noise, o.worst_noise) << o.workloads;
        EXPECT_GE(o.reduction(), 0.0);
    }
    // k = 6 has a single mapping: best == worst.
    EXPECT_DOUBLE_EQ(opportunities[5].best_noise,
                     opportunities[5].worst_noise);
    // More stressmarks -> more worst-case noise.
    EXPECT_GT(opportunities[5].worst_noise, opportunities[0].worst_noise);
}

TEST(MarginsTest, SingleSyncEventBeatsUnsync)
{
    // Fig. 12: one synchronized deltaI event already consumes most of
    // the margin; without synchronization the margin more than doubles.
    auto ctx = context();
    std::vector<double> freqs{2.6e6};
    std::vector<int> events{1, 0}; // 1 sync event vs infinity/no-sync
    auto points = vn::consecutiveEventsStudy(ctx, freqs, events, 0.01);
    ASSERT_EQ(points.size(), 2u);
    EXPECT_TRUE(points[0].failed);
    EXPECT_TRUE(points[1].failed);
    EXPECT_GT(points[1].bias_at_failure,
              points[0].bias_at_failure * 1.5);
}

TEST(MarginsTest, EventCountSecondaryFactor)
{
    // 1 vs 100 consecutive synchronized events: margins within a step
    // or two of each other.
    auto ctx = context();
    std::vector<double> freqs{2.6e6};
    std::vector<int> events{1, 100};
    auto points = vn::consecutiveEventsStudy(ctx, freqs, events, 0.01);
    EXPECT_NEAR(points[0].bias_at_failure, points[1].bias_at_failure,
                0.021);
}

TEST(GuardbandTest, SafeBiasDecreasesWithUtilization)
{
    auto ctx = context();
    ctx.window = 6e-6;
    vn::UtilizationTraceParams trace;
    trace.intervals = 500;
    auto r = vn::guardbandStudy(ctx, trace);

    for (int k = 1; k <= vn::kNumCores; ++k) {
        EXPECT_LE(r.safe_bias[k], r.safe_bias[k - 1] + 1e-12) << k;
        EXPECT_GE(r.worst_droop[k], r.worst_droop[k - 1] - 1e-9) << k;
    }
    EXPECT_GT(r.safe_bias[0], r.safe_bias[vn::kNumCores]);
}

TEST(GuardbandTest, DynamicPolicySaves)
{
    auto ctx = context();
    ctx.window = 6e-6;
    vn::UtilizationTraceParams trace;
    trace.intervals = 500;
    auto r = vn::guardbandStudy(ctx, trace);

    EXPECT_LE(r.avg_voltage_dynamic, r.avg_voltage_static + 1e-12);
    EXPECT_GE(r.voltageSaving(), 0.0);
    EXPECT_GE(r.powerSaving(), 0.0);
    EXPECT_LT(r.powerSaving(), 0.5);

    size_t total = 0;
    for (size_t h : r.histogram)
        total += h;
    EXPECT_EQ(total, trace.intervals);
}

} // namespace
