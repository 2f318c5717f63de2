#include "analysis/sweeps.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "analysis/campaigns.hh"
#include "chip/tod.hh"
#include "measure/skitter.hh"
#include "runtime/campaign.hh"
#include "util/logging.hh"
#include "util/rng.hh"
#include "util/stats.hh"

namespace vn
{

std::vector<double>
logspace(double f_lo, double f_hi, size_t points)
{
    if (points < 2 || f_lo <= 0.0 || f_hi <= f_lo)
        fatal("logspace: need 0 < f_lo < f_hi and points >= 2");
    std::vector<double> out;
    out.reserve(points);
    double llo = std::log10(f_lo);
    double lhi = std::log10(f_hi);
    for (size_t i = 0; i < points; ++i) {
        double frac =
            static_cast<double>(i) / static_cast<double>(points - 1);
        out.push_back(std::pow(10.0, llo + frac * (lhi - llo)));
    }
    return out;
}

namespace
{

void
checkContext(const AnalysisContext &ctx)
{
    if (ctx.kit == nullptr)
        fatal("AnalysisContext: kit must be set");
    if (ctx.window <= 0.0)
        fatal("AnalysisContext: window must be > 0");
}

/** Window sized to contain enough stimulus periods at low frequency. */
double
windowFor(const AnalysisContext &ctx, double freq_hz)
{
    double period = 1.0 / freq_hz;
    return std::clamp(12.0 * period, ctx.window, 6.0e-4);
}

/** Full-precision number for job keys: equal keys iff equal values. */
std::string
numKey(double value)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return buf;
}

/** Synchronized max-stressmark activity with a misalignment offset. */
CoreActivity
makeActivity(const AnalysisContext &ctx, double freq_hz,
             uint64_t offset_ticks)
{
    StressmarkSpec spec;
    spec.stimulus_freq_hz = freq_hz;
    spec.consecutive_events = ctx.consecutive_events;
    spec.synchronized = true;
    spec.misalignment_ticks = offset_ticks;
    return ctx.kit->make(spec).activity();
}

/**
 * The points of one lane batch: all synchronized or all free-running,
 * all over one `window`. `seeds[i]` drives point i's unsynchronized
 * phase draws. Every point's workload sets are lanes of one batched
 * run, so point i is bit-identical to a run of it alone.
 */
std::vector<FreqSweepPoint>
sweepPoints(const AnalysisContext &ctx, const ChipModel &chip,
            double nominal_pos, std::span<const double> freqs,
            bool synchronized, double window,
            std::span<const uint64_t> seeds)
{
    // A synchronized point is one set of six copies. A free-running
    // point approximates the sticky-mode union its copies reach as
    // they drift through every relative alignment over a long
    // measurement with several random-phase draws, drawn in exactly
    // the scalar order (draws outer, cores inner) from the point's own
    // seed; a run consumes no RNG.
    const size_t draws =
        synchronized ? 1 : static_cast<size_t>(std::max(0, ctx.unsync_draws));
    std::vector<std::array<CoreActivity, kNumCores>> sets;
    sets.reserve(freqs.size() * draws);
    for (size_t i = 0; i < freqs.size(); ++i) {
        StressmarkSpec spec;
        spec.stimulus_freq_hz = freqs[i];
        spec.consecutive_events = ctx.consecutive_events;
        spec.synchronized = synchronized;
        const Stressmark sm = ctx.kit->make(spec);
        if (synchronized) {
            sets.push_back({sm.activity(), sm.activity(), sm.activity(),
                            sm.activity(), sm.activity(), sm.activity()});
            continue;
        }
        Rng rng(seeds[i]);
        const double period = 1.0 / freqs[i];
        for (size_t d = 0; d < draws; ++d) {
            sets.push_back({sm.activity(period * rng.uniform()),
                            sm.activity(period * rng.uniform()),
                            sm.activity(period * rng.uniform()),
                            sm.activity(period * rng.uniform()),
                            sm.activity(period * rng.uniform()),
                            sm.activity(period * rng.uniform())});
        }
    }
    const auto runs = chip.runBatch(sets, window);

    std::vector<FreqSweepPoint> points(freqs.size());
    for (size_t i = 0; i < freqs.size(); ++i) {
        FreqSweepPoint &point = points[i];
        point.freq_hz = freqs[i];
        if (synchronized) {
            const ChipRunResult &r = runs[i];
            for (int c = 0; c < kNumCores; ++c) {
                point.p2p[c] = r.core[c].p2p;
                point.v_min[c] = r.core[c].v_min;
            }
        } else {
            std::array<int, kNumCores> lo{};
            std::array<int, kNumCores> hi{};
            std::array<double, kNumCores> vmin;
            vmin.fill(1e9);
            for (size_t d = 0; d < draws; ++d) {
                const ChipRunResult &r = runs[i * draws + d];
                for (int c = 0; c < kNumCores; ++c) {
                    if (d == 0) {
                        lo[c] = r.core[c].min_latch;
                        hi[c] = r.core[c].max_latch;
                    } else {
                        lo[c] = std::min(lo[c], r.core[c].min_latch);
                        hi[c] = std::max(hi[c], r.core[c].max_latch);
                    }
                    vmin[c] = std::min(vmin[c], r.core[c].v_min);
                }
            }
            for (int c = 0; c < kNumCores; ++c) {
                point.p2p[c] = 100.0 * static_cast<double>(hi[c] - lo[c]) /
                               nominal_pos;
                point.v_min[c] = vmin[c];
            }
        }
        point.max_p2p =
            *std::max_element(point.p2p.begin(), point.p2p.end());
        point.min_v =
            *std::min_element(point.v_min.begin(), point.v_min.end());
    }
    return points;
}

} // namespace

std::vector<FreqSweepPoint>
sweepStimulusFrequency(const AnalysisContext &ctx,
                       std::span<const double> freqs, bool synchronized)
{
    std::vector<SweepPointSpec> specs;
    specs.reserve(freqs.size());
    for (double f : freqs)
        specs.push_back({f, synchronized});
    return sweepStimulusPoints(ctx, specs);
}

std::vector<FreqSweepPoint>
sweepStimulusPoints(const AnalysisContext &ctx,
                    std::span<const SweepPointSpec> specs)
{
    checkContext(ctx);
    ChipModel chip(ctx.chip_config);
    double nominal_pos =
        Skitter(ctx.chip_config.skitter).nominalPosition();

    runtime::Campaign<FreqSweepPoint> campaign(ctx.campaign, ctx.seed,
                                               analysisScope(ctx));
    campaign.setCodec(encodeFreqSweepPoint, decodeFreqSweepPoint);

    // Points of one kind (synchronized or free-running) over one window
    // run the same steps, so they are lanes of one batch: group them in
    // order of first appearance and split each group by
    // pointsPerBatch(). Per-point keys, derived seeds and cache entries
    // are the one-point jobs' own.
    struct Group
    {
        bool synchronized;
        double window;
        std::vector<size_t> points; //!< indices into specs
    };
    std::vector<Group> groups;
    for (size_t i = 0; i < specs.size(); ++i) {
        const double window = windowFor(ctx, specs[i].freq_hz);
        auto group = std::find_if(groups.begin(), groups.end(),
                                  [&](const Group &g) {
                                      return g.synchronized ==
                                                 specs[i].synchronized &&
                                             g.window == window;
                                  });
        if (group == groups.end())
            group = groups.insert(groups.end(),
                                  {specs[i].synchronized, window, {}});
        group->points.push_back(i);
    }

    std::vector<size_t> submitted; // spec index of each result
    submitted.reserve(specs.size());
    for (const Group &group : groups) {
        const size_t per_batch = pointsPerBatch(
            ctx.campaign, group.points.size(),
            group.synchronized
                ? 1
                : static_cast<size_t>(std::max(1, ctx.unsync_draws)));
        for (size_t start = 0; start < group.points.size();
             start += per_batch) {
            const size_t n = std::min(per_batch, group.points.size() - start);
            std::vector<std::string> keys;
            std::vector<double> freqs;
            for (size_t j = start; j < start + n; ++j) {
                const SweepPointSpec &spec = specs[group.points[j]];
                keys.push_back(std::string("fsweep sync=") +
                               (spec.synchronized ? "1" : "0") +
                               " f=" + numKey(spec.freq_hz));
                freqs.push_back(spec.freq_hz);
                submitted.push_back(group.points[j]);
            }
            campaign.submitBatch(
                std::move(keys),
                [&ctx, &chip, nominal_pos, freqs = std::move(freqs),
                 synchronized = group.synchronized,
                 window = group.window](std::span<const uint64_t> seeds,
                                        std::span<const size_t> lanes) {
                    std::vector<double> todo;
                    todo.reserve(lanes.size());
                    for (size_t lane : lanes)
                        todo.push_back(freqs[lane]);
                    return sweepPoints(ctx, chip, nominal_pos, todo,
                                       synchronized, window, seeds);
                });
        }
    }

    std::vector<FreqSweepPoint> results = campaign.collectOrFatal();
    std::vector<FreqSweepPoint> points(specs.size());
    for (size_t i = 0; i < submitted.size(); ++i)
        points[submitted[i]] = std::move(results[i]);
    return points;
}

std::vector<MisalignmentPoint>
sweepMisalignment(const AnalysisContext &ctx, double freq_hz,
                  std::span<const uint64_t> max_ticks, int rotations)
{
    checkContext(ctx);
    if (rotations < 1 || rotations > kNumCores)
        fatal("sweepMisalignment: rotations must be in [1, 6]");

    ChipModel chip(ctx.chip_config);

    runtime::Campaign<MisalignmentPoint> campaign(
        ctx.campaign, ctx.seed,
        analysisScope(ctx, "misalign f=" + numKey(freq_hz) +
                               " rot=" + std::to_string(rotations)));
    campaign.setCodec(encodeMisalignmentPoint, decodeMisalignmentPoint);

    for (uint64_t m : max_ticks) {
        std::string key = "misalign m=" + std::to_string(m);
        campaign.submit(key, [&ctx, &chip, freq_hz, rotations,
                              m](uint64_t) {
            MisalignmentPoint point;
            point.max_misalignment_s =
                static_cast<double>(m) * TodClock::tick_seconds;

            // Distribute the six stressmarks evenly over the allowed
            // offset range [0, m] ticks.
            std::array<uint64_t, kNumCores> offsets;
            for (int c = 0; c < kNumCores; ++c) {
                offsets[c] = m == 0
                                 ? 0
                                 : static_cast<uint64_t>(std::llround(
                                       static_cast<double>(c) *
                                       static_cast<double>(m) / 5.0));
            }

            // All rotations are lanes of one batched solve
            // (makeActivity is RNG-free, so ordering is immaterial).
            std::vector<std::array<CoreActivity, kNumCores>> rots;
            rots.reserve(static_cast<size_t>(rotations));
            for (int rot = 0; rot < rotations; ++rot) {
                rots.push_back(std::array<CoreActivity, kNumCores>{
                    makeActivity(ctx, freq_hz,
                                 offsets[(0 + rot) % kNumCores]),
                    makeActivity(ctx, freq_hz,
                                 offsets[(1 + rot) % kNumCores]),
                    makeActivity(ctx, freq_hz,
                                 offsets[(2 + rot) % kNumCores]),
                    makeActivity(ctx, freq_hz,
                                 offsets[(3 + rot) % kNumCores]),
                    makeActivity(ctx, freq_hz,
                                 offsets[(4 + rot) % kNumCores]),
                    makeActivity(ctx, freq_hz,
                                 offsets[(5 + rot) % kNumCores])});
            }
            auto runs = chip.runBatch(rots, windowFor(ctx, freq_hz));

            std::array<RunningStats, kNumCores> stats;
            for (int rot = 0; rot < rotations; ++rot)
                for (int c = 0; c < kNumCores; ++c)
                    stats[c].add(runs[static_cast<size_t>(rot)].core[c].p2p);
            double max_avg = 0.0;
            for (int c = 0; c < kNumCores; ++c) {
                point.avg_p2p[c] = stats[c].mean();
                max_avg = std::max(max_avg, point.avg_p2p[c]);
            }
            point.avg_max_p2p = max_avg;
            return point;
        });
    }
    return campaign.collectOrFatal();
}

} // namespace vn
