#include "analysis/campaigns.hh"

#include <algorithm>

#include "chip/configio.hh"
#include "util/logging.hh"

namespace vn
{

namespace
{

void
encodeCoreArray(const std::array<double, kNumCores> &values,
                const std::string &prefix, KeyValueFile &kv)
{
    for (int c = 0; c < kNumCores; ++c)
        kv.set(prefix + std::to_string(c), values[static_cast<size_t>(c)]);
}

std::array<double, kNumCores>
decodeCoreArray(const KeyValueFile &kv, const std::string &prefix)
{
    std::array<double, kNumCores> values{};
    for (int c = 0; c < kNumCores; ++c)
        values[static_cast<size_t>(c)] =
            kv.require(prefix + std::to_string(c));
    return values;
}

} // namespace

std::string
analysisScope(const AnalysisContext &ctx, const std::string &extra)
{
    KeyValueFile kv = chipConfigKeyValues(ctx.chip_config);
    kv.set("ctx.window", ctx.window);
    kv.set("ctx.unsync_draws", ctx.unsync_draws);
    kv.set("ctx.seed", static_cast<double>(ctx.seed));
    kv.set("ctx.consecutive_events", ctx.consecutive_events);
    std::string scope = kv.serialize();
    if (!extra.empty())
        scope += "extra: " + extra + "\n";
    return scope;
}

size_t
pointsPerBatch(const runtime::CampaignOptions &options, size_t points,
               size_t lanes_per_point)
{
    const size_t workers = static_cast<size_t>(std::max(
        1, options.pool != nullptr ? options.pool->threads() : options.jobs));
    const size_t widest = std::max<size_t>(
        1, static_cast<size_t>(options.lanes) /
               std::max<size_t>(1, lanes_per_point));
    return std::clamp<size_t>((points + workers - 1) / workers, 1, widest);
}

void
encodeFreqSweepPoint(const FreqSweepPoint &p, KeyValueFile &kv)
{
    kv.set("freq_hz", p.freq_hz);
    encodeCoreArray(p.p2p, "p2p.", kv);
    encodeCoreArray(p.v_min, "v_min.", kv);
    kv.set("max_p2p", p.max_p2p);
    kv.set("min_v", p.min_v);
}

FreqSweepPoint
decodeFreqSweepPoint(const KeyValueFile &kv)
{
    FreqSweepPoint p;
    p.freq_hz = kv.require("freq_hz");
    p.p2p = decodeCoreArray(kv, "p2p.");
    p.v_min = decodeCoreArray(kv, "v_min.");
    p.max_p2p = kv.require("max_p2p");
    p.min_v = kv.require("min_v");
    return p;
}

void
encodeMisalignmentPoint(const MisalignmentPoint &p, KeyValueFile &kv)
{
    kv.set("max_misalignment_s", p.max_misalignment_s);
    encodeCoreArray(p.avg_p2p, "avg_p2p.", kv);
    kv.set("avg_max_p2p", p.avg_max_p2p);
}

MisalignmentPoint
decodeMisalignmentPoint(const KeyValueFile &kv)
{
    MisalignmentPoint p;
    p.max_misalignment_s = kv.require("max_misalignment_s");
    p.avg_p2p = decodeCoreArray(kv, "avg_p2p.");
    p.avg_max_p2p = kv.require("avg_max_p2p");
    return p;
}

void
encodeMappingResult(const MappingResult &r, KeyValueFile &kv)
{
    // The mapping itself as a base-3 code, core 0 least significant.
    int code = 0;
    for (int c = kNumCores - 1; c >= 0; --c)
        code = code * 3 + static_cast<int>(r.mapping[static_cast<size_t>(c)]);
    kv.set("mapping_code", code);
    encodeCoreArray(r.p2p, "p2p.", kv);
    encodeCoreArray(r.v_min, "v_min.", kv);
    kv.set("max_p2p", r.max_p2p);
    kv.set("delta_i_fraction", r.delta_i_fraction);
    kv.set("n_max", r.n_max);
    kv.set("n_medium", r.n_medium);
}

MappingResult
decodeMappingResult(const KeyValueFile &kv)
{
    MappingResult r;
    int code = static_cast<int>(kv.require("mapping_code"));
    for (int c = 0; c < kNumCores; ++c) {
        r.mapping[static_cast<size_t>(c)] =
            static_cast<WorkloadClass>(code % 3);
        code /= 3;
    }
    r.p2p = decodeCoreArray(kv, "p2p.");
    r.v_min = decodeCoreArray(kv, "v_min.");
    r.max_p2p = kv.require("max_p2p");
    r.delta_i_fraction = kv.require("delta_i_fraction");
    r.n_max = static_cast<int>(kv.require("n_max"));
    r.n_medium = static_cast<int>(kv.require("n_medium"));
    return r;
}

void
encodeMarginPoint(const MarginPoint &p, KeyValueFile &kv)
{
    kv.set("freq_hz", p.freq_hz);
    kv.set("events", p.events);
    kv.set("bias_at_failure", p.bias_at_failure);
    kv.set("failed", p.failed ? 1.0 : 0.0);
}

MarginPoint
decodeMarginPoint(const KeyValueFile &kv)
{
    MarginPoint p;
    p.freq_hz = kv.require("freq_hz");
    p.events = static_cast<int>(kv.require("events"));
    p.bias_at_failure = kv.require("bias_at_failure");
    p.failed = kv.require("failed") != 0.0;
    return p;
}

} // namespace vn
