#include "analysis/serving.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <string_view>

#include "analysis/campaigns.hh"
#include "runtime/campaign.hh"
#include "util/logging.hh"
#include "util/stats.hh"

namespace vn
{

namespace
{

std::string
traceKey(const DroopTraceSpec &spec)
{
    char buf[96];
    std::snprintf(buf, sizeof(buf), "trace f=%.17g w=%.17g c=%d d=%u",
                  spec.freq_hz, spec.window, spec.core, spec.decimation);
    return buf;
}

void
checkSpec(const DroopTraceSpec &spec, double dt)
{
    if (!(spec.freq_hz > 0.0) || !std::isfinite(spec.freq_hz))
        fatal("droopTraces: freq_hz must be positive and finite");
    if (!(spec.window > 0.0) || spec.window > 1e-3)
        fatal("droopTraces: window must be in (0, 1 ms]");
    if (spec.core < 0 || spec.core >= kNumCores)
        fatal("droopTraces: core must be in [0, ", kNumCores, ")");
    if (spec.decimation < 1)
        fatal("droopTraces: decimation must be >= 1");
    double samples = spec.window / (dt * spec.decimation);
    if (samples > static_cast<double>(kMaxTraceSamples))
        fatal("droopTraces: window/decimation yields ",
              static_cast<size_t>(samples), " samples (max ",
              kMaxTraceSamples, "); raise decimation");
}

/**
 * Cache key of one trace sample, "s.%06zu" of its index, stepped in
 * place so encoding and decoding a trace format no key from scratch.
 */
class SampleKey
{
  public:
    std::string_view view() const { return {text_, sizeof(text_) - 1}; }

    void
    next()
    {
        for (size_t i = sizeof(text_) - 2; text_[i] != '.'; --i) {
            if (text_[i] != '9') {
                ++text_[i];
                return;
            }
            text_[i] = '0';
        }
    }

  private:
    static_assert(kMaxTraceSamples <= 1000000, "six-digit sample keys");
    char text_[9] = "s.000000";
};

} // namespace

std::vector<DroopTrace>
droopTraces(const AnalysisContext &ctx,
            std::span<const DroopTraceSpec> specs)
{
    if (ctx.kit == nullptr)
        fatal("droopTraces: kit must be set");
    ChipModel chip(ctx.chip_config);
    for (const DroopTraceSpec &spec : specs)
        checkSpec(spec, ctx.chip_config.dt);

    runtime::Campaign<DroopTrace> campaign(ctx.campaign, ctx.seed,
                                           analysisScope(ctx));
    campaign.setCodec(encodeDroopTrace, decodeDroopTrace);

    for (const DroopTraceSpec &spec : specs) {
        campaign.submit(traceKey(spec), [&ctx, &chip, spec](uint64_t) {
            StressmarkSpec sm_spec;
            sm_spec.stimulus_freq_hz = spec.freq_hz;
            sm_spec.consecutive_events = ctx.consecutive_events;
            sm_spec.synchronized = true;
            Stressmark sm = ctx.kit->make(sm_spec);

            RunOptions options;
            options.capture_traces = true;
            options.trace_decimation = spec.decimation;
            std::array<CoreActivity, kNumCores> w = {
                sm.activity(), sm.activity(), sm.activity(),
                sm.activity(), sm.activity(), sm.activity()};
            auto r = chip.run(w, spec.window, options);

            const Waveform &wave =
                r.traces[static_cast<size_t>(spec.core)];
            DroopTrace trace;
            trace.t0 = wave.startTime();
            trace.dt = wave.dt();
            trace.v.assign(wave.samples().begin(), wave.samples().end());
            if (trace.v.size() > kMaxTraceSamples)
                trace.v.resize(kMaxTraceSamples);
            trace.v_min = minOf(trace.v);
            trace.v_max = maxOf(trace.v);
            return trace;
        });
    }
    return campaign.collectOrFatal();
}

void
encodeDroopTrace(const DroopTrace &t, KeyValueFile &kv)
{
    // Samples first: each then lands at the map's end.
    SampleKey key;
    for (double v : t.v) {
        kv.set(std::string(key.view()), v);
        key.next();
    }
    kv.set("t0", t.t0);
    kv.set("dt", t.dt);
    kv.set("v_min", t.v_min);
    kv.set("v_max", t.v_max);
    kv.set("n", static_cast<double>(t.v.size()));
}

DroopTrace
decodeDroopTrace(const KeyValueFile &kv)
{
    DroopTrace t;
    t.t0 = kv.require("t0");
    t.dt = kv.require("dt");
    t.v_min = kv.require("v_min");
    t.v_max = kv.require("v_max");
    size_t n = static_cast<size_t>(kv.require("n"));
    if (n > kMaxTraceSamples)
        fatal("decodeDroopTrace: corrupt entry (", n, " samples)");
    t.v.reserve(n);
    // The samples are consecutive in the sorted map: walk them, and
    // look a key up only when the next entry is not it (a stray key
    // sorts in between, or the sample is missing and require() is
    // fatal).
    const auto &values = kv.values();
    auto it = values.lower_bound("s.");
    SampleKey key;
    for (size_t i = 0; i < n; ++i, key.next()) {
        if (it != values.end() && it->first == key.view()) {
            t.v.push_back(it->second);
            ++it;
            continue;
        }
        std::string name(key.view());
        t.v.push_back(kv.require(name));
        it = values.upper_bound(name);
    }
    return t;
}

} // namespace vn
