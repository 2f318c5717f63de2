#include "util/stats.hh"
#include "stressmark/stressmark.hh"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "util/logging.hh"

namespace vn
{

namespace
{

/** Below this many cycles per phase, pipeline ramp effects matter and
 *  effective phase powers are measured on the alternating program. */
constexpr uint64_t kShortPhaseCycles = 256;

} // namespace

PhaseList
Stressmark::makeLoop() const
{
    std::vector<ActivityPhase> phases;
    const int events = std::max(1, spec.consecutive_events);
    phases.reserve(static_cast<size_t>(events) * 2);
    for (int e = 0; e < events; ++e) {
        phases.push_back({high_power, half_period});
        phases.push_back({low_power, half_period});
    }
    return std::make_shared<const std::vector<ActivityPhase>>(
        std::move(phases));
}

bool
Stressmark::loopIsCurrent() const
{
    // makeLoop() repeats one high/low pair, so its size and first pair
    // determine the whole list.
    const auto same = [](double a, double b) {
        return std::memcmp(&a, &b, sizeof(double)) == 0;
    };
    const size_t events =
        static_cast<size_t>(std::max(1, spec.consecutive_events));
    return loop_ && loop_->size() == 2 * events &&
           same((*loop_)[0].power, high_power) &&
           same((*loop_)[0].duration, half_period) &&
           same((*loop_)[1].power, low_power) &&
           same((*loop_)[1].duration, half_period);
}

CoreActivity
Stressmark::activity(double start_delay) const
{
    std::optional<SyncSpec> sync;
    if (spec.synchronized) {
        sync = SyncSpec{spec.sync_interval_ticks,
                        spec.misalignment_ticks, low_power};
    }
    std::vector<ActivityPhase> prologue;
    if (start_delay > 0.0)
        prologue.push_back({low_power, start_delay});
    return CoreActivity::sharing(loopIsCurrent() ? loop_ : makeLoop(),
                                 sync, std::move(prologue));
}

StressmarkBuilder::StressmarkBuilder(const CoreModel &core,
                                     Program high_seq, Program low_seq)
    : core_(core), high_seq_(std::move(high_seq)),
      low_seq_(std::move(low_seq))
{
    if (high_seq_.empty() || low_seq_.empty())
        fatal("StressmarkBuilder: sequences must be non-empty");

    auto measure = [&](const Program &p) {
        size_t min_instrs = std::max<size_t>(p.size() * 16, 3000);
        return core_.run(p, min_instrs, min_instrs * 60);
    };
    RunResult high = measure(high_seq_);
    RunResult low = measure(low_seq_);
    high_power_ = high.avg_power;
    low_power_ = low.avg_power;
    high_instr_per_cycle_ = high.instrPerCycle();
    low_instr_per_cycle_ = low.instrPerCycle();
    if (high_power_ < low_power_)
        warn("StressmarkBuilder: high sequence (", high_power_,
             ") is not above low sequence (", low_power_, ")");
}

Stressmark
StressmarkBuilder::build(const StressmarkSpec &spec) const
{
    if (spec.stimulus_freq_hz <= 0.0)
        fatal("StressmarkBuilder: stimulus frequency must be > 0");
    if (spec.synchronized && spec.sync_interval_ticks == 0)
        fatal("StressmarkBuilder: sync interval must be > 0 ticks");

    const double clock = core_.params().clock_hz;
    const double half_period = 0.5 / spec.stimulus_freq_hz;
    const auto half_cycles = static_cast<uint64_t>(
        std::max(1.0, std::round(half_period * clock)));

    Stressmark sm;
    sm.spec = spec;
    sm.high_sequence = high_seq_;
    sm.low_sequence = low_seq_;
    sm.half_period = static_cast<double>(half_cycles) / clock;

    // Size each phase from the measured sequence rates. Rounding is to
    // whole instructions (partial final repetition allowed) so that a
    // short phase at a very high stimulus frequency is not forced up to
    // a full sequence length.
    auto size_phase = [&](double rate) {
        double instrs = static_cast<double>(half_cycles) * rate;
        return std::max<size_t>(
            1, static_cast<size_t>(std::round(instrs)));
    };
    sm.high_instrs = size_phase(high_instr_per_cycle_);
    sm.low_instrs = size_phase(low_instr_per_cycle_);

    // The assembled body is the code a generator would emit; for very
    // low stimulus frequencies the phases hold billions of
    // instructions (a real generator wraps the repetitions in a loop),
    // so the materialized listing is capped. Phase powers/durations -
    // what the co-simulation consumes - are unaffected.
    constexpr size_t body_cap = 1u << 17;
    for (size_t i = 0; i < std::min(sm.high_instrs, body_cap); ++i)
        sm.assembled.push(high_seq_[i % high_seq_.size()]);
    for (size_t i = 0; i < std::min(sm.low_instrs, body_cap); ++i)
        sm.assembled.push(low_seq_[i % low_seq_.size()]);

    if (half_cycles >= kShortPhaseCycles) {
        // Long phases: the pipeline settles, steady-state powers apply.
        sm.high_power = high_power_;
        sm.low_power = low_power_;
    } else {
        // Short phases: ramp-in/ramp-out eats into the achieved deltaI
        // (at very high stimulus frequencies the events shrink; the
        // 100 MHz points of Fig. 12 show the consequence). Measure the
        // effective phase powers on the assembled alternating loop.
        unsigned bin = static_cast<unsigned>(
            std::max<uint64_t>(1, half_cycles / 16));
        Waveform trace =
            core_.powerTrace(sm.assembled, half_cycles * 2 * 12, bin);
        double mid = 0.5 * (trace.max() + trace.min());
        RunningStats high_bins, low_bins;
        for (size_t i = 0; i < trace.size(); ++i) {
            if (trace[i] > mid)
                high_bins.add(trace[i]);
            else
                low_bins.add(trace[i]);
        }
        if (high_bins.count() == 0 || low_bins.count() == 0) {
            sm.high_power = sm.low_power = trace.mean();
        } else {
            sm.high_power = high_bins.mean();
            sm.low_power = low_bins.mean();
        }
    }

    sm.loop_ = sm.makeLoop();
    return sm;
}

} // namespace vn
