#include "chip/chip.hh"

#include <algorithm>
#include <cmath>
#include <iomanip>

#include "util/logging.hh"
#include "util/stats.hh"

namespace vn
{

const char *
sharedUnitName(int unit)
{
    switch (unit) {
      case 0: return "nest";
      case 1: return "mcu";
      case 2: return "gx";
    }
    return "?";
}

namespace
{

/**
 * One unit's readout over the window from the statistics of its
 * voltage samples. Skitter::latchedPosition is monotone non-decreasing
 * in voltage, so the lowest and highest latch any sample touches are
 * the latches of the lowest and highest voltage: a fresh sticky
 * skitter fed the two extremes reads exactly what one fed every
 * sample would.
 */
CoreRunResult
unitReadout(const RunningStats &vstats, const SkitterParams &params)
{
    Skitter skitter(params);
    if (vstats.count() > 0) {
        skitter.sample(vstats.min());
        skitter.sample(vstats.max());
    }
    CoreRunResult readout;
    readout.p2p = skitter.percentP2p();
    readout.min_latch = skitter.minPosition();
    readout.max_latch = skitter.maxPosition();
    readout.v_min = vstats.min();
    readout.v_max = vstats.max();
    readout.v_mean = vstats.mean();
    return readout;
}

/** Every core's and shared unit's readout over the window. */
void
fillReadouts(const ChipConfig &config,
             const std::array<RunningStats, kNumCores> &core_vstats,
             const std::array<RunningStats, kNumSharedUnits> &shared_vstats,
             ChipRunResult &result)
{
    // Per-core skitters have variation-scaled sensitivity.
    for (int c = 0; c < kNumCores; ++c) {
        SkitterParams sp = config.skitter;
        sp.gain *= config.variation.core[c].skitter_gain_scale;
        result.core[c] = unitReadout(core_vstats[c], sp);
    }
    for (int u = 0; u < kNumSharedUnits; ++u)
        result.shared[u] = unitReadout(shared_vstats[u], config.skitter);
}

} // namespace

double
ChipRunResult::maxP2p() const
{
    double best = 0.0;
    for (const auto &c : core)
        best = std::max(best, c.p2p);
    return best;
}

int
ChipRunResult::noisiestCore() const
{
    int best = 0;
    for (int c = 1; c < kNumCores; ++c)
        if (core[c].p2p > core[best].p2p)
            best = c;
    return best;
}

ChipModel::ChipModel(ChipConfig config)
    : config_(std::move(config)), critpath_(config_.critpath)
{
    supply_ = supplyAt(config_.bias);
    if (!(config_.dt > 0.0) || !std::isfinite(config_.dt))
        fatal("ChipModel: dt must be finite and > 0, got ", config_.dt);
    if (!(config_.power_unit_amps > 0.0) ||
        !std::isfinite(config_.power_unit_amps))
        fatal("ChipModel: power_unit_amps must be finite and > 0, got ",
              config_.power_unit_amps);

    // Apply per-core variation to the PDN and the bias to the supply.
    PdnConfig pdn_config = config_.pdn;
    for (int c = 0; c < kNumCores; ++c) {
        pdn_config.rail_res_scale[c] *=
            config_.variation.core[c].rail_res_scale;
        pdn_config.decap_scale[c] *= config_.variation.core[c].decap_scale;
    }
    pdn_config.vnom = supply_;
    pdn_ = buildZec12Pdn(pdn_config);

    // One LU factorization per (netlist content, dt), interned in the
    // process-wide cache and shared read-only by every run of this
    // model — one lane or many, serial or across worker threads.
    fact_ = FactorizationCache::global().get(pdn_.netlist, config_.dt);
}

double
ChipModel::supplyAt(double bias) const
{
    if (!(bias >= 0.0 && bias <= 0.3))
        fatal("ChipModel: bias must be in [0, 0.3], got ",
              std::setprecision(17), bias);
    return config_.pdn.vnom * (1.0 - bias);
}

CoreActivity
ChipModel::idleActivity() const
{
    return CoreActivity::constant(config_.core.static_power);
}

void
ChipModel::fillCurrents(std::array<CoreActivity, kNumCores> &activity,
                        bool advance, double *currents) const
{
    for (int c = 0; c < kNumCores; ++c) {
        double power = advance ? activity[c].advance(config_.dt)
                               : activity[c].currentPower();
        currents[pdn_.core_port[c]] = power * config_.power_unit_amps *
                                      config_.variation.core[c].power_scale;
    }
    currents[pdn_.l3_port] = config_.nest_amps;
    currents[pdn_.mcu_port] = config_.mcu_amps;
    currents[pdn_.gx_port] = config_.gx_amps;
}

ChipRunResult
ChipModel::run(const std::array<CoreActivity, kNumCores> &workloads,
               double duration, const RunOptions &options) const
{
    std::vector<ChipRunResult> results =
        runBatch(std::span(&workloads, 1), duration, options);
    return std::move(results.front());
}

std::vector<ChipRunResult>
ChipModel::runBatch(
    std::span<const std::array<CoreActivity, kNumCores>> workloads,
    double duration, const RunOptions &options) const
{
    if (!(duration > 0.0) || !std::isfinite(duration))
        fatal("ChipModel::runBatch(): duration must be finite and > 0, got ",
              duration);
    const size_t lanes = workloads.size();
    if (lanes == 0)
        return {};

    std::vector<std::array<CoreActivity, kNumCores>> activity(
        workloads.begin(), workloads.end());

    // Per-lane measurement state. Lanes never mix arithmetically: each
    // samples its own voltages into its own stats/meter, so lane
    // results are bit-identical to a one-lane run of the same
    // workloads. Voltage statistics of the cores and of the shared
    // units (nest/L3, MCU, GX) run from warmup on; the skitter
    // readouts derive from them.
    struct LaneState
    {
        std::array<RunningStats, kNumCores> vstats;
        std::array<RunningStats, kNumSharedUnits> shared_vstats;
        PowerMeter meter;
    };
    std::vector<LaneState> lane_state(lanes);

    const std::array<NodeId, kNumSharedUnits> shared_nodes = {
        pdn_.l3_node, pdn_.mcu_node, pdn_.gx_node};

    TransientSolver sim(fact_, lanes);

    const size_t num_ports = pdn_.portCount();
    std::vector<double> currents(num_ports * lanes, 0.0);
    auto fill_currents = [&](bool advance) {
        for (size_t k = 0; k < lanes; ++k)
            fillCurrents(activity[k], advance, &currents[k * num_ports]);
    };

    fill_currents(false);
    sim.initDcOperatingPoint(currents);

    std::vector<ChipRunResult> results(lanes);
    for (auto &r : results) {
        r.duration = duration;
        if (options.capture_traces) {
            r.traces.assign(
                kNumCores,
                Waveform(config_.dt *
                         static_cast<double>(options.trace_decimation)));
        }
    }

    unsigned trace_phase = 0;

    const auto steps =
        static_cast<uint64_t>(std::ceil(duration / config_.dt));
    for (uint64_t step = 0; step < steps; ++step) {
        fill_currents(true);
        sim.step(currents);
        double t = sim.time();

        for (size_t k = 0; k < lanes; ++k) {
            LaneState &ls = lane_state[k];
            ChipRunResult &result = results[k];

            for (int c = 0; c < kNumCores; ++c) {
                double v = sim.nodeVoltage(k, pdn_.core_node[c]);
                if (t >= options.warmup)
                    ls.vstats[c].add(v);
                if (!result.failed && critpath_.violates(v)) {
                    result.failed = true;
                    result.failure_time = t;
                    result.failing_core = c;
                }
                if (options.capture_traces && trace_phase == 0)
                    result.traces[c].push(v);
            }

            if (t >= options.warmup) {
                for (int u = 0; u < kNumSharedUnits; ++u)
                    ls.shared_vstats[u].add(
                        sim.nodeVoltage(k, shared_nodes[u]));
            }

            ls.meter.sample(supply_, std::fabs(sim.sourceCurrent(k, 0)));
        }

        if (options.capture_traces &&
            ++trace_phase == options.trace_decimation) {
            trace_phase = 0;
        }
    }

    for (size_t k = 0; k < lanes; ++k) {
        const LaneState &ls = lane_state[k];
        fillReadouts(config_, ls.vstats, ls.shared_vstats, results[k]);
        results[k].avg_power_watts = ls.meter.averageWatts();
    }
    return results;
}

std::vector<FailureOutcome>
ChipModel::scanFailures(const std::array<CoreActivity, kNumCores> &workloads,
                        std::span<const double> biases,
                        double duration) const
{
    if (!(duration > 0.0) || !std::isfinite(duration))
        fatal("ChipModel::scanFailures(): duration must be finite and > 0, "
              "got ", duration);
    const size_t lanes = biases.size();
    if (lanes == 0)
        return {};

    // The lanes differ only in the value of the PDN's one voltage
    // source, the VRM.
    std::vector<double> supplies;
    supplies.reserve(lanes);
    for (double bias : biases)
        supplies.push_back(supplyAt(bias));

    // Every lane draws the same currents: advance one activity set and
    // copy its lane into the others.
    std::array<CoreActivity, kNumCores> activity = workloads;
    const size_t num_ports = pdn_.portCount();
    std::vector<double> currents(num_ports * lanes, 0.0);
    auto fill_currents = [&](bool advance) {
        fillCurrents(activity, advance, currents.data());
        for (size_t k = 1; k < lanes; ++k)
            std::copy_n(currents.data(), num_ports,
                        currents.data() + k * num_ports);
    };

    TransientSolver sim(fact_, lanes);
    fill_currents(false);
    sim.initDcOperatingPoint(currents, supplies);

    std::vector<FailureOutcome> outcomes(lanes);
    size_t pending = lanes;
    const auto steps =
        static_cast<uint64_t>(std::ceil(duration / config_.dt));
    for (uint64_t step = 0; step < steps && pending > 0; ++step) {
        fill_currents(true);
        sim.step(currents, supplies);
        const double t = sim.time();

        for (size_t k = 0; k < lanes; ++k) {
            FailureOutcome &outcome = outcomes[k];
            if (outcome.failed)
                continue;
            for (int c = 0; c < kNumCores; ++c) {
                if (critpath_.violates(
                        sim.nodeVoltage(k, pdn_.core_node[c]))) {
                    outcome.failed = true;
                    outcome.failure_time = t;
                    outcome.failing_core = c;
                    --pending;
                    break;
                }
            }
        }
    }
    return outcomes;
}

} // namespace vn
