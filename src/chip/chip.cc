#include "chip/chip.hh"

#include <algorithm>
#include <cmath>
#include <iomanip>

#include "util/logging.hh"

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

/** Observed units: the cores, then the shared units (nest/L3, MCU, GX). */
constexpr int kObservedUnits = kNumCores + kNumSharedUnits;

/**
 * The solver unknowns of the observed units' nodes (node n is unknown
 * n - 1; ground is not one), in observed-unit order.
 */
std::array<size_t, kObservedUnits>
observedRows(const ChipPdn &pdn, const Factorization &fact)
{
    std::array<NodeId, kObservedUnits> nodes;
    std::copy(pdn.core_node.begin(), pdn.core_node.end(), nodes.begin());
    nodes[kNumCores + 0] = pdn.l3_node;
    nodes[kNumCores + 1] = pdn.mcu_node;
    nodes[kNumCores + 2] = pdn.gx_node;
    std::array<size_t, kObservedUnits> rows;
    for (int u = 0; u < kObservedUnits; ++u) {
        if (nodes[u] == Netlist::ground ||
            static_cast<size_t>(nodes[u] - 1) >= fact.numNodes())
            panic("ChipModel: observed node ", nodes[u],
                  " is not a PDN node");
        rows[u] = static_cast<size_t>(nodes[u] - 1);
    }
    return rows;
}

/**
 * One unit's readout over the window from the statistics of its
 * `count` voltage samples. Skitter::latchedPosition is monotone
 * non-decreasing in voltage, so the lowest and highest latch any
 * sample touches are the latches of the lowest and highest voltage: a
 * fresh sticky skitter fed the two extremes reads exactly what one fed
 * every sample would. Like RunningStats, no sample reads as all zeros.
 */
CoreRunResult
unitReadout(uint64_t count, double v_min, double v_max, double v_mean,
            const SkitterParams &params)
{
    CoreRunResult readout;
    Skitter skitter(params);
    if (count > 0) {
        skitter.sample(v_min);
        skitter.sample(v_max);
        readout.v_min = v_min;
        readout.v_max = v_max;
        readout.v_mean = v_mean;
    }
    readout.p2p = skitter.percentP2p();
    readout.min_latch = skitter.minPosition();
    readout.max_latch = skitter.maxPosition();
    return readout;
}

/**
 * Lane-SoA window statistics of the observed units' voltages: the
 * running minimum, maximum and mean of unit u in lane k sit at
 * [u * lanes + k]. add() is RunningStats::add()'s arithmetic, less the
 * variance no readout reads: the first sample sets min = max = x,
 * later ones take std::min / std::max, and mean += (x - mean) / n.
 * One count n serves every lane, since all lanes enter the window on
 * the same step.
 */
class WindowStats
{
  public:
    explicit WindowStats(size_t lanes)
        : lanes_(lanes), min_(kObservedUnits * lanes, 0.0),
          max_(kObservedUnits * lanes, 0.0),
          mean_(kObservedUnits * lanes, 0.0)
    {
    }

    /** Count one more sample for every lane; add() each unit's next. */
    void nextSample() { ++count_; }

    /** Unit u's sample of every lane, x[k] for lane k. */
    [[gnu::always_inline]] void
    add(int u, const double *x)
    {
        const size_t base = static_cast<size_t>(u) * lanes_;
        double *min = &min_[base];
        double *max = &max_[base];
        double *mean = &mean_[base];
        if (count_ == 1) {
            std::copy_n(x, lanes_, min);
            std::copy_n(x, lanes_, max);
        } else {
            for (size_t k = 0; k < lanes_; ++k) {
                min[k] = std::min(min[k], x[k]);
                max[k] = std::max(max[k], x[k]);
            }
        }
        const double n = static_cast<double>(count_);
        for (size_t k = 0; k < lanes_; ++k)
            mean[k] += (x[k] - mean[k]) / n;
    }

    /** Unit u's readout in lane k. */
    CoreRunResult
    readout(int u, size_t k, const SkitterParams &params) const
    {
        const size_t i = static_cast<size_t>(u) * lanes_ + k;
        return unitReadout(count_, min_[i], max_[i], mean_[i], params);
    }

  private:
    size_t lanes_;
    uint64_t count_ = 0;
    std::vector<double> min_;
    std::vector<double> max_;
    std::vector<double> mean_;
};

/** Every core's and shared unit's readout in lane k over the window. */
void
fillReadouts(const ChipConfig &config, const WindowStats &stats, size_t k,
             ChipRunResult &result)
{
    // Per-core skitters have variation-scaled sensitivity.
    for (int c = 0; c < kNumCores; ++c) {
        SkitterParams sp = config.skitter;
        sp.gain *= config.variation.core[c].skitter_gain_scale;
        result.core[c] = stats.readout(c, k, sp);
    }
    for (int u = 0; u < kNumSharedUnits; ++u)
        result.shared[u] = stats.readout(kNumCores + u, k, config.skitter);
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

    // Lanes never mix arithmetically: each lane's statistics, meter,
    // R-Unit verdict and traces see only its own voltages, with a
    // one-lane run's arithmetic, so lane results are bit-identical to
    // a one-lane run of the same workloads. Voltage statistics of the
    // cores and of the shared units (nest/L3, MCU, GX) run from warmup
    // on; the skitter readouts derive from them.
    const auto unit_rows = observedRows(pdn_, *fact_);
    const size_t vrm_row = fact_->numNodes();
    WindowStats window(lanes);
    std::vector<double> avg_watts(lanes, 0.0);

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
    std::array<const double *, kNumCores> core_v;

    const auto steps =
        static_cast<uint64_t>(std::ceil(duration / config_.dt));
    for (uint64_t step = 0; step < steps; ++step) {
        fill_currents(true);
        sim.step(currents);
        double t = sim.time();

        if (t >= options.warmup) {
            window.nextSample();
            for (int u = 0; u < kObservedUnits; ++u)
                window.add(u, sim.solutionRow(unit_rows[u]));
        }

        // The meter: the running mean of the input-rail power
        // supply * |I_vrm| over every step, as PowerMeter keeps it.
        const double *vrm_amps = sim.solutionRow(vrm_row);
        const double samples = static_cast<double>(step + 1);
        for (size_t k = 0; k < lanes; ++k)
            avg_watts[k] +=
                (supply_ * std::fabs(vrm_amps[k]) - avg_watts[k]) / samples;

        // Per lane, the R-Unit checks the cores in ascending order and
        // the first violation wins.
        for (int c = 0; c < kNumCores; ++c)
            core_v[c] = sim.solutionRow(unit_rows[c]);
        const bool capture = options.capture_traces && trace_phase == 0;
        for (size_t k = 0; k < lanes; ++k) {
            ChipRunResult &result = results[k];
            for (int c = 0; c < kNumCores && !result.failed; ++c) {
                if (critpath_.violates(core_v[c][k])) {
                    result.failed = true;
                    result.failure_time = t;
                    result.failing_core = c;
                }
            }
            if (capture)
                for (int c = 0; c < kNumCores; ++c)
                    result.traces[c].push(core_v[c][k]);
        }

        if (options.capture_traces &&
            ++trace_phase == options.trace_decimation) {
            trace_phase = 0;
        }
    }

    for (size_t k = 0; k < lanes; ++k) {
        fillReadouts(config_, window, k, results[k]);
        results[k].avg_power_watts = avg_watts[k];
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

    const auto unit_rows = observedRows(pdn_, *fact_);
    std::array<const double *, kNumCores> core_v;
    std::vector<FailureOutcome> outcomes(lanes);
    size_t pending = lanes;
    const auto steps =
        static_cast<uint64_t>(std::ceil(duration / config_.dt));
    for (uint64_t step = 0; step < steps && pending > 0; ++step) {
        fill_currents(true);
        sim.step(currents, supplies);
        const double t = sim.time();

        for (int c = 0; c < kNumCores; ++c)
            core_v[c] = sim.solutionRow(unit_rows[c]);
        for (size_t k = 0; k < lanes; ++k) {
            FailureOutcome &outcome = outcomes[k];
            if (outcome.failed)
                continue;
            for (int c = 0; c < kNumCores; ++c) {
                if (critpath_.violates(core_v[c][k])) {
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
