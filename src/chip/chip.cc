#include "chip/chip.hh"

#include <algorithm>
#include <cmath>
#include <iomanip>

#include "util/lanepack.hh"
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

    /**
     * Unit u's sample of every lane, x[k] for lane k, W lanes at a time
     * as one LanePack (W = 0: one lane at a time).
     */
    template <size_t W, bool Wide>
    [[gnu::always_inline]] void
    add(int u, const double *x)
    {
        using Pack = detail::LanePack<W == 0 ? 1 : W, Wide>;
        const size_t lanes = W != 0 ? W : lanes_;
        const size_t base = static_cast<size_t>(u) * lanes;
        double *min = &min_[base];
        double *max = &max_[base];
        double *mean = &mean_[base];
        if (count_ == 1) {
            std::copy_n(x, lanes, min);
            std::copy_n(x, lanes, max);
        } else {
            for (size_t k = 0; k < lanes; k += Pack::width) {
                const Pack xk = Pack::load(x + k);
                lanesMin(Pack::load(min + k), xk).store(min + k);
                lanesMax(Pack::load(max + k), xk).store(max + k);
            }
        }
        const Pack n = Pack::splat(static_cast<double>(count_));
        for (size_t k = 0; k < lanes; k += Pack::width) {
            const Pack m = Pack::load(mean + k);
            (m + (Pack::load(x + k) - m) / n).store(mean + k);
        }
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

/** What runBatch()'s per-step lane work reads and updates. */
struct LaneStep
{
    size_t lanes;
    std::array<const double *, kObservedUnits> unit_v; //!< solution rows
    const double *vrm_amps;                            //!< solution row
    WindowStats *window;
    double *avg_watts;
    double supply;
    double v_crit;
};

/**
 * One step's lane work after the solve, as a LaneClones body: the
 * window statistics when `in_window`; the meter, the running mean of
 * the input-rail power supply * |I_vrm| over `samples` steps, as
 * PowerMeter keeps it; and a screen for the R-Unit. Returns whether a
 * core of any lane reads below the critical voltage, the only step on
 * which the per-lane R-Unit check can record a failure.
 */
struct LaneStepBody
{
    template <size_t W, bool Wide>
    [[gnu::always_inline]] static bool
    run(const LaneStep &s, bool in_window, double samples)
    {
        using Pack = detail::LanePack<W == 0 ? 1 : W, Wide>;
        const size_t lanes = W != 0 ? W : s.lanes;
        if (in_window) {
            s.window->nextSample();
            for (int u = 0; u < kObservedUnits; ++u)
                s.window->add<W, Wide>(u, s.unit_v[u]);
        }
        const Pack supply = Pack::splat(s.supply);
        const Pack n = Pack::splat(samples);
        bool below = false;
        for (size_t k = 0; k < lanes; k += Pack::width) {
            const Pack avg = Pack::load(s.avg_watts + k);
            (avg +
             (supply * lanesAbs(Pack::load(s.vrm_amps + k)) - avg) / n)
                .store(s.avg_watts + k);
            for (int c = 0; c < kNumCores; ++c)
                below |= anyBelow(Pack::load(s.unit_v[c] + k), s.v_crit);
        }
        return below;
    }
};

using LaneStepClones =
    detail::LaneClones<LaneStepBody, bool(const LaneStep &, bool, double)>;

/**
 * The distinct activities of a batch: one representative per set of
 * lane-by-core activities that are identicalTo() each other, and each
 * (lane, core)'s representative. Identical activities stay identical,
 * so advancing each representative once per step gives every activity
 * of its set the power bits its own advance() would.
 */
class ActivityGroups
{
  public:
    explicit ActivityGroups(
        std::span<const std::array<CoreActivity, kNumCores>> sets)
    {
        rep_of_.reserve(sets.size() * kNumCores);
        for (const auto &set : sets) {
            for (const CoreActivity &activity : set) {
                size_t g = 0;
                while (g < reps_.size() && !reps_[g].identicalTo(activity))
                    ++g;
                if (g == reps_.size())
                    reps_.push_back(activity);
                rep_of_.push_back(g);
            }
        }
        power_.assign(reps_.size(), 0.0);
    }

    /** Every representative's power at the current instant. */
    void
    current()
    {
        for (size_t g = 0; g < reps_.size(); ++g)
            power_[g] = reps_[g].currentPower();
    }

    /** Advance every representative by dt; power() is its average. */
    void
    advance(double dt)
    {
        for (size_t g = 0; g < reps_.size(); ++g)
            power_[g] = reps_[g].advance(dt);
    }

    /** The power of lane `lane`'s core `core`. */
    double
    power(size_t lane, int core) const
    {
        return power_[rep_of_[lane * kNumCores + static_cast<size_t>(core)]];
    }

  private:
    std::vector<CoreActivity> reps_;
    std::vector<size_t> rep_of_; //!< [lane * kNumCores + core]
    std::vector<double> power_;  //!< per representative
};

/** The shared units' constant draw, into each of `lanes` lanes. */
void
fillSharedCurrents(const ChipConfig &config, const ChipPdn &pdn,
                   size_t lanes, double *currents)
{
    for (size_t k = 0; k < lanes; ++k) {
        double *lane = currents + k * pdn.portCount();
        lane[pdn.l3_port] = config.nest_amps;
        lane[pdn.mcu_port] = config.mcu_amps;
        lane[pdn.gx_port] = config.gx_amps;
    }
}

/**
 * Each lane's core port currents from its cores' present powers:
 * power * power_unit_amps * the core's power_scale.
 */
void
fillCoreCurrents(const ChipConfig &config, const ChipPdn &pdn,
                 const ActivityGroups &activity, size_t lanes,
                 double *currents)
{
    for (size_t k = 0; k < lanes; ++k) {
        double *lane = currents + k * pdn.portCount();
        for (int c = 0; c < kNumCores; ++c)
            lane[pdn.core_port[c]] = activity.power(k, c) *
                                     config.power_unit_amps *
                                     config.variation.core[c].power_scale;
    }
}

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

    // Lanes never mix arithmetically: each lane's statistics, meter,
    // R-Unit verdict and traces see only its own voltages, with a
    // one-lane run's arithmetic, so lane results are bit-identical to
    // a one-lane run of the same workloads. Voltage statistics of the
    // cores and of the shared units (nest/L3, MCU, GX) run from warmup
    // on; the skitter readouts derive from them.
    ActivityGroups activity(workloads);
    const auto unit_rows = observedRows(pdn_, *fact_);
    WindowStats window(lanes);
    std::vector<double> avg_watts(lanes, 0.0);

    TransientSolver sim(fact_, lanes);

    std::vector<double> currents(pdn_.portCount() * lanes, 0.0);
    fillSharedCurrents(config_, pdn_, lanes, currents.data());
    activity.current();
    fillCoreCurrents(config_, pdn_, activity, lanes, currents.data());
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

    LaneStep lane_step{lanes,
                       {},
                       sim.solutionRow(fact_->numNodes()),
                       &window,
                       avg_watts.data(),
                       supply_,
                       critpath_.criticalVoltage()};
    for (int u = 0; u < kObservedUnits; ++u)
        lane_step.unit_v[u] = sim.solutionRow(unit_rows[u]);
    const auto step_lanes = LaneStepClones::forLanes(lanes);
    const auto &core_v = lane_step.unit_v;

    unsigned trace_phase = 0;
    const auto steps =
        static_cast<uint64_t>(std::ceil(duration / config_.dt));
    for (uint64_t step = 0; step < steps; ++step) {
        activity.advance(config_.dt);
        fillCoreCurrents(config_, pdn_, activity, lanes, currents.data());
        sim.step(currents);
        const double t = sim.time();
        const bool below = step_lanes(lane_step, t >= options.warmup,
                                      static_cast<double>(step + 1));

        // Per lane, the R-Unit checks the cores in ascending order and
        // the first violation wins; only a step on which some core is
        // below the critical voltage can record one.
        const bool capture = options.capture_traces && trace_phase == 0;
        if (below || capture) {
            for (size_t k = 0; k < lanes; ++k) {
                ChipRunResult &result = results[k];
                for (int c = 0; below && c < kNumCores && !result.failed;
                     ++c) {
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

    // Every lane draws the same currents: advance one activity set
    // (each distinct activity of it once) and copy its lane into the
    // others.
    ActivityGroups activity(std::span(&workloads, 1));
    const size_t num_ports = pdn_.portCount();
    std::vector<double> currents(num_ports * lanes, 0.0);
    fillSharedCurrents(config_, pdn_, 1, currents.data());
    auto fill_currents = [&] {
        fillCoreCurrents(config_, pdn_, activity, 1, currents.data());
        for (size_t k = 1; k < lanes; ++k)
            std::copy_n(currents.data(), num_ports,
                        currents.data() + k * num_ports);
    };

    TransientSolver sim(fact_, lanes);
    activity.current();
    fill_currents();
    sim.initDcOperatingPoint(currents, supplies);

    const auto unit_rows = observedRows(pdn_, *fact_);
    std::array<const double *, kNumCores> core_v;
    std::vector<FailureOutcome> outcomes(lanes);
    size_t pending = lanes;
    const auto steps =
        static_cast<uint64_t>(std::ceil(duration / config_.dt));
    for (uint64_t step = 0; step < steps && pending > 0; ++step) {
        activity.advance(config_.dt);
        fill_currents();
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
