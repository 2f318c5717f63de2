/**
 * @file
 * Whole-chip co-simulation: six core activity generators driving the
 * zEC12-like PDN, observed by per-core skitter macros, the input-rail
 * power meter, and the R-Unit timing-failure detector.
 *
 * This is the software stand-in for the measurement platform of the
 * paper's section III: chip voltage control in 0.5% steps, per-unit
 * skitter readout in sticky mode, service-element power telemetry, and
 * Vmin experiments against the recovery unit.
 */

#ifndef VN_CHIP_CHIP_HH
#define VN_CHIP_CHIP_HH

#include <array>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "chip/activity.hh"
#include "chip/variation.hh"
#include "circuit/transient.hh"
#include "circuit/waveform.hh"
#include "measure/critpath.hh"
#include "measure/meter.hh"
#include "measure/skitter.hh"
#include "pdn/pdn.hh"
#include "uarch/core.hh"

namespace vn
{

/** Full configuration of the modelled chip + measurement setup. */
struct ChipConfig
{
    PdnConfig pdn;
    CoreParams core;
    SkitterParams skitter;
    CritPathParams critpath;
    VariationProfile variation = VariationProfile::defaultZec12();

    /** Conversion from model power units to amperes drawn at a core. */
    double power_unit_amps = 14.0;

    /** Constant background draw of the shared units (amperes). */
    double nest_amps = 20.0;
    double mcu_amps = 8.0;
    double gx_amps = 8.0;

    /**
     * Undervolt bias as a fraction of nominal (the service element
     * steps this in 0.5% increments during Vmin experiments).
     */
    double bias = 0.0;

    /** PDN integration step. */
    double dt = 1e-9;
};

/** Options for one co-simulation run. */
struct RunOptions
{
    /** Capture per-core voltage waveforms (Fig. 8 / Fig. 13b style). */
    bool capture_traces = false;

    /** Keep one trace sample out of this many steps. */
    unsigned trace_decimation = 1;

    /**
     * Settle time before the measurement window (voltage statistics
     * and the skitter readouts built from them) starts, letting the
     * operating-point hand-off die out.
     */
    double warmup = 0.5e-6;
};

/** Per-core outcome of a run. */
struct CoreRunResult
{
    double p2p = 0.0;     //!< skitter %p2p over the window
    int min_latch = 0;    //!< deepest latch position touched
    int max_latch = 0;
    double v_min = 0.0;   //!< minimum instantaneous VDie
    double v_max = 0.0;
    double v_mean = 0.0;
};

/** Shared (non-core) units carrying skitter macros: nest/L3, MCU, GX. */
constexpr int kNumSharedUnits = 3;

/** Name of a shared unit index (0 = nest, 1 = mcu, 2 = gx). */
const char *sharedUnitName(int unit);

/** Whole-chip outcome of a run. */
struct ChipRunResult
{
    std::array<CoreRunResult, kNumCores> core{};

    /**
     * Skitter readings of the shared units (paper Fig. 3: every unit
     * implements a skitter macro). Index with sharedUnitName().
     */
    std::array<CoreRunResult, kNumSharedUnits> shared{};

    bool failed = false;       //!< R-Unit detected a timing violation
    double failure_time = 0.0; //!< first violation instant
    int failing_core = -1;

    double avg_power_watts = 0.0; //!< input-rail average
    double duration = 0.0;

    /** Per-core VDie traces when requested. */
    std::vector<Waveform> traces;

    /** Largest per-core %p2p (the paper's headline number per run). */
    double maxP2p() const;

    /** Index of the core reading the largest %p2p. */
    int noisiestCore() const;
};

/** The R-Unit's verdict on one run: its first timing violation. */
struct FailureOutcome
{
    bool failed = false;       //!< R-Unit detected a timing violation
    double failure_time = 0.0; //!< first violation instant
    int failing_core = -1;
};

/**
 * The chip model. Immutable after construction; run() may be called
 * any number of times.
 */
class ChipModel
{
  public:
    explicit ChipModel(ChipConfig config = ChipConfig{});

    /**
     * Co-simulate the chip for `duration` seconds with one activity
     * generator per core (copies are taken; generators always start at
     * t = 0 of the run). This is runBatch() of one lane.
     */
    ChipRunResult run(const std::array<CoreActivity, kNumCores> &workloads,
                      double duration,
                      const RunOptions &options = RunOptions{}) const;

    /**
     * Co-simulate many independent workload sets (lanes) in one pass
     * over the shared factorization; this is the chip's one
     * measurement loop. Result i is bit-identical to
     * `run(workloads[i], duration, options)` — lanes never mix
     * arithmetically, so the campaign cache and figure pipelines can
     * treat a result the same whatever batch computed it.
     */
    std::vector<ChipRunResult>
    runBatch(std::span<const std::array<CoreActivity, kNumCores>> workloads,
             double duration, const RunOptions &options = RunOptions{}) const;

    /**
     * Run one workload set at several undervolt biases at once, one
     * lane per bias, and report only the R-Unit's first violation per
     * lane. Lane i's supply is computed from biases[i] exactly as the
     * constructor computes supplyVoltage(), and every lane runs on
     * this model's factorization (the system matrix holds no source
     * value). Outcome i is therefore bit-identical to the failure
     * fields of ChipModel(config() with bias = biases[i]).run(workloads,
     * duration). No skitter, statistics, meter or trace work is done,
     * and the scan ends early once every lane has failed.
     */
    std::vector<FailureOutcome>
    scanFailures(const std::array<CoreActivity, kNumCores> &workloads,
                 std::span<const double> biases, double duration) const;

    const ChipConfig &config() const { return config_; }

    /** The (netlist, dt) factorization every run of this model shares. */
    const std::shared_ptr<const Factorization> &
    factorization() const
    {
        return fact_;
    }

    const ChipPdn &pdn() const { return pdn_; }

    /** Operating voltage after bias. */
    double supplyVoltage() const { return supply_; }

    /** The R-Unit's effective critical voltage. */
    double criticalVoltage() const { return critpath_.criticalVoltage(); }

    /** An idle-core activity (static power only). */
    CoreActivity idleActivity() const;

  private:
    /** The supply at an undervolt bias in [0, 0.3] (fatal otherwise). */
    double supplyAt(double bias) const;

    ChipConfig config_;
    ChipPdn pdn_;
    CriticalPathMonitor critpath_;
    double supply_;
    std::shared_ptr<const Factorization> fact_;
};

} // namespace vn

#endif // VN_CHIP_CHIP_HH
