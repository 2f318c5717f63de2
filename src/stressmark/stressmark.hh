/**
 * @file
 * Parameterizable dI/dt stressmark construction (paper section IV-C,
 * Fig. 6).
 *
 * A stressmark is an endless loop of [optional TOD synchronization] +
 * N consecutive deltaI events, where each event is a high-power
 * instruction sequence followed by a low-power one, sized from the
 * sequences' measured IPCs so the high/low activity alternates at the
 * requested stimulus frequency. Every knob the paper identifies is
 * exposed: deltaI magnitude (choice of sequences), stimulus frequency,
 * number of consecutive events, synchronization and misalignment.
 */

#ifndef VN_STRESSMARK_STRESSMARK_HH
#define VN_STRESSMARK_STRESSMARK_HH

#include <cstdint>
#include <optional>

#include "chip/activity.hh"
#include "isa/program.hh"
#include "uarch/core.hh"

namespace vn
{

/** Requested stressmark properties. */
struct StressmarkSpec
{
    double stimulus_freq_hz = 2e6;

    /** deltaI events between synchronization points. */
    int consecutive_events = 1000;

    /** Synchronize via the TOD facility before each event burst. */
    bool synchronized = true;

    /** TOD sync interval (64000 ticks = 4 ms, the paper's setting). */
    uint64_t sync_interval_ticks = 64000;

    /** Deliberate misalignment offset in 62.5 ns TOD ticks. */
    uint64_t misalignment_ticks = 0;
};

/** A generated stressmark, ready for chip co-simulation. */
struct Stressmark
{
    StressmarkSpec spec;

    Program high_sequence;  //!< sequence run during the high phase
    Program low_sequence;   //!< sequence run during the low phase
    size_t high_instrs = 0; //!< instructions per high phase
    size_t low_instrs = 0;  //!< instructions per low phase

    double high_power = 0.0; //!< effective phase power (model units)
    double low_power = 0.0;
    double half_period = 0.0; //!< exact phase duration in seconds

    /** Achieved deltaI per event in model power units. */
    double deltaPower() const { return high_power - low_power; }

    /**
     * The full loop body as one program (sync spin not included): the
     * artifact a code generator would emit.
     */
    Program assembled;

    /**
     * Chip-model activity schedule for this stressmark. Its loop is
     * one iteration's phases: `spec.consecutive_events` (at least one)
     * high/low pairs of `half_period` each, from the fields' present
     * values. StressmarkBuilder::build() makes that list once, and
     * every activity() shares it while the fields still describe it; a
     * Stressmark whose fields were set or changed by hand gets a fresh
     * list of its own values.
     *
     * @param start_delay one-shot low-power prologue (seconds),
     *                    modelling arbitrary start skew of
     *                    unsynchronized copies
     */
    CoreActivity activity(double start_delay = 0.0) const;

  private:
    friend class StressmarkBuilder;

    /** One loop iteration's phases of the fields' present values. */
    PhaseList makeLoop() const;

    /** Whether `loop_` is makeLoop()'s list, bit for bit. */
    bool loopIsCurrent() const;

    /** The list build() made, shared by activity() while current. */
    PhaseList loop_;
};

/**
 * Builds stressmarks from a measured pair of high/low sequences.
 */
class StressmarkBuilder
{
  public:
    /**
     * Measures the sequences once; build() is then cheap.
     *
     * @param core     core model used for timing/power measurement
     * @param high_seq maximum-power (or medium-power) sequence
     * @param low_seq  minimum-power sequence
     */
    StressmarkBuilder(const CoreModel &core, Program high_seq,
                      Program low_seq);

    /** Generate a stressmark for the requested properties. */
    Stressmark build(const StressmarkSpec &spec) const;

    /** Measured steady-state power of the high sequence. */
    double highPower() const { return high_power_; }

    /** Measured steady-state power of the low sequence. */
    double lowPower() const { return low_power_; }

  private:
    const CoreModel &core_;
    Program high_seq_;
    Program low_seq_;
    double high_power_;
    double low_power_;
    double high_instr_per_cycle_;
    double low_instr_per_cycle_;
};

} // namespace vn

#endif // VN_STRESSMARK_STRESSMARK_HH
