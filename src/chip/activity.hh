/**
 * @file
 * Per-core activity schedules for chip co-simulation.
 *
 * A CoreActivity turns a workload into a power-vs-time generator at PDN
 * time-step granularity: a looped sequence of piecewise-constant phases
 * (derived from the cycle-level core model) with an optional TOD
 * synchronization barrier between loop iterations. The chip model pulls
 * the average power of each step interval and injects the corresponding
 * current into that core's PDN port.
 *
 * The loop's phase list is immutable and shared: a copy of an activity
 * shares its list, and a built Stressmark makes its 2000-phase loop
 * once and shares it with every activity() it hands out, so a batch of
 * many lanes holds one list per distinct schedule, not one per core. identicalTo()
 * tells the chip loop which activities are at the same point of the
 * same schedule; advance() is a pure function of that state, so the
 * chip advances one of them per step and reuses its power for the
 * rest.
 */

#ifndef VN_CHIP_ACTIVITY_HH
#define VN_CHIP_ACTIVITY_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

namespace vn
{

/** One piecewise-constant power segment. */
struct ActivityPhase
{
    double power;      //!< model power units (includes static)
    double duration;   //!< seconds
};

/** TOD synchronization barrier executed before each loop iteration. */
struct SyncSpec
{
    uint64_t interval_ticks; //!< sync period in TOD ticks (4 ms = 64000)
    uint64_t offset_ticks;   //!< deliberate misalignment offset
    double spin_power;       //!< power while spinning on the TOD
};

/** One loop iteration's phases, shared read-only by every holder. */
using PhaseList = std::shared_ptr<const std::vector<ActivityPhase>>;

/**
 * A looped, optionally synchronized, piecewise-constant power schedule.
 */
class CoreActivity
{
  public:
    /** Idle core: constant power forever. */
    static CoreActivity constant(double power);

    /**
     * Looped schedule.
     *
     * @param loop     phases of one loop iteration (total duration > 0)
     * @param sync     optional TOD barrier before each iteration
     * @param prologue phases executed once before the loop starts
     *                 (models the arbitrary start skew of
     *                 unsynchronized stressmark copies)
     */
    explicit CoreActivity(std::vector<ActivityPhase> loop,
                          std::optional<SyncSpec> sync = std::nullopt,
                          std::vector<ActivityPhase> prologue = {});

    /**
     * Looped schedule over a shared phase list (non-null): the
     * constructor's, without a copy of the loop.
     */
    static CoreActivity sharing(PhaseList loop,
                                std::optional<SyncSpec> sync = std::nullopt,
                                std::vector<ActivityPhase> prologue = {});

    /**
     * Average power over [t, t+dt) where t is the internal clock;
     * advances the internal clock by dt.
     */
    double advance(double dt);

    /** Power at the current instant (no advance). */
    double currentPower() const;

    /** Internal clock (seconds since start). */
    double time() const { return time_; }

    /** Whether a sync barrier is configured. */
    bool synchronized() const { return sync_.has_value(); }

    /** The loop's phases (shared with every copy of this activity). */
    const std::vector<ActivityPhase> &loop() const { return *loop_; }

    /**
     * Whether `other` is bitwise this activity: the same loop and
     * prologue phases (one shared list, or equal lists), sync spec,
     * state, clock and position in the current phase. Identical
     * activities return the same power bits from every later
     * advance() by the same dt.
     */
    bool identicalTo(const CoreActivity &other) const;

  private:
    enum class State
    {
        Prologue, //!< executing one-shot prologue phases
        Waiting,  //!< spinning on the TOD barrier
        Running,  //!< executing loop phases
    };

    CoreActivity(PhaseList loop, std::optional<SyncSpec> sync,
                 std::vector<ActivityPhase> prologue);

    void enterWait();
    void enterRun();

    PhaseList loop_;
    std::optional<SyncSpec> sync_;
    std::vector<ActivityPhase> prologue_;

    State state_ = State::Running;
    double time_ = 0.0;
    double wait_until_ = 0.0;   //!< valid in Waiting
    size_t phase_ = 0;          //!< valid in Prologue/Running
    double into_phase_ = 0.0;   //!< time consumed of current phase
};

} // namespace vn

#endif // VN_CHIP_ACTIVITY_HH
