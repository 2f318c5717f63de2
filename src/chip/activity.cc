#include "chip/activity.hh"

#include <algorithm>
#include <cstring>

#include "chip/tod.hh"
#include "util/logging.hh"

namespace vn
{

CoreActivity
CoreActivity::constant(double power)
{
    return CoreActivity({{power, 1.0}}, std::nullopt);
}

CoreActivity::CoreActivity(std::vector<ActivityPhase> loop,
                           std::optional<SyncSpec> sync,
                           std::vector<ActivityPhase> prologue)
    : CoreActivity(std::make_shared<const std::vector<ActivityPhase>>(
                       std::move(loop)),
                   std::move(sync), std::move(prologue))
{
}

CoreActivity
CoreActivity::sharing(PhaseList loop, std::optional<SyncSpec> sync,
                      std::vector<ActivityPhase> prologue)
{
    return CoreActivity(std::move(loop), std::move(sync),
                        std::move(prologue));
}

CoreActivity::CoreActivity(PhaseList loop, std::optional<SyncSpec> sync,
                           std::vector<ActivityPhase> prologue)
    : loop_(std::move(loop)), sync_(std::move(sync)),
      prologue_(std::move(prologue))
{
    if (!loop_ || loop_->empty())
        fatal("CoreActivity: loop must have at least one phase");
    for (const auto &phase : *loop_) {
        if (phase.duration <= 0.0)
            fatal("CoreActivity: loop phase durations must be > 0");
    }
    for (const auto &phase : prologue_) {
        if (phase.duration <= 0.0)
            fatal("CoreActivity: prologue phase durations must be > 0");
    }
    if (sync_ && sync_->interval_ticks == 0)
        fatal("CoreActivity: sync interval must be > 0 ticks");

    if (!prologue_.empty()) {
        state_ = State::Prologue;
        phase_ = 0;
        into_phase_ = 0.0;
    } else if (sync_) {
        enterWait();
    } else {
        enterRun();
    }
}

void
CoreActivity::enterWait()
{
    state_ = State::Waiting;
    wait_until_ = TodClock::nextSync(time_, sync_->interval_ticks,
                                     sync_->offset_ticks);
}

void
CoreActivity::enterRun()
{
    state_ = State::Running;
    phase_ = 0;
    into_phase_ = 0.0;
}

double
CoreActivity::currentPower() const
{
    switch (state_) {
      case State::Prologue:
        return prologue_[phase_].power;
      case State::Waiting:
        return sync_->spin_power;
      case State::Running:
        return (*loop_)[phase_].power;
    }
    return 0.0;
}

namespace
{

bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool
samePhases(const std::vector<ActivityPhase> &a,
           const std::vector<ActivityPhase> &b)
{
    if (&a == &b)
        return true;
    if (a.size() != b.size())
        return false;
    for (size_t i = 0; i < a.size(); ++i)
        if (!sameBits(a[i].power, b[i].power) ||
            !sameBits(a[i].duration, b[i].duration))
            return false;
    return true;
}

} // namespace

bool
CoreActivity::identicalTo(const CoreActivity &other) const
{
    if (state_ != other.state_ || phase_ != other.phase_ ||
        !sameBits(time_, other.time_) ||
        !sameBits(into_phase_, other.into_phase_) ||
        !sameBits(wait_until_, other.wait_until_) ||
        sync_.has_value() != other.sync_.has_value())
        return false;
    if (sync_ && (sync_->interval_ticks != other.sync_->interval_ticks ||
                  sync_->offset_ticks != other.sync_->offset_ticks ||
                  !sameBits(sync_->spin_power, other.sync_->spin_power)))
        return false;
    return samePhases(prologue_, other.prologue_) &&
           samePhases(*loop_, *other.loop_);
}

double
CoreActivity::advance(double dt)
{
    if (dt <= 0.0)
        fatal("CoreActivity::advance(): dt must be > 0");

    double energy = 0.0;
    double remaining = dt;
    while (remaining > 0.0) {
        if (state_ == State::Waiting) {
            double chunk = std::min(remaining, wait_until_ - time_);
            if (chunk <= 0.0) {
                enterRun();
                continue;
            }
            energy += sync_->spin_power * chunk;
            time_ += chunk;
            remaining -= chunk;
            if (time_ >= wait_until_)
                enterRun();
            continue;
        }

        const auto &phases =
            state_ == State::Prologue ? prologue_ : *loop_;
        const auto &phase = phases[phase_];
        double left = phase.duration - into_phase_;
        double chunk = std::min(remaining, left);
        energy += phase.power * chunk;
        time_ += chunk;
        into_phase_ += chunk;
        remaining -= chunk;
        if (into_phase_ >= phase.duration * (1.0 - 1e-12)) {
            into_phase_ = 0.0;
            if (++phase_ >= phases.size()) {
                if (state_ == State::Prologue) {
                    if (sync_)
                        enterWait();
                    else
                        enterRun();
                } else {
                    phase_ = 0;
                    if (sync_)
                        enterWait();
                }
            }
        }
    }
    return energy / dt;
}

} // namespace vn
