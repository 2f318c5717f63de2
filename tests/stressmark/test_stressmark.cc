/**
 * @file
 * Stressmark builder tests: phase sizing, knob behaviour, activity
 * conversion, and the end-to-end noise effect on the chip model.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "chip/chip.hh"
#include "isa/table.hh"
#include "stressmark/stressmark.hh"
#include "util/logging.hh"

namespace
{

const vn::CoreModel &
core()
{
    static vn::CoreModel c;
    return c;
}

/** A hand-built high-power sequence (cross-unit mix, IPC 3). */
vn::Program
highSeq()
{
    const auto &t = vn::instrTable();
    vn::Program p;
    p.push(&t.find("CIB"));
    p.push(&t.find("CHHSI"));
    p.push(&t.find("L"));
    p.push(&t.find("CRB"));
    p.push(&t.find("CHHSI"));
    p.push(&t.find("LG"));
    return p;
}

vn::Program
lowSeq()
{
    return vn::makeRepeatedProgram(&vn::instrTable().find("SRNM"), 6);
}

const vn::StressmarkBuilder &
builder()
{
    static vn::StressmarkBuilder b(core(), highSeq(), lowSeq());
    return b;
}

TEST(StressmarkBuilderTest, MeasuredPowersOrdered)
{
    EXPECT_GT(builder().highPower(), builder().lowPower() + 1.0);
}

TEST(StressmarkBuilderTest, PhaseSizingMatchesFrequency)
{
    vn::StressmarkSpec spec;
    spec.stimulus_freq_hz = 2e6;
    auto sm = builder().build(spec);

    // Half period = 250 ns = 1375 cycles at 5.5 GHz.
    EXPECT_NEAR(sm.half_period, 250e-9, 1e-12);
    // High sequence runs at IPC ~3 -> ~4125 instructions per phase.
    EXPECT_NEAR(static_cast<double>(sm.high_instrs), 1375.0 * 3.0,
                150.0);
    // SRNM period is 22 cycles -> ~62 instructions per phase.
    EXPECT_NEAR(static_cast<double>(sm.low_instrs), 1375.0 / 22.0, 8.0);
}

TEST(StressmarkBuilderTest, AssembledProgramHasBothPhases)
{
    vn::StressmarkSpec spec;
    spec.stimulus_freq_hz = 5e6;
    auto sm = builder().build(spec);
    EXPECT_EQ(sm.assembled.size(), sm.high_instrs + sm.low_instrs);
    EXPECT_EQ(sm.assembled[0]->mnemonic, "CIB");
    EXPECT_EQ(sm.assembled[sm.assembled.size() - 1]->mnemonic, "SRNM");
}

TEST(StressmarkBuilderTest, DeltaPowerPositive)
{
    auto sm = builder().build({});
    EXPECT_GT(sm.deltaPower(), 1.0);
}

TEST(StressmarkBuilderTest, VeryHighFrequencyAttenuatesOrHolds)
{
    // At 100 MHz the phases are shorter than the pipeline settling
    // granularity; the effective deltaI must not exceed the
    // steady-state one.
    auto slow = builder().build({.stimulus_freq_hz = 1e6});
    auto fast = builder().build({.stimulus_freq_hz = 100e6});
    EXPECT_LE(fast.deltaPower(), slow.deltaPower() * 1.02);
    EXPECT_GT(fast.high_instrs, 0u);
    EXPECT_GT(fast.low_instrs, 0u);
}

TEST(StressmarkBuilderTest, ActivityAlternatesPhases)
{
    vn::StressmarkSpec spec;
    spec.stimulus_freq_hz = 1e6; // 500 ns half period
    spec.synchronized = false;
    spec.consecutive_events = 3;
    auto sm = builder().build(spec);
    auto activity = sm.activity();

    // First 500 ns at high power.
    double p0 = activity.advance(400e-9);
    EXPECT_NEAR(p0, sm.high_power, 0.05);
    activity.advance(100e-9);
    double p1 = activity.advance(400e-9);
    EXPECT_NEAR(p1, sm.low_power, 0.05);
}

TEST(StressmarkBuilderTest, ActivitiesShareTheBuiltLoop)
{
    vn::StressmarkSpec spec;
    spec.consecutive_events = 5;
    auto sm = builder().build(spec);
    const vn::CoreActivity activity = sm.activity();
    const std::vector<vn::ActivityPhase> &loop = activity.loop();
    ASSERT_EQ(loop.size(), 10u);
    EXPECT_EQ(&sm.activity(120e-9).loop(), &loop);
    vn::Stressmark copy = sm;
    EXPECT_EQ(&copy.activity().loop(), &loop);
    EXPECT_EQ(loop[0].power, sm.high_power);
    EXPECT_EQ(loop[1].power, sm.low_power);
    EXPECT_EQ(loop[1].duration, sm.half_period);
}

TEST(StressmarkBuilderTest, EditedFieldsReachTheActivity)
{
    vn::StressmarkSpec spec;
    spec.consecutive_events = 5;
    const auto built = builder().build(spec);
    const vn::CoreActivity built_activity = built.activity();
    const std::vector<vn::ActivityPhase> &shared = built_activity.loop();

    // Each field the loop is made of, changed after build(): the
    // activity follows the field, not the list build() made.
    const auto expectLoopOf = [](const vn::Stressmark &sm) {
        const vn::CoreActivity activity = sm.activity();
        const auto &loop = activity.loop();
        ASSERT_EQ(loop.size(),
                  2u * static_cast<size_t>(sm.spec.consecutive_events));
        for (size_t i = 0; i < loop.size(); i += 2) {
            EXPECT_EQ(loop[i].power, sm.high_power);
            EXPECT_EQ(loop[i + 1].power, sm.low_power);
            EXPECT_EQ(loop[i].duration, sm.half_period);
            EXPECT_EQ(loop[i + 1].duration, sm.half_period);
        }
    };
    vn::Stressmark sm = built;
    sm.high_power += 1.0;
    const vn::CoreActivity edited = sm.activity();
    EXPECT_NE(&edited.loop(), &shared);
    expectLoopOf(sm);
    sm = built;
    sm.low_power *= 0.5;
    expectLoopOf(sm);
    sm = built;
    sm.half_period *= 2.0;
    expectLoopOf(sm);
    sm = built;
    sm.spec.consecutive_events = 3;
    expectLoopOf(sm);

    // Set back to the built values, it shares the built list again.
    sm.spec.consecutive_events = built.spec.consecutive_events;
    EXPECT_EQ(&sm.activity().loop(), &shared);

    // A stressmark not made by a builder gets its own values' loop.
    vn::Stressmark by_hand;
    by_hand.spec.consecutive_events = 2;
    by_hand.high_power = 3.0;
    by_hand.low_power = 1.0;
    by_hand.half_period = 250e-9;
    expectLoopOf(by_hand);
}

TEST(StressmarkBuilderTest, ActivityHonoursStartDelay)
{
    auto sm = builder().build({.stimulus_freq_hz = 1e6,
                               .consecutive_events = 2,
                               .synchronized = false});
    auto activity = sm.activity(200e-9);
    EXPECT_NEAR(activity.advance(150e-9), sm.low_power, 0.05);
}

TEST(StressmarkBuilderTest, SyncSpecPropagates)
{
    vn::StressmarkSpec spec;
    spec.synchronized = true;
    spec.misalignment_ticks = 3;
    auto sm = builder().build(spec);
    auto activity = sm.activity();
    EXPECT_TRUE(activity.synchronized());
    // Misaligned by 3 ticks: the first 187.5 ns are spin.
    EXPECT_NEAR(activity.advance(180e-9), sm.low_power, 0.05);
}

TEST(StressmarkBuilderTest, EndToEndNoiseOnChip)
{
    // The assembled stressmark actually shakes the chip model.
    vn::ChipModel chip;
    vn::StressmarkSpec spec;
    spec.stimulus_freq_hz = 2.6e6;
    spec.consecutive_events = 200;
    auto sm = builder().build(spec);

    std::array<vn::CoreActivity, vn::kNumCores> w = {
        sm.activity(), sm.activity(), sm.activity(),
        sm.activity(), sm.activity(), sm.activity()};
    auto r = chip.run(w, 30e-6);
    EXPECT_GT(r.maxP2p(), 30.0);
}

TEST(StressmarkBuilderTest, InvalidSpecIsFatal)
{
    bool prev = vn::setThrowOnError(true);
    EXPECT_THROW(builder().build({.stimulus_freq_hz = 0.0}),
                 vn::FatalError);
    vn::StressmarkSpec bad;
    bad.synchronized = true;
    bad.sync_interval_ticks = 0;
    EXPECT_THROW(builder().build(bad), vn::FatalError);
    vn::setThrowOnError(prev);
}

TEST(StressmarkBuilderTest, EmptySequenceIsFatal)
{
    bool prev = vn::setThrowOnError(true);
    vn::Program empty;
    EXPECT_THROW(vn::StressmarkBuilder(core(), empty, lowSeq()),
                 vn::FatalError);
    vn::setThrowOnError(prev);
}

} // namespace
