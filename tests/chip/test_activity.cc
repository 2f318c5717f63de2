/**
 * @file
 * Core activity schedule tests.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>

#include "chip/activity.hh"
#include "chip/tod.hh"
#include "util/logging.hh"

namespace
{

TEST(CoreActivityTest, ConstantPower)
{
    auto a = vn::CoreActivity::constant(1.86);
    for (int i = 0; i < 100; ++i)
        EXPECT_DOUBLE_EQ(a.advance(1e-9), 1.86);
}

TEST(CoreActivityTest, SquareWaveAverages)
{
    // 10 ns high / 10 ns low square: full periods average to the mean.
    vn::CoreActivity a({{3.0, 10e-9}, {1.0, 10e-9}});
    double energy = 0.0;
    for (int i = 0; i < 100; ++i)
        energy += a.advance(1e-9) * 1e-9;
    EXPECT_NEAR(energy / 100e-9, 2.0, 1e-9);
}

TEST(CoreActivityTest, PhaseBoundariesRespected)
{
    vn::CoreActivity a({{3.0, 10e-9}, {1.0, 30e-9}});
    // First 10 ns at 3.0 (tolerance for boundary-step blending).
    for (int i = 0; i < 10; ++i)
        EXPECT_NEAR(a.advance(1e-9), 3.0, 1e-3) << i;
    // Next 30 ns at 1.0.
    for (int i = 0; i < 30; ++i)
        EXPECT_NEAR(a.advance(1e-9), 1.0, 1e-3) << i;
    // Loop wraps.
    EXPECT_NEAR(a.advance(1e-9), 3.0, 1e-3);
}

TEST(CoreActivityTest, SubPhaseStepsAverageAcrossBoundary)
{
    // One 4 ns step spanning 2 ns of power 3 and 2 ns of power 1.
    vn::CoreActivity a({{3.0, 2e-9}, {1.0, 2e-9}});
    EXPECT_NEAR(a.advance(4e-9), 2.0, 1e-12);
}

TEST(CoreActivityTest, SyncWaitsForTodBoundary)
{
    // Interval of 16 ticks = 1 us; spin power 0.5 until the boundary.
    vn::SyncSpec sync{16, 0, 0.5};
    vn::CoreActivity a({{3.0, 50e-9}}, sync);
    // Starts waiting... at t=0 the TOD matches (tick 0 % 16 == 0), so
    // it runs immediately.
    EXPECT_DOUBLE_EQ(a.advance(1e-9), 3.0);
}

TEST(CoreActivityTest, SyncWithOffsetSpinsFirst)
{
    vn::SyncSpec sync{16, 4, 0.5}; // waits until t = 4 * 62.5 ns = 250 ns
    vn::CoreActivity a({{3.0, 50e-9}}, sync);
    double spin_time = 0.0;
    double t = 0.0;
    while (t < 249e-9) {
        EXPECT_DOUBLE_EQ(a.advance(1e-9), 0.5) << "t=" << t;
        spin_time += 1e-9;
        t += 1e-9;
    }
    a.advance(1e-9);
    EXPECT_DOUBLE_EQ(a.advance(1e-9), 3.0);
}

TEST(CoreActivityTest, ResyncAfterLoopCompletes)
{
    // Loop shorter than the interval: after the loop body the activity
    // spins until the next boundary.
    vn::SyncSpec sync{16, 0, 0.25}; // 1 us interval
    vn::CoreActivity a({{3.0, 100e-9}}, sync);
    // Runs 100 ns of work...
    for (int i = 0; i < 100; ++i)
        EXPECT_NEAR(a.advance(1e-9), 3.0, 1e-3);
    // ...then spins 900 ns until t = 1 us.
    for (int i = 0; i < 900; ++i)
        EXPECT_NEAR(a.advance(1e-9), 0.25, 1e-3) << i;
    EXPECT_NEAR(a.advance(1e-9), 3.0, 1e-3);
}

TEST(CoreActivityTest, PrologueRunsOnce)
{
    vn::CoreActivity a({{3.0, 10e-9}},
                       std::nullopt,
                       {{1.0, 5e-9}});
    for (int i = 0; i < 5; ++i)
        EXPECT_DOUBLE_EQ(a.advance(1e-9), 1.0);
    for (int i = 0; i < 10; ++i)
        EXPECT_DOUBLE_EQ(a.advance(1e-9), 3.0);
    // Loop wraps straight back to the loop, not the prologue.
    EXPECT_DOUBLE_EQ(a.advance(1e-9), 3.0);
}

TEST(CoreActivityTest, CurrentPowerReflectsState)
{
    vn::CoreActivity a({{3.0, 10e-9}}, std::nullopt, {{1.5, 5e-9}});
    EXPECT_DOUBLE_EQ(a.currentPower(), 1.5);
    a.advance(5e-9);
    EXPECT_DOUBLE_EQ(a.currentPower(), 3.0);
}

TEST(CoreActivityTest, TimeAdvances)
{
    auto a = vn::CoreActivity::constant(1.0);
    a.advance(3e-9);
    a.advance(2e-9);
    EXPECT_NEAR(a.time(), 5e-9, 1e-18);
}

TEST(CoreActivityTest, CopiesShareOnePhaseList)
{
    vn::CoreActivity a({{3.0, 10e-9}, {1.0, 10e-9}}, vn::SyncSpec{16, 0, 0.5},
                       {{1.0, 5e-9}});
    vn::CoreActivity copy = a;
    EXPECT_EQ(&copy.loop(), &a.loop());
    copy.advance(3e-9);
    EXPECT_EQ(&copy.loop(), &a.loop());

    auto list = std::make_shared<const std::vector<vn::ActivityPhase>>(
        std::vector<vn::ActivityPhase>{{2.0, 4e-9}});
    EXPECT_EQ(&vn::CoreActivity::sharing(list).loop(), list.get());
}

TEST(CoreActivityTest, IdenticalOnlyWhenEveryFieldOfTheStateIs)
{
    const std::vector<vn::ActivityPhase> phases{{3.0, 10e-9}, {1.0, 30e-9}};
    const vn::SyncSpec sync{16, 0, 0.5};
    const vn::CoreActivity a(phases, sync);
    // A copy, and an equal schedule held in a list of its own.
    EXPECT_TRUE(a.identicalTo(vn::CoreActivity(a)));
    EXPECT_TRUE(a.identicalTo(vn::CoreActivity(phases, sync)));
    // The same loop with a start delay, another sync offset, a bit of
    // one phase changed, or no barrier.
    EXPECT_FALSE(a.identicalTo(vn::CoreActivity(phases, sync, {{1.0, 1e-9}})));
    EXPECT_FALSE(a.identicalTo(vn::CoreActivity(phases, vn::SyncSpec{16, 1, 0.5})));
    EXPECT_FALSE(a.identicalTo(
        vn::CoreActivity({{3.0, 10e-9}, {std::nextafter(1.0, 2.0), 30e-9}},
                         sync)));
    EXPECT_FALSE(a.identicalTo(vn::CoreActivity(phases)));

    // Mid-phase state: identical only at the same instant of the same
    // phase, and identical again after the same advances.
    vn::CoreActivity mid = a;
    mid.advance(3e-9);
    EXPECT_FALSE(a.identicalTo(mid));
    vn::CoreActivity other = a;
    other.advance(3e-9);
    EXPECT_TRUE(mid.identicalTo(other));
    for (int i = 0; i < 200; ++i) {
        double p = mid.advance(1e-9);
        double q = other.advance(1e-9);
        ASSERT_EQ(std::memcmp(&p, &q, sizeof(double)), 0) << i;
        ASSERT_TRUE(mid.identicalTo(other)) << i;
    }
    // Same phase position a whole loop later: a later clock differs.
    vn::CoreActivity loop_later(phases);
    vn::CoreActivity start(phases);
    loop_later.advance(40e-9);
    EXPECT_FALSE(start.identicalTo(loop_later));
}

TEST(CoreActivityTest, InvalidConstructionIsFatal)
{
    bool prev = vn::setThrowOnError(true);
    EXPECT_THROW(vn::CoreActivity({}), vn::FatalError);
    EXPECT_THROW(vn::CoreActivity::sharing(nullptr), vn::FatalError);
    EXPECT_THROW(vn::CoreActivity({{1.0, 0.0}}), vn::FatalError);
    EXPECT_THROW(vn::CoreActivity({{1.0, 1e-9}}, vn::SyncSpec{0, 0, 0.5}),
                 vn::FatalError);
    vn::setThrowOnError(prev);
}

} // namespace
