/**
 * @file
 * Throttle-transition tracing: drive the coordinated / FDP
 * policies with synthetic feedback and assert the ThrottleMonitor
 * emits exactly the transitions the paper's threshold tables
 * prescribe — no event when the decision is Nothing or the level is
 * already clamped, one event per real level change, and the disabled
 * encoding for PAB-style enable flips.
 */

#include <gtest/gtest.h>

#include <vector>

#include "obs/throttle_monitor.hh"
#include "throttle/feedback.hh"
#include "throttle/policies.hh"

namespace ecdp
{
namespace
{

FeedbackSnapshot
snap(double coverage, double accuracy)
{
    FeedbackSnapshot s;
    s.coverage = coverage;
    s.accuracy = accuracy;
    s.anyPrefetches = true;
    return s;
}

std::vector<obs::TraceEvent>
transitions(const obs::EventTracer &tracer)
{
    std::vector<obs::TraceEvent> out;
    tracer.forEach([&](const obs::TraceEvent &event) {
        if (event.type == obs::EventType::ThrottleTransition)
            out.push_back(event);
    });
    return out;
}

TEST(ThrottleMonitor, EmitsNothingForInitialState)
{
    obs::EventTracer tracer;
    obs::ThrottleMonitor monitor(&tracer, 0, 0,
                                 AggLevel::Aggressive);
    EXPECT_FALSE(
        monitor.observe(Cycle{100}, AggLevel::Aggressive, true));
    EXPECT_EQ(tracer.size(), 0u);
}

TEST(ThrottleMonitor, NullTracerStillTracksState)
{
    // Disabled tracing costs one pointer test: the monitor still
    // tracks transitions (observe() reports the change) but records
    // nothing anywhere.
    obs::ThrottleMonitor monitor(nullptr, 0, 0,
                                 AggLevel::Aggressive);
    EXPECT_TRUE(
        monitor.observe(Cycle{100}, AggLevel::Conservative, true));
    EXPECT_FALSE(
        monitor.observe(Cycle{200}, AggLevel::Conservative, true));
}

TEST(ThrottleMonitor, EncodesDisableAsLevel255)
{
    obs::EventTracer tracer;
    obs::ThrottleMonitor monitor(&tracer, 2, 1,
                                 AggLevel::Moderate);
    // PAB turns the prefetcher off, then later back on.
    EXPECT_TRUE(monitor.observe(Cycle{500}, AggLevel::Moderate, false));
    EXPECT_TRUE(monitor.observe(Cycle{900}, AggLevel::Moderate, true));
    auto events = transitions(tracer);
    ASSERT_EQ(events.size(), 2u);
    EXPECT_EQ(events[0].a, 2u);
    EXPECT_EQ(events[0].b, obs::kLevelDisabled);
    EXPECT_EQ(events[0].core, 2u);
    EXPECT_EQ(events[0].source, 1u);
    EXPECT_EQ(events[0].cycle, Cycle{500});
    EXPECT_EQ(events[1].a, obs::kLevelDisabled);
    EXPECT_EQ(events[1].b, 2u);
}

PolicyContext
paperThresholds()
{
    PolicyContext ctx;
    ctx.coord = CoordinatedThresholds{0.2, 0.4, 0.7};
    return ctx;
}

/**
 * Walk a throttled prefetcher through the coordinated decision
 * table exactly as MemorySystem::endInterval() does: decide from
 * the snapshots, apply to the current level, observe the result.
 */
struct ThrottleRig
{
    CoordinatedPolicy policy{paperThresholds()};
    obs::EventTracer tracer;
    AggLevel level = AggLevel::Aggressive;
    obs::ThrottleMonitor monitor{&tracer, 0, 0, level};
    Cycle now{};

    bool step(const FeedbackSnapshot &self,
              const FeedbackSnapshot &rival)
    {
        now += 1000;
        ThrottleDecision decision =
            policy.onIntervalEnd(0, {self, rival}, IntervalContext{});
        level = applyDecision(level, decision);
        return monitor.observe(now, level, true);
    }
};

TEST(CoordinatedThrottleTrace, RampDownEmitsEachStepOnce)
{
    ThrottleRig rig;
    // Table 3 case 2 (low coverage, low accuracy) -> Down each
    // interval until the level clamps at VeryConservative.
    FeedbackSnapshot self = snap(0.1, 0.1);
    FeedbackSnapshot rival = snap(0.5, 0.5);

    EXPECT_TRUE(rig.step(self, rival));  // Aggressive -> Moderate
    EXPECT_TRUE(rig.step(self, rival));  // Moderate -> Conservative
    EXPECT_TRUE(rig.step(self, rival));  // Conservative -> VeryCons.
    EXPECT_FALSE(rig.step(self, rival)); // clamped: no event

    auto events = transitions(rig.tracer);
    ASSERT_EQ(events.size(), 3u);
    const std::uint8_t expect[3][2] = {{3, 2}, {2, 1}, {1, 0}};
    for (std::size_t i = 0; i < 3; ++i) {
        EXPECT_EQ(events[i].a, expect[i][0]) << "step " << i;
        EXPECT_EQ(events[i].b, expect[i][1]) << "step " << i;
        EXPECT_EQ(events[i].cycle, Cycle{(i + 1) * 1000}) << "step " << i;
    }
}

TEST(CoordinatedThrottleTrace, RampBackUpAfterRecovery)
{
    ThrottleRig rig;
    FeedbackSnapshot bad = snap(0.1, 0.1);
    FeedbackSnapshot good = snap(0.5, 0.9); // case 1: high coverage
    FeedbackSnapshot rival = snap(0.5, 0.5);

    rig.step(bad, rival);  // 3 -> 2
    rig.step(bad, rival);  // 2 -> 1
    rig.step(good, rival); // 1 -> 2
    rig.step(good, rival); // 2 -> 3
    EXPECT_FALSE(rig.step(good, rival)); // clamped at Aggressive

    auto events = transitions(rig.tracer);
    ASSERT_EQ(events.size(), 4u);
    EXPECT_EQ(events[2].a, 1u);
    EXPECT_EQ(events[2].b, 2u);
    EXPECT_EQ(events[3].a, 2u);
    EXPECT_EQ(events[3].b, 3u);
}

TEST(CoordinatedThrottleTrace, Case5EmitsNoEvent)
{
    ThrottleRig rig;
    // Table 3 case 5: low coverage, high accuracy, rival covering —
    // leave the level alone, so the monitor stays silent.
    EXPECT_FALSE(rig.step(snap(0.1, 0.9), snap(0.9, 0.5)));
    EXPECT_EQ(transitions(rig.tracer).size(), 0u);
}

TEST(FdpThrottleTrace, DecisionMatrixDrivesMonitor)
{
    FdpPolicy fdp{PolicyContext{}};
    obs::EventTracer tracer;
    AggLevel level = AggLevel::Moderate;
    obs::ThrottleMonitor monitor(&tracer, 0, 0, level);

    auto step = [&](double accuracy, double lateness,
                    double pollution, Cycle now) {
        FeedbackSnapshot s;
        s.accuracy = accuracy;
        s.lateness = lateness;
        s.pollution = pollution;
        s.anyPrefetches = true;
        level = applyDecision(
            level, fdp.onIntervalEnd(0, {s}, IntervalContext{}));
        return monitor.observe(now, level, true);
    };

    // High accuracy + late -> Up.
    EXPECT_TRUE(step(0.9, 0.5, 0.0, Cycle{1000}));
    // High accuracy, timely -> Nothing.
    EXPECT_FALSE(step(0.9, 0.0, 0.0, Cycle{2000}));
    // Low accuracy -> Down.
    EXPECT_TRUE(step(0.1, 0.0, 0.0, Cycle{3000}));

    auto events = transitions(tracer);
    ASSERT_EQ(events.size(), 2u);
    EXPECT_EQ(events[0].a, 2u); // Moderate -> Aggressive
    EXPECT_EQ(events[0].b, 3u);
    EXPECT_EQ(events[1].a, 3u); // Aggressive -> Moderate
    EXPECT_EQ(events[1].b, 2u);
}

} // namespace
} // namespace ecdp
