/**
 * @file
 * Unit tests for feedback collection (Section 4.1) and the
 * coordinated / FDP throttlers (Sections 4.2 and 6.5).
 */

#include <gtest/gtest.h>

#include "memsim/block_geometry.hh"
#include "throttle/coordinated_throttler.hh"
#include "throttle/fdp_throttler.hh"
#include "throttle/feedback.hh"

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

TEST(Feedback, AccuracyCountsUsedAndLate)
{
    PrefetcherFeedback fb;
    for (int i = 0; i < 10; ++i)
        fb.onPrefetchIssued();
    for (int i = 0; i < 4; ++i)
        fb.onPrefetchUsed();
    for (int i = 0; i < 2; ++i)
        fb.onPrefetchLate();
    fb.endInterval();
    // Aged counters (integer halves): (4/2 + 2/2) / (10/2).
    EXPECT_NEAR(fb.accuracy(), 0.6, 1e-9);
}

TEST(Feedback, AccuracyIsOneWithNoPrefetchesEver)
{
    // A prefetcher that never issued anything has no measurement to
    // hold; it stays at the "idle prefetchers are never punished"
    // default of 1.0.
    PrefetcherFeedback fb;
    fb.endInterval();
    EXPECT_DOUBLE_EQ(fb.accuracy(), 1.0);
    EXPECT_FALSE(fb.anyPrefetches());
}

TEST(Feedback, ZeroIssueIntervalsHoldPreviousAccuracy)
{
    // An inaccurate prefetcher gets throttled to zero issue; its aged
    // issued count decays to 0 within a few intervals. 0/0 must not
    // read as perfect accuracy — it holds the last real measurement,
    // so the throttler does not immediately re-promote it.
    PrefetcherFeedback fb;
    for (int i = 0; i < 16; ++i)
        fb.onPrefetchIssued();
    fb.onPrefetchUsed();
    fb.endInterval();
    EXPECT_NEAR(fb.accuracy(), 0.0, 1e-9); // aged 0 used / 8 issued
    // Fully throttled from here on: issued ages 8 -> 4 -> 2 -> 1 -> 0.
    for (int i = 0; i < 6; ++i)
        fb.endInterval();
    EXPECT_FALSE(fb.anyPrefetches());
    EXPECT_NEAR(fb.accuracy(), 0.0, 1e-9); // held, not 1.0
}

TEST(Feedback, HeldAccuracyKeepsFdpFromRepromoting)
{
    // The end-to-end FDP consequence of the hold: a fully-throttled
    // inaccurate prefetcher keeps deciding Down every interval
    // instead of bouncing back up on a fake accuracy of 1.0.
    PrefetcherFeedback fb;
    for (int i = 0; i < 32; ++i)
        fb.onPrefetchIssued();
    fb.onPrefetchUsed();
    fb.endInterval();
    FdpThrottler fdp;
    for (int i = 0; i < 8; ++i) {
        FeedbackSnapshot s;
        s.accuracy = fb.accuracy();
        s.anyPrefetches = fb.anyPrefetches();
        EXPECT_EQ(fdp.decide(s), ThrottleDecision::Down)
            << "interval " << i;
        fb.endInterval(); // nothing issued: fully throttled
    }
}

TEST(Feedback, CoverageUsesSharedMissCounter)
{
    PrefetcherFeedback fb;
    for (int i = 0; i < 20; ++i)
        fb.onPrefetchIssued();
    for (int i = 0; i < 10; ++i)
        fb.onPrefetchUsed();
    fb.endInterval();
    // Aged used = 5; with 15 aged misses: 5 / (5 + 15) = 0.25.
    EXPECT_NEAR(fb.coverage(15), 0.25, 1e-9);
}

TEST(Feedback, LatenessFraction)
{
    PrefetcherFeedback fb;
    for (int i = 0; i < 8; ++i)
        fb.onPrefetchUsed();
    for (int i = 0; i < 2; ++i)
        fb.onPrefetchLate();
    fb.endInterval();
    EXPECT_NEAR(fb.lateness(), 0.25, 1e-9); // 1 aged late / 4 aged used
}

TEST(Feedback, LifetimeCountsSurviveAging)
{
    PrefetcherFeedback fb;
    for (int i = 0; i < 4; ++i)
        fb.onPrefetchIssued();
    fb.endInterval();
    fb.endInterval();
    EXPECT_EQ(fb.lifetimeIssued(), 4u);
}

TEST(PollutionFilterTest, RemembersAndClears)
{
    PollutionFilter filter(64);
    const BlockGeometry geom{128};
    const BlockAddr block = geom.blockOf(0x40000000);
    EXPECT_FALSE(filter.test(block));
    filter.onPrefetchEvictedDemandBlock(block);
    EXPECT_TRUE(filter.test(block));
    filter.clear();
    EXPECT_FALSE(filter.test(block));
}

// ---------------------------------------------------------------
// Table 3 heuristics, case by case.
// ---------------------------------------------------------------

struct Table3Case
{
    const char *name;
    double self_cov, self_acc, rival_cov;
    ThrottleDecision expected;
};

// Without a printer gtest dumps the raw bytes, pointer included, into
// the test's listed parameter, and the test ID changes with ASLR.
void
PrintTo(const Table3Case &c, std::ostream *os)
{
    *os << c.name;
}

class Table3Test : public ::testing::TestWithParam<Table3Case>
{
};

TEST_P(Table3Test, DecisionMatchesPaper)
{
    const Table3Case &c = GetParam();
    CoordinatedThrottler throttler(
        CoordinatedThrottler::Thresholds{0.2, 0.4, 0.7});
    EXPECT_EQ(throttler.decide(snap(c.self_cov, c.self_acc),
                               snap(c.rival_cov, 0.5)),
              c.expected)
        << c.name;
}

INSTANTIATE_TEST_SUITE_P(
    PaperCases, Table3Test,
    ::testing::Values(
        // Case 1: high coverage -> up, regardless of the rest.
        Table3Case{"case1-low-acc", 0.5, 0.1, 0.1,
                   ThrottleDecision::Up},
        Table3Case{"case1-high-rival", 0.5, 0.9, 0.9,
                   ThrottleDecision::Up},
        // Case 2: low coverage + low accuracy -> down.
        Table3Case{"case2-rival-low", 0.1, 0.1, 0.1,
                   ThrottleDecision::Down},
        Table3Case{"case2-rival-high", 0.1, 0.1, 0.9,
                   ThrottleDecision::Down},
        // Case 3: both coverages low, decent accuracy -> up.
        Table3Case{"case3-medium", 0.1, 0.5, 0.1,
                   ThrottleDecision::Up},
        Table3Case{"case3-high", 0.1, 0.9, 0.1,
                   ThrottleDecision::Up},
        // Case 4: low cov, medium accuracy, rival covering -> down.
        Table3Case{"case4", 0.1, 0.5, 0.9, ThrottleDecision::Down},
        // Case 5: low cov, high accuracy, rival covering -> nothing.
        Table3Case{"case5", 0.1, 0.9, 0.9,
                   ThrottleDecision::Nothing}));

TEST(CoordinatedThrottlerTest, ThresholdBoundaries)
{
    CoordinatedThrottler throttler(
        CoordinatedThrottler::Thresholds{0.2, 0.4, 0.7});
    // Coverage exactly at threshold counts as high (case 1).
    EXPECT_EQ(throttler.decide(snap(0.2, 0.1), snap(0.0, 0.5)),
              ThrottleDecision::Up);
    // Accuracy exactly at A_high is high (case 5).
    EXPECT_EQ(throttler.decide(snap(0.1, 0.7), snap(0.9, 0.5)),
              ThrottleDecision::Nothing);
    // Accuracy exactly at A_low is medium (case 4 with rival high).
    EXPECT_EQ(throttler.decide(snap(0.1, 0.4), snap(0.9, 0.5)),
              ThrottleDecision::Down);
}

TEST(CoordinatedThrottlerTest, ApplyClampsAtLevelBounds)
{
    EXPECT_EQ(CoordinatedThrottler::apply(AggLevel::Aggressive,
                                          ThrottleDecision::Up),
              AggLevel::Aggressive);
    EXPECT_EQ(CoordinatedThrottler::apply(AggLevel::VeryConservative,
                                          ThrottleDecision::Down),
              AggLevel::VeryConservative);
    EXPECT_EQ(CoordinatedThrottler::apply(AggLevel::Moderate,
                                          ThrottleDecision::Up),
              AggLevel::Aggressive);
    EXPECT_EQ(CoordinatedThrottler::apply(AggLevel::Moderate,
                                          ThrottleDecision::Down),
              AggLevel::Conservative);
    EXPECT_EQ(CoordinatedThrottler::apply(AggLevel::Moderate,
                                          ThrottleDecision::Nothing),
              AggLevel::Moderate);
}

TEST(CoordinatedThrottlerTest, SymmetricAcrossPrefetchers)
{
    // The same decide() serves both prefetchers: swapping roles with
    // identical snapshots yields identical decisions.
    CoordinatedThrottler throttler;
    FeedbackSnapshot a = snap(0.1, 0.5);
    FeedbackSnapshot b = snap(0.1, 0.5);
    EXPECT_EQ(throttler.decide(a, b), throttler.decide(b, a));
}

// ---------------------------------------------------------------
// FDP decision matrix.
// ---------------------------------------------------------------

FeedbackSnapshot
fdpSnap(double accuracy, double lateness, double pollution)
{
    FeedbackSnapshot s;
    s.accuracy = accuracy;
    s.lateness = lateness;
    s.pollution = pollution;
    s.anyPrefetches = true;
    return s;
}

TEST(FdpThrottlerTest, HighAccuracyLateGoesUp)
{
    FdpThrottler fdp;
    EXPECT_EQ(fdp.decide(fdpSnap(0.9, 0.5, 0.0)),
              ThrottleDecision::Up);
}

TEST(FdpThrottlerTest, HighAccuracyTimelyStays)
{
    FdpThrottler fdp;
    EXPECT_EQ(fdp.decide(fdpSnap(0.9, 0.0, 0.0)),
              ThrottleDecision::Nothing);
}

TEST(FdpThrottlerTest, MediumAccuracyPollutingGoesDown)
{
    FdpThrottler fdp;
    EXPECT_EQ(fdp.decide(fdpSnap(0.5, 0.0, 0.1)),
              ThrottleDecision::Down);
}

TEST(FdpThrottlerTest, MediumAccuracyLateGoesUp)
{
    FdpThrottler fdp;
    EXPECT_EQ(fdp.decide(fdpSnap(0.5, 0.5, 0.0)),
              ThrottleDecision::Up);
}

TEST(FdpThrottlerTest, LowAccuracyAlwaysGoesDown)
{
    FdpThrottler fdp;
    EXPECT_EQ(fdp.decide(fdpSnap(0.1, 0.9, 0.0)),
              ThrottleDecision::Down);
    EXPECT_EQ(fdp.decide(fdpSnap(0.1, 0.0, 0.0)),
              ThrottleDecision::Down);
}

TEST(FdpThrottlerTest, IgnoresRivalByDesign)
{
    // FDP has no rival input at all: its decide() takes one snapshot.
    // This is the structural difference Section 6.5 calls out.
    FdpThrottler fdp;
    FeedbackSnapshot s = fdpSnap(0.9, 0.5, 0.0);
    EXPECT_EQ(fdp.decide(s), ThrottleDecision::Up);
}

// ---------------------------------------------------------------
// PollutionFilter hashing: every block-number bit must reach the
// index. The old single-shift hash (v ^= v >> 13, modulo table
// size) discarded bits above bit 24, so blocks differing only in
// high-order bits aliased deterministically.
// ---------------------------------------------------------------

TEST(PollutionFilterTest, HighOrderBitsReachTheIndex)
{
    PollutionFilter filter(4096);
    // Pairs differing only in bits the old hash discarded (>= 25).
    // A good mixer makes each pair collide with probability
    // 1/4096; the old hash collided on every single one.
    unsigned collisions = 0;
    const unsigned kPairs = 64;
    for (unsigned i = 0; i < kPairs; ++i) {
        const std::uint32_t base = 0x1000u + i * 257u;
        const BlockAddr low{base};
        const BlockAddr high{base | (0x7Fu << 25)};
        filter.clear();
        filter.onPrefetchEvictedDemandBlock(low);
        if (filter.test(high))
            ++collisions;
    }
    EXPECT_LE(collisions, 2u)
        << "high-order block bits do not influence the filter index";
}

TEST(PollutionFilterTest, StillDeterministicPerBlock)
{
    // The mixer is a pure function: same block, same bit.
    PollutionFilter filter(64);
    const BlockAddr block{0xABCDE123u};
    filter.onPrefetchEvictedDemandBlock(block);
    EXPECT_TRUE(filter.test(block));
    EXPECT_TRUE(filter.test(block));
}

// ---------------------------------------------------------------
// PrefetcherFeedback::reset(): the fresh-replay path must clear the
// latched accuracy, not only the aged counters.
// ---------------------------------------------------------------

TEST(Feedback, ResetClearsCountersAndHeldAccuracy)
{
    PrefetcherFeedback fb;
    for (int i = 0; i < 16; ++i)
        fb.onPrefetchIssued();
    fb.onPrefetchUsed();
    fb.endInterval();
    ASSERT_LT(fb.accuracy(), 0.2);
    // Age the issued count to zero: accuracy() now reports the
    // latched measurement.
    for (int i = 0; i < 8; ++i)
        fb.endInterval();
    ASSERT_FALSE(fb.anyPrefetches());
    ASSERT_LT(fb.accuracy(), 0.2) << "latch should hold";

    fb.reset();
    EXPECT_DOUBLE_EQ(fb.accuracy(), 1.0)
        << "reset must clear the held accuracy";
    EXPECT_FALSE(fb.anyPrefetches());
    EXPECT_FALSE(fb.currentIntervalActive());
    EXPECT_EQ(fb.lifetimeIssued(), 0u);
    EXPECT_EQ(fb.lifetimeUsed(), 0u);
    EXPECT_EQ(fb.lifetimeLate(), 0u);
}

// ---------------------------------------------------------------
// CoordinatedThrottler::rival over N-slot stacks: the neutral-rival
// path (lone engine) and the all-idle-stack path must agree, ties
// break to the lowest slot, and idle slots are decision-inert.
// ---------------------------------------------------------------

FeedbackSnapshot
idleSnap()
{
    // What a slot that issued nothing reports: default accuracy 1.0,
    // zero coverage, anyPrefetches false — but possibly a stale held
    // accuracy/lateness, which rival() must not leak through.
    FeedbackSnapshot s;
    s.accuracy = 0.55; // stale latched measurement
    s.lateness = 0.4;
    s.coverage = 0.0;
    s.anyPrefetches = false;
    return s;
}

TEST(CoordinatedRival, LoneEngineAndIdleStackAgree)
{
    // A lone engine gets the neutral default snapshot; a slot whose
    // three rivals are all idle must get a fieldwise-identical one.
    const FeedbackSnapshot lone = CoordinatedThrottler::rival(
        {snap(0.3, 0.8)}, 0);
    const FeedbackSnapshot crowded = CoordinatedThrottler::rival(
        {snap(0.3, 0.8), idleSnap(), idleSnap(), idleSnap()}, 0);
    EXPECT_DOUBLE_EQ(lone.accuracy, crowded.accuracy);
    EXPECT_DOUBLE_EQ(lone.coverage, crowded.coverage);
    EXPECT_DOUBLE_EQ(lone.lateness, crowded.lateness);
    EXPECT_DOUBLE_EQ(lone.pollution, crowded.pollution);
    EXPECT_EQ(lone.anyPrefetches, crowded.anyPrefetches);
}

TEST(CoordinatedRival, TieBreaksToLowestSlot)
{
    // Equal best coverage in slots 1 and 3: strict > keeps slot 1.
    std::vector<FeedbackSnapshot> stack = {
        snap(0.1, 0.9), snap(0.3, 0.5), snap(0.2, 0.6),
        snap(0.3, 0.8)};
    const FeedbackSnapshot r = CoordinatedThrottler::rival(stack, 0);
    EXPECT_DOUBLE_EQ(r.coverage, 0.3);
    EXPECT_DOUBLE_EQ(r.accuracy, 0.5) << "tie must keep slot 1";
}

TEST(CoordinatedRival, IdleSlotsAreDecisionInert)
{
    // Property: appending idle engines to a stack never changes any
    // existing slot's decision. Randomized stacks via a fixed LCG —
    // deterministic, no wall-clock entropy.
    CoordinatedThrottler throttler;
    std::uint64_t lcg = 12345;
    auto next01 = [&lcg] {
        lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
        return static_cast<double>(lcg >> 40) /
               static_cast<double>(1 << 24);
    };
    for (unsigned trial = 0; trial < 200; ++trial) {
        const std::size_t n = 1 + static_cast<std::size_t>(
                                      next01() * 4.0);
        std::vector<FeedbackSnapshot> stack;
        for (std::size_t i = 0; i < n; ++i)
            stack.push_back(snap(next01(), next01()));
        std::vector<FeedbackSnapshot> extended = stack;
        extended.push_back(idleSnap());
        extended.push_back(idleSnap());
        for (std::size_t i = 0; i < n; ++i) {
            const ThrottleDecision before = throttler.decide(
                stack[i], CoordinatedThrottler::rival(stack, i));
            const ThrottleDecision after = throttler.decide(
                extended[i],
                CoordinatedThrottler::rival(extended, i));
            EXPECT_EQ(before, after)
                << "trial " << trial << " slot " << i;
        }
    }
}

} // namespace
} // namespace ecdp
