/**
 * @file
 * Unit and property tests for the POWER4-style stream prefetcher.
 */

#include <gtest/gtest.h>

#include "prefetch/stream_prefetcher.hh"

namespace ecdp
{
namespace
{

std::vector<PrefetchRequest>
trigger(StreamPrefetcher &pf, Addr addr)
{
    std::vector<PrefetchRequest> out;
    pf.trigger(addr, out);
    return out;
}

TEST(StreamPrefetcher, FirstMissOnlyAllocates)
{
    StreamPrefetcher pf;
    EXPECT_TRUE(trigger(pf, 0x40000000).empty());
}

TEST(StreamPrefetcher, SecondNearbyMissTrainsAndPrefetches)
{
    StreamPrefetcher pf;
    trigger(pf, 0x40000000);
    auto reqs = trigger(pf, 0x40000080); // next block
    ASSERT_FALSE(reqs.empty());
    EXPECT_LE(reqs.size(), pf.degree());
    // Ascending stream: prefetches go forward.
    EXPECT_EQ(reqs[0].blockAddr, 0x40000100u);
}

TEST(StreamPrefetcher, DetectsDescendingStreams)
{
    StreamPrefetcher pf;
    trigger(pf, 0x40001000);
    auto reqs = trigger(pf, 0x40000f80);
    ASSERT_FALSE(reqs.empty());
    EXPECT_EQ(reqs[0].blockAddr, 0x40000f00u);
}

TEST(StreamPrefetcher, FarMissesDoNotTrain)
{
    StreamPrefetcher pf;
    trigger(pf, 0x40000000);
    // 17 blocks away: outside the +/-16 block training window.
    EXPECT_TRUE(trigger(pf, 0x40000000 + 17 * 128).empty());
}

TEST(StreamPrefetcher, MonitorRegionAdvancesStream)
{
    StreamPrefetcher pf;
    pf.setAggressiveness(AggLevel::Aggressive); // distance 32, degree 4
    trigger(pf, 0x40000000);
    trigger(pf, 0x40000080);
    // Keep walking the stream: each trigger inside the monitored
    // region emits up to `degree` new prefetches.
    std::size_t total = 0;
    for (unsigned i = 2; i < 10; ++i)
        total += trigger(pf, 0x40000000 + i * 128).size();
    EXPECT_GT(total, 0u);
}

TEST(StreamPrefetcher, FrontierNeverExceedsDistance)
{
    StreamPrefetcher pf;
    pf.setAggressiveness(AggLevel::Conservative); // distance 8
    trigger(pf, 0x40000000);
    auto reqs = trigger(pf, 0x40000080);
    for (unsigned i = 2; i < 20; ++i) {
        auto more = trigger(pf, 0x40000000 + i * 128);
        reqs.insert(reqs.end(), more.begin(), more.end());
    }
    for (const PrefetchRequest &req : reqs) {
        // No prefetch further than distance blocks past its trigger.
        EXPECT_LE(req.blockAddr, 0x40000000u + (20 + 8) * 128);
    }
}

TEST(StreamPrefetcher, DegreeCapsRequestsPerTrigger)
{
    for (AggLevel level :
         {AggLevel::VeryConservative, AggLevel::Conservative,
          AggLevel::Moderate, AggLevel::Aggressive}) {
        StreamPrefetcher pf;
        pf.setAggressiveness(level);
        trigger(pf, 0x40000000);
        auto reqs = trigger(pf, 0x40000080);
        EXPECT_LE(reqs.size(), pf.degree());
    }
}

TEST(StreamPrefetcher, Table2Configurations)
{
    StreamPrefetcher pf;
    pf.setAggressiveness(AggLevel::VeryConservative);
    EXPECT_EQ(pf.distance(), 4u);
    EXPECT_EQ(pf.degree(), 1u);
    pf.setAggressiveness(AggLevel::Conservative);
    EXPECT_EQ(pf.distance(), 8u);
    EXPECT_EQ(pf.degree(), 1u);
    pf.setAggressiveness(AggLevel::Moderate);
    EXPECT_EQ(pf.distance(), 16u);
    EXPECT_EQ(pf.degree(), 2u);
    pf.setAggressiveness(AggLevel::Aggressive);
    EXPECT_EQ(pf.distance(), 32u);
    EXPECT_EQ(pf.degree(), 4u);
}

TEST(StreamPrefetcher, LruEntryIsReplaced)
{
    StreamPrefetcher pf(2); // two entries only
    trigger(pf, 0x40000000);
    trigger(pf, 0x48000000);
    trigger(pf, 0x50000000); // evicts the 0x40000000 trainee
    // The evicted stream cannot be confirmed anymore.
    EXPECT_TRUE(trigger(pf, 0x40000080).empty());
}

TEST(StreamPrefetcher, RepeatMissOnSameBlockDoesNotTrain)
{
    StreamPrefetcher pf;
    trigger(pf, 0x40000000);
    EXPECT_TRUE(trigger(pf, 0x40000000).empty());
    EXPECT_TRUE(trigger(pf, 0x40000040).empty()); // same block
}

TEST(StreamPrefetcher, StorageIsSmall)
{
    StreamPrefetcher pf;
    EXPECT_LT(pf.storageBits(), 8u * 1024 * 8); // well under 8 KB
}

/** Property: streams train for any block stride within the window. */
class StreamStrideTest : public ::testing::TestWithParam<int>
{
};

TEST_P(StreamStrideTest, TrainsAndFollowsDirection)
{
    const int stride_blocks = GetParam();
    StreamPrefetcher pf;
    Addr base = 0x44000000;
    trigger(pf, base);
    auto reqs =
        trigger(pf, base + stride_blocks * 128);
    ASSERT_FALSE(reqs.empty())
        << "stride " << stride_blocks << " blocks";
    if (stride_blocks > 0)
        EXPECT_GT(reqs[0].blockAddr, base);
    else
        EXPECT_LT(reqs[0].blockAddr, base);
}

INSTANTIATE_TEST_SUITE_P(Strides, StreamStrideTest,
                         ::testing::Values(1, 2, 5, 15, -1, -3, -15));

} // namespace
} // namespace ecdp
