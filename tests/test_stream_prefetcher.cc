/**
 * @file
 * Unit and property tests for the POWER4-style stream prefetcher.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <random>

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

/** FNV-1a over 64-bit words. */
struct Fnv
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    void add(std::uint64_t v)
    {
        for (unsigned b = 0; b < 8; ++b) {
            h ^= (v >> (8 * b)) & 0xff;
            h *= 0x100000001b3ull;
        }
    }
};

/**
 * Digests every request a seeded random trigger sequence emits, and
 * each trigger's request count. The sequence mixes walkers that step
 * 1-3 blocks up or down (more of them than entries, so replacement
 * runs), jumps up to 20 blocks from a walker (the edge of the
 * training window), far misses, repeats of a recent block, and two
 * walkers that run off either end of the 32-bit address space.
 */
std::uint64_t
streamDigest(unsigned entries, AggLevel level)
{
    constexpr std::uint32_t kBlocks = std::uint32_t{1} << 25;
    StreamPrefetcher pf(entries);
    pf.setAggressiveness(level);
    std::mt19937 rng(entries * 4 + static_cast<unsigned>(level));
    auto draw = [&rng](std::uint32_t n) {
        return static_cast<std::uint32_t>(rng() % n);
    };
    struct Walker
    {
        std::uint32_t block;
        int dir;
    };
    std::vector<Walker> walkers;
    walkers.push_back({3, -1});
    walkers.push_back({kBlocks - 4, 1});
    while (walkers.size() < entries + 8)
        walkers.push_back({draw(kBlocks), draw(2) ? 1 : -1});
    std::uint32_t recent[8] = {};
    Fnv digest;
    std::vector<PrefetchRequest> out;
    for (unsigned i = 0; i < 20000; ++i) {
        Walker &w = walkers[draw(static_cast<std::uint32_t>(walkers.size()))];
        std::uint32_t block = 0;
        const unsigned kind = draw(20);
        if (kind < 12) {
            w.block = (w.block + w.dir * static_cast<int>(1 + draw(3))) %
                      kBlocks;
            block = w.block;
        } else if (kind < 15) {
            block = (w.block + static_cast<int>(draw(41)) - 20) % kBlocks;
        } else if (kind < 18) {
            block = draw(kBlocks);
        } else {
            block = recent[draw(8)];
        }
        recent[i % 8] = block;
        out.clear();
        pf.trigger(Addr{block * 128 + draw(128)}, out);
        digest.add(out.size());
        for (const PrefetchRequest &req : out)
            digest.add(req.blockAddr.raw());
    }
    return digest.h;
}

TEST(StreamPrefetcherOrder, DigestsArePinned)
{
    // Recorded on the array-of-records stream table; the lane layout
    // must pick the same entry for every trigger at every table size.
    constexpr std::uint64_t kPinned[3][kNumAggLevels] = {
        {0x744c7157a799d5f8ull, 0x3d604eecc8aa618full,
         0x9af471604858ac89ull, 0xb65479c5b31db733ull},
        {0xbb0ffeb42c6abf00ull, 0x9839a9c047502380ull,
         0xead3833a645cb650ull, 0x941ddf7bfbb01e95ull},
        {0xc18e00c3f086a339ull, 0xdca65c494f22c405ull,
         0xd698a2ecce34e302ull, 0x3133233eba97213full},
    };
    constexpr unsigned kEntries[3] = {2, 32, 64};
    for (unsigned e = 0; e < 3; ++e) {
        for (unsigned level = 0; level < kNumAggLevels; ++level) {
            const std::uint64_t got =
                streamDigest(kEntries[e], static_cast<AggLevel>(level));
            EXPECT_EQ(got, kPinned[e][level])
                << kEntries[e] << " entries, level " << level;
        }
    }
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
