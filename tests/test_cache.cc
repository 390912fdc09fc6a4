/**
 * @file
 * Unit and property tests for the set-associative cache and MSHRs.
 */

#include <gtest/gtest.h>

#include "cache/cache.hh"
#include "cache/mshr.hh"

namespace ecdp
{
namespace
{

Cache
smallCache()
{
    return Cache("t", 4 * 1024, 4, 128); // 8 sets x 4 ways
}

TEST(Cache, MissThenHit)
{
    Cache cache = smallCache();
    EXPECT_EQ(cache.lookup(0x40000000), nullptr);
    cache.insert(0x40000000);
    EXPECT_NE(cache.lookup(0x40000000), nullptr);
}

TEST(Cache, BlockAddressMath)
{
    Cache cache = smallCache();
    EXPECT_EQ(cache.blockAddr(0x4000007f), 0x40000000u);
    EXPECT_EQ(cache.blockAddr(0x40000080), 0x40000080u);
    EXPECT_EQ(cache.blockOffset(0x4000007f), 127u);
}

TEST(Cache, HitAnywhereInBlock)
{
    Cache cache = smallCache();
    cache.insert(0x40000000);
    EXPECT_NE(cache.lookup(0x40000004), nullptr);
    EXPECT_NE(cache.lookup(0x4000007c), nullptr);
    EXPECT_EQ(cache.lookup(0x40000080), nullptr);
}

TEST(Cache, EvictsLruWay)
{
    Cache cache = smallCache();
    // Fill one set: same set index, different tags. Set stride is
    // 8 sets x 128 B = 1 KB.
    for (unsigned i = 0; i < 4; ++i)
        cache.insert(0x40000000 + i * 1024);
    // Touch the first block so the second becomes LRU.
    cache.lookup(0x40000000);
    Cache::Victim victim = cache.insert(0x40000000 + 4 * 1024);
    EXPECT_TRUE(victim.valid);
    EXPECT_EQ(victim.addr, 0x40000000u + 1024);
}

TEST(Cache, InsertIntoInvalidWayEvictsNothing)
{
    Cache cache = smallCache();
    Cache::Victim victim = cache.insert(0x40000000);
    EXPECT_FALSE(victim.valid);
    EXPECT_EQ(cache.evictions(), 0u);
}

TEST(Cache, ReinsertSameBlockIsRefreshNotEviction)
{
    Cache cache = smallCache();
    cache.insert(0x40000000);
    CacheBlock *block = cache.lookup(0x40000000);
    block->dirty = true;
    Cache::Victim victim = cache.insert(0x40000000);
    EXPECT_FALSE(victim.valid);
    // Refresh preserves state such as the dirty bit.
    EXPECT_TRUE(cache.lookup(0x40000000)->dirty);
}

TEST(Cache, InsertVictimPriority)
{
    Cache cache = smallCache();
    // Blocks i * 1 KB all map to set 0 (8 sets x 128 B).
    auto way = [](unsigned i) { return Addr{0x40000000u + i * 1024}; };
    CacheBlock *slot[3];
    for (unsigned i = 0; i < 3; ++i)
        slot[i] = cache.insert(way(i)).block;
    // An empty set fills from its first way; payloads lie in way order.
    EXPECT_LT(slot[0], slot[1]);
    EXPECT_LT(slot[1], slot[2]);
    // Ways 0-2 hold blocks 0-2; way 3 is empty. Empty way 1 as well,
    // so the set has two empty ways and block 0 is its LRU block.
    cache.invalidate(way(1));

    // A matching tag beats an empty way: block 2 is refreshed in place.
    Cache::Victim victim = cache.insert(way(2));
    EXPECT_FALSE(victim.valid);
    EXPECT_EQ(victim.block, slot[2]);
    EXPECT_EQ(victim.block, cache.lookup(way(2), false));

    // An empty way beats the LRU way, and the first empty way wins.
    victim = cache.insert(way(4));
    EXPECT_FALSE(victim.valid);
    EXPECT_EQ(victim.block, slot[1]);
    EXPECT_EQ(victim.block, cache.lookup(way(4), false));
    victim = cache.insert(way(5));
    EXPECT_FALSE(victim.valid);
    EXPECT_EQ(victim.block, cache.lookup(way(5), false));
    EXPECT_GT(victim.block, slot[2]);

    // Full set: the least recently used block goes, whichever way
    // holds it. Touch order is now 0, 2, 4, 5; touch 0 so 2 is LRU.
    cache.lookup(way(0));
    victim = cache.insert(way(6));
    EXPECT_TRUE(victim.valid);
    EXPECT_EQ(victim.addr, way(2));
    EXPECT_EQ(victim.block, slot[2]);
    EXPECT_EQ(victim.block, cache.lookup(way(6), false));
    // Every touch takes a fresh LRU stamp, so two filled ways never
    // tie and the earliest-way tie rule cannot show through insert().
    victim = cache.insert(way(7));
    EXPECT_EQ(victim.addr, way(4));
    EXPECT_EQ(victim.block, slot[1]);
}

TEST(Cache, VictimCarriesDirtyAndPrefetchState)
{
    Cache cache = smallCache();
    cache.insert(0x40000000, 1);
    cache.lookup(0x40000000, false)->dirty = true;
    for (unsigned i = 1; i <= 4; ++i)
        cache.insert(0x40000000 + i * 1024);
    // First insert is now evicted (it was LRU).
    EXPECT_EQ(cache.evictions(), 1u);
}

TEST(Cache, PrefetchOwnerSetsTag)
{
    Cache cache = smallCache();
    cache.insert(0x40000000, 0);
    cache.insert(0x40000080, 1);
    cache.insert(0x40000100);
    EXPECT_EQ(cache.lookup(0x40000000)->prefetchOwner, 0);
    EXPECT_EQ(cache.lookup(0x40000080)->prefetchOwner, 1);
    EXPECT_EQ(cache.lookup(0x40000100)->prefetchOwner, kNoPrefetchOwner);
}

TEST(Cache, InvalidateRemovesBlock)
{
    Cache cache = smallCache();
    cache.insert(0x40000000);
    cache.invalidate(0x40000010);
    EXPECT_EQ(cache.lookup(0x40000000), nullptr);
}

TEST(Cache, PeekDoesNotDisturbLru)
{
    Cache cache = smallCache();
    for (unsigned i = 0; i < 4; ++i)
        cache.insert(0x40000000 + i * 1024);
    // Peek at the oldest; it must still be the victim.
    EXPECT_NE(cache.peek(0x40000000), nullptr);
    Cache::Victim victim = cache.insert(0x40000000 + 4 * 1024);
    EXPECT_EQ(victim.addr, 0x40000000u);
}

TEST(Cache, EvictionCounterIsTheThrottlingClock)
{
    Cache cache = smallCache();
    for (unsigned i = 0; i < 32; ++i)
        cache.insert(0x40000000 + i * 128); // fills all 32 blocks
    EXPECT_EQ(cache.evictions(), 0u);
    for (unsigned i = 32; i < 40; ++i)
        cache.insert(0x40000000 + i * 128);
    EXPECT_EQ(cache.evictions(), 8u);
}

TEST(Cache, PrefetchedBitsStorageMatchesTable7)
{
    // 1 MB / 128 B = 8192 blocks x 2 bits (Table 7's first row).
    Cache l2("L2", 1024 * 1024, 8, 128);
    EXPECT_EQ(l2.prefetchedBitsStorageBits(), 8192u * 2);
}

/** Property: LRU order is respected for any associativity. */
class CacheLruTest : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(CacheLruTest, OldestUntouchedBlockIsEvicted)
{
    const unsigned assoc = GetParam();
    Cache cache("t", assoc * 128, assoc, 128); // one set
    for (unsigned i = 0; i < assoc; ++i)
        cache.insert(0x40000000 + i * 128 * 1); // all map to set 0
    // With a single set every block conflicts. Touch all but the
    // second block.
    for (unsigned i = 0; i < assoc; ++i) {
        if (i != 1)
            cache.lookup(0x40000000 + i * 128);
    }
    Cache::Victim victim = cache.insert(0x40000000 + assoc * 128);
    ASSERT_TRUE(victim.valid);
    EXPECT_EQ(victim.addr, 0x40000000u + 1 * 128);
}

INSTANTIATE_TEST_SUITE_P(Assocs, CacheLruTest,
                         ::testing::Values(2u, 4u, 8u, 16u));

/** Property: block geometry holds across block sizes. */
class CacheGeometryTest : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(CacheGeometryTest, OffsetsAndBlockAddrsConsistent)
{
    const unsigned block = GetParam();
    Cache cache("t", 64 * block, 4, block);
    for (Addr addr :
         {Addr{0x40000000}, Addr{0x40000000 + block - 1},
          Addr{0x40000000 + 3 * block + 5}}) {
        EXPECT_EQ(cache.blockAddr(addr).raw() % block, 0u);
        EXPECT_LT(cache.blockOffset(addr), block);
        EXPECT_EQ(cache.blockAddr(addr) + cache.blockOffset(addr),
                  addr);
    }
}

INSTANTIATE_TEST_SUITE_P(Blocks, CacheGeometryTest,
                         ::testing::Values(32u, 64u, 128u, 256u));

TEST(MshrFile, AllocateFindRelease)
{
    MshrFile mshrs(4);
    EXPECT_FALSE(mshrs.full());
    Mshr &entry = mshrs.allocate(0x40000000);
    EXPECT_EQ(mshrs.find(0x40000000), &entry);
    EXPECT_EQ(mshrs.inFlight(), 1u);
    mshrs.release(entry);
    EXPECT_EQ(mshrs.find(0x40000000), nullptr);
    EXPECT_EQ(mshrs.inFlight(), 0u);
}

TEST(MshrFile, FullAfterCapacityAllocations)
{
    MshrFile mshrs(2);
    mshrs.allocate(0x40000000);
    mshrs.allocate(0x40000080);
    EXPECT_TRUE(mshrs.full());
}

TEST(MshrFile, RipeReturnsOnlyDueFills)
{
    MshrFile mshrs(4);
    mshrs.allocate(0x40000000).fillAt = Cycle{100};
    mshrs.allocate(0x40000080).fillAt = Cycle{200};
    std::vector<Mshr *> due;
    mshrs.ripe(Cycle{150}, due);
    EXPECT_EQ(due.size(), 1u);
    mshrs.ripe(Cycle{250}, due);
    EXPECT_EQ(due.size(), 2u);
    // The out-parameter is cleared on every call, so a stale larger
    // result cannot leak through.
    mshrs.ripe(Cycle{50}, due);
    EXPECT_EQ(due.size(), 0u);
}

TEST(MshrFile, EarliestFillTracksMinimum)
{
    MshrFile mshrs(4);
    EXPECT_EQ(mshrs.earliestFill(), kNoEventCycle);
    mshrs.allocate(0x40000000).fillAt = Cycle{300};
    Mshr &second = mshrs.allocate(0x40000080);
    second.fillAt = Cycle{100};
    EXPECT_EQ(mshrs.earliestFill(), Cycle{100});
    mshrs.release(second);
    EXPECT_EQ(mshrs.earliestFill(), Cycle{300});
}

TEST(MshrFile, EcdpStorageMatchesTable7)
{
    // 32 entries x (7 + 16) bits in the paper's Table 7.
    MshrFile mshrs(32);
    EXPECT_EQ(mshrs.ecdpStorageBits(16), 32u * 23);
}

TEST(MshrFile, ReallocationReusesReleasedEntries)
{
    MshrFile mshrs(1);
    Mshr &entry = mshrs.allocate(0x40000000);
    mshrs.release(entry);
    Mshr &again = mshrs.allocate(0x40000080);
    EXPECT_EQ(&entry, &again);
    EXPECT_EQ(again.blockAddr, 0x40000080u);
    // The recycled entry must carry no stale state.
    EXPECT_FALSE(again.demand);
    EXPECT_FALSE(again.dirty);
    EXPECT_EQ(again.engine, kNoPrefetchOwner);
}

} // namespace
} // namespace ecdp
