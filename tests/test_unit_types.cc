/**
 * @file
 * Unit tests for the strong address/time types (memsim/types.hh) and
 * BlockGeometry, plus regression tests for the bug class they kill:
 * block-indexed hashes that silently aliased adjacent blocks whenever
 * the block size was not the hard-coded 128 bytes.
 */

#include <gtest/gtest.h>

#include <unordered_set>

#include "memsim/block_geometry.hh"
#include "memsim/types.hh"
#include "prefetch/hardware_filter.hh"
#include "prefetch/markov_prefetcher.hh"
#include "sim/experiment.hh"
#include "sim/multicore.hh"
#include "throttle/feedback.hh"

namespace ecdp
{
namespace
{

TEST(UnitTypes, ByteAddrArithmetic)
{
    Addr a = 0x40000000u;
    EXPECT_EQ((a + 128).raw(), 0x40000080u);
    EXPECT_EQ((a - 16).raw(), 0x3ffffff0u);
    EXPECT_EQ((a + 128) - a, 128u);

    Addr b = a;
    b += 64;
    EXPECT_EQ(b.raw(), 0x40000040u);
    EXPECT_LT(a, b);

    // Wraps mod 2^32 like the simulated 32-bit hardware.
    Addr top = 0xffffffffu;
    EXPECT_EQ((top + 1).raw(), 0u);
}

TEST(UnitTypes, BlockAddrIsABlockNumber)
{
    BlockAddr blk{5};
    EXPECT_EQ(blk.raw(), 5u);
    EXPECT_EQ((blk + 3).raw(), 8u);
    EXPECT_EQ((blk + (-2)).raw(), 3u);
    EXPECT_LT(blk, blk + 1);
}

TEST(UnitTypes, CycleArithmetic)
{
    Cycle t{100};
    EXPECT_EQ((t + Cycle{20}).raw(), 120u);
    EXPECT_EQ((t - Cycle{30}).raw(), 70u);
    EXPECT_EQ((t + 5).raw(), 105u);
    EXPECT_EQ((t - 5).raw(), 95u);

    t += Cycle{10};
    t += 3;
    EXPECT_EQ(t, Cycle{113});
    EXPECT_EQ((t++).raw(), 113u);
    EXPECT_EQ((++t).raw(), 115u);

    EXPECT_LT(t, kNoEventCycle);
    EXPECT_EQ(kNoEventCycle.raw(), ~std::uint64_t{0});
}

TEST(UnitTypes, StrongTypesKeyUnorderedContainers)
{
    std::unordered_set<Addr> bytes{0x40000000u, 0x40000080u};
    EXPECT_TRUE(bytes.count(Addr{0x40000080u}));
    std::unordered_set<BlockAddr> blocks{BlockAddr{1}, BlockAddr{2}};
    EXPECT_FALSE(blocks.count(BlockAddr{3}));
    std::unordered_set<Cycle> times{Cycle{7}};
    EXPECT_TRUE(times.count(Cycle{7}));
}

TEST(BlockGeometry, DerivedShiftAndMaskTrackBlockSize)
{
    for (std::uint32_t bytes : {64u, 128u, 256u}) {
        BlockGeometry g{bytes};
        EXPECT_EQ(g.blockBytes(), bytes);
        EXPECT_EQ(std::uint32_t{1} << g.blockShift(), bytes);
        EXPECT_EQ(g.blockMask(), bytes - 1);
    }
}

TEST(BlockGeometry, ConversionsRoundTrip)
{
    for (std::uint32_t bytes : {64u, 128u, 256u}) {
        BlockGeometry g{bytes};
        Addr a = Addr{0x40001230u};
        BlockAddr blk = g.blockOf(a);
        EXPECT_EQ(blk.raw(), 0x40001230u / bytes);
        EXPECT_EQ(g.baseOf(blk).raw(), (0x40001230u / bytes) * bytes);
        EXPECT_EQ(g.alignDown(a), g.baseOf(blk));
        EXPECT_EQ(g.offsetIn(a), 0x40001230u % bytes);
        EXPECT_TRUE(g.sameBlock(a, g.baseOf(blk)));
        EXPECT_FALSE(g.sameBlock(a, a + bytes));
        EXPECT_EQ(g.signedBlockOf(a),
                  static_cast<std::int64_t>(blk.raw()));
        EXPECT_EQ(g.baseOfSigned(g.signedBlockOf(a)), g.alignDown(a));
    }
}

TEST(BlockGeometry, AdjacentBlocksGetAdjacentNumbersAtAnySize)
{
    // The pre-refactor hashes shifted by a hard-coded 7, so at 64-byte
    // blocks two *different* adjacent blocks collapsed onto one table
    // index. Block numbers must differ for adjacent blocks at every
    // configured size.
    for (std::uint32_t bytes : {64u, 128u, 256u}) {
        BlockGeometry g{bytes};
        Addr a = 0x40000000u;
        EXPECT_EQ((g.blockOf(a) + 1), g.blockOf(a + bytes))
            << "block size " << bytes;
        EXPECT_NE(g.blockOf(a), g.blockOf(a + bytes));
    }
}

TEST(BlockSizeSensitivity, HardwareFilterDistinguishesAdjacent64ByteBlocks)
{
    BlockGeometry g{64};
    HardwareFilter filter;
    Addr a = 0x40000000u;
    filter.onPrefetchEvictedUnused(g.blockOf(a));
    EXPECT_FALSE(filter.allow(g.blockOf(a)));
    // The adjacent 64-byte block is a different filter entry; with the
    // old byte>>7 hash it aliased onto the same bit and was dropped.
    EXPECT_TRUE(filter.allow(g.blockOf(a + 64)));

    filter.onPrefetchUsed(g.blockOf(a));
    EXPECT_TRUE(filter.allow(g.blockOf(a)));
}

TEST(BlockSizeSensitivity, PollutionFilterDistinguishesAdjacent64ByteBlocks)
{
    BlockGeometry g{64};
    PollutionFilter filter;
    Addr a = 0x40000000u;
    filter.onPrefetchEvictedDemandBlock(g.blockOf(a));
    EXPECT_TRUE(filter.test(g.blockOf(a)));
    EXPECT_FALSE(filter.test(g.blockOf(a + 64)));
}

TEST(BlockSizeSensitivity, MarkovTableDistinguishesAdjacent64ByteBlocks)
{
    BlockGeometry g{64};
    MarkovPrefetcher markov(g);
    std::vector<PrefetchRequest> out;
    Addr a = 0x40000000u;

    // Train the correlation a -> a+64.
    markov.onDemandMiss(g.blockOf(a), out);
    markov.onDemandMiss(g.blockOf(a + 64), out);
    out.clear();
    markov.onDemandMiss(g.blockOf(a), out);

    ASSERT_EQ(out.size(), 1u);
    // The successor must be the trained 64-byte neighbour, not the
    // 128-byte-rounded address the old hard-coded shift produced.
    EXPECT_EQ(out[0].blockAddr, a + 64);
}

TEST(BlockSizeSensitivity, RunsCompleteAt64And128ByteBlocks)
{
    // End-to-end: the same pointer workload simulated at 64- and
    // 128-byte L2 blocks. Both configurations must run to completion
    // with sane stats, and the block size must actually matter (the
    // pre-refactor tree silently simulated 128-byte indexing whatever
    // the config said).
    Workload wl = buildWorkload("mst", InputSet::Train);

    SystemConfig c128 = configs::byName("baseline");
    RunStats s128 = simulate(c128, wl);

    SystemConfig c64 = configs::byName("baseline");
    c64.l2BlockBytes = 64;
    RunStats s64 = simulate(c64, wl);

    EXPECT_GT(s128.ipc, 0.0);
    EXPECT_GT(s64.ipc, 0.0);
    EXPECT_FALSE(s128.timedOut);
    EXPECT_FALSE(s64.timedOut);
    // Halving the block size halves per-miss coverage on this
    // pointer-chasing workload: the runs must not be identical.
    EXPECT_NE(s64.cycles, s128.cycles);
}

} // namespace
} // namespace ecdp
