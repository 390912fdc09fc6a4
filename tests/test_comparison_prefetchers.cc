/**
 * @file
 * Behavioural tests for the comparison prefetchers, driven through
 * the PrefetchEngine interface the simulator actually uses (the
 * engines come out of the engine table, exactly as a configured
 * stack would create them). Generic contract checks — degree caps,
 * determinism, conservation, disable — live in the conformance
 * battery (test_engine_conformance.cc); this file keeps only the
 * algorithm-specific behaviours: what each engine learns and what it
 * predicts. The hardware filter is not an engine and keeps its direct
 * unit tests; PAB is a throttle policy, driven here through the
 * ThrottlePolicy interface.
 */

#include <gtest/gtest.h>

#include "engine_harness.hh"
#include "memsim/block_geometry.hh"
#include "prefetch/hardware_filter.hh"
#include "throttle/policies.hh"

namespace ecdp
{
namespace
{

std::unique_ptr<PrefetchEngine>
makeEngine(const std::string &name)
{
    return findEngine(name).make(harness::defaultEngineContext());
}

TraceEntry
missAt(Addr addr, Addr pc = 0x1000)
{
    TraceEntry e;
    e.pc = pc;
    e.vaddr = addr;
    e.kind = AccessKind::Load;
    return e;
}

TEST(Dbp, LearnsProducerConsumerAndPrefetches)
{
    std::unique_ptr<PrefetchEngine> dbp = makeEngine("dbp");
    EXPECT_TRUE(dbp->wantsLoadValues());
    std::vector<PrefetchRequest> out;
    // Producer load at pc=0x10 loads a pointer value.
    dbp->onLoadComplete(0x10, 0x40001000, out);
    EXPECT_TRUE(out.empty()); // no correlation yet
    // Consumer issues with address = value + 8: correlation learned.
    dbp->onLoadIssue(0x20, 0x40001008);
    // Next time the producer completes, its consumer is prefetched.
    dbp->onLoadComplete(0x10, 0x40002000, out);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].blockAddr, 0x40002008u);
}

TEST(Dbp, OffsetMustBeSmallAndNonNegative)
{
    std::unique_ptr<PrefetchEngine> dbp = makeEngine("dbp");
    std::vector<PrefetchRequest> out;
    dbp->onLoadComplete(0x10, 0x40001000, out);
    dbp->onLoadIssue(0x20, 0x40001000 + 4096); // too far: no match
    dbp->onLoadComplete(0x10, 0x40002000, out);
    EXPECT_TRUE(out.empty());
}

TEST(Dbp, NullPointerValueProducesNoPrefetch)
{
    std::unique_ptr<PrefetchEngine> dbp = makeEngine("dbp");
    std::vector<PrefetchRequest> out;
    dbp->onLoadComplete(0x10, 0x40001000, out);
    dbp->onLoadIssue(0x20, 0x40001000);
    dbp->onLoadComplete(0x10, 0, out);
    EXPECT_TRUE(out.empty());
}

TEST(Dbp, StorageIsAbout3KB)
{
    std::unique_ptr<PrefetchEngine> dbp = makeEngine("dbp");
    double kb = static_cast<double>(dbp->storageBits()) / 8 / 1024;
    EXPECT_GT(kb, 1.0);
    EXPECT_LT(kb, 4.0);
}

TEST(Markov, RecordsAndReplaysSuccessors)
{
    std::unique_ptr<PrefetchEngine> markov = makeEngine("markov");
    std::vector<PrefetchRequest> out;
    markov->onDemandMiss(missAt(0x40000000), out);
    markov->onDemandMiss(missAt(0x40010000), out); // successor
    out.clear();
    markov->onDemandMiss(missAt(0x40000000), out); // repeat the first
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].blockAddr, 0x40010000u);
}

TEST(Markov, KeepsUpToFourSuccessors)
{
    std::unique_ptr<PrefetchEngine> markov = makeEngine("markov");
    std::vector<PrefetchRequest> out;
    for (unsigned i = 1; i <= 4; ++i) {
        markov->onDemandMiss(missAt(0x40000000), out);
        markov->onDemandMiss(missAt(0x40000000 + i * 0x1000), out);
    }
    out.clear();
    markov->onDemandMiss(missAt(0x40000000), out);
    EXPECT_EQ(out.size(), 4u);
    EXPECT_EQ(markov->maxRequestsPerTrigger(), 4u);
}

TEST(Markov, FifthSuccessorEvictsOldest)
{
    std::unique_ptr<PrefetchEngine> markov = makeEngine("markov");
    std::vector<PrefetchRequest> out;
    for (unsigned i = 1; i <= 5; ++i) {
        markov->onDemandMiss(missAt(0x40000000), out);
        markov->onDemandMiss(missAt(0x40000000 + i * 0x1000), out);
    }
    out.clear();
    markov->onDemandMiss(missAt(0x40000000), out);
    EXPECT_EQ(out.size(), 4u);
    for (const PrefetchRequest &req : out)
        EXPECT_NE(req.blockAddr, 0x40001000u); // oldest gone
}

TEST(Markov, CannotPredictUnseenAddresses)
{
    std::unique_ptr<PrefetchEngine> markov = makeEngine("markov");
    std::vector<PrefetchRequest> out;
    markov->onDemandMiss(missAt(0x40770000), out);
    EXPECT_TRUE(out.empty());
}

TEST(Markov, StorageIsAbout1MB)
{
    std::unique_ptr<PrefetchEngine> markov = makeEngine("markov");
    double mb =
        static_cast<double>(markov->storageBits()) / 8 / 1024 / 1024;
    EXPECT_GT(mb, 1.0);
    EXPECT_LT(mb, 1.5);
}

TEST(Ghb, ReplaysDeltaPatterns)
{
    std::unique_ptr<PrefetchEngine> ghb = makeEngine("ghb");
    std::vector<PrefetchRequest> out;
    // Teach the pattern: +1, +2 block deltas repeating.
    Addr addr = 0x40000000;
    std::vector<std::int64_t> deltas{1, 2, 1, 2, 1};
    for (std::int64_t d : deltas) {
        ghb->onDemandMiss(missAt(addr), out);
        addr += static_cast<std::uint32_t>(d * 128);
    }
    out.clear();
    ghb->onDemandMiss(missAt(addr), out);
    // The last two deltas are (1, 2): the history says +1 comes next.
    ASSERT_FALSE(out.empty());
    EXPECT_EQ(out[0].blockAddr, addr + 2 * 128);
}

TEST(Ghb, CoversPlainStreams)
{
    std::unique_ptr<PrefetchEngine> ghb = makeEngine("ghb");
    std::vector<PrefetchRequest> out;
    Addr addr = 0x40000000;
    for (unsigned i = 0; i < 6; ++i) {
        out.clear();
        ghb->onDemandMiss(missAt(addr), out);
        addr += 128;
    }
    // Unit-stride pattern recognized: prefetches ahead.
    EXPECT_FALSE(out.empty());
    EXPECT_GT(out[0].blockAddr, addr - 128);
}

TEST(Ghb, NoPredictionWithoutHistory)
{
    std::unique_ptr<PrefetchEngine> ghb = makeEngine("ghb");
    std::vector<PrefetchRequest> out;
    ghb->onDemandMiss(missAt(0x40000000), out);
    ghb->onDemandMiss(missAt(0x40000080), out);
    EXPECT_TRUE(out.empty());
}

TEST(Ghb, StorageIsAbout12KB)
{
    std::unique_ptr<PrefetchEngine> ghb = makeEngine("ghb");
    double kb = static_cast<double>(ghb->storageBits()) / 8 / 1024;
    EXPECT_GT(kb, 6.0);
    EXPECT_LT(kb, 14.0);
}

TEST(Isb, ReplaysTemporalMissSequences)
{
    std::unique_ptr<PrefetchEngine> isb = makeEngine("isb");
    std::vector<PrefetchRequest> out;
    // An irregular (non-stride) block sequence, seen once...
    const std::uint32_t seq[] = {0x40000000, 0x40037000, 0x40011000,
                                 0x40500000, 0x40260000};
    for (std::uint32_t a : seq)
        isb->onDemandMiss(missAt(a), out);
    EXPECT_TRUE(out.empty()); // training only
    // ...replays from its start on the second encounter.
    out.clear();
    isb->onDemandMiss(missAt(seq[0]), out);
    ASSERT_FALSE(out.empty());
    EXPECT_EQ(out[0].blockAddr, 0x40037000u);
}

TEST(Dspatch, ReplaysSpatialPatternForNewRegion)
{
    std::unique_ptr<PrefetchEngine> dspatch = makeEngine("dspatch");
    std::vector<PrefetchRequest> out;
    // Touch alternating blocks of one 2 KB region (pc 0x10)...
    for (unsigned b = 0; b < 16; b += 2)
        dspatch->onDemandMiss(missAt(0x40000000 + b * 128, 0x10), out);
    EXPECT_TRUE(out.empty());
    // ...then trigger a buffer-aliasing region with the same pc: the
    // displaced region retires and the learned pattern replays.
    out.clear();
    dspatch->onDemandMiss(missAt(0x40000000 + 64 * 2048, 0x10), out);
    ASSERT_FALSE(out.empty());
    for (const PrefetchRequest &req : out) {
        const std::uint32_t off =
            (req.blockAddr.raw() - (0x40000000u + 64 * 2048)) / 128;
        EXPECT_EQ(off % 2, 0u) << "predicted an untouched block";
    }
}

TEST(HardwareFilter, BlocksPreviouslyUselessPrefetches)
{
    HardwareFilter filter;
    const BlockGeometry geom{128};
    const BlockAddr block = geom.blockOf(0x40000000);
    EXPECT_TRUE(filter.allow(block));
    filter.onPrefetchEvictedUnused(block);
    EXPECT_FALSE(filter.allow(block));
    filter.onPrefetchUsed(block);
    EXPECT_TRUE(filter.allow(block));
}

TEST(HardwareFilter, StorageIs8KB)
{
    HardwareFilter filter;
    EXPECT_EQ(filter.storageBits(), 65536u);
}

/** A PAB policy over a @p slots-slot stack with a @p window-outcome
 *  accuracy window. */
PabPolicy
pabPolicy(unsigned window, unsigned slots = 2)
{
    PolicyContext ctx;
    ctx.pabWindow = window;
    ctx.slots = slots;
    return PabPolicy(ctx);
}

/** The one slot PAB keeps enabled at an interval end. */
std::size_t
selected(PabPolicy &pab, std::size_t slots = 2)
{
    std::vector<std::uint8_t> enabled(slots, 1);
    pab.selectEnabled(enabled);
    std::size_t kept = slots;
    for (std::size_t i = 0; i < slots; ++i) {
        if (enabled[i]) {
            EXPECT_EQ(kept, slots) << "more than one slot enabled";
            kept = i;
        }
    }
    return kept;
}

TEST(Pab, PicksTheMoreAccuratePrefetcher)
{
    PabPolicy pab = pabPolicy(16);
    for (unsigned i = 0; i < 16; ++i) {
        pab.onPrefetchOutcome(0, i % 4 == 0); // 25% accurate
        pab.onPrefetchOutcome(1, i % 2 == 0); // 50% accurate
    }
    EXPECT_EQ(selected(pab), 1u);
    EXPECT_NEAR(pab.accuracy(0), 0.25, 0.01);
    EXPECT_NEAR(pab.accuracy(1), 0.5, 0.01);
}

TEST(Pab, TieGoesToPrimary)
{
    PabPolicy pab = pabPolicy(8);
    for (unsigned i = 0; i < 8; ++i) {
        pab.onPrefetchOutcome(0, true);
        pab.onPrefetchOutcome(1, true);
    }
    EXPECT_EQ(selected(pab), 0u);
}

TEST(Pab, WindowForgetsOldOutcomes)
{
    PabPolicy pab = pabPolicy(4);
    for (unsigned i = 0; i < 4; ++i)
        pab.onPrefetchOutcome(1, false);
    for (unsigned i = 0; i < 4; ++i)
        pab.onPrefetchOutcome(1, true); // old misses roll out
    EXPECT_DOUBLE_EQ(pab.accuracy(1), 1.0);
    // 3 of 4 used in slot 0 loses to slot 1's forgotten misses.
    for (unsigned i = 0; i < 4; ++i)
        pab.onPrefetchOutcome(0, i != 0);
    EXPECT_EQ(selected(pab), 1u);
}

TEST(Pab, NoEvidenceMeansAccurate)
{
    PabPolicy pab = pabPolicy(64);
    EXPECT_DOUBLE_EQ(pab.accuracy(0), 1.0);
    EXPECT_DOUBLE_EQ(pab.accuracy(1), 1.0);
    // A slot without outcomes outranks a measured 3-of-4.
    for (unsigned i = 0; i < 4; ++i)
        pab.onPrefetchOutcome(0, i != 0);
    EXPECT_EQ(selected(pab), 1u);
}

} // namespace
} // namespace ecdp
