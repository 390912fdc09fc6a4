/**
 * @file
 * Tests for the per-core memory system: hit/miss timing, MSHR merges,
 * prefetched-bit accounting, CDP scan-at-fill, ECDP gating, oracle
 * modes, interval throttling, and the scheduler wakeup bound.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "dram/dram.hh"
#include "sim/experiment.hh"
#include "sim/memory_system.hh"

namespace ecdp
{
namespace
{

TraceEntry
loadAt(Addr addr, Addr pc = 0x1000, bool is_lds = false)
{
    TraceEntry e;
    e.pc = pc;
    e.vaddr = addr;
    e.kind = AccessKind::Load;
    e.isLds = is_lds;
    return e;
}

TraceEntry
storeAt(Addr addr, std::uint64_t value)
{
    TraceEntry e;
    e.pc = 0x2000;
    e.vaddr = addr;
    e.kind = AccessKind::Store;
    e.storeValue = value;
    return e;
}

/** Drive ticks until a given cycle. */
void
tickUntil(MemorySystem &mem, Cycle from, Cycle to)
{
    for (Cycle c = from; c <= to; ++c)
        mem.tick(c);
}

struct Rig
{
    explicit Rig(SystemConfig config = {})
        : cfg(config), dram(cfg.dram, 1), mem(cfg, 0, SimMemory{},
                                              &dram, &obs)
    {
        dram.attachObservability(obs);
    }

    SystemConfig cfg;
    obs::MetricRegistry registry;
    Observability obs{&registry};
    DramSystem dram;
    MemorySystem mem;
};

SystemConfig
noPrefetchConfig()
{
    return configs::byName("noprefetch");
}

TEST(MemorySystem, MissThenL1Hit)
{
    Rig rig(noPrefetchConfig());
    auto first = rig.mem.load(loadAt(0x40000000), Cycle{});
    ASSERT_TRUE(first.has_value());
    EXPECT_GE(*first, Cycle{450});
    tickUntil(rig.mem, Cycle{}, *first + 1);
    // After the fill, the same address hits in the L1.
    auto second = rig.mem.load(loadAt(0x40000000), *first + 2);
    ASSERT_TRUE(second.has_value());
    EXPECT_EQ(*second - (*first + 2), rig.cfg.l1Latency);
}

TEST(MemorySystem, L2HitAfterL1Eviction)
{
    Rig rig(noPrefetchConfig());
    auto first = rig.mem.load(loadAt(0x40000000), Cycle{});
    tickUntil(rig.mem, Cycle{}, *first + 1);
    Cycle now = *first + 2;
    // Thrash the L1 set (32 KB, 4-way, 64 B lines: set stride 8 KB).
    for (unsigned i = 1; i <= 8; ++i) {
        auto fill = rig.mem.load(loadAt(0x40000000 + i * 8192), now);
        ASSERT_TRUE(fill.has_value());
        tickUntil(rig.mem, now, *fill + 1);
        now = *fill + 2;
    }
    auto hit = rig.mem.load(loadAt(0x40000000), now);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(*hit - now, rig.cfg.l1Latency + rig.cfg.l2Latency);
}

TEST(MemorySystem, SecondaryMissMergesIntoMshr)
{
    Rig rig(noPrefetchConfig());
    auto first = rig.mem.load(loadAt(0x40000000), Cycle{});
    auto merged = rig.mem.load(loadAt(0x40000040), Cycle{1});
    ASSERT_TRUE(merged.has_value());
    // Same L2 block: completes with the first fill, costs no second
    // bus transaction.
    EXPECT_LE(*merged, *first + 4);
    EXPECT_EQ(rig.dram.busTransactions(), 1u);
}

TEST(MemorySystem, MshrExhaustionRejectsLoads)
{
    Rig rig(noPrefetchConfig());
    for (unsigned i = 0; i < 32; ++i) {
        EXPECT_TRUE(
            rig.mem.load(loadAt(0x40000000 + i * 128), Cycle{}).has_value());
    }
    EXPECT_FALSE(rig.mem.load(loadAt(0x41000000), Cycle{}).has_value());
}

TEST(MemorySystem, StoresUpdateTheImageImmediately)
{
    Rig rig(noPrefetchConfig());
    rig.mem.store(storeAt(0x40000000, 0xabcd), Cycle{});
    EXPECT_EQ(rig.mem.image().read(0x40000000, 4), 0xabcdu);
}

TEST(MemorySystem, DirtyEvictionsWriteBack)
{
    Rig rig(noPrefetchConfig());
    rig.mem.store(storeAt(0x40000000, 1), Cycle{});
    std::uint64_t before = rig.dram.busTransactions();
    // Evict the dirty block: fill the L2 set (1 MB, 8-way, 128 B:
    // set stride 128 KB).
    Cycle now{1};
    for (unsigned i = 1; i <= 9; ++i) {
        auto fill =
            rig.mem.load(loadAt(0x40000000 + i * 131072), now);
        ASSERT_TRUE(fill.has_value());
        tickUntil(rig.mem, now, *fill + 1);
        now = *fill + 2;
    }
    EXPECT_GT(rig.dram.busTransactions(), before + 8);
}

TEST(MemorySystem, StreamPrefetchCountsAsUsedOnHit)
{
    SystemConfig cfg; // stream prefetcher on
    Rig rig(cfg);
    // Two nearby misses train a stream, which prefetches ahead.
    Cycle now{};
    for (unsigned i = 0; i < 2; ++i) {
        auto fill = rig.mem.load(loadAt(0x40000000 + i * 128), now);
        ASSERT_TRUE(fill.has_value());
        tickUntil(rig.mem, now, *fill + 1);
        now = *fill + 2;
    }
    // Let the prefetches land, then touch a prefetched block.
    tickUntil(rig.mem, now, now + 2000);
    now += 2001;
    rig.mem.load(loadAt(0x40000000 + 3 * 128), now);
    RunStats stats;
    rig.mem.collectStats(stats);
    EXPECT_GT(stats.slot(0).issued, 0u);
    EXPECT_GT(stats.slot(0).used, 0u);
}

SystemConfig
cdpConfig()
{
    SystemConfig cfg;
    cfg.engines = {"none", "cdp"};
    return cfg;
}

TEST(MemorySystem, CdpScansDemandFillsAndPrefetches)
{
    Rig rig(cdpConfig());
    // Plant a pointer in the missed block.
    rig.mem.image().writePointer(0x40000004, 0x40008000);
    auto fill = rig.mem.load(loadAt(0x40000000, 0x1000, true), Cycle{});
    ASSERT_TRUE(fill.has_value());
    // Tick long enough for the prefetch itself to fill the L2.
    tickUntil(rig.mem, Cycle{}, *fill + 600);
    RunStats stats;
    rig.mem.collectStats(stats);
    EXPECT_EQ(stats.slot(1).issued, 1u);
    // The prefetched block is an L2 hit for a later demand.
    Cycle later = *fill + 601;
    auto hit = rig.mem.load(loadAt(0x40008000), later);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(*hit - later, rig.cfg.l1Latency + rig.cfg.l2Latency);
    rig.mem.collectStats(stats);
    EXPECT_EQ(stats.slot(1).used, 1u);
}

TEST(MemorySystem, CdpRecursionFollowsChains)
{
    Rig rig(cdpConfig());
    // A -> B -> C chain through pointers at offset 0.
    rig.mem.image().writePointer(0x40000000, 0x40010000);
    rig.mem.image().writePointer(0x40010000, 0x40020000);
    auto fill = rig.mem.load(loadAt(0x40000000, 0x1000, true), Cycle{});
    tickUntil(rig.mem, Cycle{}, *fill + 1200);
    RunStats stats;
    rig.mem.collectStats(stats);
    // Both B (depth 1) and C (depth 2, from the recursive scan of
    // B's fill) were prefetched.
    EXPECT_EQ(stats.slot(1).issued, 2u);
}

TEST(MemorySystem, CdpDepthOneDoesNotRecurse)
{
    SystemConfig cfg = cdpConfig();
    cfg.ldsStartLevel = AggLevel::VeryConservative; // depth 1
    Rig rig(cfg);
    rig.mem.image().writePointer(0x40000000, 0x40010000);
    rig.mem.image().writePointer(0x40010000, 0x40020000);
    auto fill = rig.mem.load(loadAt(0x40000000, 0x1000, true), Cycle{});
    tickUntil(rig.mem, Cycle{}, *fill + 1200);
    RunStats stats;
    rig.mem.collectStats(stats);
    EXPECT_EQ(stats.slot(1).issued, 1u);
}

TEST(MemorySystem, EcdpHintsGateDemandScans)
{
    HintTable hints; // empty: nothing is beneficial
    SystemConfig cfg = cdpConfig();
    cfg.engines[1] = "ecdp";
    cfg.hints = &hints;
    Rig rig(cfg);
    rig.mem.image().writePointer(0x40000004, 0x40008000);
    auto fill = rig.mem.load(loadAt(0x40000000, 0x1000, true), Cycle{});
    tickUntil(rig.mem, Cycle{}, *fill + 10);
    RunStats stats;
    rig.mem.collectStats(stats);
    EXPECT_EQ(stats.slot(1).issued, 0u);
}

TEST(MemorySystem, EcdpHintedSlotIsPrefetched)
{
    HintTable hints;
    hints.entry(0x1000).set(+1);
    SystemConfig cfg = cdpConfig();
    cfg.engines[1] = "ecdp";
    cfg.hints = &hints;
    Rig rig(cfg);
    rig.mem.image().writePointer(0x40000004, 0x40008000); // slot +1
    rig.mem.image().writePointer(0x40000008, 0x40009000); // slot +2
    auto fill = rig.mem.load(loadAt(0x40000000, 0x1000, true), Cycle{});
    tickUntil(rig.mem, Cycle{}, *fill + 10);
    RunStats stats;
    rig.mem.collectStats(stats);
    EXPECT_EQ(stats.slot(1).issued, 1u);
    ASSERT_EQ(stats.pgStats.size(), 1u);
    EXPECT_EQ(stats.pgStats.begin()->first.slot, 1);
}

TEST(MemorySystem, LatePrefetchCountsAsLateNotUsed)
{
    Rig rig(cdpConfig());
    rig.mem.image().writePointer(0x40000000, 0x40010000);
    auto fill = rig.mem.load(loadAt(0x40000000, 0x1000, true), Cycle{});
    tickUntil(rig.mem, Cycle{}, *fill + 2);
    // Demand the prefetched block while it is still in flight.
    auto merged = rig.mem.load(loadAt(0x40010000), *fill + 3);
    ASSERT_TRUE(merged.has_value());
    tickUntil(rig.mem, *fill + 3, *merged + 2);
    RunStats stats;
    rig.mem.collectStats(stats);
    EXPECT_EQ(stats.slot(1).late, 1u);
    EXPECT_EQ(stats.slot(1).used, 0u);
    // The merged demand still counts as a demand miss.
    EXPECT_EQ(stats.l2DemandMisses, 2u);
}

TEST(MemorySystem, IdealLdsTurnsLdsMissesIntoHits)
{
    SystemConfig cfg = noPrefetchConfig();
    cfg.idealLds = true;
    Rig rig(cfg);
    auto lds = rig.mem.load(loadAt(0x40000000, 0x1000, true), Cycle{});
    ASSERT_TRUE(lds.has_value());
    EXPECT_EQ(*lds, rig.cfg.l1Latency + rig.cfg.l2Latency);
    // Non-LDS misses still go to memory.
    auto normal = rig.mem.load(loadAt(0x40010000, 0x1000, false), Cycle{});
    EXPECT_GE(*normal, Cycle{450});
}

TEST(MemorySystem, IdealNoPollutionSideBuffersPrefetches)
{
    SystemConfig cfg = cdpConfig();
    cfg.idealNoPollution = true;
    Rig rig(cfg);
    rig.mem.image().writePointer(0x40000000, 0x40010000);
    auto fill = rig.mem.load(loadAt(0x40000000, 0x1000, true), Cycle{});
    tickUntil(rig.mem, Cycle{}, *fill + 600);
    // The prefetched block is not in the L2 (no pollution)...
    EXPECT_EQ(rig.mem.l2().peek(0x40010000), nullptr);
    // ...but a demand still gets it at L2-hit cost from the buffer.
    Cycle later = *fill + 601;
    auto hit = rig.mem.load(loadAt(0x40010000), later);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(*hit - later, rig.cfg.l1Latency + rig.cfg.l2Latency);
    RunStats stats;
    rig.mem.collectStats(stats);
    EXPECT_EQ(stats.slot(1).used, 1u);
}

TEST(MemorySystem, HardwareFilterDropsRepeatOffenders)
{
    SystemConfig cfg = cdpConfig();
    cfg.hwFilter = true;
    cfg.l2Bytes = 16 * 1024; // tiny L2 so evictions happen quickly
    Rig rig(cfg);
    rig.mem.image().writePointer(0x40000000, 0x48000000);
    // Fetch, let the prefetch land, evict it unused, then refetch.
    auto fill = rig.mem.load(loadAt(0x40000000, 0x1000, true), Cycle{});
    tickUntil(rig.mem, Cycle{}, *fill + 600);
    Cycle now = *fill + 601;
    for (unsigned i = 0; i < 200; ++i) {
        auto f = rig.mem.load(loadAt(0x41000000 + i * 128), now);
        if (f) {
            tickUntil(rig.mem, now, *f + 1);
            now = *f + 2;
        } else {
            rig.mem.tick(now);
            ++now;
        }
    }
    RunStats before;
    rig.mem.collectStats(before);
    // Re-trigger the same pointer: the filter blocks it now.
    rig.mem.image().writePointer(0x42000000, 0x48000000);
    auto refill = rig.mem.load(loadAt(0x42000000, 0x1000, true), now);
    tickUntil(rig.mem, now, *refill + 20);
    RunStats after;
    rig.mem.collectStats(after);
    EXPECT_EQ(after.slot(1).issued, before.slot(1).issued);
}

TEST(MemorySystem, CoordinatedThrottlingReactsToUselessPrefetches)
{
    SystemConfig cfg;
    cfg.engines = {"none", "cdp"}; // keep the miss stream visible
    cfg.throttlePolicy = "coordinated";
    cfg.intervalEvictions = 32;
    cfg.l2Bytes = 64 * 1024;
    Rig rig(cfg);
    // Junk pointers everywhere; no demand ever touches the targets.
    auto rnd = [](unsigned i) {
        return 0x40000000u + ((i * 2654435761u) % 0x400000u);
    };
    for (unsigned i = 0; i < 8192; ++i)
        rig.mem.image().writePointer(0x40000000 + i * 128,
                                     0x40800000 + rnd(i) % 0x100000);
    Cycle now{};
    for (unsigned i = 0; i < 1200; ++i) {
        auto fill =
            rig.mem.load(loadAt(0x40000000 + i * 128, 0x1000, true),
                         now);
        if (fill) {
            tickUntil(rig.mem, now, *fill + 1);
            now = *fill + 2;
        } else {
            rig.mem.tick(now);
            ++now;
        }
    }
    EXPECT_GT(rig.mem.intervalsElapsed(), 2u);
    // A uniformly useless CDP must have been throttled down.
    EXPECT_LT(static_cast<int>(rig.mem.engineLevel(1)),
              static_cast<int>(AggLevel::Aggressive));
}

TEST(MemorySystem, PabKeepsOnlyOnePrefetcherEnabled)
{
    SystemConfig cfg = configs::byName("cdp+pab");
    cfg.intervalEvictions = 32;
    cfg.l2Bytes = 64 * 1024;
    Rig rig(cfg);
    for (unsigned i = 0; i < 8192; ++i)
        rig.mem.image().writePointer(0x40000000 + i * 128,
                                     0x40f00000 + (i % 512) * 128);
    Cycle now{};
    for (unsigned i = 0; i < 1200; ++i) {
        auto fill =
            rig.mem.load(loadAt(0x40000000 + i * 128, 0x1000, true),
                         now);
        if (fill) {
            tickUntil(rig.mem, now, *fill + 1);
            now = *fill + 2;
        } else {
            rig.mem.tick(now);
            ++now;
        }
    }
    EXPECT_GT(rig.mem.intervalsElapsed(), 2u);
    EXPECT_NE(rig.mem.engineEnabled(0), rig.mem.engineEnabled(1));
}

// ---------------------------------------------------------------
// nextEventCycle: the wakeup bound for a non-empty ready queue.
// ---------------------------------------------------------------

/** A pointer-carrying LDS block and the target it points to. */
constexpr std::uint32_t kTrigger = 0x40000000;
constexpr std::uint32_t kTarget = 0x40010000;

/**
 * Leave a CDP prefetch of kTarget at the head of the ready queue,
 * passing every filter but held back by the MSHR demand reserve: the
 * trigger's fill is scanned while enough later demand misses are in
 * flight that in-flight + reserve >= l2Mshrs. Returns the trigger's
 * fill cycle, whose memory tick has run; @p next_fill is the
 * earliest fill among the misses holding the MSHRs.
 */
Cycle
blockPrefetchBehindMshrs(Rig &rig, Cycle &next_fill)
{
    rig.mem.image().writePointer(kTrigger, kTarget);
    const auto trigger =
        rig.mem.load(loadAt(kTrigger, 0x1000, true), Cycle{});
    EXPECT_TRUE(trigger.has_value());
    next_fill = Cycle{~std::uint64_t{0}};
    const unsigned hogs = rig.cfg.l2Mshrs - rig.cfg.mshrReserveForDemand;
    for (unsigned i = 0; i < hogs; ++i) {
        const auto done =
            rig.mem.load(loadAt(0x41000000 + i * 0x100000), Cycle{10});
        EXPECT_TRUE(done.has_value());
        next_fill = std::min(next_fill, *done - rig.cfg.l1Latency);
    }
    const Cycle fill = *trigger - rig.cfg.l1Latency;
    tickUntil(rig.mem, Cycle{}, fill);
    return fill;
}

TEST(MemorySystemWakeup, MshrBlockedHeadWakesAtNextFill)
{
    Rig rig(cdpConfig());
    Cycle next_fill;
    const Cycle fill = blockPrefetchBehindMshrs(rig, next_fill);
    ASSERT_GT(next_fill, fill + 1);
    EXPECT_EQ(rig.mem.nextEventCycle(fill), next_fill);

    // The skipped cycles are no-ops for the head; the fill frees an
    // MSHR and the prefetch issues on that very tick.
    tickUntil(rig.mem, fill + 1, next_fill - 1);
    RunStats stats;
    rig.mem.collectStats(stats);
    EXPECT_EQ(stats.slot(1).issued, 0u);
    rig.mem.tick(next_fill);
    rig.mem.collectStats(stats);
    EXPECT_EQ(stats.slot(1).issued, 1u);
}

TEST(MemorySystemWakeup, SameCycleDemandInFlightWakesNextCycle)
{
    Rig rig(cdpConfig());
    Cycle next_fill;
    const Cycle fill = blockPrefetchBehindMshrs(rig, next_fill);
    // The core, ticking after the memory system, misses on the
    // head's block: the head is now a duplicate, dropped next tick.
    ASSERT_TRUE(rig.mem.load(loadAt(kTarget), fill).has_value());
    EXPECT_EQ(rig.mem.nextEventCycle(fill), fill + 1);
    rig.mem.tick(fill + 1);
    EXPECT_EQ(rig.registry.value("core0.pf.lds.dropped.in_flight"), 1u);
}

TEST(MemorySystemWakeup, SameCycleStoreMakesHeadCachedWakesNextCycle)
{
    Rig rig(cdpConfig());
    Cycle next_fill;
    const Cycle fill = blockPrefetchBehindMshrs(rig, next_fill);
    // A store miss write-allocates the head's block into the L2.
    rig.mem.store(storeAt(kTarget, 1), fill);
    EXPECT_EQ(rig.mem.nextEventCycle(fill), fill + 1);
    rig.mem.tick(fill + 1);
    EXPECT_EQ(rig.registry.value("core0.pf.lds.dropped.cached"), 1u);
}

TEST(MemorySystemWakeup, EndIntervalDisablingTheHeadsEngineWakesNextCycle)
{
    // PAB keeps one engine per interval; with no outcomes recorded
    // the tie goes to slot 0, so the first interval boundary turns
    // the CDP (slot 1) off. A one-set L2 makes the trigger's fill the
    // first eviction, and intervalEvictions = 1 ends the interval on
    // that same tick, after the head was found MSHR-blocked.
    SystemConfig cfg = configs::byName("cdp+pab");
    cfg.intervalEvictions = 1;
    cfg.l2Bytes = cfg.l2Assoc * cfg.l2BlockBytes;
    Rig rig(cfg);
    Cycle now{};
    for (unsigned way = 0; way < cfg.l2Assoc; ++way) {
        const auto done =
            rig.mem.load(loadAt(0x43000000 + way * 0x100000), now);
        ASSERT_TRUE(done.has_value());
        tickUntil(rig.mem, now, *done);
        now = *done + 1;
    }
    ASSERT_EQ(rig.mem.l2().evictions(), 0u);
    ASSERT_TRUE(rig.mem.engineEnabled(1));

    rig.mem.image().writePointer(kTrigger, kTarget);
    const auto trigger =
        rig.mem.load(loadAt(kTrigger, 0x1000, true), now);
    ASSERT_TRUE(trigger.has_value());
    const unsigned hogs = cfg.l2Mshrs - cfg.mshrReserveForDemand;
    for (unsigned i = 0; i < hogs; ++i) {
        ASSERT_TRUE(rig.mem
                        .load(loadAt(0x41000000 + i * 0x100000),
                              now + 10)
                        .has_value());
    }
    const Cycle fill = *trigger - cfg.l1Latency;
    tickUntil(rig.mem, now, fill);
    ASSERT_FALSE(rig.mem.engineEnabled(1));
    EXPECT_EQ(rig.mem.nextEventCycle(fill), fill + 1);
    rig.mem.tick(fill + 1);
    EXPECT_EQ(rig.registry.value("core0.pf.lds.dropped.source_disabled"),
              1u);
}

/**
 * Let a prefetch head meet a DRAM request buffer that writebacks
 * have filled past the prefetch reserve, then drive the memory
 * system to @p end either every cycle or only at its own wakeup
 * bound (the DRAM has none). Returns the whole counter set.
 */
std::vector<std::pair<std::string, std::uint64_t>>
runDramRejectScenario(bool skipping, Cycle end, Cycle &fill_out)
{
    Rig rig(cdpConfig());
    rig.mem.image().writePointer(kTrigger, kTarget);
    const auto trigger =
        rig.mem.load(loadAt(kTrigger, 0x1000, true), Cycle{});
    EXPECT_TRUE(trigger.has_value());
    const Cycle fill = *trigger - rig.cfg.l1Latency;
    fill_out = fill;
    tickUntil(rig.mem, Cycle{}, fill - 1);
    // Store misses post writebacks; each holds a buffer entry until
    // the bus has carried it.
    for (unsigned i = 0; i < rig.dram.bufferCapacity(); ++i)
        rig.mem.store(storeAt(0x42000000 + i * 0x100000, i), fill - 1);

    Cycle cycle = fill;
    while (cycle <= end) {
        rig.mem.tick(cycle);
        Cycle next = cycle + 1;
        if (skipping) {
            if (cycle == fill) {
                EXPECT_EQ(rig.mem.nextEventCycle(cycle), cycle + 1);
            }
            next = std::max(next, rig.mem.nextEventCycle(cycle));
        }
        cycle = next;
    }
    RunStats stats;
    rig.mem.collectStats(stats, end);
    return rig.registry.sorted();
}

TEST(MemorySystemWakeup, DramRejectedHeadRetriesEveryCycle)
{
    const Cycle end{5000};
    Cycle fill;
    const auto polled = runDramRejectScenario(false, end, fill);
    const auto skipped = runDramRejectScenario(true, end, fill);
    ASSERT_LT(fill, end);
    EXPECT_EQ(polled, skipped);
    const auto rejects =
        std::find_if(polled.begin(), polled.end(), [](const auto &kv) {
            return kv.first == "dram.buffer_rejects";
        });
    ASSERT_NE(rejects, polled.end());
    EXPECT_GT(rejects->second, 1u);
}

} // namespace
} // namespace ecdp
