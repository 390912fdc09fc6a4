/**
 * @file
 * Unit tests for the out-of-order core timing model, driven by a stub
 * memory with a programmable fixed latency, and by a recording memory
 * that pins the exact order of the core's memory calls.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <random>

#include "core/core.hh"
#include "workloads/workload.hh"

namespace ecdp
{
namespace
{

/** Fixed-latency memory; can also be made to reject requests. */
class StubMemory : public CoreMemoryInterface
{
  public:
    explicit StubMemory(Cycle latency) : latency_(latency) {}

    std::optional<Cycle> load(const TraceEntry &, Cycle now) override
    {
        ++loads;
        if (rejectUntil > now)
            return std::nullopt;
        return now + latency_;
    }

    void store(const TraceEntry &, Cycle) override { ++stores; }

    unsigned loads = 0;
    unsigned stores = 0;
    Cycle rejectUntil{};

  private:
    Cycle latency_;
};

Workload
makeWorkload(std::vector<TraceEntry> entries)
{
    Workload wl;
    wl.name = "test";
    wl.trace = std::move(entries);
    return wl;
}

TraceEntry
loadEntry(Addr addr, TraceRef dep = kNoDep, unsigned gap = 0)
{
    TraceEntry e;
    e.pc = 0x1000;
    e.vaddr = addr;
    e.kind = AccessKind::Load;
    e.dep = dep;
    e.nonMemBefore = static_cast<std::uint16_t>(gap);
    return e;
}

TraceEntry
storeEntry(Addr addr)
{
    TraceEntry e;
    e.pc = 0x2000;
    e.vaddr = addr;
    e.kind = AccessKind::Store;
    e.storeValue = 1;
    return e;
}

Cycle
runToCompletion(Core &core)
{
    Cycle cycle{};
    while (!core.finishedOnce() && cycle < Cycle{10'000'000}) {
        core.tick(cycle);
        ++cycle;
    }
    EXPECT_TRUE(core.finishedOnce());
    return core.finishCycle();
}

TEST(Core, SingleLoadCompletesAfterMemoryLatency)
{
    StubMemory mem(Cycle{100});
    Workload wl = makeWorkload({loadEntry(0x40000000)});
    Core core(&wl, &mem);
    Cycle end = runToCompletion(core);
    EXPECT_GE(end, Cycle{100u});
    EXPECT_LT(end, Cycle{120u});
    EXPECT_EQ(core.retiredFirstPass(), 1u);
}

TEST(Core, IndependentLoadsOverlap)
{
    StubMemory mem(Cycle{400});
    std::vector<TraceEntry> entries;
    for (unsigned i = 0; i < 8; ++i)
        entries.push_back(loadEntry(0x40000000 + 128 * i));
    Workload wl = makeWorkload(entries);
    Core core(&wl, &mem);
    Cycle end = runToCompletion(core);
    // 8 independent misses overlap: far less than 8 x 400.
    EXPECT_LT(end, Cycle{500u});
}

TEST(Core, DependentLoadsSerialize)
{
    StubMemory mem(Cycle{400});
    std::vector<TraceEntry> entries;
    entries.push_back(loadEntry(0x40000000));
    for (unsigned i = 1; i < 4; ++i) {
        entries.push_back(loadEntry(0x40000000 + 128 * i,
                                    static_cast<TraceRef>(i - 1)));
    }
    Workload wl = makeWorkload(entries);
    Core core(&wl, &mem);
    Cycle end = runToCompletion(core);
    // A 4-deep pointer chain costs at least 4 serialized latencies.
    EXPECT_GE(end, Cycle{4 * 400u});
}

TEST(Core, RetireWidthBoundsIpc)
{
    StubMemory mem(Cycle{1});
    std::vector<TraceEntry> entries;
    for (unsigned i = 0; i < 100; ++i)
        entries.push_back(loadEntry(0x40000000, kNoDep, 39));
    Workload wl = makeWorkload(entries);
    Core core(&wl, &mem);
    Cycle end = runToCompletion(core);
    double ipc = static_cast<double>(core.retiredFirstPass()) /
                 static_cast<double>(end.raw());
    EXPECT_LE(ipc, 4.0 + 1e-9);
    EXPECT_GT(ipc, 3.0); // near-ideal with 1-cycle memory
}

TEST(Core, RobLimitsMemoryLevelParallelism)
{
    // 256-entry ROB with 255 fillers between loads: at most ~2 loads
    // in flight, so 16 loads of 400 cycles take >= ~8 x 400.
    StubMemory mem(Cycle{400});
    std::vector<TraceEntry> entries;
    for (unsigned i = 0; i < 16; ++i)
        entries.push_back(loadEntry(0x40000000 + 128 * i, kNoDep, 255));
    Workload wl = makeWorkload(entries);
    Core core(&wl, &mem);
    Cycle end = runToCompletion(core);
    EXPECT_GE(end, Cycle{8 * 400u});
}

TEST(Core, LsqLimitsOutstandingMemoryOps)
{
    // 64 adjacent loads with no fillers: the 32-entry LSQ caps MLP at
    // 32, so the run needs at least two memory rounds.
    StubMemory mem(Cycle{400});
    std::vector<TraceEntry> entries;
    for (unsigned i = 0; i < 64; ++i)
        entries.push_back(loadEntry(0x40000000 + 128 * i));
    Workload wl = makeWorkload(entries);
    Core core(&wl, &mem);
    Cycle end = runToCompletion(core);
    EXPECT_GE(end, Cycle{2 * 400u});
    EXPECT_LT(end, Cycle{3 * 400u + 100});
}

TEST(Core, StoresDoNotStall)
{
    StubMemory mem(Cycle{400});
    std::vector<TraceEntry> entries;
    for (unsigned i = 0; i < 20; ++i)
        entries.push_back(storeEntry(0x40000000 + 128 * i));
    Workload wl = makeWorkload(entries);
    Core core(&wl, &mem);
    Cycle end = runToCompletion(core);
    EXPECT_LT(end, Cycle{100u});
    EXPECT_EQ(mem.stores, 20u);
}

TEST(Core, RetriesWhenMemoryRejects)
{
    StubMemory mem(Cycle{50});
    mem.rejectUntil = Cycle{300};
    Workload wl = makeWorkload({loadEntry(0x40000000)});
    Core core(&wl, &mem);
    Cycle end = runToCompletion(core);
    EXPECT_GE(end, Cycle{350u});
    EXPECT_GT(mem.loads, 1u); // it retried
}

TEST(Core, DependencyOnStoreValueWaits)
{
    StubMemory mem(Cycle{100});
    std::vector<TraceEntry> entries;
    entries.push_back(loadEntry(0x40000000));
    entries.push_back(loadEntry(0x40000100, 0));
    entries.push_back(loadEntry(0x40000200, 1));
    Workload wl = makeWorkload(entries);
    Core core(&wl, &mem);
    Cycle end = runToCompletion(core);
    EXPECT_GE(end, Cycle{300u});
}

TEST(Core, FillersConsumeRetireBandwidth)
{
    StubMemory mem(Cycle{1});
    // One load with 400 leading fillers: retire at 4/cycle means at
    // least 100 cycles.
    Workload wl = makeWorkload({loadEntry(0x40000000, kNoDep, 400)});
    Core core(&wl, &mem);
    Cycle end = runToCompletion(core);
    EXPECT_GE(end, Cycle{100u});
    EXPECT_EQ(core.retiredFirstPass(), 401u);
}

TEST(Core, WrapAroundRestartsTrace)
{
    StubMemory mem(Cycle{10});
    Workload wl = makeWorkload({loadEntry(0x40000000),
                                loadEntry(0x40000100)});
    Core core(&wl, &mem);
    core.setWrapAround(true);
    for (Cycle cycle{}; cycle < Cycle{2000}; ++cycle)
        core.tick(cycle);
    EXPECT_TRUE(core.finishedOnce());
    EXPECT_GT(core.retired(), core.retiredFirstPass());
}

TEST(Core, FirstPassStatsFrozenAfterFinish)
{
    StubMemory mem(Cycle{10});
    Workload wl = makeWorkload({loadEntry(0x40000000)});
    Core core(&wl, &mem);
    core.setWrapAround(true);
    for (Cycle cycle{}; cycle < Cycle{500}; ++cycle)
        core.tick(cycle);
    std::uint64_t first = core.retiredFirstPass();
    Cycle finish = core.finishCycle();
    for (Cycle cycle{500}; cycle < Cycle{1000}; ++cycle)
        core.tick(cycle);
    EXPECT_EQ(core.retiredFirstPass(), first);
    EXPECT_EQ(core.finishCycle(), finish);
}

TEST(Core, CustomWidthChangesRetireBound)
{
    StubMemory mem(Cycle{1});
    std::vector<TraceEntry> entries;
    for (unsigned i = 0; i < 50; ++i)
        entries.push_back(loadEntry(0x40000000, kNoDep, 19));
    Workload wl = makeWorkload(entries);
    CoreParams narrow;
    narrow.width = 2;
    Core core(&wl, &mem, narrow);
    Cycle end = runToCompletion(core);
    double ipc = static_cast<double>(core.retiredFirstPass()) /
                 static_cast<double>(end.raw());
    EXPECT_LE(ipc, 2.0 + 1e-9);
}

/**
 * Logs every load()/store() the core makes as (cycle, trace index).
 * Latencies are scripted per trace index (or hashed from the address
 * when no script is given); refuse(n) may turn away the n-th load
 * call (1-based), which is logged like an accepted one.
 */
class RecordingMemory : public CoreMemoryInterface
{
  public:
    struct Call
    {
        bool store;
        Cycle cycle;
        std::size_t idx;
        bool operator==(const Call &) const = default;
    };

    explicit RecordingMemory(const Workload &wl) : wl_(wl) {}

    std::optional<Cycle> load(const TraceEntry &entry, Cycle now) override
    {
        std::size_t idx = indexOf(entry);
        calls.push_back({false, now, idx});
        ++loadCalls_;
        if (refuse && refuse(loadCalls_))
            return std::nullopt;
        const std::uint64_t block = entry.vaddr.raw() >> 6;
        Cycle latency = idx < latencies.size()
                            ? latencies[idx]
                            : Cycle{block * 2654435761u % 300};
        return now + latency;
    }

    void store(const TraceEntry &entry, Cycle now) override
    {
        calls.push_back({true, now, indexOf(entry)});
    }

    std::vector<Call> calls;
    std::vector<Cycle> latencies;
    std::function<bool(std::uint64_t)> refuse;

  private:
    std::size_t indexOf(const TraceEntry &entry) const
    {
        return static_cast<std::size_t>(&entry - wl_.trace.data());
    }

    const Workload &wl_;
    std::uint64_t loadCalls_ = 0;
};

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

/** One tick of a tick-by-tick run. */
struct TickRecord
{
    Cycle cycle;
    /** nextEventCycle() after the tick. */
    Cycle wake;
    /** The tick called the memory system or ended a pass. */
    bool acted;
};

/** A run's ticks, memory calls and retired count. */
struct CoreRunLog
{
    std::vector<TickRecord> ticks;
    std::vector<RecordingMemory::Call> calls;
    std::uint64_t retired = 0;
};

/** Instructions in one pass of @p wl (fillers and memory ops). */
std::uint64_t
passInstructions(const Workload &wl)
{
    std::uint64_t n = wl.trace.size();
    for (const TraceEntry &entry : wl.trace)
        n += entry.nonMemBefore;
    return n;
}

/**
 * Runs @p bench's train trace event-driven (tick, then jump to
 * nextEventCycle) through a recording memory that refuses every 7th
 * load, for the first pass and a wrapped second one, logging every
 * tick and every memory call.
 */
CoreRunLog
tickByTick(const std::string &bench, const CoreParams &params = {})
{
    Workload wl = buildWorkload(bench, InputSet::Train);
    const std::uint64_t pass = passInstructions(wl);
    RecordingMemory mem(wl);
    mem.refuse = [](std::uint64_t n) { return n % 7 == 0; };
    Core core(&wl, &mem, params);
    core.setWrapAround(true);
    CoreRunLog log;
    Cycle now{};
    while (!core.finishedOnce() ||
           now.raw() < 2 * core.finishCycle().raw()) {
        const std::size_t calls = mem.calls.size();
        const std::uint64_t retired = core.retired();
        core.tick(now);
        // A pass ends at the tick that retires its last instruction.
        const bool ended =
            core.retired() != retired && core.retired() % pass == 0;
        const Cycle next = core.nextEventCycle(now);
        log.ticks.push_back({now, next, mem.calls.size() != calls || ended});
        now = next;
    }
    log.calls = std::move(mem.calls);
    log.retired = core.retired();
    return log;
}

/** Digest of every wake bound, every memory call and the retired
 *  count of tickByTick(@p bench, @p params). */
std::uint64_t
coreCallDigest(const std::string &bench, const CoreParams &params = {})
{
    const CoreRunLog log = tickByTick(bench, params);
    Fnv digest;
    for (const TickRecord &tick : log.ticks)
        digest.add(tick.wake.raw());
    for (const RecordingMemory::Call &call : log.calls) {
        digest.add(call.store);
        digest.add(call.cycle.raw());
        digest.add(call.idx);
    }
    digest.add(log.retired);
    return digest.h;
}

TEST(CoreCallOrder, TrainDigestsArePinned)
{
    // Recorded on the pending-load-walk core; the issue queue must
    // make the same calls in the same cycles and wake the same way.
    EXPECT_EQ(coreCallDigest("mst"), 0xb813a2ce87af0a8eull);
    EXPECT_EQ(coreCallDigest("health"), 0x343d693502af6102ull);
    EXPECT_EQ(coreCallDigest("mcf"), 0x8e66023d06fbdc43ull);
    // Odd sizes: an LSQ that is not a power of two, a ROB that fills
    // before it, and a narrower issue budget.
    CoreParams odd;
    odd.robEntries = 60;
    odd.width = 3;
    odd.lsqEntries = 13;
    odd.issuePerCycle = 3;
    EXPECT_EQ(coreCallDigest("health", odd), 0x32c3eacb0438fa0bull);
}

/**
 * Drives @p bench through runUntil with seeded horizons (the next
 * cycle, no horizon, and near and far ones), resuming each time at
 * the core's own wake, and requires exactly the ticks, wakes and
 * memory calls of tickByTick(): each return lands on a tick-by-tick
 * tick with the same tick count behind it, returns true exactly
 * when that tick called the memory system (refused loads included)
 * or ended a pass, and returns false only when the next wake is at
 * or after the horizon.
 */
void
expectRunUntilMatchesTickByTick(const std::string &bench,
                                std::uint64_t seed)
{
    SCOPED_TRACE(bench);
    const CoreRunLog ref = tickByTick(bench);
    Workload wl = buildWorkload(bench, InputSet::Train);
    RecordingMemory mem(wl);
    mem.refuse = [](std::uint64_t n) { return n % 7 == 0; };
    Core core(&wl, &mem);
    core.setWrapAround(true);
    std::mt19937_64 rng(seed);
    auto drawHorizon = [&rng](Cycle now) {
        switch (rng() % 4) {
        case 0:
            return now + 1;
        case 1:
            return kNoEventCycle;
        case 2:
            return now + 1 + rng() % 64;
        default:
            return now + 1 + rng() % 4096;
        }
    };
    std::size_t returns = 0;
    // The first tick of the next runUntil call, in ref.ticks.
    std::size_t callStart = 0;
    Cycle now{};
    for (;;) {
        Cycle horizon = drawHorizon(now);
        // tickByTick stops before twice the first pass's length.
        if (core.finishedOnce()) {
            horizon = std::min(horizon,
                               Cycle{2 * core.finishCycle().raw()});
        }
        const bool acted = core.runUntil(now, horizon);
        ++returns;
        auto it = std::lower_bound(
            ref.ticks.begin(), ref.ticks.end(), now,
            [](const TickRecord &t, Cycle c) { return t.cycle < c; });
        ASSERT_TRUE(it != ref.ticks.end() && it->cycle == now)
            << "return " << returns << " at cycle " << now.raw();
        ASSERT_LT(now, horizon);
        ASSERT_EQ(core.ticks(),
                  static_cast<std::uint64_t>(it - ref.ticks.begin()) + 1)
            << "cycle " << now.raw();
        ASSERT_EQ(acted, it->acted) << "cycle " << now.raw();
        // No earlier tick of this call touched the memory system.
        for (auto t = ref.ticks.begin() + callStart; t != it; ++t)
            ASSERT_FALSE(t->acted) << "cycle " << t->cycle.raw();
        callStart = static_cast<std::size_t>(it - ref.ticks.begin()) + 1;
        if (!acted) {
            ASSERT_GE(it->wake, horizon) << "cycle " << now.raw();
        }
        const Cycle next = core.nextEventCycle(now);
        ASSERT_EQ(next, it->wake) << "cycle " << now.raw();
        if (core.finishedOnce() &&
            next.raw() >= 2 * core.finishCycle().raw())
            break;
        now = next;
    }
    EXPECT_EQ(core.ticks(), ref.ticks.size());
    EXPECT_EQ(mem.calls, ref.calls);
    EXPECT_EQ(core.retired(), ref.retired);
    // runUntil really ran the core alone for stretches.
    EXPECT_LT(returns, ref.ticks.size());
}

TEST(CoreCallOrder, RunUntilMakesTheTickByTickCallsAndWakes)
{
    expectRunUntilMatchesTickByTick("mst", 1);
    expectRunUntilMatchesTickByTick("health", 2);
    expectRunUntilMatchesTickByTick("mcf", 3);
}

/** Load 0 is a producer; loads 1..6 all depend on it. */
Workload
fanOutWorkload()
{
    std::vector<TraceEntry> entries;
    entries.push_back(loadEntry(0x40000000));
    for (unsigned i = 1; i <= 6; ++i)
        entries.push_back(loadEntry(0x40000000 + 128 * i, 0));
    return makeWorkload(entries);
}

/** Calls made at @p cycle, in order. */
std::vector<std::size_t>
loadsAt(const RecordingMemory &mem, Cycle cycle)
{
    std::vector<std::size_t> out;
    for (const RecordingMemory::Call &call : mem.calls)
        if (!call.store && call.cycle == cycle)
            out.push_back(call.idx);
    return out;
}

TEST(CoreCallOrder, LowestReadyIndicesIssueFirst)
{
    Workload wl = fanOutWorkload();
    RecordingMemory mem(wl);
    mem.latencies.assign(wl.trace.size(), Cycle{10});
    Core core(&wl, &mem);
    runToCompletion(core);
    // Load 0 issues at 1 and completes at 11; all six dependents wake
    // together and the issue budget of 4 takes the lowest indices.
    EXPECT_EQ(loadsAt(mem, Cycle{1}), (std::vector<std::size_t>{0}));
    EXPECT_EQ(loadsAt(mem, Cycle{11}),
              (std::vector<std::size_t>{1, 2, 3, 4}));
    EXPECT_EQ(loadsAt(mem, Cycle{12}), (std::vector<std::size_t>{5, 6}));
    EXPECT_EQ(mem.calls.size(), 7u);
}

TEST(CoreCallOrder, RefusalLeavesTheRestForNextCycleInOrder)
{
    Workload wl = fanOutWorkload();
    RecordingMemory mem(wl);
    mem.latencies.assign(wl.trace.size(), Cycle{10});
    // Calls: 1 = load 0, 2 = load 1, 3 = load 2 (refused).
    mem.refuse = [](std::uint64_t n) { return n == 3; };
    Core core(&wl, &mem);
    runToCompletion(core);
    EXPECT_EQ(loadsAt(mem, Cycle{11}), (std::vector<std::size_t>{1, 2}));
    EXPECT_EQ(loadsAt(mem, Cycle{12}),
              (std::vector<std::size_t>{2, 3, 4, 5}));
    EXPECT_EQ(loadsAt(mem, Cycle{13}), (std::vector<std::size_t>{6}));
}

TEST(CoreCallOrder, DependentNeverIssuesInItsProducersIssueCycle)
{
    // A zero-latency producer still completes no earlier than the
    // next cycle, so its dependent issues one cycle later.
    Workload wl = makeWorkload({loadEntry(0x40000000),
                                loadEntry(0x40000100, 0),
                                loadEntry(0x40000200, 1)});
    RecordingMemory mem(wl);
    mem.latencies.assign(wl.trace.size(), Cycle{0});
    Core core(&wl, &mem);
    runToCompletion(core);
    ASSERT_EQ(mem.calls.size(), 3u);
    EXPECT_EQ(mem.calls[0], (RecordingMemory::Call{false, Cycle{1}, 0}));
    EXPECT_EQ(mem.calls[1], (RecordingMemory::Call{false, Cycle{2}, 1}));
    EXPECT_EQ(mem.calls[2], (RecordingMemory::Call{false, Cycle{3}, 2}));
}

TEST(CoreCallOrder, WakeIsEarliestProducerCompletionWhenAllLoadsWait)
{
    // Loads 0 and 1 issue at cycle 1 (completing at 101 and 51);
    // load 2 waits on 0, load 3 on 1, load 4 on the unissued 3.
    Workload wl = makeWorkload({loadEntry(0x40000000),
                                loadEntry(0x40000100),
                                loadEntry(0x40000200, 0),
                                loadEntry(0x40000300, 1),
                                loadEntry(0x40000400, 3)});
    RecordingMemory mem(wl);
    mem.latencies = {Cycle{100}, Cycle{50}, Cycle{5}, Cycle{5}, Cycle{5}};
    Core core(&wl, &mem);
    core.tick(Cycle{0});
    EXPECT_EQ(core.nextEventCycle(Cycle{0}), Cycle{1});
    core.tick(Cycle{1});
    EXPECT_EQ(core.nextEventCycle(Cycle{1}), Cycle{51});
    core.tick(Cycle{51});
    EXPECT_EQ(loadsAt(mem, Cycle{51}), (std::vector<std::size_t>{3}));
    // Load 3 completes at 56 and releases load 4.
    EXPECT_EQ(core.nextEventCycle(Cycle{51}), Cycle{56});
    core.tick(Cycle{56});
    EXPECT_EQ(loadsAt(mem, Cycle{56}), (std::vector<std::size_t>{4}));
    // Only load 2 (on load 0, due at 101) and the head are left.
    EXPECT_EQ(core.nextEventCycle(Cycle{56}), Cycle{101});
}

TEST(CoreCallOrder, LoadOnAStoreWaitsForTheStore)
{
    // Store 1 completes the cycle after its dispatch; load 2 on it
    // issues then, alongside the independent load 0.
    Workload wl = makeWorkload({loadEntry(0x40000000),
                                storeEntry(0x40000100),
                                loadEntry(0x40000200, 1)});
    RecordingMemory mem(wl);
    mem.latencies.assign(wl.trace.size(), Cycle{20});
    Core core(&wl, &mem);
    core.tick(Cycle{0});
    ASSERT_EQ(mem.calls.size(), 1u);
    EXPECT_EQ(mem.calls[0], (RecordingMemory::Call{true, Cycle{0}, 1}));
    EXPECT_EQ(core.nextEventCycle(Cycle{0}), Cycle{1});
    core.tick(Cycle{1});
    EXPECT_EQ(loadsAt(mem, Cycle{1}), (std::vector<std::size_t>{0, 2}));
}

TEST(CoreCallOrder, WrapAroundDropsEveryWaiter)
{
    // A dependent chain longer than the LSQ: after the wrap each load
    // waits on its producer of the new pass, so the second pass
    // replays the first one's calls shifted by the pass length.
    std::vector<TraceEntry> entries;
    entries.push_back(loadEntry(0x40000000));
    for (unsigned i = 1; i < 40; ++i)
        entries.push_back(loadEntry(0x40000000 + 128 * i,
                                    static_cast<TraceRef>(i - 1), 3));
    Workload wl = makeWorkload(entries);
    RecordingMemory mem(wl);
    mem.latencies.assign(wl.trace.size(), Cycle{7});
    Core core(&wl, &mem);
    core.setWrapAround(true);
    Cycle now{};
    while (mem.calls.size() < 2 * wl.trace.size()) {
        core.tick(now);
        now = core.nextEventCycle(now);
    }
    ASSERT_EQ(mem.calls.size(), 2 * wl.trace.size());
    const std::uint64_t shift = mem.calls[wl.trace.size()].cycle.raw() -
                                mem.calls[0].cycle.raw();
    EXPECT_GT(shift, core.finishCycle().raw());
    for (std::size_t i = 0; i < wl.trace.size(); ++i) {
        const RecordingMemory::Call &first = mem.calls[i];
        const RecordingMemory::Call &second = mem.calls[i + wl.trace.size()];
        EXPECT_EQ(second.idx, first.idx);
        EXPECT_EQ(second.cycle.raw(), first.cycle.raw() + shift) << i;
    }
}

} // namespace
} // namespace ecdp
