#include "sim/simulator.hh"

#include <algorithm>
#include <cassert>
#include <memory>

#include "core/core.hh"
#include "dram/dram.hh"
#include "sim/memory_system.hh"

namespace ecdp
{

namespace
{

/** One core and its private memory system, with the cached wakes
 *  (nextEventCycle) of both: a memory wake holds until the memory
 *  system ticks or its core calls into it, a core wake until the
 *  core ticks (DESIGN.md §9). */
struct Lane
{
    std::unique_ptr<MemorySystem> memory;
    std::unique_ptr<Core> core;
    Cycle memoryWake{};
    Cycle coreWake{};
};

bool
allFinished(const std::vector<Lane> &lanes)
{
    return std::all_of(lanes.begin(), lanes.end(), [](const Lane &lane) {
        return lane.core->finishedOnce();
    });
}

/** Per-cycle polling, the exactness oracle: every cycle, every
 *  memory system ticks, then every core, in lane order, until all
 *  cores finished a pass or @p max_cycles. Returns where it stopped. */
Cycle
pollEveryCycle(std::vector<Lane> &lanes, Cycle max_cycles,
               std::uint64_t &visits, std::uint64_t &memory_ticks)
{
    Cycle cycle{};
    for (; !allFinished(lanes) && cycle < max_cycles; ++cycle) {
        for (Lane &lane : lanes)
            lane.memory->tick(cycle);
        for (Lane &lane : lanes)
            lane.core->tick(cycle);
    }
    visits = cycle.raw();
    memory_ticks = lanes.size() * visits;
    return cycle;
}

/** The cycle before which core @p i may run alone, at most @p stop:
 *  any memory or lower-lane core wake, or one past a higher lane's
 *  (on one cycle cores tick in lane order). */
Cycle
horizon(const std::vector<Lane> &lanes, std::size_t i, Cycle stop)
{
    Cycle h = stop;
    for (std::size_t j = 0; j < lanes.size(); ++j) {
        h = std::min(h, lanes[j].memoryWake);
        const Cycle wake = lanes[j].coreWake;
        if (j < i)
            h = std::min(h, wake);
        else if (j > i && wake < h)
            h = wake + 1; // below h, so no overflow at kNoEventCycle
    }
    return h;
}

/**
 * Event-driven: the clock jumps to the earliest cached wake, where
 * only the components due act, in the per-cycle loop's order. A due
 * core runs alone up to horizon(), so every DRAM call keeps its
 * per-cycle cycle and order, and the results are bit-identical.
 * Stops at the first event after the last core finished its first
 * pass, or at @p max_cycles, and returns that cycle.
 */
Cycle
runEvents(std::vector<Lane> &lanes, Cycle max_cycles,
          std::uint64_t &visits, std::uint64_t &memory_ticks)
{
    Cycle stop = max_cycles;
    Cycle visited = kNoEventCycle;
    for (;;) {
        Cycle now = kNoEventCycle;
        for (const Lane &lane : lanes)
            now = std::min({now, lane.memoryWake, lane.coreWake});
        // All-idle with no scheduled event is a hang: stop where the
        // per-cycle loop's watchdog stops.
        if (now >= stop)
            return stop;
        visits += now != visited;
        visited = now;
        for (Lane &lane : lanes) {
            if (lane.memoryWake != now)
                continue;
            lane.memory->tick(now);
            ++memory_ticks;
            lane.memoryWake = lane.memory->nextEventCycle(now);
        }
        for (std::size_t i = 0; i < lanes.size(); ++i) {
            Lane &lane = lanes[i];
            if (lane.coreWake != now)
                continue;
            const std::uint64_t ticks = lane.core->ticks();
            const Core::Run run =
                lane.core->runUntil(visited, horizon(lanes, i, stop));
            // Ticks after now land where nothing else ticked yet; a
            // later event at the last one shares its visit.
            visits += lane.core->ticks() - ticks - 1;
            lane.coreWake = run.wake;
            if (!run.called)
                continue;
            lane.memoryWake = lane.memory->nextEventCycle(visited);
            if (lane.core->finishedOnce() && allFinished(lanes))
                stop = std::min(stop, visited + 1);
        }
    }
}

/** The RunStats of @p lane's core @p core_id when its run stopped at
 *  cycle @p end. */
RunStats
coreRunStats(const std::string &workload, const Lane &lane,
             const DramSystem &dram, unsigned core_id, Cycle end)
{
    const Core &core = *lane.core;
    RunStats stats;
    stats.workload = workload;
    // Unconditional watchdog check: an assert would compile out under
    // NDEBUG and let a hung config report garbage IPC silently.
    stats.timedOut = !core.finishedOnce();
    const Cycle cycles = stats.timedOut ? end : core.finishCycle();
    stats.cycles = cycles.raw() ? cycles : Cycle{1};
    // retiredFirstPass() is only latched at completion; a timed-out
    // run reports whatever actually retired.
    stats.instructions =
        stats.timedOut ? core.retired() : core.retiredFirstPass();
    stats.ipc = static_cast<double>(stats.instructions) /
                static_cast<double>(stats.cycles.raw());
    stats.busTransactions = dram.busTransactions(core_id);
    stats.bpki = stats.instructions == 0
        ? 0.0
        : 1000.0 * static_cast<double>(stats.busTransactions) /
              static_cast<double>(stats.instructions);
    lane.memory->collectStats(stats, stats.cycles);
    return stats;
}

} // namespace

std::vector<RunStats>
simulateCores(const SystemConfig &cfg,
              std::span<const Workload *const> workloads,
              const Observability &obs)
{
    const unsigned n = static_cast<unsigned>(workloads.size());
    assert(n > 0);
    DramSystem dram(cfg.dram, n, cfg.l2BlockBytes);
    dram.attachObservability(obs);
    std::vector<Lane> lanes(n);
    for (unsigned i = 0; i < n; ++i) {
        Lane &lane = lanes[i];
        lane.memory = std::make_unique<MemorySystem>(
            cfg, i, workloads[i]->image.clone(), &dram, &obs);
        lane.core = std::make_unique<Core>(workloads[i],
                                           lane.memory.get(), cfg.core);
        // A lone core has no one left to contend with.
        lane.core->setWrapAround(n > 1);
        // Progress source for the throttle policy's interval IPC
        // deltas (pure observation; rule policies ignore it).
        lane.memory->attachCore(lane.core.get());
    }

    std::uint64_t visits = 0;
    std::uint64_t memoryTicks = 0;
    const Cycle end = cfg.cycleSkipping
        ? runEvents(lanes, cfg.maxCycles, visits, memoryTicks)
        : pollEveryCycle(lanes, cfg.maxCycles, visits, memoryTicks);
    // Registry only, never RunStats: the stats JSON must stay
    // byte-identical with skipping on or off.
    if (obs.metrics) {
        std::uint64_t coreTicks = 0;
        for (const Lane &lane : lanes)
            coreTicks += lane.core->ticks();
        obs.metrics->counter("sim.loop_visits").add(visits);
        obs.metrics->counter("sim.memory_ticks").add(memoryTicks);
        obs.metrics->counter("sim.core_ticks").add(coreTicks);
    }

    std::vector<RunStats> perCore;
    for (unsigned i = 0; i < n; ++i)
        perCore.push_back(
            coreRunStats(workloads[i]->name, lanes[i], dram, i, end));
    return perCore;
}

RunStats
simulate(const SystemConfig &cfg, const Workload &workload,
         const Observability &obs)
{
    const Workload *const one = &workload;
    return std::move(simulateCores(cfg, {&one, 1}, obs).front());
}

} // namespace ecdp
