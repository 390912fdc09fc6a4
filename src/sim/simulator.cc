#include "sim/simulator.hh"

#include <algorithm>

#include "core/core.hh"
#include "dram/dram.hh"
#include "sim/memory_system.hh"

namespace ecdp
{

RunStats
simulate(const SystemConfig &cfg, const Workload &workload,
         const Observability &obs)
{
    DramSystem dram(cfg.dram, 1, cfg.l2BlockBytes);
    dram.attachObservability(obs);
    MemorySystem memory(cfg, 0, workload.image.clone(), &dram, &obs);
    Core core(&workload, &memory, cfg.core);
    // Progress source for the throttle policy's interval IPC deltas
    // (pure observation; rule policies ignore it).
    memory.attachCore(&core);

    Cycle cycle{};
    std::uint64_t memoryTicks = 0;
    if (!cfg.cycleSkipping) {
        // Per-cycle polling, the exactness oracle: every component
        // ticks on every cycle.
        for (; !core.finishedOnce() && cycle < cfg.maxCycles;
             cycle = cycle + 1) {
            memory.tick(cycle);
            core.tick(cycle);
            ++memoryTicks;
        }
    } else {
        // Event-driven: the clock jumps straight to the earliest
        // cycle any component can act on, and each component ticks
        // only when it can act. The skipped cycles and ticks are
        // provably no-ops (see the nextEventCycle contracts and
        // DESIGN.md §9), so results are bit-identical with skipping
        // on or off — only wall-clock differs.
        //
        // The memory system's bound holds until it ticks or the core
        // calls into it, and DRAM's until the memory system reaches
        // it (or its earliest completion passes), so both are kept
        // here rather than polled each visit. A DRAM bound at or
        // before the current cycle is stale. Between those events the
        // core runs alone through its own wakes.
        Cycle memoryWake{};
        Cycle dramWake{};
        while (!core.finishedOnce() && cycle < cfg.maxCycles) {
            if (cycle >= memoryWake) {
                memory.tick(cycle);
                ++memoryTicks;
                memoryWake = memory.nextEventCycle(cycle);
                dramWake = cycle;
            }
            // Every bound is after the current cycle, so a horizon of
            // the next cycle needs no DRAM bound.
            Cycle horizon = std::min(memoryWake, cfg.maxCycles);
            if (horizon > cycle + 1) {
                if (dramWake <= cycle)
                    dramWake = dram.nextEventCycle(cycle);
                horizon = std::min(horizon, dramWake);
            }
            if (!core.runUntil(cycle, horizon)) {
                cycle = horizon;
                continue;
            }
            if (core.finishedOnce())
                break;
            // The core called into the memory system at this cycle:
            // recompute the bounds it may have moved, cheapest first,
            // stopping as soon as one pins the next cycle.
            memoryWake = memory.nextEventCycle(cycle);
            dramWake = cycle;
            Cycle wake = memoryWake;
            if (wake > cycle + 1)
                wake = std::min(wake, core.nextEventCycle(cycle));
            if (wake > cycle + 1) {
                dramWake = dram.nextEventCycle(cycle);
                wake = std::min(wake, dramWake);
            }
            // All-idle with no scheduled event is a hang; jump to the
            // watchdog so the loop exits at the same cycle count the
            // polling loop would have spun to.
            cycle = std::min(wake, cfg.maxCycles);
        }
    }
    // Registry only, never RunStats: the stats JSON must stay
    // byte-identical with skipping on or off. Every visit ticks the
    // core once.
    if (obs.metrics) {
        obs.metrics->counter("sim.loop_visits").add(core.ticks());
        obs.metrics->counter("sim.memory_ticks").add(memoryTicks);
    }

    return coreRunStats(workload.name, core, memory, dram, 0, cycle);
}

RunStats
coreRunStats(const std::string &workload, const Core &core,
             MemorySystem &memory, const DramSystem &dram,
             unsigned core_id, Cycle end)
{
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
    memory.collectStats(stats, stats.cycles);
    return stats;
}

} // namespace ecdp
