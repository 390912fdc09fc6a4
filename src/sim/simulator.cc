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

    // Event-driven main loop: every iteration ticks exactly as the
    // per-cycle loop would, but the clock then jumps straight to the
    // earliest cycle any component can act on. The skipped cycles are
    // provably no-op ticks (see nextEventCycle contracts and
    // DESIGN.md), so results are bit-identical with skipping on or
    // off — only wall-clock differs.
    Cycle cycle{};
    std::uint64_t visits = 0;
    while (!core.finishedOnce() && cycle < cfg.maxCycles) {
        ++visits;
        memory.tick(cycle);
        core.tick(cycle);
        Cycle next = cycle + 1;
        if (cfg.cycleSkipping && !core.finishedOnce()) {
            // Cheapest bound first, and stop as soon as one pins the
            // clock to the very next cycle: on busy cycles (prefetch
            // queues draining, ROB retiring) the remaining bounds
            // cannot raise the minimum, and computing them would make
            // skipping a net loss on workloads that rarely idle.
            Cycle wake = memory.nextEventCycle(cycle);
            if (wake > cycle + 1)
                wake = std::min(wake, core.nextEventCycle(cycle));
            if (wake > cycle + 1)
                wake = std::min(wake, dram.nextEventCycle(cycle));
            // All-idle with no scheduled event is a hang; jump to the
            // watchdog so the loop exits at the same cycle count the
            // polling loop would have spun to.
            next = std::max(next, std::min(wake, cfg.maxCycles));
        }
        cycle = next;
    }
    // Registry only, never RunStats: the stats JSON must stay
    // byte-identical with skipping on or off.
    if (obs.metrics)
        obs.metrics->counter("sim.loop_visits").add(visits);

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
