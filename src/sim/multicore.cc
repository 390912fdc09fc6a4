#include "sim/multicore.hh"

#include <algorithm>
#include <cassert>
#include <memory>

#include "core/core.hh"
#include "dram/dram.hh"
#include "sim/memory_system.hh"
#include "sim/simulator.hh"
#include "stats/stats.hh"

namespace ecdp
{

MultiCoreResult
simulateMultiCore(const SystemConfig &cfg,
                  const std::vector<const Workload *> &workloads,
                  const std::vector<double> &alone_ipc,
                  const Observability &obs)
{
    const unsigned n = static_cast<unsigned>(workloads.size());
    assert(n > 0);
    assert(alone_ipc.size() == workloads.size());

    DramSystem dram(cfg.dram, n, cfg.l2BlockBytes);
    dram.attachObservability(obs);
    std::vector<std::unique_ptr<MemorySystem>> memories;
    std::vector<std::unique_ptr<Core>> cores;
    memories.reserve(n);
    cores.reserve(n);
    for (unsigned i = 0; i < n; ++i) {
        memories.push_back(std::make_unique<MemorySystem>(
            cfg, i, workloads[i]->image.clone(), &dram, &obs));
        cores.push_back(std::make_unique<Core>(
            workloads[i], memories.back().get(), cfg.core));
        cores.back()->setWrapAround(true);
        // Progress source for the throttle policy's interval IPC
        // deltas (pure observation; rule policies ignore it).
        memories.back()->attachCore(cores.back().get());
    }

    Cycle cycle{};
    auto all_done = [&cores]() {
        for (const auto &core : cores) {
            if (!core->finishedOnce())
                return false;
        }
        return true;
    };
    // Event-driven main loop (see simulate()): the clock jumps to the
    // minimum next-event cycle across every core, memory system and
    // the shared DRAM. Cores interact only through the shared DRAM,
    // whose contention is resolved at request-acceptance time with
    // completion timestamps, so the global minimum is exactly the
    // next cycle anything in the system can do — skipping to it is
    // bit-identical to per-cycle polling.
    std::uint64_t visits = 0;
    while (!all_done() && cycle < cfg.maxCycles) {
        ++visits;
        for (unsigned i = 0; i < n; ++i)
            memories[i]->tick(cycle);
        for (unsigned i = 0; i < n; ++i)
            cores[i]->tick(cycle);
        Cycle next = cycle + 1;
        if (cfg.cycleSkipping && !all_done()) {
            // Cheapest bounds first with an early exit once one pins
            // the clock to the next cycle (see simulate()): on busy
            // cycles the remaining bounds cannot lower the minimum.
            Cycle wake = kNoEventCycle;
            for (unsigned i = 0; i < n && wake > cycle + 1; ++i)
                wake = std::min(wake, memories[i]->nextEventCycle(cycle));
            for (unsigned i = 0; i < n && wake > cycle + 1; ++i)
                wake = std::min(wake, cores[i]->nextEventCycle(cycle));
            if (wake > cycle + 1)
                wake = std::min(wake, dram.nextEventCycle(cycle));
            next = std::max(next, std::min(wake, cfg.maxCycles));
        }
        cycle = next;
    }
    // Registry only (see simulate()). Every visit ticks every memory
    // system, so each is a memory tick.
    if (obs.metrics) {
        obs.metrics->counter("sim.loop_visits").add(visits);
        obs.metrics->counter("sim.memory_ticks").add(visits);
    }

    MultiCoreResult result;
    // Unconditional watchdog check; an assert here disappears under
    // NDEBUG and a hung mix would silently report garbage speedups.
    result.timedOut = !all_done();
    std::vector<double> ratios;
    for (unsigned i = 0; i < n; ++i) {
        result.perCore.push_back(coreRunStats(workloads[i]->name,
                                              *cores[i], *memories[i],
                                              dram, i, cycle));

        double ratio = alone_ipc[i] <= 0.0
            ? 1.0
            : result.perCore.back().ipc / alone_ipc[i];
        ratios.push_back(ratio);
        result.weightedSpeedup += ratio;
    }
    result.hmeanSpeedup = hmean(ratios);
    result.aloneIpc = alone_ipc;
    result.busTransactions = dram.busTransactions();
    return result;
}

} // namespace ecdp
