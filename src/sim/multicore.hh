/**
 * @file
 * Multi-core runs (Section 6.6 of the paper): private L1/L2 and
 * prefetchers per core, shared DRAM controller and bus, memory
 * request buffer scaled as 32 x core count. The run itself is
 * simulateCores() (simulator.hh); this adds the speedup metrics.
 */

#ifndef ECDP_SIM_MULTICORE_HH
#define ECDP_SIM_MULTICORE_HH

#include <vector>

#include "obs/observability.hh"
#include "sim/config.hh"
#include "trace/trace.hh"

namespace ecdp
{

/** Result of a multiprogrammed run. */
struct MultiCoreResult
{
    /** Per-core stats; IPC measured over each core's first pass. */
    std::vector<RunStats> perCore;
    /** IPC_alone of each core, as passed in. */
    std::vector<double> aloneIpc;
    /** Sum over cores of IPC_shared / IPC_alone. */
    double weightedSpeedup = 0.0;
    /** Harmonic mean of per-core IPC_shared / IPC_alone. */
    double hmeanSpeedup = 0.0;
    /** Total bus transactions over the run, summed over cores. */
    std::uint64_t busTransactions = 0;
    /** True when the maxCycles watchdog fired before every core
     *  finished its first pass (also flagged on the stuck cores'
     *  perCore entries). Checked unconditionally, not via assert. */
    bool timedOut = false;
};

/**
 * Run @p workloads together, one per core.
 *
 * Every core runs its trace to completion once; cores that finish
 * early wrap around and keep contending until the slowest core
 * completes its first pass (the standard multiprogrammed-methodology).
 *
 * @param cfg System configuration (per-core resources).
 * @param workloads One workload per core.
 * @param alone_ipc IPC of each workload running alone, the speedup
 *        metrics' denominators (ExperimentContext::runMix passes the
 *        baseline system's).
 * @param obs Observability bundle shared by every core's memory
 *        system (counters are prefixed "core<N>.") and the DRAM
 *        controller. Observability never changes simulated behaviour.
 */
MultiCoreResult simulateMultiCore(
    const SystemConfig &cfg,
    const std::vector<const Workload *> &workloads,
    const std::vector<double> &alone_ipc,
    const Observability &obs = {});

} // namespace ecdp

#endif // ECDP_SIM_MULTICORE_HH
