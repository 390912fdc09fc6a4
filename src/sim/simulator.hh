/**
 * @file
 * The simulation run: one to four cores, each with its private
 * memory system, sharing one DRAM, run by one scheduler (an
 * event-driven loop, or the per-cycle loop that is its exactness
 * oracle). simulate() is its one-core case; simulateMultiCore()
 * (multicore.hh) adds the speedup metrics.
 */

#ifndef ECDP_SIM_SIMULATOR_HH
#define ECDP_SIM_SIMULATOR_HH

#include <span>
#include <vector>

#include "obs/observability.hh"
#include "sim/config.hh"
#include "trace/trace.hh"

namespace ecdp
{

/**
 * Runs @p workloads together, one per core, until every core has
 * finished its first pass or the maxCycles watchdog fires, and
 * returns each core's RunStats: its first pass, or on a timeout the
 * maxCycles cycle count and what it retired (a zero cycle count
 * reads as 1). With more than one core, early finishers wrap around
 * and keep contending for the shared DRAM. Workload images are
 * cloned, so a Workload can be reused. @p obs is wired through every
 * memory system (counters prefixed "core<N>.") and the DRAM; it
 * never changes simulated behaviour.
 */
std::vector<RunStats> simulateCores(const SystemConfig &cfg,
                                    std::span<const Workload *const> workloads,
                                    const Observability &obs = {});

/** simulateCores() of one workload: its RunStats. */
RunStats simulate(const SystemConfig &cfg, const Workload &workload,
                  const Observability &obs = {});

} // namespace ecdp

#endif // ECDP_SIM_SIMULATOR_HH
