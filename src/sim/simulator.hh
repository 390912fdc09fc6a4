/**
 * @file
 * Single-core simulation driver, and the per-core stats assembly the
 * multi-core driver shares with it.
 */

#ifndef ECDP_SIM_SIMULATOR_HH
#define ECDP_SIM_SIMULATOR_HH

#include <string>

#include "obs/observability.hh"
#include "sim/config.hh"
#include "trace/trace.hh"

namespace ecdp
{

class Core;
class DramSystem;
class MemorySystem;

/**
 * Runs one Workload on one core under a SystemConfig and returns the
 * run statistics. The workload's image is cloned, so a Workload can be
 * reused across runs and configurations. @p obs is wired through the
 * memory system and DRAM; observability never changes simulated
 * behaviour — only what is recorded about it — so an observed and an
 * unobserved run produce identical stats for the same (cfg, workload).
 */
RunStats simulate(const SystemConfig &cfg, const Workload &workload,
                  const Observability &obs = {});

/**
 * The RunStats of core @p core_id when its run loop stopped at cycle
 * @p end: the watchdog flag, cycles, instructions, IPC, bus traffic,
 * and the memory system's counters. A core that finished reports its
 * first pass; one that timed out reports @p end and what it retired.
 * A zero cycle count reads as 1, so IPC is always defined.
 */
RunStats coreRunStats(const std::string &workload, const Core &core,
                      MemorySystem &memory, const DramSystem &dram,
                      unsigned core_id, Cycle end);

} // namespace ecdp

#endif // ECDP_SIM_SIMULATOR_HH
