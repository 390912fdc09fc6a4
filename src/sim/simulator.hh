/**
 * @file
 * Single-core simulation driver.
 */

#ifndef ECDP_SIM_SIMULATOR_HH
#define ECDP_SIM_SIMULATOR_HH

#include "obs/observability.hh"
#include "sim/config.hh"
#include "trace/trace.hh"

namespace ecdp
{

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

} // namespace ecdp

#endif // ECDP_SIM_SIMULATOR_HH
