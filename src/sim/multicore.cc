#include "sim/multicore.hh"

#include <cassert>

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
    assert(alone_ipc.size() == workloads.size());
    MultiCoreResult result;
    result.perCore = simulateCores(cfg, workloads, obs);
    std::vector<double> ratios;
    for (std::size_t i = 0; i < result.perCore.size(); ++i) {
        const RunStats &stats = result.perCore[i];
        // Unconditional watchdog check; an assert here disappears
        // under NDEBUG and a hung mix would silently report garbage
        // speedups.
        result.timedOut = result.timedOut || stats.timedOut;
        result.busTransactions += stats.busTransactions;
        double ratio =
            alone_ipc[i] <= 0.0 ? 1.0 : stats.ipc / alone_ipc[i];
        ratios.push_back(ratio);
        result.weightedSpeedup += ratio;
    }
    result.hmeanSpeedup = hmean(ratios);
    result.aloneIpc = alone_ipc;
    return result;
}

} // namespace ecdp
