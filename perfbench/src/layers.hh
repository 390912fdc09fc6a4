/**
 * @file
 * Outside-in per-call costs of the simulator's layers (traced runs).
 */

#ifndef PERFBENCH_LAYERS_HH
#define PERFBENCH_LAYERS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "perfbench.hh"
#include "sim/experiment.hh"

namespace perfbench
{

/** Host ns per call of each layer's entry point. */
struct LayerCosts
{
    double coreTickNs = 0.0;
    double coreNsPerInstr = 0.0;
    double probeNs = 0.0;
    double mshrOpNs = 0.0;
    double cdpScanNs = 0.0;
    double dramReadNs = 0.0;
    /** @{ Results of the timed loops, kept so none is dead code. */
    std::uint64_t probeHits = 0;
    std::uint64_t cdpCandidates = 0;
    std::uint64_t dramAccepted = 0;
    /** @} */
};

/**
 * Per-layer metrics of a traced run, by name. Every workload reports
 * the same list (layerMetricNames()); a layer the workload does not
 * run in this process reports 0.
 */
using LayerValues = std::map<std::string, double>;

/** Adds every per-layer metric, in canonical order, to @p result.
 *  Throws on a name in @p values that the list does not know. */
void addLayerMetrics(Result &result, const LayerValues &values);

/** Times each layer on the ref workloads @p names (built in @p ctx). */
LayerCosts measureLayers(ecdp::ExperimentContext &ctx,
                         const std::vector<std::string> &names);

} // namespace perfbench

#endif // PERFBENCH_LAYERS_HH
