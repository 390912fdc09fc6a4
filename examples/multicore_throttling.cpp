/**
 * @file
 * Multi-core contention demo (Section 6.6): a pointer-intensive and
 * a streaming benchmark share the DRAM system on two cores. Shows
 * per-core slowdown vs running alone on the baseline system, and how
 * coordinated throttling claws back bus bandwidth for the hybrid
 * prefetching system.
 *
 *   ./example_multicore_throttling [benchA] [benchB]
 */

#include <iostream>
#include <string>

#include "server/cell.hh"
#include "workloads/workload.hh"

using namespace ecdp;

int
main(int argc, char **argv)
{
    const std::string name_a = argc > 2 ? argv[1] : "health";
    const std::string name_b = argc > 2 ? argv[2] : "milc";
    if (!findBenchmark(name_a) || !findBenchmark(name_b)) {
        std::cerr << "unknown benchmark\n";
        return 1;
    }

    // Every mechanism's speedups divide by the baseline system's
    // alone IPC, so they compare on one scale.
    ExperimentContext ctx;
    auto show = [&](const char *label,
                    const char *config) -> const MultiCoreResult & {
        server::CellSpec spec;
        spec.config = config;
        const MultiCoreResult &r =
            server::runMix(spec, {name_a, name_b}, ctx);
        std::cout << label << '\n'
                  << "  " << name_a << ": alone " << r.aloneIpc[0]
                  << " -> shared " << r.perCore[0].ipc << '\n'
                  << "  " << name_b << ": alone " << r.aloneIpc[1]
                  << " -> shared " << r.perCore[1].ipc << '\n'
                  << "  weighted speedup " << r.weightedSpeedup
                  << ", hmean " << r.hmeanSpeedup << ", bus "
                  << r.busTransactions << " transactions\n\n";
        return r;
    };

    std::cout << "two cores, private L1/L2, shared DRAM (buffer = 32"
                 " x cores)\n\n";
    const MultiCoreResult &base =
        show("baseline (stream prefetcher only):", "baseline");
    const MultiCoreResult &naive =
        show("naive hybrid (stream + greedy CDP):", "cdp");
    const MultiCoreResult &full =
        show("full proposal (ECDP + coordinated throttling):", "full");

    std::cout << "bus traffic vs naive hybrid: "
              << 100.0 * (static_cast<double>(full.busTransactions) /
                              static_cast<double>(
                                  naive.busTransactions) -
                          1.0)
              << "%\nweighted speedup vs baseline: "
              << 100.0 * (full.weightedSpeedup /
                              base.weightedSpeedup -
                          1.0)
              << "%\n";
    return 0;
}
