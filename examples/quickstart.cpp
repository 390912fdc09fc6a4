/**
 * @file
 * Quickstart: build a workload, profile it with the compiler pass,
 * and compare the stream-only baseline against the paper's full
 * proposal (ECDP + coordinated throttling) on one benchmark.
 *
 *   ./example_quickstart [benchmark]   (default: health)
 */

#include <iostream>
#include <string>

#include "compiler/profiling_compiler.hh"
#include "sim/experiment.hh"
#include "sim/simulator.hh"
#include "workloads/workload.hh"

using namespace ecdp;

int
main(int argc, char **argv)
{
    const std::string name = argc > 1 ? argv[1] : "health";
    if (!findBenchmark(name)) {
        std::cerr << "unknown benchmark '" << name << "'; available:";
        for (const BenchmarkInfo &info : benchmarkSuite())
            std::cerr << ' ' << info.name;
        std::cerr << '\n';
        return 1;
    }

    // 1. Build the workload: a synthetic program that constructs real
    //    linked data structures in a simulated 32-bit heap and records
    //    a dependency-annotated access trace.
    std::cout << "building '" << name << "' (ref + train inputs)...\n";
    Workload ref = buildWorkload(name, InputSet::Ref);
    Workload train = buildWorkload(name, InputSet::Train);
    std::cout << "  trace: " << ref.trace.size() << " accesses, "
              << ref.instructionCount() << " instructions, image "
              << ref.image.footprintBytes() / 1024 << " KB\n";

    // 2. Run the profiling compiler on the train input: it simulates
    //    the cache hierarchy + CDP functionally and marks beneficial
    //    pointer groups in per-load hint bit vectors (Section 3).
    HintTable hints = ProfilingCompiler::profile(train);
    std::cout << "  compiler hints: " << hints.size()
              << " loads carry hint bit vectors\n\n";

    // 3. Simulate the baseline (aggressive stream prefetcher only)
    //    and the full proposal.
    RunStats base = simulate(configs::byName("baseline"), ref);
    RunStats full = simulate(configs::byName("full", &hints), ref);

    auto report = [](const char *label, const RunStats &stats) {
        std::cout << label << ": IPC " << stats.ipc << ", BPKI "
                  << stats.bpki << ", L2 demand misses "
                  << stats.l2DemandMisses << "\n  stream: issued "
                  << stats.slot(0).issued << ", used "
                  << stats.slot(0).used << "\n  LDS:    issued "
                  << stats.slot(1).issued << ", used "
                  << stats.slot(1).used << " (late "
                  << stats.slot(1).late << ")\n";
    };
    report("baseline (stream only)", base);
    report("full proposal (ECDP + coordinated throttling)", full);

    std::cout << "\nspeedup: " << 100.0 * (full.ipc / base.ipc - 1.0)
              << "%  bandwidth change: "
              << 100.0 * (full.bpki / base.bpki - 1.0) << "%\n";
    return 0;
}
