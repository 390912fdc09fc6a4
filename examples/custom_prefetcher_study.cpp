/**
 * @file
 * Prefetcher design-space walk using the public API: sweeps the
 * hybrid system across every primary/LDS prefetcher combination and
 * every fixed aggressiveness level on one workload, printing an
 * IPC-vs-bandwidth frontier. A template for using this repository as
 * a prefetcher studies framework rather than a paper artifact.
 *
 *   ./example_custom_prefetcher_study [benchmark]
 */

#include <iostream>
#include <string>
#include <vector>

#include "compiler/profiling_compiler.hh"
#include "sim/experiment.hh"
#include "sim/simulator.hh"
#include "stats/table.hh"
#include "workloads/workload.hh"

using namespace ecdp;

int
main(int argc, char **argv)
{
    const std::string name = argc > 1 ? argv[1] : "omnetpp";
    if (!findBenchmark(name)) {
        std::cerr << "unknown benchmark '" << name << "'\n";
        return 1;
    }
    Workload ref = buildWorkload(name, InputSet::Ref);
    HintTable hints = ProfilingCompiler::profile(
        buildWorkload(name, InputSet::Train));

    struct Point
    {
        std::string label;
        SystemConfig cfg;
    };
    std::vector<Point> points;
    points.push_back({"no-prefetch", configs::byName("noprefetch")});

    for (AggLevel level :
         {AggLevel::VeryConservative, AggLevel::Conservative,
          AggLevel::Moderate, AggLevel::Aggressive}) {
        SystemConfig cfg = configs::byName("baseline");
        cfg.primaryStartLevel = level;
        points.push_back({std::string("stream/") + aggLevelName(level),
                          cfg});
    }
    points.push_back({"ghb-alone", configs::byName("ghb")});
    points.push_back({"stream+dbp", configs::byName("dbp")});
    points.push_back({"stream+markov", configs::byName("markov")});
    points.push_back({"stream+cdp(greedy)", configs::byName("cdp")});
    points.push_back({"stream+ecdp", configs::byName("ecdp", &hints)});
    points.push_back(
        {"stream+cdp+throttle", configs::byName("cdp+throttle")});
    points.push_back(
        {"full-proposal", configs::byName("full", &hints)});

    TablePrinter table("design space on '" + name + "' (ref input)");
    table.header({"configuration", "IPC", "BPKI", "L2-misses",
                  "lds-acc", "stream-acc"});
    for (const Point &point : points) {
        RunStats s = simulate(point.cfg, ref);
        table.row()
            .cell(point.label)
            .cell(s.ipc, 3)
            .cell(s.bpki, 1)
            .cell(s.l2DemandMisses)
            .cell(s.accuracyDemanded(1), 2)
            .cell(s.accuracyDemanded(0), 2);
    }
    table.print(std::cout);
    std::cout << "\nEvery row is one SystemConfig; see sim/config.hh"
                 " for the full knob set.\n";
    return 0;
}
