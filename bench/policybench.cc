/**
 * @file
 * Throttle-policy comparison over the pointer-intensive (Olden)
 * suite: the same stream+CDP engine stack driven by each registered
 * interval-end policy — static (never adapts), coordinated (Table
 * 3/4), FDP (Srinath-style per-prefetcher rules) and tabular-rl
 * (epsilon-greedy Q-learning over discretized feedback state).
 * Reports absolute IPC and BPKI per policy plus gmean IPC speedup
 * over the static policy, answering "what does the adaptive loop
 * itself buy, holding the engines fixed?".
 *
 *   policybench [--quick]
 *
 *   --quick   two workloads: a ctest smoke that exercises all four
 *             policies end-to-end without the full-suite runtime.
 */

#include <cstring>
#include <iostream>

#include "runner/runner.hh"
#include "server/cell.hh"
#include "sim/experiment.hh"
#include "stats/stats.hh"
#include "stats/table.hh"
#include "workloads/workload.hh"

using namespace ecdp;
using server::CellSpec;

int
main(int argc, char **argv)
{
    bool quick = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0) {
            quick = true;
        } else {
            std::cerr << "usage: policybench [--quick]\n";
            return 2;
        }
    }

    ExperimentContext ctx;
    std::vector<std::string> names = pointerIntensiveNames();
    if (quick)
        names.resize(2);

    // The cdp+throttle stack under each policy.
    std::vector<CellSpec> grid;
    for (const char *policy :
         {"static", "coordinated", "fdp", "tabular-rl"}) {
        CellSpec spec;
        spec.config = "cdp+throttle";
        spec.throttlePolicy = policy;
        grid.push_back(spec);
    }
    auto config = [](CellSpec spec, const std::string &bench) {
        spec.bench = bench;
        return server::makeCellConfig(spec, nullptr);
    };
    {
        runner::ExperimentRunner runner(ctx);
        for (const CellSpec &spec : grid) {
            for (const std::string &name : names) {
                runner.submit(name, server::cellLabel(spec),
                              [config, spec](ExperimentContext &,
                                             const std::string &b) {
                                  return config(spec, b);
                              });
            }
        }
        runner.wait();
    }
    auto run = [&](const std::string &name,
                   const CellSpec &spec) -> const RunStats & {
        return ctx.run(name, config(spec, name), server::cellLabel(spec));
    };

    TablePrinter table(
        "Throttle-policy comparison (stream+CDP stack, IPC and "
        "BPKI per policy)");
    table.header({"bench", "static-ipc", "coord-ipc", "fdp-ipc",
                  "rl-ipc", "static-bpki", "coord-bpki", "fdp-bpki",
                  "rl-bpki"});
    for (const std::string &name : names) {
        auto &row = table.row().cell(name);
        for (const CellSpec &spec : grid)
            row.cell(run(name, spec).ipc, 3);
        for (const CellSpec &spec : grid)
            row.cell(run(name, spec).bpki, 1);
    }
    auto &gmean_row = table.row().cell("gmean-vs-static");
    for (const CellSpec &spec : grid) {
        std::vector<double> ratios;
        for (const std::string &name : names)
            ratios.push_back(run(name, spec).ipc /
                             run(name, grid[0]).ipc);
        gmean_row.cell(gmean(ratios), 3);
    }
    for (std::size_t i = 0; i < grid.size(); ++i)
        gmean_row.cell("-");
    table.print(std::cout);
    std::cout
        << "\nThe rule policies reproduce the paper's throttlers "
           "byte-for-byte\n(see tests/test_throttle_policy.cc); "
           "tabular-rl is the learned\nbaseline ROADMAP.md asks for, "
           "seeded and deterministic.\n";
    return 0;
}
