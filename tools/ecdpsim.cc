/**
 * @file
 * ecdpsim — command-line driver for the simulator.
 *
 *   ecdpsim --list
 *   ecdpsim --bench health --config full
 *   ecdpsim --bench mst --config cdp --input train --json
 *   ecdpsim --multicore health,milc,mst,lbm --config baseline
 *   ecdpsim --bench astar --config full --tcov 0.2 --interval 8192
 *   ecdpsim --bench health --config cdp+throttle \
 *       --engines stream,cdp,isb --json
 *
 * Configs: every configs::knownNames() entry (src/sim/experiment.cc).
 *
 * A config is an engine stack plus a throttle policy name. --engines
 * replaces the chosen config's stack with an engine-name list (any
 * length), keeping its policy and feedback knobs — the N-engine
 * hybrid recipe in EXPERIMENTS.md builds on it. --throttle-policy
 * replaces its policy (static, coordinated, fdp, pab, tabular-rl);
 * --rl-seed seeds the tabular-rl explorer. The flags are checked,
 * resolved and run exactly like an ecdpd cell (server/cell.cc): a
 * bad name or knob, or a number with trailing text ("1000k"),
 * exits 2 with usage, a stack naming ecdp
 * gets train-profiled hints whatever the config, and a run is
 * memoized, traced (ECDP_TRACE) and spilled (ECDP_RESULT_CACHE) by
 * ExperimentContext. A --multicore mix's speedups divide by each
 * member's IPC alone on the baseline system.
 */

#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "memsim/parse_number.hh"
#include "server/cell.hh"
#include "stats/json.hh"
#include "workloads/workload.hh"

namespace
{

using namespace ecdp;

struct Options
{
    bool list = false;
    bool json = false;
    std::vector<std::string> multicore;
    /** --bench/--config/--input and every override, resolved by the
     *  same code as an ecdpd cell (server/cell.cc). */
    server::CellSpec cell;
};

void
usage(std::ostream &os)
{
    os << "usage: ecdpsim [--list] [--bench NAME | --multicore "
          "A,B,...]\n"
          "               [--config CFG] [--engines A,B,...] "
          "[--input ref|train] [--json]\n"
          "               [--throttle-policy NAME] [--rl-seed N]\n"
          "               [--tcov X] [--interval N]\n";
}

void
printHuman(const RunStats &stats, const std::string &config)
{
    std::cout << stats.workload << " [" << config << "]\n"
              << "  IPC           " << stats.ipc << '\n'
              << "  BPKI          " << stats.bpki << '\n'
              << "  cycles        " << stats.cycles << '\n'
              << "  instructions  " << stats.instructions << '\n'
              << "  L2 misses     " << stats.l2DemandMisses << " ("
              << stats.l2LdsMisses << " LDS)\n"
              << "  primary PF    issued " << stats.slot(0).issued
              << ", used " << stats.slot(0).used << ", acc "
              << stats.accuracyDemanded(0) << ", cov "
              << stats.coverage(0) << '\n'
              << "  LDS PF        issued " << stats.slot(1).issued
              << ", used " << stats.slot(1).used << " (late "
              << stats.slot(1).late << "), acc "
              << stats.accuracyDemanded(1) << ", cov "
              << stats.coverage(1) << '\n';
}

int
runSingle(const Options &opts, ExperimentContext &ctx)
{
    const RunStats &stats = server::runCell(opts.cell, ctx);
    if (opts.json)
        std::cout << server::cellStatsJson(opts.cell, stats) << '\n';
    else
        printHuman(stats, server::cellLabel(opts.cell));
    return 0;
}

int
runMulti(const Options &opts, ExperimentContext &ctx)
{
    const std::string label = server::cellLabel(opts.cell);
    const MultiCoreResult &result =
        server::runMix(opts.cell, opts.multicore, ctx);
    if (opts.json) {
        std::cout << "{\"config\":\"" << jsonEscape(label)
                  << "\",\"weightedSpeedup\":"
                  << result.weightedSpeedup
                  << ",\"hmeanSpeedup\":" << result.hmeanSpeedup
                  << ",\"busTransactions\":"
                  << result.busTransactions << ",\"cores\":[";
        for (std::size_t i = 0; i < result.perCore.size(); ++i) {
            writeRunStatsJson(std::cout, result.perCore[i]);
            if (i + 1 < result.perCore.size())
                std::cout << ',';
        }
        std::cout << "]}\n";
    } else {
        std::cout << opts.multicore.size() << "-core run ["
                  << label << "]\n";
        for (std::size_t i = 0; i < result.perCore.size(); ++i) {
            const RunStats &s = result.perCore[i];
            std::cout << "  core " << i << " (" << s.workload
                      << "): IPC " << s.ipc << " (alone "
                      << result.aloneIpc[i] << ")\n";
        }
        std::cout << "  weighted speedup " << result.weightedSpeedup
                  << ", hmean " << result.hmeanSpeedup << ", bus "
                  << result.busTransactions << " transactions\n";
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts;
    try {
        for (int i = 1; i < argc; ++i) {
            std::string arg = argv[i];
            auto value = [&](const char *flag) -> std::string {
                if (i + 1 >= argc) {
                    throw std::runtime_error(std::string(flag) +
                                             " needs a value");
                }
                return argv[++i];
            };
            if (arg == "--list") {
                opts.list = true;
            } else if (arg == "--json") {
                opts.json = true;
            } else if (arg == "--bench") {
                opts.cell.bench = value("--bench");
            } else if (arg == "--config") {
                opts.cell.config = value("--config");
            } else if (arg == "--input") {
                opts.cell.input = value("--input");
            } else if (arg == "--multicore") {
                std::stringstream ss(value("--multicore"));
                std::string name;
                while (std::getline(ss, name, ','))
                    opts.multicore.push_back(name);
            } else if (arg == "--engines") {
                std::stringstream ss(value("--engines"));
                std::string name;
                while (std::getline(ss, name, ','))
                    opts.cell.engines.push_back(name);
            } else if (arg == "--throttle-policy") {
                opts.cell.throttlePolicy = value("--throttle-policy");
            } else if (arg == "--rl-seed") {
                opts.cell.rlSeed =
                    parseNumber<long>(arg, value("--rl-seed"));
            } else if (arg == "--tcov") {
                opts.cell.tcov = parseNumber<double>(arg, value("--tcov"));
            } else if (arg == "--interval") {
                opts.cell.interval =
                    parseNumber<long>(arg, value("--interval"));
            } else if (arg == "--help" || arg == "-h") {
                usage(std::cout);
                return 0;
            } else {
                throw std::runtime_error("unknown flag " + arg);
            }
        }
        // The ecdpd cell check: a bad name or knob is a usage error
        // here exactly when the daemon would refuse the cell.
        server::validateCellSpec(opts.cell);
    } catch (const std::exception &e) {
        std::cerr << "error: " << e.what() << '\n';
        usage(std::cerr);
        return 2;
    }

    if (opts.list) {
        for (const BenchmarkInfo &info : benchmarkSuite()) {
            std::cout << info.name
                      << (info.pointerIntensive ? "  (pointer)"
                                                : "  (streaming)")
                      << '\n';
        }
        return 0;
    }
    for (const std::string &name : opts.multicore) {
        if (!findBenchmark(name)) {
            std::cerr << "error: unknown benchmark '" << name
                      << "' (try --list)\n";
            return 2;
        }
    }
    try {
        ExperimentContext ctx;
        if (!opts.multicore.empty())
            return runMulti(opts, ctx);
        if (!opts.cell.bench.empty())
            return runSingle(opts, ctx);
    } catch (const std::exception &e) {
        std::cerr << "error: " << e.what() << '\n';
        return 1;
    }
    usage(std::cerr);
    return 2;
}
