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
 * Configs: noprefetch, baseline, cdp, ecdp, cdp+throttle, full,
 *          dbp, markov, ghb, ghb+ecdp, cdp+filter, ecdp+fdp,
 *          cdp+pab, grp, ideal-lds.
 *
 * A config is an engine stack plus a throttle policy name. --engines
 * replaces the chosen config's stack with a registry-name list (any
 * length), keeping its policy and feedback knobs — the N-engine
 * hybrid recipe in EXPERIMENTS.md builds on it. --throttle-policy
 * replaces its policy (static, coordinated, fdp, pab, tabular-rl);
 * --rl-seed seeds the tabular-rl explorer. The flags resolve exactly
 * like an ecdpd cell (server/cell.cc): a stack naming ecdp gets
 * train-profiled hints whatever the config.
 */

#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "compiler/profiling_compiler.hh"
#include "obs/trace_session.hh"
#include "prefetch/engine.hh"
#include "server/cell.hh"
#include "sim/multicore.hh"
#include "sim/simulator.hh"
#include "stats/json.hh"
#include "throttle/throttle_policy.hh"
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

/** Hints profiled on the train input of every named benchmark, merged
 *  (one table for a multicore mix); empty when the cell needs none. */
HintTable
trainHints(const server::CellSpec &cell,
           const std::vector<std::string> &benches)
{
    HintTable merged;
    if (!server::cellNeedsHints(cell))
        return merged;
    for (const std::string &name : benches) {
        HintTable hints = ProfilingCompiler::profile(
            buildWorkload(name, InputSet::Train));
        for (const auto &[pc, hint] : hints)
            merged.entry(pc) = hint;
    }
    return merged;
}

InputSet
inputSet(const server::CellSpec &cell)
{
    return cell.input == "train" ? InputSet::Train : InputSet::Ref;
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
runSingle(const Options &opts)
{
    const server::CellSpec &cell = opts.cell;
    const std::string label = server::cellLabel(cell);
    const HintTable hints = trainHints(cell, {cell.bench});
    const SystemConfig cfg = server::makeCellConfig(cell, &hints);
    Workload workload = buildWorkload(cell.bench, inputSet(cell));
    RunStats stats;
    if (obs::TraceSession *session = obs::TraceSession::global()) {
        obs::EventTracer tracer(obs::EventTracer::capacityFromEnv());
        obs::MetricRegistry metrics;
        stats = simulate(cfg, workload,
                         Observability{&metrics, &tracer});
        session->flush(cell.bench + ":" + label, tracer);
    } else {
        stats = simulate(cfg, workload);
    }
    if (opts.json) {
        writeRunStatsJson(std::cout, stats, label);
        std::cout << '\n';
    } else {
        printHuman(stats, label);
    }
    return 0;
}

int
runMulti(const Options &opts)
{
    const std::string label = server::cellLabel(opts.cell);
    const HintTable hints = trainHints(opts.cell, opts.multicore);
    const SystemConfig cfg = server::makeCellConfig(opts.cell, &hints);
    std::vector<Workload> workloads;
    for (const std::string &name : opts.multicore)
        workloads.push_back(buildWorkload(name, inputSet(opts.cell)));
    std::vector<const Workload *> ptrs;
    std::vector<double> alone;
    for (const Workload &workload : workloads) {
        ptrs.push_back(&workload);
        alone.push_back(simulate(cfg, workload).ipc);
    }
    MultiCoreResult result;
    if (obs::TraceSession *session = obs::TraceSession::global()) {
        // One tracer for the whole mix; events carry the core index.
        obs::EventTracer tracer(obs::EventTracer::capacityFromEnv());
        obs::MetricRegistry metrics;
        result = simulateMultiCore(cfg, ptrs, alone,
                                   Observability{&metrics, &tracer});
        std::string mix;
        for (const std::string &name : opts.multicore)
            mix += (mix.empty() ? "" : "+") + name;
        session->flush(mix + ":" + label, tracer);
    } else {
        result = simulateMultiCore(cfg, ptrs, alone);
    }
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
                      << "): IPC " << s.ipc << " (alone " << alone[i]
                      << ")\n";
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
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&](const char *flag) -> std::string {
            if (i + 1 >= argc) {
                throw std::runtime_error(std::string(flag) +
                                         " needs a value");
            }
            return argv[++i];
        };
        try {
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
                if (opts.cell.input != "train" &&
                    opts.cell.input != "ref")
                    throw std::runtime_error("bad --input");
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
                // Fail here with the registry's diagnostic (it lists
                // every known name) instead of mid-simulation.
                for (const std::string &engine : opts.cell.engines) {
                    if (!EngineRegistry::instance().contains(engine)) {
                        EngineRegistry::instance().create(
                            engine, EngineContext{});
                    }
                }
            } else if (arg == "--throttle-policy") {
                opts.cell.throttlePolicy = value("--throttle-policy");
                // Fail here with the registry's diagnostic (it lists
                // every known name) instead of mid-simulation.
                if (!PolicyRegistry::instance().contains(
                        opts.cell.throttlePolicy)) {
                    PolicyRegistry::instance().create(
                        opts.cell.throttlePolicy, PolicyContext{});
                }
            } else if (arg == "--rl-seed") {
                opts.cell.rlSeed = std::stol(value("--rl-seed"));
            } else if (arg == "--tcov") {
                opts.cell.tcov = std::stod(value("--tcov"));
            } else if (arg == "--interval") {
                opts.cell.interval = std::stol(value("--interval"));
            } else if (arg == "--help" || arg == "-h") {
                usage(std::cout);
                return 0;
            } else {
                throw std::runtime_error("unknown flag " + arg);
            }
        } catch (const std::exception &e) {
            std::cerr << "error: " << e.what() << '\n';
            usage(std::cerr);
            return 2;
        }
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
    for (const std::string &name :
         opts.multicore.empty()
             ? std::vector<std::string>{opts.cell.bench}
             : opts.multicore) {
        if (!name.empty() && !findBenchmark(name)) {
            std::cerr << "error: unknown benchmark '" << name
                      << "' (try --list)\n";
            return 2;
        }
    }
    try {
        if (!opts.multicore.empty())
            return runMulti(opts);
        if (!opts.cell.bench.empty())
            return runSingle(opts);
    } catch (const std::exception &e) {
        std::cerr << "error: " << e.what() << '\n';
        return 1;
    }
    usage(std::cerr);
    return 2;
}
