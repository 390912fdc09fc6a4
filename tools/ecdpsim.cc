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
 * --rl-seed seeds the tabular-rl explorer.
 */

#include <cstring>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <algorithm>

#include "compiler/profiling_compiler.hh"
#include "obs/trace_session.hh"
#include "prefetch/engine.hh"
#include "sim/experiment.hh"
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
    std::string bench;
    std::vector<std::string> multicore;
    std::string config = "baseline";
    /** Explicit engine stack overriding the config's (empty: keep). */
    std::vector<std::string> engines;
    /** Throttle policy replacing the config's (empty: keep). */
    std::string throttlePolicy;
    long rlSeed = -1;
    InputSet input = InputSet::Ref;
    double tcov = -1.0;
    long interval = -1;
};

void
usage(std::ostream &os)
{
    os << "usage: ecdpsim [--list] [--bench NAME | --multicore "
          "A,B,...]\n"
          "               [--config CFG] [--engines A,B,...] "
          "[--input ref|train] [--json]\n"
          "               [--throttle-policy NAME] [--rl-seed N]\n"
          "               [--tcov X] [--alow X] [--ahigh X] "
          "[--interval N]\n";
}

bool
needsHints(const Options &opts)
{
    return configs::nameNeedsHints(opts.config) ||
           std::find(opts.engines.begin(), opts.engines.end(),
                     "ecdp") != opts.engines.end();
}

/**
 * "cdp+throttle[stream,cdp,isb]" when --engines is given;
 * "cdp+throttle{tabular-rl}" when --throttle-policy is given.
 */
std::string
configLabel(const Options &opts)
{
    std::string label = opts.config;
    if (!opts.engines.empty()) {
        label += "[";
        for (std::size_t i = 0; i < opts.engines.size(); ++i)
            label += (i ? "," : "") + opts.engines[i];
        label += "]";
    }
    if (!opts.throttlePolicy.empty())
        label += "{" + opts.throttlePolicy + "}";
    return label;
}

void
applyThrottleOverrides(SystemConfig &cfg, const Options &opts)
{
    if (!opts.throttlePolicy.empty())
        cfg.throttlePolicy = opts.throttlePolicy;
    if (opts.rlSeed >= 0)
        cfg.throttleRlSeed = static_cast<std::uint64_t>(opts.rlSeed);
}

SystemConfig
makeConfig(const std::string &config, const HintTable *hints)
{
    // Shared with the ecdpd wire format (server/cell.cc): one name
    // table for the CLI, the daemon and the workers.
    return configs::byName(config, hints);
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
    HintTable hints;
    if (needsHints(opts)) {
        hints = ProfilingCompiler::profile(
            buildWorkload(opts.bench, InputSet::Train));
    }
    SystemConfig cfg = makeConfig(opts.config, &hints);
    if (!opts.engines.empty())
        cfg.engines = opts.engines;
    applyThrottleOverrides(cfg, opts);
    if (opts.tcov >= 0.0)
        cfg.coordThresholds.tCoverage = opts.tcov;
    if (opts.interval > 0)
        cfg.intervalEvictions =
            static_cast<std::uint64_t>(opts.interval);
    Workload workload = buildWorkload(opts.bench, opts.input);
    RunStats stats;
    if (obs::TraceSession *session = obs::TraceSession::global()) {
        obs::EventTracer tracer(obs::EventTracer::capacityFromEnv());
        obs::MetricRegistry metrics;
        stats = simulate(cfg, workload,
                         Observability{&metrics, &tracer});
        session->flush(opts.bench + ":" + configLabel(opts),
                       tracer);
    } else {
        stats = simulate(cfg, workload);
    }
    if (opts.json) {
        writeRunStatsJson(std::cout, stats, configLabel(opts));
        std::cout << '\n';
    } else {
        printHuman(stats, configLabel(opts));
    }
    return 0;
}

int
runMulti(const Options &opts)
{
    HintTable merged;
    std::vector<Workload> workloads;
    for (const std::string &name : opts.multicore) {
        if (needsHints(opts)) {
            HintTable hints = ProfilingCompiler::profile(
                buildWorkload(name, InputSet::Train));
            for (const auto &[pc, hint] : hints)
                merged.entry(pc) = hint;
        }
        workloads.push_back(buildWorkload(name, opts.input));
    }
    SystemConfig cfg = makeConfig(opts.config, &merged);
    if (!opts.engines.empty())
        cfg.engines = opts.engines;
    applyThrottleOverrides(cfg, opts);
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
        std::string label;
        for (const std::string &name : opts.multicore)
            label += (label.empty() ? "" : "+") + name;
        session->flush(label + ":" + configLabel(opts), tracer);
    } else {
        result = simulateMultiCore(cfg, ptrs, alone);
    }
    if (opts.json) {
        std::cout << "{\"config\":\"" << jsonEscape(configLabel(opts))
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
                  << configLabel(opts) << "]\n";
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
                opts.bench = value("--bench");
            } else if (arg == "--config") {
                opts.config = value("--config");
            } else if (arg == "--input") {
                std::string input = value("--input");
                if (input == "train")
                    opts.input = InputSet::Train;
                else if (input == "ref")
                    opts.input = InputSet::Ref;
                else
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
                    opts.engines.push_back(name);
                // Fail here with the registry's diagnostic (it lists
                // every known name) instead of mid-simulation.
                for (const std::string &engine : opts.engines) {
                    if (!EngineRegistry::instance().contains(engine)) {
                        EngineRegistry::instance().create(
                            engine, EngineContext{});
                    }
                }
            } else if (arg == "--throttle-policy") {
                opts.throttlePolicy = value("--throttle-policy");
                // Fail here with the registry's diagnostic (it lists
                // every known name) instead of mid-simulation.
                if (!PolicyRegistry::instance().contains(
                        opts.throttlePolicy)) {
                    PolicyRegistry::instance().create(
                        opts.throttlePolicy, PolicyContext{});
                }
            } else if (arg == "--rl-seed") {
                opts.rlSeed = std::stol(value("--rl-seed"));
            } else if (arg == "--tcov") {
                opts.tcov = std::stod(value("--tcov"));
            } else if (arg == "--interval") {
                opts.interval = std::stol(value("--interval"));
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
             ? std::vector<std::string>{opts.bench}
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
        if (!opts.bench.empty())
            return runSingle(opts);
    } catch (const std::exception &e) {
        std::cerr << "error: " << e.what() << '\n';
        return 1;
    }
    usage(std::cerr);
    return 2;
}
