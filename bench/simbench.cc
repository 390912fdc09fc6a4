/**
 * @file
 * simbench: wall-clock benchmark of the event-driven cycle-skipping
 * scheduler against per-cycle polling, with a per-phase attribution
 * pass that names the subsystem a perf change came from.
 *
 * For each Olden pointer-chasing workload this runs the identical
 * simulation twice — `cycleSkipping = false` (per-cycle polling) and
 * `true` (next-event jumps) — timing each with steady_clock and
 * verifying the two runs' full stats JSON byte-identical before
 * reporting any speedup. Each (workload, mode) pair pays one untimed
 * warm-up rep (allocator pools, page faults, branch predictors), then
 * records min/median/max over the timed reps; derived rates use the
 * min. A separate, profiled event-driven rep attributes wall time to
 * phases (core advance, cache probe, CDP scan, DRAM, scheduler,
 * stats) via obs::PhaseProfiler; its clock-read overhead is why it is
 * never one of the timed reps. The same rep counts the scheduler's
 * loop visits (the sim.loop_visits registry counter): simulated
 * cycles the event-driven loop actually ticked, a deterministic
 * figure independent of the machine. The output is machine-readable
 * JSON (schema BENCH_simbench/v4, see EXPERIMENTS.md).
 *
 * Besides the legacy two-slot stack, one run benchmarks a
 * three-engine hybrid (stream+cdp+isb under coordinated throttling)
 * on `health`: the N-engine stack walks more per-event state (one
 * feedback lane and counter scope per slot), so its event-driven
 * cycles/sec is the canary for regressions in the engine-stack
 * generalization that the two-slot numbers cannot see.
 *
 * Wall-clock seconds are machine-dependent; the on/off *speedup
 * ratio* is not (both modes run on the same machine in the same
 * process). The CI perf-smoke job compares, against a committed
 * baseline with `--check`:
 *   - the geometric-mean speedup (machine-independent), and
 *   - `mst` event-driven cycles/sec (machine-class-sensitive, hence
 *     the generous tolerance): mst floods its prefetch queue, so its
 *     cycles/sec is the canary for per-event-cost regressions that
 *     the speedup ratio is blind to — a slowdown hitting both modes
 *     equally leaves the ratio unchanged — and
 *   - every workload's loop visits, exactly: more visits than the
 *     baseline means the wakeup bounds got looser.
 *
 * Usage:
 *   simbench [--quick] [--reps N] [--out FILE]
 *            [--check BASELINE.json] [--tolerance FRAC]
 *
 *   --quick      two workloads, one rep: a ctest smoke that the
 *                harness and the identity oracle work at all.
 *   --check F    exit non-zero if any workload's stats diverge
 *                between modes, if the geometric-mean speedup drops
 *                below baseline * (1 - tolerance), if mst
 *                event-driven cycles/sec drops below baseline mst
 *                cycles/sec * (1 - tolerance), or if any workload
 *                visits more cycles than its baseline entry.
 *   --tolerance  slack fraction for --check (default 0.25).
 */

#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "obs/phase_profiler.hh"
#include "sim/experiment.hh"
#include "sim/simulator.hh"
#include "stats/json.hh"
#include "stats/stats.hh"
#include "workloads/workload.hh"

using namespace ecdp;

namespace
{

/**
 * Floor for measured wall times in divisions. A simulation that
 * completes inside one steady_clock quantum would otherwise report a
 * zero wall time, and `speedup = 0` / `cyclesPerSec = 0` poisons the
 * geometric mean to 0 — failing the CI gate on a machine for being
 * too fast.
 */
constexpr double kMinWallSeconds = 1e-7;

double
flooredWall(double secs)
{
    return std::max(secs, kMinWallSeconds);
}

struct ModeTiming
{
    /** Minimum over the timed reps (after one untimed warm-up). */
    double wallSeconds = 0.0;
    double wallMedian = 0.0;
    double wallMax = 0.0;
    double cyclesPerSec = 0.0;
};

struct PhaseBreakdown
{
    double seconds[obs::PhaseProfiler::kPhaseCount] = {};
    double total = 0.0;
    /** Event-driven loop iterations (sim.loop_visits). */
    std::uint64_t visits = 0;
};

struct WorkloadResult
{
    std::string name;
    std::uint64_t cycles = 0;
    std::uint64_t instructions = 0;
    ModeTiming percycle;
    ModeTiming eventDriven;
    double speedup = 0.0;
    bool identical = false;
    PhaseBreakdown phases;
};

std::string
statsJson(const RunStats &stats)
{
    std::ostringstream os;
    writeRunStatsJson(os, stats, "simbench");
    return os.str();
}

/**
 * Time one (workload, mode) pair: one untimed warm-up rep, then
 * @p reps timed reps summarized as min/median/max.
 */
ModeTiming
timeMode(const SystemConfig &base, const Workload &workload,
         bool skipping, int reps, RunStats &stats_out)
{
    SystemConfig cfg = base;
    cfg.cycleSkipping = skipping;
    stats_out = simulate(cfg, workload); // warm-up, never timed
    std::vector<double> secs(static_cast<std::size_t>(reps));
    for (double &s : secs) {
        auto t0 = std::chrono::steady_clock::now();
        RunStats stats = simulate(cfg, workload);
        auto t1 = std::chrono::steady_clock::now();
        s = std::chrono::duration<double>(t1 - t0).count();
    }
    std::sort(secs.begin(), secs.end());
    ModeTiming t;
    t.wallSeconds = secs.front();
    t.wallMedian = secs[secs.size() / 2];
    t.wallMax = secs.back();
    t.cyclesPerSec = static_cast<double>(stats_out.cycles.raw()) /
                     flooredWall(t.wallSeconds);
    return t;
}

/** One additional event-driven rep with phase attribution and the
 *  registry attached. Clock reads at every phase switch make this rep
 *  slower than the timed ones; only the *distribution* across phases
 *  is reported, beside the (deterministic) loop-visit count. */
PhaseBreakdown
profilePhases(const SystemConfig &base, const Workload &workload)
{
    SystemConfig cfg = base;
    cfg.cycleSkipping = true;
    obs::PhaseProfiler profiler;
    obs::MetricRegistry registry;
    Observability obs;
    obs.metrics = &registry;
    obs.phases = &profiler;
    profiler.start();
    simulate(cfg, workload, obs);
    profiler.stop();
    PhaseBreakdown b;
    for (unsigned p = 0; p < obs::PhaseProfiler::kPhaseCount; ++p) {
        b.seconds[p] = profiler.seconds(
            static_cast<obs::PhaseProfiler::Phase>(p));
    }
    b.total = profiler.totalSeconds();
    b.visits = registry.value("sim.loop_visits");
    return b;
}

WorkloadResult
benchWorkload(const SystemConfig &cfg, const std::string &name,
              int reps)
{
    const Workload workload = buildWorkload(name, InputSet::Train);
    WorkloadResult r;
    r.name = name;
    RunStats polled, skipped;
    r.percycle = timeMode(cfg, workload, false, reps, polled);
    r.eventDriven = timeMode(cfg, workload, true, reps, skipped);
    r.cycles = skipped.cycles.raw();
    r.instructions = skipped.instructions;
    // The oracle: a speedup only counts if the results are the same.
    r.identical = statsJson(polled) == statsJson(skipped);
    r.speedup = r.percycle.wallSeconds /
                flooredWall(r.eventDriven.wallSeconds);
    r.phases = profilePhases(cfg, workload);
    return r;
}

void
writeModeJson(std::ostream &os, const char *key, const ModeTiming &t)
{
    os << "\"" << key << "\": {\"wallSeconds\": " << t.wallSeconds
       << ", \"wallMedian\": " << t.wallMedian
       << ", \"wallMax\": " << t.wallMax
       << ", \"cyclesPerSec\": " << t.cyclesPerSec << "}";
}

void
writePhasesJson(std::ostream &os, const PhaseBreakdown &b)
{
    os << "\"phases\": {";
    for (unsigned p = 0; p < obs::PhaseProfiler::kPhaseCount; ++p) {
        const auto phase = static_cast<obs::PhaseProfiler::Phase>(p);
        const double frac =
            b.total > 0.0 ? b.seconds[p] / b.total : 0.0;
        os << (p ? ", " : "") << "\""
           << obs::PhaseProfiler::name(phase)
           << "\": {\"seconds\": " << b.seconds[p]
           << ", \"fraction\": " << frac << "}";
    }
    os << ", \"totalSeconds\": " << b.total << "}";
}

void
writeReport(std::ostream &os, const std::vector<WorkloadResult> &rs,
            const std::string &config_label, int reps,
            double gmean_speedup)
{
    os.precision(6);
    os << "{\n  \"schema\": \"BENCH_simbench/v4\",\n"
       << "  \"config\": \"" << jsonEscape(config_label) << "\",\n"
       << "  \"reps\": " << reps << ",\n  \"workloads\": [\n";
    for (std::size_t i = 0; i < rs.size(); ++i) {
        const WorkloadResult &r = rs[i];
        os << "    {\"name\": \"" << jsonEscape(r.name)
           << "\", \"cycles\": " << r.cycles
           << ", \"instructions\": " << r.instructions
           << ", \"visits\": " << r.phases.visits << ",\n     ";
        writeModeJson(os, "percycle", r.percycle);
        os << ",\n     ";
        writeModeJson(os, "eventDriven", r.eventDriven);
        os << ",\n     \"speedup\": " << r.speedup
           << ", \"identical\": " << (r.identical ? "true" : "false")
           << ",\n     ";
        writePhasesJson(os, r.phases);
        os << "}" << (i + 1 < rs.size() ? "," : "") << "\n";
    }
    os << "  ],\n  \"gmeanSpeedup\": " << gmean_speedup << ",\n";
}

/** v3 addition: the three-engine hybrid entry (same shape as a
 *  workloads[] element, plus its own config label). */
void
writeHybridJson(std::ostream &os, const WorkloadResult &r,
                const std::string &config_label)
{
    os << "  \"hybrid\": {\"config\": \"" << jsonEscape(config_label)
       << "\", \"name\": \"" << jsonEscape(r.name)
       << "\", \"cycles\": " << r.cycles
       << ", \"instructions\": " << r.instructions
       << ", \"visits\": " << r.phases.visits << ",\n   ";
    writeModeJson(os, "percycle", r.percycle);
    os << ",\n   ";
    writeModeJson(os, "eventDriven", r.eventDriven);
    os << ",\n   \"speedup\": " << r.speedup
       << ", \"identical\": " << (r.identical ? "true" : "false")
       << "}\n}\n";
}

struct Baseline
{
    double gmeanSpeedup = 0.0;
    /** mst event-driven cycles/sec; 0 when the baseline has no mst. */
    double mstEventCyclesPerSec = 0.0;
    /** Hybrid-stack event-driven cycles/sec (v3); 0 when absent. */
    double hybridEventCyclesPerSec = 0.0;
    /** Event-driven loop visits by workload name (v4). */
    std::map<std::string, std::uint64_t> visits;
};

/** Baseline figures from a committed BENCH_simbench.json (v4). */
Baseline
readBaseline(const std::string &path)
{
    std::ifstream in(path);
    if (!in) {
        throw std::runtime_error("simbench: cannot open baseline " +
                                 path);
    }
    std::stringstream buf;
    buf << in.rdbuf();
    JsonValue doc = parseJson(buf.str());
    if (doc.at("schema").asString() != "BENCH_simbench/v4") {
        throw std::runtime_error(
            "simbench: unexpected baseline schema (want "
            "BENCH_simbench/v4)");
    }
    Baseline base;
    base.gmeanSpeedup = doc.at("gmeanSpeedup").asDouble();
    for (const JsonValue &w : doc.at("workloads").asArray()) {
        base.visits[w.at("name").asString()] =
            static_cast<std::uint64_t>(w.at("visits").asDouble());
        if (w.at("name").asString() == "mst") {
            base.mstEventCyclesPerSec =
                w.at("eventDriven").at("cyclesPerSec").asDouble();
        }
    }
    base.hybridEventCyclesPerSec = doc.at("hybrid")
                                       .at("eventDriven")
                                       .at("cyclesPerSec")
                                       .asDouble();
    return base;
}

} // namespace

int
main(int argc, char **argv)
{
    bool quick = false;
    int reps = 3;
    double tolerance = 0.25;
    std::string out_path;
    std::string check_path;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc) {
                std::cerr << "simbench: " << arg
                          << " needs a value\n";
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--quick") {
            quick = true;
        } else if (arg == "--reps") {
            reps = std::stoi(next());
        } else if (arg == "--out") {
            out_path = next();
        } else if (arg == "--check") {
            check_path = next();
        } else if (arg == "--tolerance") {
            tolerance = std::stod(next());
        } else {
            std::cerr << "simbench: unknown argument " << arg << "\n";
            return 2;
        }
    }
    if (reps < 1) {
        std::cerr << "simbench: --reps must be >= 1 (got " << reps
                  << ")\n";
        return 2;
    }

    // Olden pointer-chasing suite: the linked-data-structure
    // workloads the paper targets, and the ones whose long
    // dependence-stall gaps cycle skipping exploits.
    std::vector<std::string> names = {"bisort",    "health",
                                      "mst",       "perimeter",
                                      "voronoi",   "pfast"};
    if (quick) {
        names = {"bisort", "health"};
        reps = 1;
    }

    // A representative hybrid config: stream + CDP under coordinated
    // throttling exercises the feedback-interval machinery too.
    const SystemConfig cfg = configs::streamCdpThrottled();
    const std::string config_label = "stream+cdp+throttle";

    std::vector<WorkloadResult> results;
    std::vector<double> ratios;
    bool all_identical = true;
    for (const std::string &name : names) {
        WorkloadResult r = benchWorkload(cfg, name, reps);
        std::cerr << "simbench: " << r.name << " speedup " << r.speedup
                  << "x (" << r.percycle.wallSeconds << "s -> "
                  << r.eventDriven.wallSeconds << "s), "
                  << r.eventDriven.cyclesPerSec
                  << " cyc/s event-driven, " << r.phases.visits
                  << " of " << r.cycles << " cycles visited, identical="
                  << (r.identical ? "yes" : "NO") << "\n";
        all_identical = all_identical && r.identical;
        ratios.push_back(r.speedup);
        results.push_back(std::move(r));
    }
    const double gmean_speedup = gmean(ratios);

    // v3 hybrid canary: a three-engine stack (third slot via the
    // registry) on health, so --check also guards the N-engine
    // dispatch path the two-slot matrix above never touches.
    SystemConfig hybridCfg = configs::streamCdpThrottled();
    hybridCfg.engines = {"stream", "cdp", "isb"};
    const std::string hybrid_label = "stream+cdp+isb+coordinated";
    WorkloadResult hybrid = benchWorkload(hybridCfg, "health", reps);
    std::cerr << "simbench: hybrid(" << hybrid_label << ") "
              << hybrid.name << " speedup " << hybrid.speedup << "x, "
              << hybrid.eventDriven.cyclesPerSec
              << " cyc/s event-driven, identical="
              << (hybrid.identical ? "yes" : "NO") << "\n";
    all_identical = all_identical && hybrid.identical;

    std::ostringstream report;
    writeReport(report, results, config_label, reps, gmean_speedup);
    writeHybridJson(report, hybrid, hybrid_label);
    if (!out_path.empty()) {
        std::ofstream out(out_path);
        out << report.str();
    } else {
        std::cout << report.str();
    }

    if (!all_identical) {
        std::cerr << "simbench: FAIL — event-driven stats diverge "
                     "from per-cycle polling\n";
        return 1;
    }
    if (!check_path.empty()) {
        const Baseline base = readBaseline(check_path);
        bool failed = false;

        const double floor = base.gmeanSpeedup * (1.0 - tolerance);
        std::cerr << "simbench: gmean speedup " << gmean_speedup
                  << "x vs baseline " << base.gmeanSpeedup
                  << "x (floor " << floor << "x)\n";
        if (gmean_speedup < floor) {
            std::cerr << "simbench: FAIL — speedup regressed beyond "
                      << tolerance * 100.0 << "% tolerance\n";
            failed = true;
        }

        // Per-event-cost canary: compare mst event-driven cycles/sec
        // when both this run and the baseline have it.
        const WorkloadResult *mst = nullptr;
        for (const WorkloadResult &r : results) {
            if (r.name == "mst")
                mst = &r;
        }
        if (mst && base.mstEventCyclesPerSec > 0.0) {
            const double mst_floor =
                base.mstEventCyclesPerSec * (1.0 - tolerance);
            std::cerr << "simbench: mst "
                      << mst->eventDriven.cyclesPerSec
                      << " cyc/s vs baseline "
                      << base.mstEventCyclesPerSec << " (floor "
                      << mst_floor << ")\n";
            if (mst->eventDriven.cyclesPerSec < mst_floor) {
                std::cerr << "simbench: FAIL — mst per-event cost "
                             "regressed beyond "
                          << tolerance * 100.0 << "% tolerance\n";
                failed = true;
            }
        }
        // Same canary for the three-engine hybrid stack: a slowdown
        // confined to the N-engine dispatch path would be invisible
        // to both the gmean ratio and the mst floor.
        if (base.hybridEventCyclesPerSec > 0.0) {
            const double hybrid_floor =
                base.hybridEventCyclesPerSec * (1.0 - tolerance);
            std::cerr << "simbench: hybrid "
                      << hybrid.eventDriven.cyclesPerSec
                      << " cyc/s vs baseline "
                      << base.hybridEventCyclesPerSec << " (floor "
                      << hybrid_floor << ")\n";
            if (hybrid.eventDriven.cyclesPerSec < hybrid_floor) {
                std::cerr << "simbench: FAIL — hybrid per-event "
                             "cost regressed beyond "
                          << tolerance * 100.0 << "% tolerance\n";
                failed = true;
            }
        }
        // Loop visits are deterministic: any growth is a scheduler
        // bound that stopped skipping idle cycles, on any machine.
        for (const WorkloadResult &r : results) {
            auto it = base.visits.find(r.name);
            if (it == base.visits.end())
                continue;
            if (r.phases.visits > it->second) {
                std::cerr << "simbench: FAIL — " << r.name << " visits "
                          << r.phases.visits << " cycles, baseline "
                          << it->second << "\n";
                failed = true;
            }
        }
        if (failed)
            return 1;
    }
    return 0;
}
