/**
 * @file
 * simbench: wall-clock benchmark of the event-driven cycle-skipping
 * scheduler against per-cycle polling, with the scheduler's loop
 * visits counted alongside.
 *
 * For each Olden pointer-chasing workload this runs the identical
 * simulation twice — `cycleSkipping = false` (per-cycle polling) and
 * `true` (next-event jumps) — timing each with steady_clock and
 * verifying the two runs' full stats JSON byte-identical before
 * reporting any speedup. Each (workload, mode) pair pays one untimed
 * warm-up rep (allocator pools, page faults, branch predictors), then
 * records min/median/max over the timed reps; derived rates use the
 * min. The event-driven warm-up rep runs with a metric registry
 * attached and reports its loop visits (the sim.loop_visits counter):
 * simulated cycles the event-driven loop actually ticked, a
 * deterministic figure independent of the machine. The output is
 * machine-readable JSON (schema BENCH_simbench/v5, see
 * EXPERIMENTS.md).
 *
 * Besides the paper's two-slot stack, one run benchmarks a
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
 *     equally leaves the ratio unchanged — and the hybrid's
 *     cycles/sec likewise, and
 *   - every workload's and the hybrid's loop visits, exactly: more
 *     visits than the baseline means the wakeup bounds got looser.
 *
 * Usage:
 *   simbench [--quick] [--reps N] [--out FILE]
 *            [--check BASELINE.json] [--tolerance FRAC]
 *
 *   --quick      two workloads, one rep: a ctest smoke that the
 *                harness and the identity oracle work at all.
 *   --check F    exit non-zero if any workload's stats diverge
 *                between modes, if the geometric-mean speedup drops
 *                below baseline * (1 - tolerance), if mst or hybrid
 *                event-driven cycles/sec drops below its baseline
 *                * (1 - tolerance), or if any workload or the hybrid
 *                visits more cycles than its baseline entry.
 *   --tolerance  slack fraction in [0, 1) for --check (default
 *                0.25).
 *
 * A malformed --reps or --tolerance value exits 2 with a message.
 */

#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "memsim/parse_number.hh"
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

struct WorkloadResult
{
    std::string name;
    std::uint64_t cycles = 0;
    std::uint64_t instructions = 0;
    /** Event-driven loop iterations (sim.loop_visits). */
    std::uint64_t visits = 0;
    ModeTiming percycle;
    ModeTiming eventDriven;
    double speedup = 0.0;
    bool identical = false;
};

std::string
statsJson(const RunStats &stats)
{
    std::ostringstream os;
    writeRunStatsJson(os, stats, "simbench");
    return os.str();
}

/**
 * Time one (workload, mode) pair: one untimed warm-up rep, observed
 * through @p warmup_obs, then @p reps timed reps summarized as
 * min/median/max.
 */
ModeTiming
timeMode(const SystemConfig &base, const Workload &workload,
         bool skipping, int reps, RunStats &stats_out,
         const Observability &warmup_obs = {})
{
    SystemConfig cfg = base;
    cfg.cycleSkipping = skipping;
    // Warm-up, never timed.
    stats_out = simulate(cfg, workload, warmup_obs);
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

WorkloadResult
benchWorkload(const SystemConfig &cfg, const std::string &name,
              int reps)
{
    const Workload workload = buildWorkload(name, InputSet::Train);
    WorkloadResult r;
    r.name = name;
    RunStats polled, skipped;
    obs::MetricRegistry registry;
    r.percycle = timeMode(cfg, workload, false, reps, polled);
    r.eventDriven = timeMode(cfg, workload, true, reps, skipped,
                             Observability{&registry});
    r.visits = registry.value("sim.loop_visits");
    r.cycles = skipped.cycles.raw();
    r.instructions = skipped.instructions;
    // The oracle: a speedup only counts if the results are the same.
    r.identical = statsJson(polled) == statsJson(skipped);
    r.speedup = r.percycle.wallSeconds /
                flooredWall(r.eventDriven.wallSeconds);
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
writeReport(std::ostream &os, const std::vector<WorkloadResult> &rs,
            const std::string &config_label, int reps,
            double gmean_speedup)
{
    os.precision(6);
    os << "{\n  \"schema\": \"BENCH_simbench/v5\",\n"
       << "  \"config\": \"" << jsonEscape(config_label) << "\",\n"
       << "  \"reps\": " << reps << ",\n  \"workloads\": [\n";
    for (std::size_t i = 0; i < rs.size(); ++i) {
        const WorkloadResult &r = rs[i];
        os << "    {\"name\": \"" << jsonEscape(r.name)
           << "\", \"cycles\": " << r.cycles
           << ", \"instructions\": " << r.instructions
           << ", \"visits\": " << r.visits << ",\n     ";
        writeModeJson(os, "percycle", r.percycle);
        os << ",\n     ";
        writeModeJson(os, "eventDriven", r.eventDriven);
        os << ",\n     \"speedup\": " << r.speedup
           << ", \"identical\": " << (r.identical ? "true" : "false")
           << "}" << (i + 1 < rs.size() ? "," : "") << "\n";
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
       << ", \"visits\": " << r.visits << ",\n   ";
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
    /** The hybrid's event-driven loop visits. */
    std::uint64_t hybridVisits = 0;
};

/** Baseline figures from a committed BENCH_simbench.json (v5). */
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
    if (doc.at("schema").asString() != "BENCH_simbench/v5") {
        throw std::runtime_error(
            "simbench: unexpected baseline schema (want "
            "BENCH_simbench/v5)");
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
    const JsonValue &hybrid = doc.at("hybrid");
    base.hybridEventCyclesPerSec =
        hybrid.at("eventDriven").at("cyclesPerSec").asDouble();
    base.hybridVisits =
        static_cast<std::uint64_t>(hybrid.at("visits").asDouble());
    return base;
}

/** A loop-visit gate: deterministic, so any growth fails. */
bool
visitsRegressed(const std::string &label, std::uint64_t visits,
                std::uint64_t baseline)
{
    if (visits <= baseline)
        return false;
    std::cerr << "simbench: FAIL — " << label << " visits " << visits
              << " cycles, baseline " << baseline << "\n";
    return true;
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
        try {
            if (arg == "--quick") {
                quick = true;
            } else if (arg == "--reps") {
                reps = parseNumber<int>(arg, next(), 1,
                                        std::numeric_limits<int>::max());
            } else if (arg == "--out") {
                out_path = next();
            } else if (arg == "--check") {
                check_path = next();
            } else if (arg == "--tolerance") {
                tolerance = parseNumber<double>(arg, next());
            } else {
                std::cerr << "simbench: unknown argument " << arg
                          << "\n";
                return 2;
            }
        } catch (const std::invalid_argument &e) {
            std::cerr << "simbench: " << e.what() << "\n";
            return 2;
        }
    }
    // A tolerance >= 1 puts every floor at or below zero: a dead gate.
    if (!(tolerance >= 0.0 && tolerance < 1.0)) {
        std::cerr << "simbench: --tolerance must be in [0, 1) (got "
                  << tolerance << ")\n";
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
    const SystemConfig cfg = configs::byName("cdp+throttle");
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
                  << " cyc/s event-driven, " << r.visits
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
    SystemConfig hybridCfg = configs::byName("cdp+throttle");
    hybridCfg.engines = {"stream", "cdp", "isb"};
    const std::string hybrid_label = "stream+cdp+isb+coordinated";
    WorkloadResult hybrid = benchWorkload(hybridCfg, "health", reps);
    std::cerr << "simbench: hybrid(" << hybrid_label << ") "
              << hybrid.name << " speedup " << hybrid.speedup << "x, "
              << hybrid.eventDriven.cyclesPerSec
              << " cyc/s event-driven, " << hybrid.visits << " of "
              << hybrid.cycles << " cycles visited, identical="
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
        Baseline base;
        try {
            base = readBaseline(check_path);
        } catch (const std::exception &e) {
            std::cerr << e.what() << "\n";
            return 2;
        }
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
            if (it != base.visits.end() &&
                visitsRegressed(r.name, r.visits, it->second))
                failed = true;
        }
        if (visitsRegressed("hybrid", hybrid.visits, base.hybridVisits))
            failed = true;
        if (failed)
            return 1;
    }
    return 0;
}
