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
 * attached and reports its loop visits (the sim.loop_visits counter:
 * simulated cycles the event-driven loop actually visited) and its
 * memory ticks (sim.memory_ticks: the visits at which the memory
 * system ticked), deterministic figures independent of the machine.
 * A fixed calibration loop, timed in the same process, puts every
 * cycles/sec on a host-relative scale (relCyclesPerSec: simulated
 * cycles per calibration iteration). The output is machine-readable
 * JSON (schema BENCH_simbench/v6, see EXPERIMENTS.md).
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
 *   - `mst` event-driven cycles/sec relative to the calibration loop
 *     (the ratio tracks the host's speed, but not perfectly, hence
 *     the generous tolerance): mst floods its prefetch queue, so its
 *     cycles/sec is the canary for per-event-cost regressions that
 *     the speedup ratio is blind to — a slowdown hitting both modes
 *     equally leaves the ratio unchanged — and the hybrid's
 *     likewise, and
 *   - every workload's and the hybrid's loop visits and memory
 *     ticks, exactly: more than the baseline means the wakeup bounds
 *     got looser.
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
 *                event-driven relCyclesPerSec drops below its
 *                baseline * (1 - tolerance), or if any workload or
 *                the hybrid visits more cycles, or ticks its memory
 *                system more often, than its baseline entry.
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

/** Iterations of the calibration loop. */
constexpr std::uint64_t kCalibrationIters = std::uint64_t{1} << 24;

/**
 * The host-speed reference: the fastest of @p reps timings (after
 * one untimed warm-up) of a fixed loop of dependent loads from a
 * 64 KiB table and integer mixing, the kind of work a simulated
 * cycle does. Returns its iterations per second.
 */
double
calibrationItersPerSec(int reps)
{
    std::vector<std::uint32_t> table(std::size_t{1} << 14);
    for (std::size_t i = 0; i < table.size(); ++i)
        table[i] = static_cast<std::uint32_t>(i * 2654435761u);
    const std::uint64_t mask = table.size() - 1;
    double best = 0.0;
    for (int rep = 0; rep <= reps; ++rep) {
        std::uint64_t x = 1;
        auto t0 = std::chrono::steady_clock::now();
        for (std::uint64_t i = 0; i < kCalibrationIters; ++i) {
            x ^= table[x & mask];
            x *= 0x9e3779b97f4a7c15ull;
            x ^= x >> 29;
        }
        auto t1 = std::chrono::steady_clock::now();
        // Keep the chain's result alive so the loop is not elided.
        volatile std::uint64_t sink = x;
        (void)sink;
        const double secs = std::chrono::duration<double>(t1 - t0).count();
        if (rep > 0 && (best == 0.0 || secs < best))
            best = secs;
    }
    return static_cast<double>(kCalibrationIters) / flooredWall(best);
}

struct ModeTiming
{
    /** Minimum over the timed reps (after one untimed warm-up). */
    double wallSeconds = 0.0;
    double wallMedian = 0.0;
    double wallMax = 0.0;
    double cyclesPerSec = 0.0;
    /** cyclesPerSec over the calibration loop's iterations/sec. */
    double relCyclesPerSec = 0.0;
};

struct WorkloadResult
{
    std::string name;
    std::uint64_t cycles = 0;
    std::uint64_t instructions = 0;
    /** Event-driven loop iterations (sim.loop_visits). */
    std::uint64_t visits = 0;
    /** Event-driven visits that ticked memory (sim.memory_ticks). */
    std::uint64_t memoryTicks = 0;
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
         bool skipping, int reps, double calib_iters_per_sec,
         RunStats &stats_out, const Observability &warmup_obs = {})
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
    t.relCyclesPerSec = t.cyclesPerSec / calib_iters_per_sec;
    return t;
}

WorkloadResult
benchWorkload(const SystemConfig &cfg, const std::string &name,
              int reps, double calib_iters_per_sec)
{
    const Workload workload = buildWorkload(name, InputSet::Train);
    WorkloadResult r;
    r.name = name;
    RunStats polled, skipped;
    obs::MetricRegistry registry;
    r.percycle =
        timeMode(cfg, workload, false, reps, calib_iters_per_sec, polled);
    r.eventDriven = timeMode(cfg, workload, true, reps,
                             calib_iters_per_sec, skipped,
                             Observability{&registry});
    r.visits = registry.value("sim.loop_visits");
    r.memoryTicks = registry.value("sim.memory_ticks");
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
       << ", \"cyclesPerSec\": " << t.cyclesPerSec
       << ", \"relCyclesPerSec\": " << t.relCyclesPerSec << "}";
}

void
writeReport(std::ostream &os, const std::vector<WorkloadResult> &rs,
            const std::string &config_label, int reps,
            double calib_iters_per_sec, double gmean_speedup)
{
    os.precision(6);
    os << "{\n  \"schema\": \"BENCH_simbench/v6\",\n"
       << "  \"config\": \"" << jsonEscape(config_label) << "\",\n"
       << "  \"reps\": " << reps << ",\n"
       << "  \"calibration\": {\"iters\": " << kCalibrationIters
       << ", \"itersPerSec\": " << calib_iters_per_sec << "},\n"
       << "  \"workloads\": [\n";
    for (std::size_t i = 0; i < rs.size(); ++i) {
        const WorkloadResult &r = rs[i];
        os << "    {\"name\": \"" << jsonEscape(r.name)
           << "\", \"cycles\": " << r.cycles
           << ", \"instructions\": " << r.instructions
           << ", \"visits\": " << r.visits
           << ", \"memoryTicks\": " << r.memoryTicks << ",\n     ";
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
       << ", \"visits\": " << r.visits
       << ", \"memoryTicks\": " << r.memoryTicks << ",\n   ";
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
    /** mst event-driven relCyclesPerSec; 0 when the baseline has no
     *  mst. */
    double mstEventRel = 0.0;
    /** Hybrid-stack event-driven relCyclesPerSec; 0 disables. */
    double hybridEventRel = 0.0;
    /** Event-driven loop visits and memory ticks by workload name. */
    std::map<std::string, std::uint64_t> visits;
    std::map<std::string, std::uint64_t> memoryTicks;
    /** The hybrid's event-driven loop visits and memory ticks. */
    std::uint64_t hybridVisits = 0;
    std::uint64_t hybridMemoryTicks = 0;
};

/** Baseline figures from a committed BENCH_simbench.json (v6). */
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
    if (doc.at("schema").asString() != "BENCH_simbench/v6") {
        throw std::runtime_error(
            "simbench: unexpected baseline schema (want "
            "BENCH_simbench/v6)");
    }
    auto count = [](const JsonValue &entry, const char *key) {
        return static_cast<std::uint64_t>(entry.at(key).asDouble());
    };
    Baseline base;
    base.gmeanSpeedup = doc.at("gmeanSpeedup").asDouble();
    for (const JsonValue &w : doc.at("workloads").asArray()) {
        const std::string &name = w.at("name").asString();
        base.visits[name] = count(w, "visits");
        base.memoryTicks[name] = count(w, "memoryTicks");
        if (name == "mst") {
            base.mstEventRel =
                w.at("eventDriven").at("relCyclesPerSec").asDouble();
        }
    }
    const JsonValue &hybrid = doc.at("hybrid");
    base.hybridEventRel =
        hybrid.at("eventDriven").at("relCyclesPerSec").asDouble();
    base.hybridVisits = count(hybrid, "visits");
    base.hybridMemoryTicks = count(hybrid, "memoryTicks");
    return base;
}

/** A scheduler-count gate (@p what is "visits" or "memory ticks"):
 *  deterministic, so any growth fails. */
bool
countRegressed(const std::string &label, const char *what,
               std::uint64_t count, std::uint64_t baseline)
{
    if (count <= baseline)
        return false;
    std::cerr << "simbench: FAIL — " << label << " " << what << " "
              << count << " cycles, baseline " << baseline << "\n";
    return true;
}

/** A host-relative cycles/sec floor; a zero baseline disables it. */
bool
rateRegressed(const std::string &label, double rel, double baseline,
              double tolerance)
{
    if (baseline <= 0.0)
        return false;
    const double floor = baseline * (1.0 - tolerance);
    std::cerr << "simbench: " << label << " " << rel
              << " cycles per calibration iteration vs baseline "
              << baseline << " (floor " << floor << ")\n";
    if (rel >= floor)
        return false;
    std::cerr << "simbench: FAIL — " << label
              << " per-event cost regressed beyond "
              << tolerance * 100.0 << "% tolerance\n";
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

    const double calib = calibrationItersPerSec(reps);
    std::cerr << "simbench: calibration " << calib << " iterations/s\n";

    // A representative hybrid config: stream + CDP under coordinated
    // throttling exercises the feedback-interval machinery too.
    const SystemConfig cfg = configs::byName("cdp+throttle");
    const std::string config_label = "stream+cdp+throttle";

    std::vector<WorkloadResult> results;
    std::vector<double> ratios;
    bool all_identical = true;
    for (const std::string &name : names) {
        WorkloadResult r = benchWorkload(cfg, name, reps, calib);
        std::cerr << "simbench: " << r.name << " speedup " << r.speedup
                  << "x (" << r.percycle.wallSeconds << "s -> "
                  << r.eventDriven.wallSeconds << "s), "
                  << r.eventDriven.cyclesPerSec
                  << " cyc/s event-driven, " << r.visits
                  << " of " << r.cycles << " cycles visited, "
                  << r.memoryTicks << " memory ticks, identical="
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
    WorkloadResult hybrid =
        benchWorkload(hybridCfg, "health", reps, calib);
    std::cerr << "simbench: hybrid(" << hybrid_label << ") "
              << hybrid.name << " speedup " << hybrid.speedup << "x, "
              << hybrid.eventDriven.cyclesPerSec
              << " cyc/s event-driven, " << hybrid.visits << " of "
              << hybrid.cycles << " cycles visited, "
              << hybrid.memoryTicks << " memory ticks, identical="
              << (hybrid.identical ? "yes" : "NO") << "\n";
    all_identical = all_identical && hybrid.identical;

    std::ostringstream report;
    writeReport(report, results, config_label, reps, calib, gmean_speedup);
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

        // Per-event-cost canaries, host-relative: mst's flood, and
        // the three-engine hybrid stack, whose N-engine dispatch path
        // neither the gmean ratio nor the mst floor sees.
        for (const WorkloadResult &r : results) {
            if (r.name == "mst" &&
                rateRegressed("mst", r.eventDriven.relCyclesPerSec,
                              base.mstEventRel, tolerance))
                failed = true;
        }
        if (rateRegressed("hybrid", hybrid.eventDriven.relCyclesPerSec,
                          base.hybridEventRel, tolerance))
            failed = true;
        // Loop visits and memory ticks are deterministic: any growth
        // is a scheduler bound that stopped skipping, on any machine.
        for (const WorkloadResult &r : results) {
            auto v = base.visits.find(r.name);
            if (v != base.visits.end() &&
                countRegressed(r.name, "visits", r.visits, v->second))
                failed = true;
            auto m = base.memoryTicks.find(r.name);
            if (m != base.memoryTicks.end() &&
                countRegressed(r.name, "memory ticks", r.memoryTicks,
                               m->second))
                failed = true;
        }
        if (countRegressed("hybrid", "visits", hybrid.visits,
                           base.hybridVisits))
            failed = true;
        if (countRegressed("hybrid", "memory ticks", hybrid.memoryTicks,
                           base.hybridMemoryTicks))
            failed = true;
        if (failed)
            return 1;
    }
    return 0;
}
