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
 * simulated cycles the event-driven loop actually visited), its
 * memory ticks and its core ticks (sim.memory_ticks, sim.core_ticks:
 * the ticks of the memory systems and of the cores), deterministic
 * figures independent of the machine. A fixed calibration loop,
 * timed in the same process, puts every cycles/sec on a
 * host-relative scale (relCyclesPerSec: simulated cycles per
 * calibration iteration). The output is machine-readable JSON
 * (schema BENCH_simbench/v7, see EXPERIMENTS.md).
 *
 * Besides the paper's two-slot stack, one run benchmarks a
 * three-engine hybrid (stream+cdp+isb under coordinated throttling)
 * on `health`: the N-engine stack walks more per-event state (one
 * feedback lane and counter scope per slot), so its event-driven
 * cycles/sec is the canary for regressions in the engine-stack
 * generalization that the two-slot numbers cannot see. One more runs
 * a four-core mix over the shared DRAM (the paper's Section 6.6
 * setup), whose counts show how often the scheduler wakes each core
 * and memory system; its cycles are the slowest core's.
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
 *   - every workload's, the hybrid's and the mix's loop visits,
 *     memory ticks and core ticks, exactly: more than the baseline
 *     means the wakeup bounds got looser.
 *
 * Usage:
 *   simbench [--quick] [--reps N] [--out FILE]
 *            [--check BASELINE.json] [--tolerance FRAC]
 *
 *   --quick      two workloads (and the hybrid and the mix), one
 *                rep: a ctest smoke that the harness and the identity
 *                oracle work at all.
 *   --check F    exit non-zero if any workload's stats diverge
 *                between modes, if the geometric-mean speedup drops
 *                below baseline * (1 - tolerance), if mst or hybrid
 *                event-driven relCyclesPerSec drops below its
 *                baseline * (1 - tolerance), or if any workload, the
 *                hybrid or the mix visits more cycles, or ticks its
 *                memory systems or cores more often, than its
 *                baseline entry.
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

/** The scheduler's deterministic counts of one event-driven run. */
struct Counts
{
    /** Cycles the event-driven loop visited (sim.loop_visits). */
    std::uint64_t visits = 0;
    /** Memory-system ticks, summed over cores (sim.memory_ticks). */
    std::uint64_t memoryTicks = 0;
    /** Core ticks, summed over cores (sim.core_ticks). */
    std::uint64_t coreTicks = 0;
};

struct WorkloadResult
{
    /** The workload, or a mix's members joined by '+'. */
    std::string name;
    /** The slowest core's cycles. */
    std::uint64_t cycles = 0;
    /** First-pass instructions, summed over cores. */
    std::uint64_t instructions = 0;
    Counts counts;
    ModeTiming percycle;
    ModeTiming eventDriven;
    double speedup = 0.0;
    bool identical = false;
};

/** Every core's stats JSON, concatenated. */
std::string
statsJson(const std::vector<RunStats> &perCore)
{
    std::ostringstream os;
    for (const RunStats &stats : perCore)
        writeRunStatsJson(os, stats, "simbench");
    return os.str();
}

/**
 * Time one (workloads, mode) pair: one untimed warm-up rep, observed
 * through @p warmup_obs, then @p reps timed reps summarized as
 * min/median/max.
 */
ModeTiming
timeMode(const SystemConfig &base,
         const std::vector<const Workload *> &workloads, bool skipping,
         int reps, double calib_iters_per_sec,
         std::vector<RunStats> &stats_out,
         const Observability &warmup_obs = {})
{
    SystemConfig cfg = base;
    cfg.cycleSkipping = skipping;
    // Warm-up, never timed.
    stats_out = simulateCores(cfg, workloads, warmup_obs);
    std::vector<double> secs(static_cast<std::size_t>(reps));
    for (double &s : secs) {
        auto t0 = std::chrono::steady_clock::now();
        std::vector<RunStats> stats = simulateCores(cfg, workloads);
        auto t1 = std::chrono::steady_clock::now();
        s = std::chrono::duration<double>(t1 - t0).count();
    }
    std::sort(secs.begin(), secs.end());
    ModeTiming t;
    t.wallSeconds = secs.front();
    t.wallMedian = secs[secs.size() / 2];
    t.wallMax = secs.back();
    Cycle cycles{};
    for (const RunStats &stats : stats_out)
        cycles = std::max(cycles, stats.cycles);
    t.cyclesPerSec =
        static_cast<double>(cycles.raw()) / flooredWall(t.wallSeconds);
    t.relCyclesPerSec = t.cyclesPerSec / calib_iters_per_sec;
    return t;
}

/** Benchmark @p names run together, one per core (one name: a
 *  single-core run). */
WorkloadResult
benchWorkloads(const SystemConfig &cfg,
               const std::vector<std::string> &names, int reps,
               double calib_iters_per_sec)
{
    std::vector<Workload> built;
    for (const std::string &name : names)
        built.push_back(buildWorkload(name, InputSet::Train));
    std::vector<const Workload *> workloads;
    for (const Workload &workload : built)
        workloads.push_back(&workload);
    WorkloadResult r;
    for (const std::string &name : names)
        r.name += (r.name.empty() ? "" : "+") + name;
    std::vector<RunStats> polled, skipped;
    obs::MetricRegistry registry;
    r.percycle = timeMode(cfg, workloads, false, reps,
                          calib_iters_per_sec, polled);
    r.eventDriven = timeMode(cfg, workloads, true, reps,
                             calib_iters_per_sec, skipped,
                             Observability{&registry});
    r.counts.visits = registry.value("sim.loop_visits");
    r.counts.memoryTicks = registry.value("sim.memory_ticks");
    r.counts.coreTicks = registry.value("sim.core_ticks");
    for (const RunStats &stats : skipped) {
        r.cycles = std::max(r.cycles, stats.cycles.raw());
        r.instructions += stats.instructions;
    }
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

/** One result object's fields after its opening brace, through its
 *  closing one; @p indent leads its continuation lines. */
void
writeResultJson(std::ostream &os, const WorkloadResult &r,
                const char *indent)
{
    os << "\"name\": \"" << jsonEscape(r.name)
       << "\", \"cycles\": " << r.cycles
       << ", \"instructions\": " << r.instructions
       << ", \"visits\": " << r.counts.visits
       << ", \"memoryTicks\": " << r.counts.memoryTicks
       << ", \"coreTicks\": " << r.counts.coreTicks << ",\n" << indent;
    writeModeJson(os, "percycle", r.percycle);
    os << ",\n" << indent;
    writeModeJson(os, "eventDriven", r.eventDriven);
    os << ",\n" << indent << "\"speedup\": " << r.speedup
       << ", \"identical\": " << (r.identical ? "true" : "false") << "}";
}

void
writeReport(std::ostream &os, const std::vector<WorkloadResult> &rs,
            const std::string &config_label, int reps,
            double calib_iters_per_sec, double gmean_speedup,
            const WorkloadResult &hybrid, const std::string &hybrid_label,
            const WorkloadResult &mix, const std::string &mix_label)
{
    os.precision(6);
    os << "{\n  \"schema\": \"BENCH_simbench/v7\",\n"
       << "  \"config\": \"" << jsonEscape(config_label) << "\",\n"
       << "  \"reps\": " << reps << ",\n"
       << "  \"calibration\": {\"iters\": " << kCalibrationIters
       << ", \"itersPerSec\": " << calib_iters_per_sec << "},\n"
       << "  \"workloads\": [\n";
    for (std::size_t i = 0; i < rs.size(); ++i) {
        os << "    {";
        writeResultJson(os, rs[i], "     ");
        os << (i + 1 < rs.size() ? "," : "") << "\n";
    }
    os << "  ],\n  \"gmeanSpeedup\": " << gmean_speedup << ",\n";
    // v3: the three-engine hybrid; v7: the four-core mix.
    os << "  \"hybrid\": {\"config\": \"" << jsonEscape(hybrid_label)
       << "\", ";
    writeResultJson(os, hybrid, "   ");
    os << ",\n  \"mix\": {\"config\": \"" << jsonEscape(mix_label)
       << "\", ";
    writeResultJson(os, mix, "   ");
    os << "\n}\n";
}

struct Baseline
{
    double gmeanSpeedup = 0.0;
    /** mst event-driven relCyclesPerSec; 0 when the baseline has no
     *  mst. */
    double mstEventRel = 0.0;
    /** Hybrid-stack event-driven relCyclesPerSec; 0 disables. */
    double hybridEventRel = 0.0;
    /** Event-driven counts by workload name, "hybrid" and "mix". */
    std::map<std::string, Counts> counts;
};

/** Baseline figures from a committed BENCH_simbench.json (v7). */
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
    if (doc.at("schema").asString() != "BENCH_simbench/v7") {
        throw std::runtime_error(
            "simbench: unexpected baseline schema (want "
            "BENCH_simbench/v7)");
    }
    auto counts = [](const JsonValue &entry) {
        auto count = [&entry](const char *key) {
            return static_cast<std::uint64_t>(entry.at(key).asDouble());
        };
        return Counts{count("visits"), count("memoryTicks"),
                      count("coreTicks")};
    };
    Baseline base;
    base.gmeanSpeedup = doc.at("gmeanSpeedup").asDouble();
    for (const JsonValue &w : doc.at("workloads").asArray()) {
        const std::string &name = w.at("name").asString();
        base.counts[name] = counts(w);
        if (name == "mst") {
            base.mstEventRel =
                w.at("eventDriven").at("relCyclesPerSec").asDouble();
        }
    }
    const JsonValue &hybrid = doc.at("hybrid");
    base.hybridEventRel =
        hybrid.at("eventDriven").at("relCyclesPerSec").asDouble();
    base.counts["hybrid"] = counts(hybrid);
    base.counts["mix"] = counts(doc.at("mix"));
    return base;
}

/** The scheduler-count gates of @p label: deterministic, so any
 *  growth over its baseline entry (if any) fails. */
bool
countsRegressed(const std::string &label, const Counts &counts,
                const Baseline &base)
{
    auto it = base.counts.find(label);
    if (it == base.counts.end())
        return false;
    bool failed = false;
    auto gate = [&](const char *what, std::uint64_t count,
                    std::uint64_t baseline) {
        if (count <= baseline)
            return;
        std::cerr << "simbench: FAIL — " << label << " " << what << " "
                  << count << ", baseline " << baseline << "\n";
        failed = true;
    };
    gate("visits", counts.visits, it->second.visits);
    gate("memory ticks", counts.memoryTicks, it->second.memoryTicks);
    gate("core ticks", counts.coreTicks, it->second.coreTicks);
    return failed;
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

    bool all_identical = true;
    auto bench = [&](const std::string &label, const SystemConfig &c,
                     const std::vector<std::string> &members) {
        WorkloadResult r = benchWorkloads(c, members, reps, calib);
        std::cerr << "simbench: " << label << " speedup " << r.speedup
                  << "x (" << r.percycle.wallSeconds << "s -> "
                  << r.eventDriven.wallSeconds << "s), "
                  << r.eventDriven.cyclesPerSec
                  << " cyc/s event-driven, " << r.counts.visits << " of "
                  << r.cycles << " cycles visited, "
                  << r.counts.memoryTicks << " memory ticks, "
                  << r.counts.coreTicks << " core ticks, identical="
                  << (r.identical ? "yes" : "NO") << "\n";
        all_identical = all_identical && r.identical;
        return r;
    };

    std::vector<WorkloadResult> results;
    std::vector<double> ratios;
    for (const std::string &name : names) {
        results.push_back(bench(name, cfg, {name}));
        ratios.push_back(results.back().speedup);
    }
    const double gmean_speedup = gmean(ratios);

    // v3 hybrid canary: a three-engine stack (third slot via the
    // registry) on health, so --check also guards the N-engine
    // dispatch path the two-slot matrix above never touches.
    SystemConfig hybridCfg = configs::byName("cdp+throttle");
    hybridCfg.engines = {"stream", "cdp", "isb"};
    const std::string hybrid_label = "stream+cdp+isb+coordinated";
    const WorkloadResult hybrid =
        bench("hybrid(" + hybrid_label + ") health", hybridCfg, {"health"});

    // v7 mix: four Olden cores on one DRAM, early finishers wrapping
    // around, so --check also gates how often the scheduler wakes
    // each core and memory system of a multi-core run.
    const WorkloadResult mix =
        bench("mix", cfg, {"bisort", "health", "perimeter", "voronoi"});

    std::ostringstream report;
    writeReport(report, results, config_label, reps, calib, gmean_speedup,
                hybrid, hybrid_label, mix, config_label);
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
        // The scheduler's counts are deterministic: any growth is a
        // wakeup bound that stopped skipping, on any machine.
        for (const WorkloadResult &r : results) {
            if (countsRegressed(r.name, r.counts, base))
                failed = true;
        }
        if (countsRegressed("hybrid", hybrid.counts, base))
            failed = true;
        if (countsRegressed("mix", mix.counts, base))
            failed = true;
        if (failed)
            return 1;
    }
    return 0;
}
