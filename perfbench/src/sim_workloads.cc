/**
 * @file
 * The two in-process workloads.
 *
 *   fig07-grid       the Fig. 7 / Table 6 grid (15 ref workloads x
 *                    {cdp, ecdp, cdp+throttle, full, baseline}) through
 *                    runner::ExperimentRunner with 4 jobs, in
 *                    fig07_table6_main's submission order.
 *   filtered-serial  15 ref workloads x {baseline, ecdp, full}, back to
 *                    back on the calling thread through
 *                    ExperimentContext::run, which calls simulate().
 *
 * One pass = set-up in a fresh ExperimentContext (workload builds and
 * hint profiling), the timed cells, then the "hit" passes: every cell
 * requested again, now answered from the context's result memo.
 * After one unmeasured warm-up pass, passes repeat while another fits
 * in --seconds.
 */

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include "layers.hh"
#include "obs/metrics.hh"
#include "runner/runner.hh"
#include "runner/thread_pool.hh"
#include "server/cell.hh"
#include "sim/experiment.hh"
#include "sim/simulator.hh"
#include "stats/stats.hh"
#include "workloads/workload.hh"

namespace perfbench
{

namespace
{

using namespace ecdp;

constexpr unsigned kGridJobs = 4;
/** Hit passes per pass: a hit takes about a microsecond, so its
 *  median needs many samples to be steady. */
constexpr unsigned kHitPasses = 8;

struct Cell
{
    std::string bench;
    /** configs::byName() / ecdpd name. */
    std::string config;
};

/** fig07_table6_main's grid, in its submission order (config-major). */
std::vector<Cell>
fig07Cells()
{
    std::vector<Cell> cells;
    for (const char *config :
         {"cdp", "ecdp", "cdp+throttle", "full", "baseline"})
        for (const std::string &name : pointerIntensiveNames())
            cells.push_back({name, config});
    return cells;
}

std::vector<Cell>
serialCells()
{
    std::vector<Cell> cells;
    for (const std::string &name : pointerIntensiveNames())
        for (const char *config : {"baseline", "ecdp", "full"})
            cells.push_back({name, config});
    return cells;
}

SystemConfig
makeConfig(ExperimentContext &ctx, const Cell &cell)
{
    return configs::byName(cell.config,
                           configs::nameNeedsHints(cell.config)
                               ? &ctx.hints(cell.bench)
                               : nullptr);
}

/** "bench config cycles instructions ipc bpki bus", all digits. */
std::string
referenceLine(const Cell &cell, const RunStats &stats)
{
    char line[512];
    std::snprintf(line, sizeof(line), "%s %s %llu %llu %.17g %.17g %llu",
                  cell.bench.c_str(), cell.config.c_str(),
                  static_cast<unsigned long long>(stats.cycles.raw()),
                  static_cast<unsigned long long>(stats.instructions),
                  stats.ipc, stats.bpki,
                  static_cast<unsigned long long>(stats.busTransactions));
    return line;
}

/** Per-cell expected outputs (perfbench/reference.txt). */
class Reference
{
  public:
    explicit Reference(const std::string &path)
    {
        std::ifstream in(path);
        if (!in)
            throw std::runtime_error("cannot read reference " + path);
        std::string line;
        while (std::getline(in, line)) {
            if (line.empty() || line[0] == '#')
                continue;
            std::istringstream fields(line);
            std::string bench, config;
            fields >> bench >> config;
            lines_[bench + " " + config] = line;
        }
    }

    bool matches(const Cell &cell, const RunStats &stats) const
    {
        auto it = lines_.find(cell.bench + " " + cell.config);
        return it != lines_.end() &&
               it->second == referenceLine(cell, stats);
    }

  private:
    std::map<std::string, std::string> lines_;
};

void
checkCell(Result &result, const Reference &reference, const Cell &cell,
          const RunStats *stats)
{
    const bool ok =
        stats && !stats->timedOut && reference.matches(cell, *stats);
    if (!ok) {
        std::cerr << "perfbench: " << cell.bench << "/" << cell.config
                  << " differs from the reference\n";
    }
    result.attempt(ok);
}

/** Builds every ref and train workload and profiles the hints. */
double
warmContext(ExperimentContext &ctx, SpanRecorder *spans)
{
    const Clock::time_point start = Clock::now();
    const std::vector<std::string> names = pointerIntensiveNames();
    for (std::uint32_t i = 0; i < names.size(); ++i) {
        {
            ScopedSpan span(spans, i, "workloads.build");
            ctx.ref(names[i]);
        }
        {
            ScopedSpan span(spans, i, "workloads.build");
            ctx.train(names[i]);
        }
        ScopedSpan span(spans, i, "compiler.profile");
        ctx.hints(names[i]);
    }
    return msSince(start) / 1e3;
}

/** One set-up + timed cells + hit passes. */
struct Pass
{
    double setupS = 0.0;
    double wallS = 0.0;
    std::uint64_t instructions = 0;
    std::vector<double> coldMs;
    std::vector<double> hitMs;
    /** Runner only: submit -> job start. */
    std::vector<double> queueMs;
    /** Per cell; owned by the pass's context. */
    std::vector<const RunStats *> stats;
};

/**
 * Hits: every cell requested again, one at a time, on the calling
 * thread — as fig07_table6_main reads its tables after the grid. The
 * context answers each from its result memo.
 */
void
hitPasses(ExperimentContext &ctx, const std::vector<Cell> &cells,
          Pass &pass, Result &result)
{
    for (unsigned p = 0; p < kHitPasses; ++p) {
        for (std::size_t i = 0; i < cells.size(); ++i) {
            const Clock::time_point t = Clock::now();
            const RunStats *stats = &ctx.run(
                cells[i].bench, makeConfig(ctx, cells[i]), cells[i].config);
            pass.hitMs.push_back(msSince(t));
            result.attempt(stats == pass.stats[i]);
        }
    }
}

Pass
gridPass(ExperimentContext &ctx, const std::vector<Cell> &cells,
         const Reference &reference, Result &result, SpanRecorder *spans)
{
    Pass pass;
    pass.setupS = warmContext(ctx, spans);
    const std::size_t n = cells.size();
    std::vector<Clock::time_point> submitted(n), started(n), configured(n);
    runner::ExperimentRunner runner(ctx, kGridJobs);
    runner.setProgressStream(nullptr);

    const Clock::time_point start = Clock::now();
    for (std::size_t i = 0; i < n; ++i) {
        submitted[i] = Clock::now();
        runner.submit(cells[i].bench, cells[i].config,
                      [&cells, &started, &configured,
                       i](ExperimentContext &c, const std::string &) {
                          started[i] = Clock::now();
                          SystemConfig cfg = makeConfig(c, cells[i]);
                          configured[i] = Clock::now();
                          return cfg;
                      });
    }
    const std::deque<runner::JobResult> &jobs = runner.wait();
    pass.wallS = msSince(start) / 1e3;

    for (std::size_t i = 0; i < n; ++i) {
        const runner::JobResult &job = jobs[i];
        checkCell(result, reference, cells[i], job.stats);
        pass.stats.push_back(job.stats);
        pass.instructions += job.stats ? job.stats->instructions : 0;
        pass.coldMs.push_back(job.wallMs);
        pass.queueMs.push_back(msBetween(submitted[i], started[i]));
        if (spans) {
            const Clock::time_point end =
                started[i] + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double, std::milli>(
                                     job.wallMs));
            const auto id = static_cast<std::uint32_t>(i);
            // The runner's self time is the cell's wait for a worker.
            const int parent =
                spans->record(id, "runner.job", submitted[i], end);
            spans->record(id, "sim.config", started[i], configured[i],
                          parent);
            spans->record(id, "sim.simulate", configured[i], end, parent);
        }
    }

    hitPasses(ctx, cells, pass, result);
    return pass;
}

Pass
serialPass(ExperimentContext &ctx, const std::vector<Cell> &cells,
           const Reference &reference, Result &result, SpanRecorder *spans)
{
    Pass pass;
    pass.setupS = warmContext(ctx, spans);
    const Clock::time_point start = Clock::now();
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const Clock::time_point t = Clock::now();
        ScopedSpan span(spans, static_cast<std::uint32_t>(i),
                        "sim.simulate");
        pass.stats.push_back(&ctx.run(
            cells[i].bench, makeConfig(ctx, cells[i]), cells[i].config));
        pass.coldMs.push_back(msSince(t));
    }
    pass.wallS = msSince(start) / 1e3;

    for (std::size_t i = 0; i < cells.size(); ++i) {
        checkCell(result, reference, cells[i], pass.stats[i]);
        pass.instructions += pass.stats[i]->instructions;
    }
    hitPasses(ctx, cells, pass, result);
    return pass;
}

using PassFn = Pass (*)(ExperimentContext &, const std::vector<Cell> &,
                        const Reference &, Result &, SpanRecorder *);

void
addEndToEnd(Result &result, const std::vector<Pass> &passes,
            std::size_t cells)
{
    std::vector<double> walls, setups, cellRates, instrRates, cold, hit;
    for (const Pass &pass : passes) {
        walls.push_back(pass.wallS);
        setups.push_back(pass.setupS);
        cellRates.push_back(double(cells) / pass.wallS);
        instrRates.push_back(double(pass.instructions) / 1e6 / pass.wallS);
        cold.insert(cold.end(), pass.coldMs.begin(), pass.coldMs.end());
        hit.insert(hit.end(), pass.hitMs.begin(), pass.hitMs.end());
    }
    result.add("wall_s", median(walls), "s");
    result.add("cells_per_s", median(cellRates), "1/s");
    result.add("minstr_per_s", median(instrRates), "Minstr/s");
    result.add("cold_p50_ms", quantile(cold, 0.5), "ms");
    result.add("cold_p90_ms", quantile(cold, 0.9), "ms");
    result.add("hit_p50_ms", quantile(hit, 0.5), "ms");
    result.add("setup_s", median(setups), "s");
    result.add("peak_rss_mb", peakRssMb(), "MiB");
    std::cout << "perfbench passes: " << passes.size() << ", cold samples "
              << cold.size() << ", hit samples " << hit.size()
              << ", wall_s";
    for (double wall : walls)
        std::cout << ' ' << wall;
    std::cout << std::endl;
}

/** fig07's gmean normalized IPC per config, beside the paper's. */
void
printGmeans(const std::vector<Cell> &cells, const Pass &pass)
{
    std::map<std::string, double> baseIpc;
    for (std::size_t i = 0; i < cells.size(); ++i)
        if (cells[i].config == "baseline")
            baseIpc[cells[i].bench] = pass.stats[i]->ipc;
    std::map<std::string, std::vector<double>> ratios;
    for (std::size_t i = 0; i < cells.size(); ++i)
        if (cells[i].config != "baseline")
            ratios[cells[i].config].push_back(pass.stats[i]->ipc /
                                              baseIpc[cells[i].bench]);
    const std::map<std::string, std::string> paper = {
        {"cdp", "0.86"}, {"full", "1.225"}};
    std::cout << "perfbench fig07 gmean IPC / baseline (paper's figure "
                 "in parentheses; synthetic workloads, model not validated "
                 "against hardware):";
    for (const char *config : {"cdp", "ecdp", "cdp+throttle", "full"}) {
        auto it = paper.find(config);
        std::cout << ' ' << config << ' ' << gmean(ratios[config]) << " ("
                  << (it == paper.end() ? "-" : it->second) << ")";
    }
    std::cout << std::endl;
}

/** Registry counts of every cell, summed; simulated with 4 threads. */
struct Counts
{
    std::map<std::string, std::uint64_t> sum;
    std::uint64_t cycles = 0;
    std::uint64_t instructions = 0;
    /** Fills a CDP engine scans: demand misses and LDS fills. */
    std::uint64_t cdpScans = 0;
};

Counts
countPass(ExperimentContext &ctx, const std::vector<Cell> &cells,
          const Reference &reference, Result &result)
{
    const std::size_t n = cells.size();
    std::vector<RunStats> stats(n);
    std::vector<std::vector<std::pair<std::string, std::uint64_t>>>
        counters(n);
    runner::ThreadPool pool(kGridJobs);
    for (std::size_t i = 0; i < n; ++i) {
        pool.submit([&, i] {
            obs::MetricRegistry registry;
            stats[i] = simulate(makeConfig(ctx, cells[i]),
                                ctx.ref(cells[i].bench),
                                Observability{&registry});
            counters[i] = registry.sorted();
        });
    }
    pool.wait();

    Counts counts;
    for (std::size_t i = 0; i < n; ++i) {
        // Observed runs must equal the unobserved reference.
        checkCell(result, reference, cells[i], &stats[i]);
        counts.cycles += stats[i].cycles.raw();
        counts.instructions += stats[i].instructions;
        std::map<std::string, std::uint64_t> cell;
        for (const auto &[path, value] : counters[i]) {
            const std::string name =
                path.rfind("core0.", 0) == 0 ? path.substr(6) : path;
            cell[name] += value;
            counts.sum[name] += value;
            // Throttle counters sit under the policy's name.
            if (name.rfind("throttle.", 0) == 0) {
                if (name.ends_with(".intervals"))
                    counts.sum["throttle.all.intervals"] += value;
                if (name.ends_with(".decisions.down"))
                    counts.sum["throttle.all.decisions.down"] += value;
            }
        }
        if (cells[i].config != "baseline")
            counts.cdpScans +=
                cell["l2.demand_misses"] + cell["pf.lds.filled"];
    }
    return counts;
}

double
sum(const std::vector<double> &values)
{
    return std::accumulate(values.begin(), values.end(), 0.0);
}

double
maxOf(const std::vector<double> &values)
{
    return values.empty() ? 0.0
                          : *std::max_element(values.begin(), values.end());
}

int
tracedRun(const Options &opts, Result &result,
          const std::vector<Cell> &cells, PassFn passFn, bool usesRunner)
{
    const Reference reference(opts.reference);
    // Untraced passes before and after the traced one: the first pass
    // of a process is slower, so one untraced pass alone would bias the
    // tracing overhead.
    auto untracedWallS = [&] {
        ExperimentContext ctx;
        return passFn(ctx, cells, reference, result, nullptr).wallS;
    };
    double untracedS = untracedWallS();
    SpanRecorder spans;
    ExperimentContext ctx;
    const Pass pass = passFn(ctx, cells, reference, result, &spans);
    untracedS = (untracedS + untracedWallS()) / 2.0;

    // The JSON serialisation ecdpd stores for each cell.
    std::vector<double> jsonUs;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        server::CellSpec spec;
        spec.bench = cells[i].bench;
        spec.config = cells[i].config;
        const Clock::time_point t = Clock::now();
        ScopedSpan span(&spans, static_cast<std::uint32_t>(i),
                        "stats.json");
        result.attempt(!server::cellStatsJson(spec, *pass.stats[i]).empty());
        jsonUs.push_back(msSince(t) * 1e3);
    }

    const Counts counts = countPass(ctx, cells, reference, result);
    const LayerCosts costs = measureLayers(ctx, pointerIntensiveNames());
    auto count = [&](const std::string &name) -> double {
        auto it = counts.sum.find(name);
        return it == counts.sum.end() ? 0.0 : double(it->second);
    };

    const std::map<std::string, std::vector<double>> durations =
        spans.durationsMs();
    auto spanMs = [&](const char *name) {
        auto it = durations.find(name);
        return it == durations.end() ? std::vector<double>{} : it->second;
    };
    const std::vector<double> simulateMs = spanMs("sim.simulate");
    const double simulateSumMs = sum(simulateMs);
    const std::map<std::string, double> self = spans.selfMs();
    auto selfMs = [&](const char *name) {
        auto it = self.find(name);
        return it == self.end() ? 0.0 : it->second;
    };

    LayerValues v;
    v["workloads.build_ms"] = sum(spanMs("workloads.build"));
    v["compiler.profile_ms"] = sum(spanMs("compiler.profile"));
    v["sim.simulate_ms.p50"] = median(simulateMs);
    v["sim.simulate_ms.max"] = maxOf(simulateMs);
    v["sim.ns_per_instr"] = simulateSumMs * 1e6 / double(counts.instructions);
    v["sim.ns_per_cycle"] = simulateSumMs * 1e6 / double(counts.cycles);
    v["sim.cycles"] = double(counts.cycles);
    v["sim.instructions"] = double(counts.instructions);

    const double probes = count("demand_loads") +
                          count("l2.demand_accesses") +
                          count("mshr.allocations");
    const double modelMs =
        (costs.coreNsPerInstr * double(counts.instructions) +
         costs.probeNs * probes +
         costs.mshrOpNs *
             (count("mshr.allocations") + count("l2.mshr_merges")) +
         costs.cdpScanNs * double(counts.cdpScans) +
         costs.dramReadNs * count("dram.reads")) /
        1e6;
    v["sim.model_ms"] = modelMs;
    v["sim.residual_ms"] = simulateSumMs - modelMs;

    v["core.demand_loads"] = count("demand_loads");
    v["core.tick_ns"] = costs.coreTickNs;
    v["core.ns_per_instr"] = costs.coreNsPerInstr;
    v["cache.l2_accesses"] = count("l2.demand_accesses");
    v["cache.l2_hit_ratio"] =
        safeRatio(count("l2.demand_hits"), count("l2.demand_accesses"));
    v["cache.probe_ns"] = costs.probeNs;
    v["cache.mshr_allocations"] = count("mshr.allocations");
    v["cache.mshr_merges"] = count("l2.mshr_merges");
    v["cache.mshr_stall_cycles"] = count("mshr.demand_stall_cycles");
    v["cache.mshr_op_ns"] = costs.mshrOpNs;
    for (const char *slot : {"primary", "lds"}) {
        const std::string in = std::string("pf.") + slot + ".";
        const std::string out = std::string("prefetch.") + slot + ".";
        v[out + "generated"] = count(in + "generated");
        v[out + "issued"] = count(in + "issued");
        v[out + "used"] = count(in + "used");
        v[out + "dropped_queue_full"] = count(in + "dropped.queue_full");
    }
    v["prefetch.lds.accuracy"] =
        safeRatio(count("pf.lds.used"), count("pf.lds.issued"));
    v["prefetch.lds.issue_ratio"] =
        safeRatio(count("pf.lds.issued"), count("pf.lds.generated"));
    v["prefetch.cdp_scans"] = double(counts.cdpScans);
    v["prefetch.cdp_scan_ns"] = costs.cdpScanNs;
    v["dram.reads"] = count("dram.reads");
    v["dram.bank_conflicts"] = count("dram.bank_conflicts");
    v["dram.buffer_rejects"] = count("dram.buffer_rejects");
    v["dram.read_ns"] = costs.dramReadNs;
    v["throttle.intervals"] = count("throttle.all.intervals");
    v["throttle.decisions_down"] = count("throttle.all.decisions.down");

    if (usesRunner) {
        const double jobSumMs = sum(pass.coldMs);
        v["runner.queue_wait_ms.p50"] = median(pass.queueMs);
        v["runner.queue_wait_ms.max"] = maxOf(pass.queueMs);
        v["runner.job_ms.max"] = maxOf(pass.coldMs);
        v["runner.job_sum_s"] = jobSumMs / 1e3;
        v["runner.parallel_efficiency"] =
            jobSumMs / 1e3 / (kGridJobs * pass.wallS);
        const std::size_t slowest = static_cast<std::size_t>(
            std::max_element(pass.coldMs.begin(), pass.coldMs.end()) -
            pass.coldMs.begin());
        std::cout << "perfbench critical path: " << cells[slowest].bench
                  << "/" << cells[slowest].config << " "
                  << pass.coldMs[slowest] << " ms of " << pass.wallS * 1e3
                  << " ms wall" << std::endl;
    }
    v["stats.json_us"] = sum(jsonUs) / double(jsonUs.size());
    v["workloads.self_ms"] = selfMs("workloads.build");
    v["compiler.self_ms"] = selfMs("compiler.profile");
    v["runner.self_ms"] = selfMs("runner.job");
    v["sim.self_ms"] = selfMs("sim.simulate") + selfMs("sim.config");
    v["stats.self_ms"] = selfMs("stats.json");
    v["trace.spans"] = double(spans.size());
    v["trace.overhead_s"] = pass.wallS - untracedS;
    addLayerMetrics(result, v);
    return 0;
}

int
runWorkload(const Options &opts, Result &result,
            const std::vector<Cell> &cells, PassFn passFn, bool usesRunner)
{
    if (opts.trace)
        return tracedRun(opts, result, cells, passFn, usesRunner);
    const Reference reference(opts.reference);
    std::vector<Pass> passes;
    const Clock::time_point start = Clock::now();
    // The first pass of a process runs slower (page faults, cold
    // allocator): it is checked but not measured. Further passes start
    // only while one more fits in --seconds.
    double passMs = 0.0;
    for (bool warmUp = true;
         passes.empty() || msSince(start) + passMs <= opts.seconds * 1e3;
         warmUp = false) {
        const Clock::time_point passStart = Clock::now();
        ExperimentContext ctx;
        Pass pass = passFn(ctx, cells, reference, result, nullptr);
        if (usesRunner && warmUp)
            printGmeans(cells, pass);
        // The stats die with the context.
        pass.stats.clear();
        if (!warmUp)
            passes.push_back(std::move(pass));
        passMs = msSince(passStart);
    }
    addEndToEnd(result, passes, cells.size());
    return 0;
}

} // namespace

int
runFig07Grid(const Options &opts, Result &result)
{
    return runWorkload(opts, result, fig07Cells(), gridPass, true);
}

int
runFilteredSerial(const Options &opts, Result &result)
{
    return runWorkload(opts, result, serialCells(), serialPass, false);
}

int
writeReference(const Options &opts)
{
    ExperimentContext ctx;
    const std::vector<Cell> cells = fig07Cells();
    runner::ExperimentRunner runner(ctx, kGridJobs);
    runner.setProgressStream(nullptr);
    for (const Cell &cell : cells)
        runner.submit(cell.bench, cell.config,
                      [cell](ExperimentContext &c, const std::string &) {
                          return makeConfig(c, cell);
                      });
    const std::deque<runner::JobResult> &jobs = runner.wait();
    std::ofstream out(opts.reference);
    out << "# bench config cycles instructions ipc bpki bus_transactions\n"
           "# Expected outputs of every fig07-grid and filtered-serial "
           "cell; perfbench reference --reference <file> rewrites it.\n";
    for (std::size_t i = 0; i < cells.size(); ++i)
        out << referenceLine(cells[i], *jobs[i].stats) << '\n';
    return out ? 0 : 1;
}

} // namespace perfbench
