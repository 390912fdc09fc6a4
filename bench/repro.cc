/**
 * @file
 * repro — regenerates the paper's tables and figures (DESIGN.md §3,
 * the experiment index). Every figure is one entry of a table: the
 * benchmarks it covers, the cells it reads and a print routine.
 *
 *   repro                       every figure, in table order
 *   repro --figure ID [...]     only the named figures (table order)
 *   repro --list                the figure ids
 *
 * A cell is a server::CellSpec — a configs::byName name plus the
 * ecdpd overrides — resolved by makeCellConfig, the resolver ecdpsim
 * and ecdpd use. The few knobs CellSpec cannot spell (ECDP depth,
 * compare bits, A_low/A_high, hints profiled differently) are a
 * figure-local tweak of the resolved config.
 *
 * The selected figures' cells on their benchmarks, each unique one
 * once, and their multi-core mixes (Figs. 14 and 15) form one job
 * list, run on one ThreadPool (ECDP_JOBS workers) into one
 * ExperimentContext, so each unique (benchmark, configuration) runs
 * and profiles once per process. Each finished job writes a progress
 * line to stderr. The figures then print serially from the memo, so
 * stdout is byte-identical for any ECDP_JOBS, and a figure prints the
 * same bytes alone or next to others.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <exception>
#include <functional>
#include <iostream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "cache/cache.hh"
#include "cache/mshr.hh"
#include "compiler/profiling_compiler.hh"
#include "memsim/thread_annotations.hh"
#include "prefetch/dbp.hh"
#include "prefetch/ghb_prefetcher.hh"
#include "prefetch/hardware_filter.hh"
#include "prefetch/markov_prefetcher.hh"
#include "prefetch/stream_prefetcher.hh"
#include "runner/thread_pool.hh"
#include "server/cell.hh"
#include "sim/experiment.hh"
#include "stats/stats.hh"
#include "stats/table.hh"
#include "workloads/workload.hh"

using namespace ecdp;

namespace
{

using server::CellSpec;
using Names = std::vector<std::string>;

/** Adjusts a resolved config where CellSpec has no field for it. */
using Tweak = std::function<void(SystemConfig &, ExperimentContext &,
                                 const std::string &bench)>;

/** One configuration a figure reads, run on each of its benchmarks. */
struct Cell
{
    CellSpec spec;
    /** Names the tweak in the cell's label; empty without one. */
    std::string tweakName;
    Tweak tweak;

    /** Progress-line and trace label ("cdp+filter{static}"). */
    std::string label() const
    {
        const std::string base = server::cellLabel(spec);
        return tweakName.empty() ? base : base + "/" + tweakName;
    }

    SystemConfig resolve(ExperimentContext &ctx,
                         const std::string &bench) const
    {
        CellSpec at = spec;
        at.bench = bench;
        SystemConfig cfg = server::makeCellConfig(
            at, server::cellNeedsHints(at) ? &ctx.hints(bench)
                                           : nullptr);
        if (tweak)
            tweak(cfg, ctx, bench);
        return cfg;
    }
};

Cell
named(std::string config)
{
    Cell cell;
    cell.spec.config = std::move(config);
    return cell;
}

/** @p config under the static (never adapting) throttle policy. */
Cell
unthrottled(std::string config)
{
    Cell cell = named(std::move(config));
    cell.spec.throttlePolicy = "static";
    return cell;
}

/** The run of @p cell on @p bench: a memo hit once the grid ran. */
const RunStats &
run(ExperimentContext &ctx, const std::string &bench, const Cell &cell)
{
    return ctx.run(bench, cell.resolve(ctx, bench), cell.label());
}

/** Geometric-mean IPC of @p cell over @p base across @p names. */
double
gmeanSpeedup(ExperimentContext &ctx, const Names &names,
             const Cell &cell, const Cell &base)
{
    std::vector<double> ratios;
    for (const std::string &name : names)
        ratios.push_back(run(ctx, name, cell).ipc /
                         run(ctx, name, base).ipc);
    return gmean(ratios);
}

/** Names without the `health` outlier (the paper reports both). */
Names
withoutHealth(Names names)
{
    std::erase(names, "health");
    return names;
}

/** One entry of the figure table. */
struct Figure
{
    /** What `--figure` selects it by. */
    const char *id;
    Names benches;
    /** Simulated on every benchmark, and on every mix, before any
     *  figure prints (a mix runs the cell's spec; no tweak). */
    std::vector<Cell> cells;
    std::function<void(ExperimentContext &, const Names &)> print;
    /** Multi-core mixes, one benchmark per core. */
    std::vector<Names> mixes = {};
};

// ---------------------------------------------------------------
// Table shapes several figures share.

/**
 * IPC of each column normalized to @p base, with gmean and
 * gmean-no-health rows, then BPKI with the baseline first (Figs. 7,
 * 11 and 12).
 */
void
printNormalized(ExperimentContext &ctx, const Names &names,
                const std::string &perfTitle,
                const std::string &bwTitle, const Names &headers,
                const Cell &base, const std::vector<Cell> &columns)
{
    TablePrinter perf(perfTitle);
    Names perfHeader{"bench"};
    perfHeader.insert(perfHeader.end(), headers.begin(), headers.end());
    perf.header(perfHeader);
    TablePrinter bw(bwTitle);
    Names bwHeader{"bench", "base"};
    bwHeader.insert(bwHeader.end(), headers.begin(), headers.end());
    bw.header(bwHeader);

    for (const std::string &name : names) {
        const RunStats &b = run(ctx, name, base);
        auto &prow = perf.row().cell(name);
        auto &brow = bw.row().cell(name).cell(b.bpki, 1);
        for (const Cell &column : columns) {
            const RunStats &s = run(ctx, name, column);
            prow.cell(s.ipc / b.ipc, 3);
            brow.cell(s.bpki, 1);
        }
    }
    for (const char *label : {"gmean", "gmean-no-health"}) {
        const Names set = std::string(label) == "gmean"
                              ? names
                              : withoutHealth(names);
        auto &row = perf.row().cell(label);
        for (const Cell &column : columns)
            row.cell(gmeanSpeedup(ctx, set, column, base), 3);
    }
    perf.print(std::cout);
    std::cout << '\n';
    bw.print(std::cout);
}

/**
 * Two configurations side by side: IPC of each over @p base, then
 * their BPKI, with a gmean row (Fig. 13, Secs. 7.1 and 7.4).
 */
void
printComparison(ExperimentContext &ctx, const Names &names,
                const std::string &title, const Names &header,
                const Cell &base, const Cell &a, const Cell &b,
                bool noHealthRow)
{
    TablePrinter table(title);
    table.header(header);
    for (const std::string &name : names) {
        const RunStats &s0 = run(ctx, name, base);
        const RunStats &sa = run(ctx, name, a);
        const RunStats &sb = run(ctx, name, b);
        table.row()
            .cell(name)
            .cell(sa.ipc / s0.ipc, 3)
            .cell(sb.ipc / s0.ipc, 3)
            .cell(sa.bpki, 1)
            .cell(sb.bpki, 1);
    }
    auto gmeanRow = [&](const char *label, const Names &set) {
        table.row()
            .cell(label)
            .cell(gmeanSpeedup(ctx, set, a, base), 3)
            .cell(gmeanSpeedup(ctx, set, b, base), 3)
            .cell("-")
            .cell("-");
    };
    gmeanRow("gmean", names);
    if (noHealthRow)
        gmeanRow("gmean-no-health", withoutHealth(names));
    table.print(std::cout);
}

/**
 * One table per prefetcher slot (CDP on top, stream below) of a
 * per-engine metric under each column, with an amean row (Figs. 8
 * and 9).
 */
void
printPerSlot(ExperimentContext &ctx, const Names &names,
             const std::string &topTitle,
             const std::string &bottomTitle,
             const std::vector<Cell> &columns,
             double (RunStats::*metric)(unsigned) const)
{
    for (unsigned which : {1u, 0u}) {
        TablePrinter table(which == 1 ? topTitle : bottomTitle);
        Names header{"bench"};
        for (const Cell &column : columns)
            header.push_back(column.spec.config);
        table.header(header);
        std::vector<std::vector<double>> values(columns.size());
        for (const std::string &name : names) {
            auto &row = table.row().cell(name);
            for (std::size_t c = 0; c < columns.size(); ++c) {
                const double v =
                    (run(ctx, name, columns[c]).*metric)(which);
                values[c].push_back(v);
                row.cell(v, 3);
            }
        }
        auto &mean_row = table.row().cell("amean");
        for (const auto &column : values)
            mean_row.cell(amean(column), 3);
        table.print(std::cout);
        std::cout << '\n';
    }
}

/**
 * Weighted speedup and bus traffic of multi-core @p mixes under each
 * of @p columns (the first is the baseline), Figs. 14 and 15, read
 * from the memo that main() filled.
 */
void
printMixes(ExperimentContext &ctx, const std::vector<Names> &mixes,
           const std::string &figure, const std::string &cores,
           const std::vector<Cell> &columns)
{
    Names header{"mix", "base"};
    for (std::size_t c = 1; c < columns.size(); ++c)
        header.push_back(columns[c].spec.config);
    TablePrinter ws(figure + ": " + cores + " weighted speedup");
    ws.header(header);
    TablePrinter bus(figure + ": " + cores + " bus transactions (k)");
    bus.header(header);

    std::vector<std::vector<double>> ws_cols(columns.size());
    std::vector<std::vector<double>> hm_cols(columns.size());
    std::vector<std::vector<double>> bus_cols(columns.size());
    for (const Names &mix : mixes) {
        auto &wrow = ws.row().cell(mixName(mix));
        auto &brow = bus.row().cell(mixName(mix));
        for (std::size_t c = 0; c < columns.size(); ++c) {
            const MultiCoreResult &result =
                server::runMix(columns[c].spec, mix, ctx);
            ws_cols[c].push_back(result.weightedSpeedup);
            hm_cols[c].push_back(result.hmeanSpeedup);
            bus_cols[c].push_back(
                static_cast<double>(result.busTransactions));
            wrow.cell(result.weightedSpeedup, 3);
            brow.cell(static_cast<double>(result.busTransactions) /
                          1000.0,
                      1);
        }
    }
    auto &wmean = ws.row().cell("amean");
    auto &bmean = bus.row().cell("amean");
    for (std::size_t c = 0; c < columns.size(); ++c) {
        wmean.cell(amean(ws_cols[c]), 3);
        bmean.cell(amean(bus_cols[c]) / 1000.0, 1);
    }
    ws.print(std::cout);
    std::cout << '\n';
    bus.print(std::cout);

    std::cout << "\nRelative to the " << cores << " baseline:\n";
    for (std::size_t c = 1; c < columns.size(); ++c) {
        std::cout << "  " << columns[c].spec.config
                  << ": weighted-speedup "
                  << percentDelta(amean(ws_cols[c]), amean(ws_cols[0]))
                  << "%, hmean-speedup "
                  << percentDelta(amean(hm_cols[c]), amean(hm_cols[0]))
                  << "%, bus "
                  << percentDelta(amean(bus_cols[c]),
                                  amean(bus_cols[0]))
                  << "%\n";
    }
}

// ---------------------------------------------------------------
// The figures, in table order.

/**
 * Figure 1: (top) speedup and last-level-miss coverage of the
 * aggressive stream prefetcher over no prefetching; (bottom) the
 * potential speedup if every LDS miss were ideally converted to a
 * hit on top of the stream-prefetching baseline.
 */
Figure
fig01()
{
    const Cell np = named("noprefetch");
    const Cell base = named("baseline");
    const Cell ideal = named("ideal-lds");
    auto print = [=](ExperimentContext &ctx, const Names &names) {
        TablePrinter table("Figure 1: stream prefetcher benefit and "
                           "ideal-LDS potential");
        table.header({"bench", "stream-speedup%", "stream-coverage",
                      "ideal-lds-speedup%"});
        std::vector<double> ideal_ratios;
        for (const std::string &name : names) {
            const RunStats &without = run(ctx, name, np);
            const RunStats &with = run(ctx, name, base);
            const RunStats &oracle = run(ctx, name, ideal);
            ideal_ratios.push_back(oracle.ipc / with.ipc);
            table.row()
                .cell(name)
                .cell(percentDelta(with.ipc, without.ipc), 1)
                .cell(with.coverage(0), 2)
                .cell(percentDelta(oracle.ipc, with.ipc), 1);
        }
        table.row()
            .cell("gmean")
            .cell(percentDelta(gmeanSpeedup(ctx, names, base, np), 1.0),
                  1)
            .cell("-")
            .cell(percentDelta(gmean(ideal_ratios), 1.0), 1);
        std::vector<double> no_health;
        for (std::size_t i = 0; i < names.size(); ++i) {
            if (names[i] != "health")
                no_health.push_back(ideal_ratios[i]);
        }
        table.row()
            .cell("gmean-no-health")
            .cell("-")
            .cell("-")
            .cell(percentDelta(gmean(no_health), 1.0), 1);
        table.print(std::cout);
        std::cout << "\nPaper: ideal LDS prefetching improves the stream\n"
                     "baseline by 53.7% on average (37.7% w/o health).\n";
    };
    return {"fig01_motivation", pointerIntensiveNames(), {np, base, ideal},
            print};
}

/**
 * Figure 2 + Table 1: the effect of adding the original (greedy)
 * content-directed prefetcher to the stream-prefetching baseline —
 * performance, bandwidth (BPKI), and CDP accuracy per benchmark.
 */
Figure
fig02()
{
    const Cell base = named("baseline");
    const Cell cdp = named("cdp");
    auto print = [=](ExperimentContext &ctx, const Names &names) {
        TablePrinter table("Figure 2 / Table 1: original CDP vs baseline");
        table.header({"bench", "ipc-delta%", "bpki-base", "bpki-cdp",
                      "bpki-delta%", "cdp-accuracy%"});
        std::vector<double> bpki_ratio;
        for (const std::string &name : names) {
            const RunStats &b = run(ctx, name, base);
            const RunStats &c = run(ctx, name, cdp);
            bpki_ratio.push_back(c.bpki / b.bpki);
            table.row()
                .cell(name)
                .cell(percentDelta(c.ipc, b.ipc), 1)
                .cell(b.bpki, 1)
                .cell(c.bpki, 1)
                .cell(percentDelta(c.bpki, b.bpki), 1)
                .cell(100.0 * c.accuracyDemanded(1), 1);
        }
        table.row()
            .cell("gmean")
            .cell(percentDelta(gmeanSpeedup(ctx, names, cdp, base), 1.0),
                  1)
            .cell("-")
            .cell("-")
            .cell(percentDelta(gmean(bpki_ratio), 1.0), 1)
            .cell("-");
        table.print(std::cout);
        std::cout
            << "\nPaper: original CDP degrades performance by 14% and\n"
               "increases bandwidth by 83.3% on average; accuracies\n"
               "range from 0.9% (xalancbmk) to 83.3% (perimeter).\n";
    };
    return {"fig02_table1_cdp", pointerIntensiveNames(), {base, cdp}, print};
}

/**
 * Figure 4: the fraction of pointer groups whose prefetches are
 * mostly useful (beneficial) vs mostly useless (harmful), per
 * benchmark, from the profiling pass over the train inputs.
 */
Figure
fig04()
{
    auto print = [](ExperimentContext &ctx, const Names &names) {
        TablePrinter table(
            "Figure 4: beneficial vs harmful pointer groups (train)");
        table.header({"bench", "PGs", "beneficial", "harmful",
                      "beneficial-frac"});
        for (const std::string &name : names) {
            PgStatsMap stats =
                ProfilingCompiler::profileStats(ctx.train(name));
            std::uint64_t beneficial = 0, total = 0;
            for (const auto &[pg, s] : stats) {
                if (s.issued < 4)
                    continue;
                ++total;
                beneficial += s.usefulness() > 0.5;
            }
            table.row()
                .cell(name)
                .cell(total)
                .cell(beneficial)
                .cell(total - beneficial)
                .cell(total ? static_cast<double>(beneficial) /
                                  static_cast<double>(total)
                            : 0.0,
                      2);
        }
        table.print(std::cout);
        std::cout << "\nPaper: in many benchmarks (astar, omnetpp, bisort,\n"
                     "mst) a large fraction of PGs are harmful.\n";
    };
    return {"fig04_pg_breakdown", pointerIntensiveNames(), {}, print};
}

/**
 * Figure 7 + Table 6: the headline result. Performance and bandwidth
 * of (a) original CDP, (b) ECDP, (c) CDP + coordinated throttling,
 * and (d) ECDP + coordinated throttling (the full proposal), all on
 * top of the stream-prefetching baseline and normalized to it.
 */
Figure
fig07()
{
    const Cell base = named("baseline");
    const std::vector<Cell> columns{named("cdp"), named("ecdp"),
                                    named("cdp+throttle"),
                                    named("full")};
    std::vector<Cell> cells = columns;
    cells.push_back(base);
    auto print = [=](ExperimentContext &ctx, const Names &names) {
        printNormalized(ctx, names,
                        "Figure 7 (top): IPC normalized to baseline",
                        "Figure 7 (bottom): BPKI (bus accesses / 1k "
                        "instr)",
                        {"cdp", "ecdp", "cdp+thr", "full"}, base,
                        columns);

        const Cell &full = columns.back();
        TablePrinter summary(
            "Table 6: IPC delta and BPKI delta of the full proposal");
        summary.header({"bench", "IPC-delta%", "BPKI-delta"});
        std::vector<double> bpki_ratio, bpki_ratio_nh;
        for (const std::string &name : names) {
            const RunStats &b = run(ctx, name, base);
            const RunStats &f = run(ctx, name, full);
            summary.row()
                .cell(name)
                .cell(percentDelta(f.ipc, b.ipc), 1)
                .cell(f.bpki - b.bpki, 1);
            bpki_ratio.push_back(f.bpki / b.bpki);
            if (name != "health")
                bpki_ratio_nh.push_back(f.bpki / b.bpki);
        }
        summary.row()
            .cell("gmean")
            .cell(percentDelta(gmeanSpeedup(ctx, names, full, base), 1.0),
                  1)
            .cell(percentDelta(gmean(bpki_ratio), 1.0), 1);
        summary.row()
            .cell("gmean-no-health")
            .cell(percentDelta(gmeanSpeedup(ctx, withoutHealth(names),
                                            full, base),
                               1.0),
                  1)
            .cell(percentDelta(gmean(bpki_ratio_nh), 1.0), 1);
        std::cout << '\n';
        summary.print(std::cout);
        std::cout
            << "\nPaper: ECDP+throttling improves performance by 22.5%\n"
               "(16% w/o health) and cuts bandwidth by 25% (27.1% w/o\n"
               "health); CDP alone degrades performance by 14%.\n";
    };
    return {"fig07_table6_main", pointerIntensiveNames(), cells, print};
}

/**
 * Figure 8: accuracy of the CDP (top) and stream (bottom)
 * prefetchers under original CDP, ECDP, and ECDP + throttling.
 * Accuracy here is demanded-prefetches / issued-prefetches, the
 * hardware-observable metric the feedback mechanism uses.
 */
Figure
fig08()
{
    const std::vector<Cell> columns{named("cdp"), named("ecdp"),
                                    named("full")};
    auto print = [=](ExperimentContext &ctx, const Names &names) {
        printPerSlot(ctx, names, "Figure 8 (top): CDP accuracy",
                     "Figure 8 (bottom): stream accuracy", columns,
                     &RunStats::accuracyDemanded);
        std::cout
            << "Paper: ECDP with throttling raises CDP accuracy by\n"
               "129% and stream accuracy by 28% over stream+CDP.\n";
    };
    return {"fig08_accuracy", pointerIntensiveNames(), columns, print};
}

/**
 * Figure 9: coverage of the CDP (top) and stream (bottom)
 * prefetchers — the fraction of last-level demand misses each
 * prefetcher eliminates — under original CDP, ECDP, and the full
 * proposal.
 */
Figure
fig09()
{
    const std::vector<Cell> columns{named("cdp"), named("ecdp"),
                                    named("full")};
    auto print = [=](ExperimentContext &ctx, const Names &names) {
        printPerSlot(ctx, names, "Figure 9 (top): CDP coverage",
                     "Figure 9 (bottom): stream coverage", columns,
                     &RunStats::coverage);
        std::cout
            << "Paper: the proposal slightly reduces average coverage "
               "of\nboth prefetchers — the price paid for accuracy.\n";
    };
    return {"fig09_coverage", pointerIntensiveNames(), columns, print};
}

/**
 * Figure 10: the distribution of pointer-group usefulness (quartile
 * bins) under the original CDP and under ECDP. ECDP should move the
 * mass from the 0-25% bin into the 75-100% bin.
 */
Figure
fig10()
{
    const Cell cdp = named("cdp");
    const Cell ecdp = named("ecdp");
    auto print = [=](ExperimentContext &ctx, const Names &names) {
        TablePrinter table("Figure 10: PG usefulness quartiles (ref "
                           "inputs), original CDP vs ECDP");
        table.header({"bench", "cdp:0-25", "25-50", "50-75", "75-100",
                      "ecdp:0-25", "25-50", "50-75", "75-100"});
        std::uint64_t totals[2][4] = {};
        for (const std::string &name : names) {
            auto &row = table.row().cell(name);
            unsigned m = 0;
            for (const Cell *cell : {&cdp, &ecdp}) {
                std::uint64_t q_counts[4];
                ProfilingCompiler::usefulnessHistogram(
                    run(ctx, name, *cell).pgStats, q_counts, 4);
                for (unsigned q = 0; q < 4; ++q) {
                    row.cell(q_counts[q]);
                    totals[m][q] += q_counts[q];
                }
                ++m;
            }
        }
        auto &total_row = table.row().cell("total");
        for (unsigned m = 0; m < 2; ++m)
            for (unsigned q = 0; q < 4; ++q)
                total_row.cell(totals[m][q]);
        table.print(std::cout);

        auto frac = [&](unsigned m, unsigned q) {
            std::uint64_t sum = totals[m][0] + totals[m][1] +
                                totals[m][2] + totals[m][3];
            return sum ? 100.0 * static_cast<double>(totals[m][q]) /
                             static_cast<double>(sum)
                       : 0.0;
        };
        std::cout << "\nVery-useless PGs (0-25%): CDP " << frac(0, 0)
                  << "% -> ECDP " << frac(1, 0)
                  << "%\nVery-useful PGs (75-100%): CDP " << frac(0, 3)
                  << "% -> ECDP " << frac(1, 3) << "%\n";
        std::cout << "Paper: very-useful PGs rise from 27% to 68.5%;\n"
                     "very-useless PGs drop from 46% to 5.2%.\n";
    };
    return {"fig10_pg_usefulness", pointerIntensiveNames(), {cdp, ecdp},
            print};
}

/**
 * Figure 11 (Section 6.3): the full proposal vs three LDS/correlation
 * prefetchers — dependence-based (DBP), Markov, and GHB G/DC (used
 * alone, per the paper) — plus the GHB+ECDP orthogonality experiment.
 */
Figure
fig11()
{
    const Cell base = named("baseline");
    const Cell ghb = named("ghb");
    const std::vector<Cell> columns{named("dbp"), named("markov"), ghb,
                                    named("full")};
    const Cell ghb_ecdp = unthrottled("ghb+ecdp");
    const Cell ghb_full = named("ghb+ecdp");
    std::vector<Cell> cells = columns;
    cells.insert(cells.end(), {base, ghb_ecdp, ghb_full});
    auto print = [=](ExperimentContext &ctx, const Names &names) {
        printNormalized(ctx, names,
                        "Figure 11 (top): IPC normalized to baseline",
                        "Figure 11 (bottom): BPKI",
                        {"dbp", "markov", "ghb", "full"}, base, columns);
        // Orthogonality: ECDP and throttling on top of a GHB baseline.
        std::cout
            << "\nGHB orthogonality (Section 6.3):\n"
            << "  ECDP over GHB alone:       "
            << percentDelta(gmeanSpeedup(ctx, names, ghb_ecdp, ghb), 1.0)
            << "%\n  +coordinated throttling:   "
            << percentDelta(gmeanSpeedup(ctx, names, ghb_full, ghb), 1.0)
            << "%\n";
        std::cout
            << "\nPaper: the proposal beats DBP/Markov/GHB by 19%,\n"
               "7.2% and 8.9%; ECDP adds 4.6% over GHB alone and\n"
               "throttling a further 2%.\n";
    };
    return {"fig11_lds_comparison", pointerIntensiveNames(), cells, print};
}

/**
 * Figure 12 (Section 6.4): hardware prefetch filtering (Zhuang-Lee)
 * applied to CDP, alone and with coordinated throttling, against
 * ECDP-based filtering.
 */
Figure
fig12()
{
    const Cell base = named("baseline");
    const std::vector<Cell> columns{named("cdp"),
                                    unthrottled("cdp+filter"),
                                    named("cdp+filter"), named("full")};
    std::vector<Cell> cells = columns;
    cells.push_back(base);
    auto print = [=](ExperimentContext &ctx, const Names &names) {
        printNormalized(ctx, names,
                        "Figure 12 (top): IPC normalized to baseline",
                        "Figure 12 (bottom): BPKI",
                        {"cdp", "cdp+filter", "cdp+filter+thr", "full"},
                        base, columns);
        std::cout
            << "\nPaper: the 8 KB hardware filter alone gains only 4.4%\n"
               "(1.5% w/o health); ECDP+throttling beats filter-based\n"
               "configurations by 17% while saving 25.8% bandwidth.\n";
    };
    return {"fig12_hw_filter", pointerIntensiveNames(), cells, print};
}

/**
 * Figure 13 (Section 6.5): coordinated prefetcher throttling vs
 * feedback-directed prefetching (FDP) applied individually to the
 * stream prefetcher and ECDP.
 */
Figure
fig13()
{
    const Cell base = named("baseline");
    const Cell fdp = named("ecdp+fdp");
    const Cell full = named("full");
    auto print = [=](ExperimentContext &ctx, const Names &names) {
        printComparison(ctx, names,
                        "Figure 13: coordinated throttling vs FDP "
                        "(normalized IPC and BPKI)",
                        {"bench", "fdp-ipc", "coord-ipc", "fdp-bpki",
                         "coord-bpki"},
                        base, fdp, full, true);
        std::cout
            << "\nPaper: coordinated throttling outperforms FDP by 5%\n"
               "(FDP throttles each prefetcher in isolation and cannot\n"
               "attribute interference between them).\n";
    };
    return {"fig13_fdp", pointerIntensiveNames(), {base, fdp, full}, print};
}

/**
 * Figure 14 (Section 6.6): dual-core results. Twelve two-benchmark
 * mixes (pointer-intensive paired with pointer- and non-pointer-
 * intensive partners); weighted speedup, hmean speedup, and bus
 * traffic for the full proposal and the DBP/Markov/GHB comparisons.
 */
Figure
fig14()
{
    const std::vector<Names> mixes = {
        {"xalancbmk", "astar"},  {"mcf", "omnetpp"},
        {"health", "mst"},       {"bisort", "perlbench"},
        {"ammp", "voronoi"},     {"pfast", "parser"},
        {"mcf", "milc"},         {"omnetpp", "libquantum"},
        {"health", "bzip2"},     {"astar", "lbm"},
        {"gemsfdtd", "h264ref"}, {"milc", "libquantum"},
    };
    const std::vector<Cell> columns = {named("baseline"), named("dbp"),
                                       named("markov"), named("ghb"),
                                       named("full")};
    auto print = [=](ExperimentContext &ctx, const Names &) {
        printMixes(ctx, mixes, "Figure 14", "dual-core", columns);
        std::cout
            << "\nPaper: the proposal improves dual-core weighted\n"
               "speedup by 10.4% (hmean 9.9%) and cuts bus traffic\n"
               "by 14.9%; Markov +4.1% with +19.5% traffic, GHB\n"
               "+6.2% with -5% traffic, DBP ineffective.\n";
    };
    return {"fig14_dualcore", {}, columns, print, mixes};
}

/**
 * Figure 15 (Section 6.6): four-core case studies — one all-pointer
 * mix, two mixed, one mostly-streaming — weighted/hmean speedup and
 * bus traffic for the baseline, Markov, GHB, and the full proposal.
 */
Figure
fig15()
{
    const std::vector<Names> mixes = {
        {"mcf", "omnetpp", "health", "mst"},           // all pointer
        {"xalancbmk", "astar", "milc", "libquantum"},  // mixed
        {"ammp", "bisort", "gemsfdtd", "bzip2"},       // mixed
        {"perlbench", "h264ref", "lbm", "libquantum"}, // mostly stream
    };
    const std::vector<Cell> columns = {named("baseline"),
                                       named("markov"), named("ghb"),
                                       named("full")};
    auto print = [=](ExperimentContext &ctx, const Names &) {
        printMixes(ctx, mixes, "Figure 15", "4-core", columns);
        std::cout << "\nPaper: the proposal improves 4-core weighted\n"
                     "speedup by 9.5% (hmean 9.7%) while cutting bus\n"
                     "traffic by 15.3%.\n";
    };
    return {"fig15_quadcore", {}, columns, print, mixes};
}

/**
 * Section 3 sketches two profiling implementations: (1) a functional
 * simulation of the cache hierarchy + prefetcher inside the compiler,
 * and (2) hardware-assisted profiling with informing load operations.
 * This compares the hints each produces and the performance of the
 * full proposal under each.
 */
Figure
sec3()
{
    const Cell base = named("baseline");
    const Cell full = named("full");
    const Cell inform{full.spec, "informing-hints",
                      [](SystemConfig &cfg, ExperimentContext &ctx,
                         const std::string &bench) {
                          cfg.hints = &ctx.informingHints(bench);
                      }};
    auto print = [=](ExperimentContext &ctx, const Names &names) {
        TablePrinter table(
            "Section 3: functional vs informing-load profiling");
        table.header({"bench", "hints-func", "hints-inform",
                      "ipc-func/base", "ipc-inform/base"});
        std::vector<double> func_ratio, inform_ratio;
        for (const std::string &name : names) {
            const RunStats &b = run(ctx, name, base);
            const RunStats &f = run(ctx, name, full);
            const RunStats &inf = run(ctx, name, inform);
            func_ratio.push_back(f.ipc / b.ipc);
            inform_ratio.push_back(inf.ipc / b.ipc);
            table.row()
                .cell(name)
                .cell(static_cast<std::uint64_t>(ctx.hints(name).size()))
                .cell(static_cast<std::uint64_t>(
                    ctx.informingHints(name).size()))
                .cell(f.ipc / b.ipc, 3)
                .cell(inf.ipc / b.ipc, 3);
        }
        table.row()
            .cell("gmean")
            .cell("-")
            .cell("-")
            .cell(gmean(func_ratio), 3)
            .cell(gmean(inform_ratio), 3);
        table.print(std::cout);
        std::cout << "\nThe paper treats the implementations as\n"
                     "interchangeable; both should land close together.\n"
                     "(Informing-load profiling sees prefetch-queue and\n"
                     "timing races, so its hints can be slightly more\n"
                     "conservative.)\n";
    };
    return {"sec3_profiling_impls", pointerIntensiveNames(),
            {base, full, inform}, print};
}

/** Mean useful-prefetch latency over every engine of a run. */
double
usefulLatency(const RunStats &stats)
{
    std::uint64_t sum = 0;
    std::uint64_t count = 0;
    for (const RunStats::EngineRunStats &es : stats.engineStats) {
        sum += es.usefulLatencySum;
        count += es.usefulLatencyCount;
    }
    return count ? static_cast<double>(sum) /
                       static_cast<double>(count)
                 : 0.0;
}

/**
 * Section 4 premise: resource contention between the two prefetchers
 * inflates the latency of useful prefetches. The paper measured a
 * 52% increase in average useful-prefetch latency when both run
 * together vs each alone.
 */
Figure
sec4()
{
    // Stream alone, CDP alone, and the naive hybrid.
    const Cell stream_only = named("baseline");
    Cell cdp_only = named("cdp");
    cdp_only.spec.engines = {"none", "cdp"};
    const Cell hybrid = named("cdp");
    auto print = [=](ExperimentContext &ctx, const Names &names) {
        TablePrinter table(
            "Section 4: useful-prefetch latency, alone vs naive hybrid");
        table.header({"bench", "stream-alone", "cdp-alone", "hybrid",
                      "inflation%"});
        std::vector<double> inflation;
        for (const std::string &name : names) {
            double alone_stream = run(ctx, name, stream_only)
                                      .avgUsefulPrefetchLatency(0);
            double alone_cdp =
                run(ctx, name, cdp_only).avgUsefulPrefetchLatency(1);
            double together = usefulLatency(run(ctx, name, hybrid));
            double alone = (alone_stream + alone_cdp) / 2.0;
            if (alone > 0.0 && together > 0.0)
                inflation.push_back(together / alone);
            table.row()
                .cell(name)
                .cell(alone_stream, 0)
                .cell(alone_cdp, 0)
                .cell(together, 0)
                .cell(alone > 0.0 && together > 0.0
                          ? percentDelta(together, alone)
                          : 0.0,
                      1);
        }
        table.row()
            .cell("gmean")
            .cell("-")
            .cell("-")
            .cell("-")
            .cell(percentDelta(gmean(inflation), 1.0), 1);
        table.print(std::cout);
        std::cout << "\nPaper: contention raises the average latency of\n"
                     "useful prefetches by 52% in the naive hybrid.\n";
    };
    return {"sec4_contention", pointerIntensiveNames(),
            {stream_only, cdp_only, hybrid}, print};
}

/**
 * Section 6.1.6: sensitivity of ECDP to the profiling input set —
 * hints profiled on the train input vs hints profiled on the ref
 * input itself, both evaluated on the ref input.
 */
Figure
sec616()
{
    const Cell train_hints = named("full");
    const Cell ref_hints{train_hints.spec, "ref-profile",
                         [](SystemConfig &cfg, ExperimentContext &ctx,
                            const std::string &bench) {
                             cfg.hints = &ctx.hintsFromRef(bench);
                         }};
    auto print = [=](ExperimentContext &ctx, const Names &names) {
        TablePrinter table(
            "Section 6.1.6: profiling input sensitivity (IPC)");
        table.header(
            {"bench", "train-profile", "ref-profile", "delta%"});
        unsigned sensitive = 0;
        for (const std::string &name : names) {
            const RunStats &t = run(ctx, name, train_hints);
            const RunStats &r = run(ctx, name, ref_hints);
            double delta = percentDelta(r.ipc, t.ipc);
            sensitive += delta > 1.0;
            table.row()
                .cell(name)
                .cell(t.ipc, 3)
                .cell(r.ipc, 3)
                .cell(delta, 2);
        }
        table.print(std::cout);
        std::cout << "\nBenchmarks gaining more than 1% from same-input "
                     "profiling: "
                  << sensitive
                  << "\nPaper: only mst gained more than 1% (by 4%): the\n"
                     "mechanism is insensitive to the profiling input.\n";
    };
    return {"sec616_profile_input", pointerIntensiveNames(),
            {train_hints, ref_hints}, print};
}

/**
 * Section 6.7: the remaining (non-pointer-intensive) benchmarks must
 * be unaffected by the proposal — no performance or bandwidth change.
 */
Figure
sec67()
{
    const Cell base = named("baseline");
    const Cell full = named("full");
    auto print = [=](ExperimentContext &ctx, const Names &names) {
        TablePrinter table(
            "Section 6.7: remaining (streaming) benchmarks");
        table.header({"bench", "base-ipc", "full-ipc", "ipc-delta%",
                      "base-bpki", "full-bpki"});
        for (const std::string &name : names) {
            const RunStats &b = run(ctx, name, base);
            const RunStats &f = run(ctx, name, full);
            table.row()
                .cell(name)
                .cell(b.ipc, 3)
                .cell(f.ipc, 3)
                .cell(percentDelta(f.ipc, b.ipc), 2)
                .cell(b.bpki, 1)
                .cell(f.bpki, 1);
        }
        table.row()
            .cell("gmean")
            .cell("-")
            .cell("-")
            .cell(percentDelta(gmeanSpeedup(ctx, names, full, base), 1.0),
                  2)
            .cell("-")
            .cell("-");
        table.print(std::cout);
        std::cout << "\nPaper: +0.3% performance and -0.1% bandwidth on\n"
                     "the remaining benchmarks: the proposal does not\n"
                     "disturb non-pointer codes.\n";
    };
    return {"sec67_remaining", streamingNames(), {base, full}, print};
}

/**
 * Section 7.1: guided-region-prefetching-style coarse-grained gating
 * (enable/disable ALL pointers of a load) vs ECDP's per-PG filtering.
 * The paper found coarse gating provides a negligible 0.4% gain.
 */
Figure
sec71()
{
    const Cell base = named("baseline");
    const Cell grp = named("grp");
    const Cell ecdp = named("ecdp");
    auto print = [=](ExperimentContext &ctx, const Names &names) {
        printComparison(ctx, names,
                        "Section 7.1: coarse (GRP-style) vs fine (ECDP) "
                        "filtering",
                        {"bench", "grp-ipc/base", "ecdp-ipc/base",
                         "grp-bpki", "ecdp-bpki"},
                        base, grp, ecdp, false);
        std::cout
            << "\nPaper: controlling CDP in a coarse-grained fashion\n"
               "gains a negligible 0.4%; per-PG filtering is what\n"
               "makes the difference.\n";
    };
    return {"sec71_grp_coarse", pointerIntensiveNames(), {base, grp, ecdp},
            print};
}

/**
 * Section 7.4: the Gendler-style PAB selector (turn off every
 * prefetcher except the most accurate one) compared with coordinated
 * throttling. The paper found it degrades performance because it
 * ignores coverage and cannot modulate aggressiveness.
 */
Figure
sec74()
{
    const Cell base = named("baseline");
    const Cell pab = named("cdp+pab");
    const Cell coord = named("cdp+throttle");
    auto print = [=](ExperimentContext &ctx, const Names &names) {
        printComparison(ctx, names,
                        "Section 7.4: PAB selection vs coordinated "
                        "throttling (stream + CDP)",
                        {"bench", "pab-ipc/base", "coord-ipc/base",
                         "pab-bpki", "coord-bpki"},
                        base, pab, coord, false);
        std::cout << "\nPaper: the PAB-style scheme reduces average\n"
                     "performance by 11% (bandwidth -6.7%).\n";
    };
    return {"sec74_pab", pointerIntensiveNames(), {base, pab, coord}, print};
}

/**
 * Ablation: CDP design parameters — maximum recursion depth (the
 * Table 2 aggressiveness knob) and the number of compare bits (the
 * paper chose 8 of 32). Run without throttling so the knob's raw
 * effect is visible.
 */
Figure
ablationCdpParams()
{
    const Cell base = named("baseline");
    const std::vector<unsigned> bit_choices{4, 8, 12, 16};
    std::vector<Cell> depths, bits;
    for (unsigned depth = 1; depth <= 4; ++depth) {
        const AggLevel level = static_cast<AggLevel>(depth - 1);
        depths.push_back(Cell{
            named("ecdp").spec, "depth" + std::to_string(depth),
            [level](SystemConfig &cfg, ExperimentContext &,
                    const std::string &) { cfg.ldsStartLevel = level; }});
    }
    for (unsigned n : bit_choices) {
        bits.push_back(Cell{
            named("cdp").spec, "bits" + std::to_string(n),
            [n](SystemConfig &cfg, ExperimentContext &,
                const std::string &) { cfg.cdpCompareBits = n; }});
    }
    std::vector<Cell> cells{base};
    cells.insert(cells.end(), depths.begin(), depths.end());
    cells.insert(cells.end(), bits.begin(), bits.end());
    auto print = [=](ExperimentContext &ctx, const Names &names) {
        TablePrinter depth_table("Ablation: ECDP maximum recursion depth "
                                 "(gmean vs baseline)");
        depth_table.header({"depth", "gmean-ipc", "gmean-no-health"});
        for (unsigned depth = 1; depth <= 4; ++depth) {
            const Cell &cell = depths[depth - 1];
            depth_table.row()
                .cell(std::uint64_t{depth})
                .cell(gmeanSpeedup(ctx, names, cell, base), 3)
                .cell(gmeanSpeedup(ctx, withoutHealth(names), cell, base),
                      3);
        }
        depth_table.print(std::cout);
        std::cout << '\n';

        TablePrinter bits_table("Ablation: CDP compare bits (greedy "
                                "CDP, gmean vs baseline)");
        bits_table.header({"bits", "gmean-ipc", "gmean-bpki-ratio"});
        for (std::size_t i = 0; i < bits.size(); ++i) {
            const Cell &cell = bits[i];
            std::vector<double> bpki_ratio;
            for (const std::string &name : names) {
                bpki_ratio.push_back(run(ctx, name, cell).bpki /
                                     run(ctx, name, base).bpki);
            }
            bits_table.row()
                .cell(std::uint64_t{bit_choices[i]})
                .cell(gmeanSpeedup(ctx, names, cell, base), 3)
                .cell(gmean(bpki_ratio), 3);
        }
        bits_table.print(std::cout);
        std::cout << "\nPaper: 8 compare bits and depth 4 performed best\n"
                     "for the original CDP configuration.\n";
    };
    return {"ablation_cdp_params", pointerIntensiveNames(), cells, print};
}

/**
 * Ablation: sensitivity of coordinated throttling to the Table 4
 * thresholds. Sweeps T_coverage and A_low around the paper's values
 * (the paper notes both should rise on bandwidth-limited systems,
 * which is why this repo defaults to T_cov = 0.3 — see DESIGN.md).
 */
Figure
ablationThresholds()
{
    const Cell base = named("baseline");
    const std::vector<CoordinatedThresholds> points = {
        {0.1, 0.4, 0.7}, {0.2, 0.4, 0.7}, {0.3, 0.4, 0.7},
        {0.4, 0.4, 0.7}, {0.3, 0.3, 0.7}, {0.3, 0.5, 0.7},
        {0.3, 0.4, 0.6}, {0.3, 0.4, 0.8},
    };
    std::vector<Cell> sweep;
    for (const CoordinatedThresholds &p : points) {
        char name[32];
        std::snprintf(name, sizeof(name), "alow%.1f-ahigh%.1f", p.aLow,
                      p.aHigh);
        CellSpec spec = named("full").spec;
        spec.tcov = p.tCoverage;
        sweep.push_back(Cell{spec, name,
                             [p](SystemConfig &cfg, ExperimentContext &,
                                 const std::string &) {
                                 cfg.coordThresholds.aLow = p.aLow;
                                 cfg.coordThresholds.aHigh = p.aHigh;
                             }});
    }
    std::vector<Cell> cells{base};
    cells.insert(cells.end(), sweep.begin(), sweep.end());
    auto print = [=](ExperimentContext &ctx, const Names &names) {
        TablePrinter table("Ablation: coordinated-throttling thresholds "
                           "(gmean IPC vs baseline)");
        table.header(
            {"T_cov", "A_low", "A_high", "gmean", "gmean-no-health"});
        for (std::size_t i = 0; i < points.size(); ++i) {
            table.row()
                .cell(points[i].tCoverage, 1)
                .cell(points[i].aLow, 1)
                .cell(points[i].aHigh, 1)
                .cell(gmeanSpeedup(ctx, names, sweep[i], base), 3)
                .cell(gmeanSpeedup(ctx, withoutHealth(names), sweep[i],
                                   base),
                      3);
        }
        table.print(std::cout);
        std::cout << "\nPaper: thresholds were chosen empirically but not\n"
                     "fine-tuned (T_cov 0.2, A_low 0.4, A_high 0.7).\n";
    };
    return {"ablation_thresholds", pointerIntensiveNames(), cells, print};
}

/**
 * Beyond the paper: the same stream+CDP stack under each registered
 * interval-end policy — static (never adapts), coordinated (Table
 * 3/4), FDP (Srinath-style per-prefetcher rules) and tabular-rl
 * (epsilon-greedy Q-learning over discretized feedback state) —
 * answering "what does the adaptive loop itself buy, holding the
 * engines fixed?".
 */
Figure
policyCompare()
{
    std::vector<Cell> cells;
    for (const char *policy : {"static", "coordinated", "fdp", "tabular-rl"}) {
        Cell cell = named("cdp+throttle");
        cell.spec.throttlePolicy = policy;
        cells.push_back(cell);
    }
    auto print = [=](ExperimentContext &ctx, const Names &names) {
        TablePrinter table(
            "Throttle-policy comparison (stream+CDP stack, IPC and "
            "BPKI per policy)");
        table.header({"bench", "static-ipc", "coord-ipc", "fdp-ipc",
                      "rl-ipc", "static-bpki", "coord-bpki", "fdp-bpki",
                      "rl-bpki"});
        for (const std::string &name : names) {
            auto &row = table.row().cell(name);
            for (const Cell &cell : cells)
                row.cell(run(ctx, name, cell).ipc, 3);
            for (const Cell &cell : cells)
                row.cell(run(ctx, name, cell).bpki, 1);
        }
        auto &gmeanRow = table.row().cell("gmean-vs-static");
        for (const Cell &cell : cells)
            gmeanRow.cell(gmeanSpeedup(ctx, names, cell, cells[0]), 3);
        for (std::size_t i = 0; i < cells.size(); ++i)
            gmeanRow.cell("-");
        table.print(std::cout);
        std::cout << "\nThe rule policies reproduce the paper's throttlers "
                     "byte-for-byte\n(see tests/test_throttle_policy.cc); "
                     "tabular-rl is the learned\nbaseline ROADMAP.md asks "
                     "for, seeded and deterministic.\n";
    };
    return {"policy_compare", pointerIntensiveNames(), cells, print};
}

/**
 * Diagnostic overview of the whole benchmark suite: for each workload,
 * the key statistics under the main configurations. Not a paper
 * table; used to sanity-check workload shapes (footprints, miss
 * rates, stream coverage, CDP accuracy) against the paper's
 * qualitative descriptions. The drop columns count prefetch requests
 * lost to prefetch-queue overflow (per source, under the full
 * proposal) — nonzero values mean the queue is undersized for that
 * workload.
 */
Figure
suiteOverview()
{
    Names names;
    for (const BenchmarkInfo &info : benchmarkSuite())
        names.push_back(info.name);
    const Cell np = named("noprefetch");
    const Cell base = named("baseline");
    const Cell cdp = named("cdp");
    const Cell ideal = named("ideal-lds");
    const Cell full = named("full");
    auto print = [=](ExperimentContext &ctx, const Names &names) {
        TablePrinter table("Suite overview (ref inputs)");
        table.header({"bench", "accesses", "instrs", "ipc-np",
                      "ipc-base", "ipc-cdp", "ipc-full", "ideal-lds%",
                      "strm-cov", "cdp-acc", "bpki-base", "bpki-cdp",
                      "bpki-full", "missK", "dropP", "dropL"});
        for (const std::string &name : names) {
            const Workload &wl = ctx.ref(name);
            const RunStats &np_s = run(ctx, name, np);
            const RunStats &base_s = run(ctx, name, base);
            const RunStats &cdp_s = run(ctx, name, cdp);
            const RunStats &ideal_s = run(ctx, name, ideal);
            const RunStats &full_s = run(ctx, name, full);
            table.row()
                .cell(name)
                .cell(static_cast<std::uint64_t>(wl.trace.size()))
                .cell(static_cast<std::uint64_t>(wl.instructionCount()))
                .cell(np_s.ipc, 3)
                .cell(base_s.ipc, 3)
                .cell(cdp_s.ipc, 3)
                .cell(full_s.ipc, 3)
                .cell(100.0 * (ideal_s.ipc / base_s.ipc - 1.0), 1)
                .cell(base_s.coverage(0), 2)
                .cell(cdp_s.accuracy(1), 2)
                .cell(base_s.bpki, 1)
                .cell(cdp_s.bpki, 1)
                .cell(full_s.bpki, 1)
                .cell(base_s.l2DemandMisses / 1000, 0)
                .cell(full_s.slot(0).dropped)
                .cell(full_s.slot(1).dropped);
        }
        table.print(std::cout);
    };
    return {"suite_overview", names, {np, base, cdp, ideal, full}, print};
}

/**
 * Table 7: the hardware storage cost of the proposal (prefetched tag
 * bits, feedback counters, per-MSHR ECDP context), compared with the
 * storage of the prefetchers the paper evaluates against.
 */
Figure
table7()
{
    auto print = [](ExperimentContext &, const Names &) {
        Cache l2("L2", 1024 * 1024, 8, 128);
        MshrFile mshrs(32);

        // The paper's accounting (Table 7): 11 sixteen-bit counters
        // for feedback, 2 prefetched bits per L2 block, and per-MSHR
        // storage for the block offset plus the hint bit vector. The
        // paper's illustration uses a 16-bit vector (64 B blocks); our
        // 128 B blocks carry 32+32 bits (see DESIGN.md).
        const std::uint64_t counters = 11 * 16;
        const std::uint64_t prefetched_bits =
            l2.prefetchedBitsStorageBits();
        const std::uint64_t mshr_paper = mshrs.ecdpStorageBits(16);
        const std::uint64_t mshr_ours = mshrs.ecdpStorageBits(64);

        TablePrinter table("Table 7: hardware cost of the proposal");
        table.header({"component", "bits", "KB"});
        auto row = [&table](const char *name, std::uint64_t bits) {
            table.row().cell(name).cell(bits).cell(
                static_cast<double>(bits) / 8 / 1024, 3);
        };
        row("prefetched bits (8192 blocks x 2)", prefetched_bits);
        row("feedback counters (11 x 16)", counters);
        row("MSHR offset+hints, paper 16-bit vector", mshr_paper);
        row("MSHR offset+hints, this repo 64-bit vector", mshr_ours);
        row("total (paper vector)",
            prefetched_bits + counters + mshr_paper);
        row("total (this repo)", prefetched_bits + counters + mshr_ours);
        table.print(std::cout);
        std::cout << "\nPaper total: 17296 bits = 2.11 KB (0.206% of the"
                     " 1 MB L2).\n\n";

        TablePrinter rivals("Comparison prefetcher storage");
        rivals.header({"mechanism", "bits", "KB"});
        StreamPrefetcher stream;
        DependenceBasedPrefetcher dbp;
        MarkovPrefetcher markov{BlockGeometry{128}};
        GhbPrefetcher ghb;
        HardwareFilter filter;
        auto rrow = [&rivals](const char *name, std::uint64_t bits) {
            rivals.row().cell(name).cell(bits).cell(
                static_cast<double>(bits) / 8 / 1024, 2);
        };
        rrow("stream prefetcher (32 streams)", stream.storageBits());
        rrow("DBP (128 PPW + 256 CT)", dbp.storageBits());
        rrow("Markov (1 MB table)", markov.storageBits());
        rrow("GHB G/DC (1k buffer)", ghb.storageBits());
        rrow("Zhuang-Lee filter (8 KB)", filter.storageBits());
        rivals.print(std::cout);
        std::cout << "\nPaper: DBP ~3 KB, Markov 1 MB, GHB 12 KB, filter"
                     " 8 KB vs our 2.11 KB proposal.\n";
    };
    return {"table7_hw_cost", {}, {}, print};
}

std::vector<Figure>
figures()
{
    return {fig01(), fig02(), fig04(), fig07(), fig08(),
            fig09(), fig10(), fig11(), fig12(), fig13(),
            fig14(), fig15(), sec3(),  sec4(),  sec616(),
            sec67(), sec71(), sec74(), ablationCdpParams(),
            ablationThresholds(), policyCompare(), suiteOverview(),
            table7()};
}

/** One entry of the job list: a (cell, bench) run or a (cell, mix)
 *  run, named on its progress line as "<name>/<label>". */
struct Job
{
    std::string name;
    std::string label;
    /** Runs the job into the memo and returns its progress-line
     *  result ("ipc=…" or "ws=…", then " TIMEOUT" if it timed out). */
    std::function<std::string(ExperimentContext &)> run;
};

std::string
outcome(const char *metric, double value, bool timedOut)
{
    std::ostringstream os;
    os << metric << '=' << value << (timedOut ? " TIMEOUT" : "");
    return os.str();
}

/**
 * Every (cell, mix) of the selected figures, widest mixes first so
 * the slowest jobs do not form the tail, then every selected cell on
 * every benchmark, each unique one once (the memo keys by content, so
 * even two cells spelled apart that resolve alike simulate once).
 * Mixes first measured faster than cells first (EXPERIMENTS.md).
 */
std::vector<Job>
jobList(const std::vector<const Figure *> &chosen)
{
    std::vector<std::pair<const Names *, const Cell *>> mixes;
    for (const Figure *figure : chosen)
        for (const Cell &cell : figure->cells)
            for (const Names &mix : figure->mixes)
                mixes.emplace_back(&mix, &cell);
    std::ranges::stable_sort(
        mixes, std::greater{},
        [](const auto &job) { return job.first->size(); });
    std::vector<Job> jobs;
    for (const auto &[mix, cell] : mixes)
        jobs.push_back({mixName(*mix), server::cellLabel(cell->spec),
                        [mix, cell](ExperimentContext &ctx) {
                            const MultiCoreResult &r =
                                server::runMix(cell->spec, *mix, ctx);
                            return outcome("ws", r.weightedSpeedup,
                                           r.timedOut);
                        }});
    std::set<std::pair<std::string, std::string>> submitted;
    for (const Figure *figure : chosen) {
        for (const Cell &cell : figure->cells) {
            for (const std::string &bench : figure->benches) {
                CellSpec at = cell.spec;
                at.bench = bench;
                if (!submitted
                         .emplace(server::canonicalCellJson(at),
                                  cell.tweakName)
                         .second)
                    continue;
                jobs.push_back({bench, cell.label(),
                                [&cell, bench](ExperimentContext &ctx) {
                                    const RunStats &s =
                                        run(ctx, bench, cell);
                                    return outcome("ipc", s.ipc,
                                                   s.timedOut);
                                }});
            }
        }
    }
    return jobs;
}

/** Counts finished jobs and writes each one's progress line. */
class Progress
{
  public:
    explicit Progress(std::size_t total) : total_(total) {}

    void report(const Job &job, const std::string &result,
                std::chrono::steady_clock::time_point start)
        ECDP_EXCLUDES(mutex_)
    {
        const std::chrono::duration<double, std::milli> wall =
            std::chrono::steady_clock::now() - start;
        MutexLock lock(mutex_);
        std::cerr << '[' << ++done_ << '/' << total_ << "] " << job.name
                  << '/' << job.label << ' ' << result << " ("
                  << wall.count() << " ms)" << std::endl;
    }

  private:
    const std::size_t total_;
    AnnotatedMutex mutex_;
    std::size_t done_ ECDP_GUARDED_BY(mutex_) = 0;
};

/**
 * Runs @p jobs on one ThreadPool (ECDP_JOBS workers) and waits once.
 * A mix job waits on its members' baseline runs through the memo,
 * never on a mix, so no job waits on one still queued behind it. A
 * failed job's exception names the job.
 */
void
runJobs(ExperimentContext &ctx, const std::vector<Job> &jobs)
{
    Progress progress(jobs.size());
    runner::ThreadPool pool;
    for (const Job &job : jobs) {
        pool.submit([&ctx, &progress, &job] {
            const auto start = std::chrono::steady_clock::now();
            std::string result;
            try {
                result = job.run(ctx);
            } catch (const std::exception &e) {
                progress.report(job, std::string("FAILED: ") + e.what(),
                                start);
                throw std::runtime_error("experiment job " + job.name +
                                         "/" + job.label +
                                         " failed: " + e.what());
            }
            progress.report(job, result, start);
        });
    }
    pool.wait();
}

int
usage()
{
    std::cerr << "usage: repro [--list] [--figure ID]...\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::vector<Figure> table = figures();
    std::set<std::string> selected;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--list") {
            for (const Figure &figure : table)
                std::cout << figure.id << '\n';
            return 0;
        }
        if (arg != "--figure" || i + 1 == argc)
            return usage();
        const std::string id = argv[++i];
        if (std::none_of(table.begin(), table.end(),
                         [&](const Figure &f) { return f.id == id; })) {
            std::cerr << "repro: unknown figure '" << id
                      << "' (see --list)\n";
            return 2;
        }
        selected.insert(id);
    }
    std::vector<const Figure *> chosen;
    for (const Figure &figure : table)
        if (selected.empty() || selected.count(figure.id))
            chosen.push_back(&figure);

    try {
        ExperimentContext ctx;
        runJobs(ctx, jobList(chosen));
        for (const Figure *figure : chosen)
            figure->print(ctx, figure->benches);
    } catch (const std::exception &e) {
        std::cerr << "repro: " << e.what() << '\n';
        return 1;
    }
    return 0;
}
