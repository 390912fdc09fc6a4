/**
 * @file
 * Tests for the experiment plumbing: each row of the named
 * configuration table must select the mechanisms the paper's sections
 * describe, and the ExperimentContext must memoize correctly.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/trace_session.hh"
#include "runner/thread_pool.hh"
#include "server/cell.hh"
#include "sim/experiment.hh"
#include "stats/stats.hh"

namespace ecdp
{
namespace
{

TEST(Configs, BaselineIsStreamOnlyAggressive)
{
    SystemConfig cfg = configs::byName("baseline");
    using Stack = std::vector<std::string>;
    EXPECT_EQ(cfg.engines, (Stack{"stream", "none"}));
    EXPECT_EQ(cfg.throttlePolicy, "static");
    EXPECT_EQ(cfg.primaryStartLevel, AggLevel::Aggressive);
}

TEST(Configs, Table5Defaults)
{
    SystemConfig cfg;
    EXPECT_EQ(cfg.l2Bytes, 1024u * 1024);
    EXPECT_EQ(cfg.l2Assoc, 8u);
    EXPECT_EQ(cfg.l2BlockBytes, 128u);
    EXPECT_EQ(cfg.l2Mshrs, 32u);
    EXPECT_EQ(cfg.core.robEntries, 256u);
    EXPECT_EQ(cfg.core.lsqEntries, 32u);
    EXPECT_EQ(cfg.core.width, 4u);
    EXPECT_EQ(cfg.dram.banks, 8u);
    EXPECT_EQ(cfg.streamEntries, 32u);
    EXPECT_EQ(cfg.cdpCompareBits, 8u);
    EXPECT_EQ(cfg.prefetchQueueEntries, 128u);
    // Uncontended DRAM latency must be the paper's 450 cycles.
    EXPECT_EQ(cfg.dram.frontLatency + cfg.dram.bankBusy +
                  cfg.dram.busTransfer,
              Cycle{450});
}

TEST(Configs, FullProposalWiresEcdpAndCoordination)
{
    HintTable hints;
    SystemConfig cfg = configs::byName("full", &hints);
    EXPECT_EQ(cfg.engines, (std::vector<std::string>{"stream", "ecdp"}));
    EXPECT_EQ(cfg.throttlePolicy, "coordinated");
    EXPECT_EQ(cfg.hints, &hints);
    EXPECT_FALSE(cfg.grpCoarse);
    EXPECT_FALSE(cfg.hwFilter);
}

TEST(Configs, GhbConfigsReplaceTheStreamPrefetcher)
{
    using Stack = std::vector<std::string>;
    EXPECT_EQ(configs::byName("ghb").engines, (Stack{"ghb", "none"}));
    HintTable hints;
    SystemConfig hybrid = configs::byName("ghb+ecdp", &hints);
    EXPECT_EQ(hybrid.engines, (Stack{"ghb", "ecdp"}));
    EXPECT_EQ(hybrid.throttlePolicy, "coordinated");
}

TEST(Configs, ComparisonConfigsSelectTheirMechanisms)
{
    EXPECT_EQ(configs::byName("dbp").engines[1], "dbp");
    EXPECT_EQ(configs::byName("markov").engines[1], "markov");
    EXPECT_TRUE(configs::byName("cdp+filter").hwFilter);
    EXPECT_EQ(configs::byName("cdp+filter").throttlePolicy,
              "coordinated");
    EXPECT_EQ(configs::byName("cdp+pab").throttlePolicy, "pab");
    HintTable hints;
    EXPECT_TRUE(configs::byName("grp", &hints).grpCoarse);
    EXPECT_EQ(configs::byName("ecdp+fdp", &hints).throttlePolicy, "fdp");
}

TEST(Configs, OracleModes)
{
    EXPECT_TRUE(configs::byName("ideal-lds").idealLds);
    EXPECT_FALSE(configs::byName("ideal-lds").idealNoPollution);
}

TEST(Configs, HintsFollowTheStack)
{
    // One rule wires the hints: a config takes them exactly when its
    // stack runs ecdp, and nameNeedsHints() answers by the same rule.
    const HintTable hints;
    std::vector<std::string> hinted;
    for (const std::string &name : configs::knownNames()) {
        const SystemConfig cfg = configs::byName(name, &hints);
        const bool runsEcdp =
            std::find(cfg.engines.begin(), cfg.engines.end(), "ecdp") !=
            cfg.engines.end();
        EXPECT_EQ(cfg.hints == &hints, runsEcdp) << name;
        EXPECT_EQ(configs::nameNeedsHints(name), runsEcdp) << name;
        if (runsEcdp)
            hinted.push_back(name);
    }
    EXPECT_EQ(hinted, (std::vector<std::string>{"ecdp", "full", "ghb+ecdp",
                                                "ecdp+fdp", "grp"}));
    EXPECT_THROW(configs::nameNeedsHints("nosuch"), std::runtime_error);
}

TEST(ExperimentContextTest, MemoizesWorkloadsAndRuns)
{
    ExperimentContext ctx;
    const Workload &a = ctx.ref("parser");
    const Workload &b = ctx.ref("parser");
    EXPECT_EQ(&a, &b);
    const RunStats &r1 =
        ctx.run("parser", configs::byName("noprefetch"), "np");
    const RunStats &r2 =
        ctx.run("parser", configs::byName("noprefetch"), "np");
    EXPECT_EQ(&r1, &r2);
}

TEST(ExperimentContextTest, DistinctKeysAreDistinctRuns)
{
    ExperimentContext ctx;
    const RunStats &np =
        ctx.run("parser", configs::byName("noprefetch"), "np");
    const RunStats &base =
        ctx.run("parser", configs::byName("baseline"), "base");
    EXPECT_NE(&np, &base);
}

TEST(ExperimentContextTest, HintsAreStableReferences)
{
    ExperimentContext ctx;
    const HintTable &a = ctx.hints("parser");
    const HintTable &b = ctx.hints("parser");
    EXPECT_EQ(&a, &b);
}

TEST(ExperimentContextTest, MixSpeedupsDivideByBaselineAloneIpc)
{
    ExperimentContext ctx;
    const std::vector<std::string> mix = {"bisort", "libquantum"};
    const MultiCoreResult &r =
        ctx.runMix(mix, configs::byName("cdp"), "cdp", InputSet::Train);
    ASSERT_EQ(r.perCore.size(), mix.size());
    double weighted = 0.0;
    std::vector<double> ratios;
    for (std::size_t i = 0; i < mix.size(); ++i) {
        const double alone = ctx.run(mix[i], configs::byName("baseline"),
                                     "baseline", InputSet::Train)
                                 .ipc;
        EXPECT_EQ(r.aloneIpc[i], alone);
        ratios.push_back(r.perCore[i].ipc / alone);
        weighted += ratios.back();
    }
    EXPECT_DOUBLE_EQ(r.weightedSpeedup, weighted);
    EXPECT_DOUBLE_EQ(r.hmeanSpeedup, hmean(ratios));
}

TEST(ExperimentContextTest, MixIsMemoizedAndSimulatesOnce)
{
    obs::TraceSession session(testing::TempDir() + "/mix_memo.json");
    ASSERT_TRUE(session.ok());
    ExperimentContext ctx;
    ctx.setTraceSession(&session);
    const std::vector<std::string> mix = {"bisort", "libquantum"};
    std::vector<const MultiCoreResult *> seen(4);
    runner::ThreadPool pool(4);
    for (std::size_t i = 0; i < seen.size(); ++i) {
        pool.submit([&, i] {
            seen[i] = &ctx.runMix(mix, configs::byName("cdp"), "cdp",
                                  InputSet::Train);
        });
    }
    pool.wait();
    for (const MultiCoreResult *result : seen)
        EXPECT_EQ(result, seen.front());
    // The mix plus each member's baseline alone run, once each.
    EXPECT_EQ(session.runsFlushed(), 3u);
    session.close();
}

TEST(ExperimentContextTest, TrainCellIsMemoizedAndTraced)
{
    obs::TraceSession session(testing::TempDir() + "/train_cell.json");
    ASSERT_TRUE(session.ok());
    ExperimentContext ctx;
    ctx.setTraceSession(&session);
    server::CellSpec cell;
    cell.bench = "mst";
    cell.config = "cdp";
    cell.input = "train";
    const RunStats &first = server::runCell(cell, ctx);
    const RunStats &second = server::runCell(cell, ctx);
    EXPECT_EQ(&first, &second);
    EXPECT_EQ(session.runsFlushed(), 1u);
    // The train run is its own memo entry, not the ref run's.
    EXPECT_NE(runKey("mst", configs::byName("cdp"), InputSet::Train),
              runKey("mst", configs::byName("cdp")));
    const RunStats direct = simulate(
        configs::byName("cdp"), buildWorkload("mst", InputSet::Train));
    EXPECT_EQ(first.cycles, direct.cycles);
    EXPECT_EQ(first.instructions, direct.instructions);
    session.close();
}

} // namespace
} // namespace ecdp
