/**
 * @file
 * Tests for the experiment plumbing: the named configuration
 * factories must select the mechanisms the paper's sections describe,
 * and the ExperimentContext must memoize correctly.
 */

#include <gtest/gtest.h>

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
    SystemConfig cfg = configs::baseline();
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
    SystemConfig cfg = configs::fullProposal(&hints);
    EXPECT_EQ(cfg.engines, (std::vector<std::string>{"stream", "ecdp"}));
    EXPECT_EQ(cfg.throttlePolicy, "coordinated");
    EXPECT_EQ(cfg.hints, &hints);
    EXPECT_FALSE(cfg.grpCoarse);
    EXPECT_FALSE(cfg.hwFilter);
}

TEST(Configs, GhbConfigsReplaceTheStreamPrefetcher)
{
    using Stack = std::vector<std::string>;
    EXPECT_EQ(configs::ghbAlone().engines, (Stack{"ghb", "none"}));
    HintTable hints;
    SystemConfig hybrid = configs::ghbEcdp(&hints);
    EXPECT_EQ(hybrid.engines, (Stack{"ghb", "ecdp"}));
    EXPECT_EQ(hybrid.throttlePolicy, "coordinated");
}

TEST(Configs, ComparisonConfigsSelectTheirMechanisms)
{
    EXPECT_EQ(configs::streamDbp().engines[1], "dbp");
    EXPECT_EQ(configs::streamMarkov().engines[1], "markov");
    EXPECT_TRUE(configs::streamCdpHwFilter().hwFilter);
    EXPECT_EQ(configs::streamCdpHwFilter().throttlePolicy,
              "coordinated");
    EXPECT_EQ(configs::streamCdpPab().throttlePolicy, "pab");
    HintTable hints;
    EXPECT_TRUE(configs::streamGrpCoarse(&hints).grpCoarse);
    EXPECT_EQ(configs::streamEcdpFdp(&hints).throttlePolicy, "fdp");
}

TEST(Configs, OracleModes)
{
    EXPECT_TRUE(configs::idealLds().idealLds);
    EXPECT_FALSE(configs::idealLds().idealNoPollution);
}

TEST(ExperimentContextTest, MemoizesWorkloadsAndRuns)
{
    ExperimentContext ctx;
    const Workload &a = ctx.ref("parser");
    const Workload &b = ctx.ref("parser");
    EXPECT_EQ(&a, &b);
    const RunStats &r1 =
        ctx.run("parser", configs::noPrefetch(), "np");
    const RunStats &r2 =
        ctx.run("parser", configs::noPrefetch(), "np");
    EXPECT_EQ(&r1, &r2);
}

TEST(ExperimentContextTest, DistinctKeysAreDistinctRuns)
{
    ExperimentContext ctx;
    const RunStats &np =
        ctx.run("parser", configs::noPrefetch(), "np");
    const RunStats &base =
        ctx.run("parser", configs::baseline(), "base");
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
        ctx.runMix(mix, configs::streamCdp(), "cdp", InputSet::Train);
    ASSERT_EQ(r.perCore.size(), mix.size());
    double weighted = 0.0;
    std::vector<double> ratios;
    for (std::size_t i = 0; i < mix.size(); ++i) {
        const double alone = ctx.run(mix[i], configs::baseline(),
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
            seen[i] = &ctx.runMix(mix, configs::streamCdp(), "cdp",
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
    EXPECT_NE(runKey("mst", configs::streamCdp(), InputSet::Train),
              runKey("mst", configs::streamCdp()));
    const RunStats direct = simulate(
        configs::streamCdp(), buildWorkload("mst", InputSet::Train));
    EXPECT_EQ(first.cycles, direct.cycles);
    EXPECT_EQ(first.instructions, direct.instructions);
    session.close();
}

} // namespace
} // namespace ecdp
