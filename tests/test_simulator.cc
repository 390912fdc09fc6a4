/**
 * @file
 * Integration tests: whole-system simulations on train inputs,
 * checking the qualitative results the paper reports. These are the
 * repository's end-to-end regression net.
 */

#include <gtest/gtest.h>

#include "sim/experiment.hh"
#include "sim/multicore.hh"

namespace ecdp
{
namespace
{

RunStats
runTrain(const std::string &name, const SystemConfig &cfg)
{
    return simulate(cfg, buildWorkload(name, InputSet::Train));
}

TEST(Simulator, BaselineStreamHelpsStreamingWorkloads)
{
    RunStats np = runTrain("libquantum", configs::byName("noprefetch"));
    RunStats base = runTrain("libquantum", configs::byName("baseline"));
    EXPECT_GT(base.ipc, 1.5 * np.ipc);
    EXPECT_GT(base.coverage(0), 0.5);
}

TEST(Simulator, StreamBarelyCoversPointerChasing)
{
    RunStats base = runTrain("health", configs::byName("baseline"));
    EXPECT_LT(base.coverage(0), 0.2);
}

TEST(Simulator, IdealLdsShowsHeadroomOnPointerWorkloads)
{
    RunStats base = runTrain("mst", configs::byName("baseline"));
    RunStats ideal = runTrain("mst", configs::byName("ideal-lds"));
    EXPECT_GT(ideal.ipc, 1.5 * base.ipc);
}

TEST(Simulator, IdealLdsIsNeutralOnStreamingWorkloads)
{
    RunStats base = runTrain("gemsfdtd", configs::byName("baseline"));
    RunStats ideal = runTrain("gemsfdtd", configs::byName("ideal-lds"));
    EXPECT_NEAR(ideal.ipc, base.ipc, 0.02 * base.ipc);
}

TEST(Simulator, GreedyCdpWrecksMst)
{
    // The paper's central motivation (Figure 2): original CDP
    // degrades mst badly and blows up its bandwidth. This shows on
    // the ref input (the train structures are partially cacheable).
    Workload ref = buildWorkload("mst", InputSet::Ref);
    RunStats base = simulate(configs::byName("baseline"), ref);
    RunStats cdp = simulate(configs::byName("cdp"), ref);
    EXPECT_LT(cdp.ipc, 0.8 * base.ipc);
    EXPECT_GT(cdp.bpki, 1.5 * base.bpki);
}

TEST(Simulator, CdpHelpsHealth)
{
    RunStats base = runTrain("health", configs::byName("baseline"));
    RunStats cdp = runTrain("health", configs::byName("cdp"));
    EXPECT_GT(cdp.ipc, 1.3 * base.ipc);
    EXPECT_GT(cdp.accuracy(1), 0.7);
}

TEST(Simulator, EcdpEliminatesCdpLossOnMst)
{
    ExperimentContext context;
    const HintTable &hints = context.hints("mst");
    RunStats base = runTrain("mst", configs::byName("baseline"));
    RunStats ecdp = runTrain("mst", configs::byName("ecdp", &hints));
    EXPECT_GT(ecdp.ipc, 0.9 * base.ipc);
}

TEST(Simulator, FullProposalKeepsHealthGains)
{
    ExperimentContext context;
    const HintTable &hints = context.hints("health");
    RunStats base = runTrain("health", configs::byName("baseline"));
    RunStats full = runTrain("health", configs::byName("full", &hints));
    EXPECT_GT(full.ipc, 1.3 * base.ipc);
}

TEST(Simulator, StreamingWorkloadsUnaffectedByLdsMachinery)
{
    // Section 6.7: the proposal must not disturb non-pointer codes.
    for (const char *name : {"libquantum", "lbm"}) {
        ExperimentContext context;
        const HintTable &hints = context.hints(name);
        RunStats base = runTrain(name, configs::byName("baseline"));
        RunStats full =
            runTrain(name, configs::byName("full", &hints));
        EXPECT_NEAR(full.ipc, base.ipc, 0.05 * base.ipc) << name;
    }
}

TEST(Simulator, BpkiAndBusTransactionsConsistent)
{
    RunStats base = runTrain("mst", configs::byName("baseline"));
    double expected = 1000.0 *
                      static_cast<double>(base.busTransactions) /
                      static_cast<double>(base.instructions);
    EXPECT_NEAR(base.bpki, expected, 1e-9);
}

TEST(Simulator, StatsAreInternallyConsistent)
{
    RunStats s = runTrain("health", configs::byName("cdp"));
    EXPECT_LE(s.slot(1).used, s.slot(1).issued);
    EXPECT_LE(s.l2LdsMisses, s.l2DemandMisses);
    EXPECT_LE(s.l2DemandMisses, s.l2DemandAccesses);
    EXPECT_GT(s.cycles, Cycle{});
    EXPECT_GT(s.instructions, 0u);
}

TEST(Simulator, RunsAreDeterministic)
{
    RunStats a = runTrain("voronoi", configs::byName("cdp"));
    RunStats b = runTrain("voronoi", configs::byName("cdp"));
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.busTransactions, b.busTransactions);
    EXPECT_EQ(a.slot(1).issued, b.slot(1).issued);
}

TEST(Simulator, GhbCoversStreamsWhenAlone)
{
    RunStats np = runTrain("libquantum", configs::byName("noprefetch"));
    RunStats ghb = runTrain("libquantum", configs::byName("ghb"));
    EXPECT_GT(ghb.ipc, 1.3 * np.ipc);
}

TEST(Simulator, DbpIssuesPrefetchesOnPointerChains)
{
    RunStats dbp = runTrain("health", configs::byName("dbp"));
    EXPECT_GT(dbp.slot(1).issued, 0u);
}

TEST(Simulator, MarkovLearnsRepeatedMissSequences)
{
    RunStats markov = runTrain("health", configs::byName("markov"));
    EXPECT_GT(markov.slot(1).issued, 0u);
    EXPECT_GT(markov.slot(1).used + markov.slot(1).late, 0u);
}

TEST(Simulator, ProfilingInputSensitivityIsSmall)
{
    // Section 6.1.6: hints from train vs ref inputs perform alike.
    ExperimentContext context;
    const Workload &ref = context.ref("health");
    RunStats with_train = simulate(
        configs::byName("full", &context.hints("health")), ref);
    RunStats with_ref = simulate(
        configs::byName("full", &context.hintsFromRef("health")), ref);
    EXPECT_NEAR(with_ref.ipc, with_train.ipc, 0.10 * with_train.ipc);
}

TEST(MultiCore, TwoCoresContendForMemory)
{
    Workload a = buildWorkload("mst", InputSet::Train);
    Workload b = buildWorkload("milc", InputSet::Train);
    SystemConfig cfg = configs::byName("baseline");
    double alone_a = simulate(cfg, a).ipc;
    double alone_b = simulate(cfg, b).ipc;
    MultiCoreResult result =
        simulateMultiCore(cfg, {&a, &b}, {alone_a, alone_b});
    ASSERT_EQ(result.perCore.size(), 2u);
    // Shared-memory runs cannot beat running alone (modulo noise).
    EXPECT_LE(result.perCore[0].ipc, alone_a * 1.05);
    EXPECT_LE(result.perCore[1].ipc, alone_b * 1.05);
    EXPECT_LE(result.weightedSpeedup, 2.0 + 1e-9);
    EXPECT_GT(result.weightedSpeedup, 0.5);
    EXPECT_LE(result.hmeanSpeedup, 1.0 + 1e-9);
}

TEST(MultiCore, FourCoresRun)
{
    Workload a = buildWorkload("health", InputSet::Train);
    Workload b = buildWorkload("gemsfdtd", InputSet::Train);
    Workload c = buildWorkload("mst", InputSet::Train);
    Workload d = buildWorkload("libquantum", InputSet::Train);
    SystemConfig cfg = configs::byName("baseline");
    std::vector<double> alone;
    for (const Workload *wl : {&a, &b, &c, &d})
        alone.push_back(simulate(cfg, *wl).ipc);
    MultiCoreResult result =
        simulateMultiCore(cfg, {&a, &b, &c, &d}, alone);
    EXPECT_EQ(result.perCore.size(), 4u);
    EXPECT_GT(result.busTransactions, 0u);
    for (unsigned i = 0; i < 4; ++i)
        EXPECT_GT(result.perCore[i].ipc, 0.0);
}

TEST(MultiCore, ThrottlingImprovesOrHoldsBusTraffic)
{
    ExperimentContext context;
    Workload a = buildWorkload("health", InputSet::Train);
    Workload b = buildWorkload("mst", InputSet::Train);
    SystemConfig base_cfg = configs::byName("cdp");
    SystemConfig full_cfg = configs::byName("cdp+throttle");
    std::vector<double> alone{simulate(base_cfg, a).ipc,
                              simulate(base_cfg, b).ipc};
    MultiCoreResult unmanaged =
        simulateMultiCore(base_cfg, {&a, &b}, alone);
    MultiCoreResult managed =
        simulateMultiCore(full_cfg, {&a, &b}, alone);
    EXPECT_LE(managed.busTransactions,
              unmanaged.busTransactions * 1.05);
}

} // namespace
} // namespace ecdp
