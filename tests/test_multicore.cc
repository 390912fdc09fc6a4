/**
 * @file
 * Multi-core driver tests beyond the basic integration checks:
 * accounting consistency, wrap-around fairness, and scaling.
 */

#include <gtest/gtest.h>

#include "sim/experiment.hh"
#include "sim/multicore.hh"

namespace ecdp
{
namespace
{

TEST(MultiCoreDetail, PerCoreBusAttributionSumsToTotal)
{
    Workload a = buildWorkload("mst", InputSet::Train);
    Workload b = buildWorkload("bzip2", InputSet::Train);
    SystemConfig cfg = configs::byName("baseline");
    MultiCoreResult r = simulateMultiCore(cfg, {&a, &b}, {1.0, 1.0});
    // Per-core counts cover the measured window plus any wrap-around
    // work, so their sum can only exceed... both are lifetime counts:
    // they must sum exactly to the total.
    EXPECT_EQ(r.perCore[0].busTransactions +
                  r.perCore[1].busTransactions,
              r.busTransactions);
}

TEST(MultiCoreDetail, IdenticalWorkloadsGetSimilarService)
{
    Workload a = buildWorkload("mst", InputSet::Train);
    Workload b = buildWorkload("mst", InputSet::Train);
    SystemConfig cfg = configs::byName("baseline");
    MultiCoreResult r = simulateMultiCore(cfg, {&a, &b}, {1.0, 1.0});
    // Symmetric cores running identical traces should finish within a
    // few percent of each other (bank hashing differs per core).
    double ratio = r.perCore[0].ipc / r.perCore[1].ipc;
    EXPECT_GT(ratio, 0.9);
    EXPECT_LT(ratio, 1.1);
}

TEST(MultiCoreDetail, WeightedSpeedupUsesAloneIpc)
{
    Workload a = buildWorkload("parser", InputSet::Train);
    SystemConfig cfg = configs::byName("baseline");
    double alone = simulate(cfg, a).ipc;
    MultiCoreResult r = simulateMultiCore(cfg, {&a}, {alone});
    // A single "multi-core" run is the alone run: speedup ~1.
    EXPECT_NEAR(r.weightedSpeedup, 1.0, 0.02);
    EXPECT_NEAR(r.hmeanSpeedup, 1.0, 0.02);
}

TEST(MultiCoreDetail, MoreCoresMoreContention)
{
    SystemConfig cfg = configs::byName("baseline");
    Workload w1 = buildWorkload("milc", InputSet::Train);
    Workload w2 = buildWorkload("milc", InputSet::Train);
    Workload w3 = buildWorkload("milc", InputSet::Train);
    Workload w4 = buildWorkload("milc", InputSet::Train);
    double alone = simulate(cfg, w1).ipc;
    MultiCoreResult two =
        simulateMultiCore(cfg, {&w1, &w2}, {alone, alone});
    MultiCoreResult four = simulateMultiCore(
        cfg, {&w1, &w2, &w3, &w4}, {alone, alone, alone, alone});
    // Normalized per-core throughput decays with core count on a
    // bandwidth-hungry workload.
    EXPECT_LE(four.weightedSpeedup / 4.0,
              two.weightedSpeedup / 2.0 + 0.02);
}

TEST(MultiCoreDetail, MulticoreRunsAreDeterministic)
{
    Workload a = buildWorkload("mst", InputSet::Train);
    Workload b = buildWorkload("milc", InputSet::Train);
    SystemConfig cfg = configs::byName("baseline");
    MultiCoreResult r1 = simulateMultiCore(cfg, {&a, &b}, {1.0, 1.0});
    MultiCoreResult r2 = simulateMultiCore(cfg, {&a, &b}, {1.0, 1.0});
    EXPECT_EQ(r1.busTransactions, r2.busTransactions);
    EXPECT_EQ(r1.perCore[0].cycles, r2.perCore[0].cycles);
    EXPECT_EQ(r1.perCore[1].cycles, r2.perCore[1].cycles);
}

TEST(MultiCoreDetail, StreamingPartnerSuffersFromPointerChaser)
{
    // A bandwidth-hungry streaming workload keeps most of its speed;
    // the latency-bound pointer chaser pays the contention bill in
    // absolute IPC but neither should collapse.
    Workload chaser = buildWorkload("health", InputSet::Train);
    Workload stream = buildWorkload("libquantum", InputSet::Train);
    SystemConfig cfg = configs::byName("baseline");
    double alone_c = simulate(cfg, chaser).ipc;
    double alone_s = simulate(cfg, stream).ipc;
    MultiCoreResult r = simulateMultiCore(cfg, {&chaser, &stream},
                                          {alone_c, alone_s});
    EXPECT_GT(r.perCore[0].ipc, 0.3 * alone_c);
    EXPECT_GT(r.perCore[1].ipc, 0.3 * alone_s);
}

} // namespace
} // namespace ecdp
