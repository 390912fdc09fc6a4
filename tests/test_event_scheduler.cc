/**
 * @file
 * Exactness tests for the event-driven cycle-skipping scheduler.
 *
 * Cycle skipping is a pure wall-clock optimisation: the simulation
 * loop jumps the clock to the next cycle any component can act on
 * instead of ticking through provably idle cycles. These tests pin
 * the "pure" part: the complete RunStats JSON — every counter, the
 * cycle count, the interval series, the timeout flag — must be
 * byte-identical with skipping on and off, across the prefetcher /
 * throttler / oracle configuration matrix, in single- and multi-core
 * runs, and through the maxCycles watchdog. Every registry counter
 * but sim.loop_visits must match as well; that one counts the loop
 * iterations skipping saves.
 *
 * Also covers the trailing-partial-interval flush: a run that ends
 * mid-feedback-interval emits one final sample at its end cycle
 * instead of silently dropping its tail from the series.
 */

#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "compiler/profiling_compiler.hh"
#include "sim/experiment.hh"
#include "sim/multicore.hh"
#include "sim/simulator.hh"
#include "stats/json.hh"
#include "workloads/workload.hh"

namespace ecdp
{
namespace
{

const HintTable &
trainHints(const std::string &bench)
{
    static std::map<std::string, HintTable> cache;
    auto it = cache.find(bench);
    if (it == cache.end()) {
        it = cache
                 .emplace(bench,
                          ProfilingCompiler::profile(
                              buildWorkload(bench, InputSet::Train)))
                 .first;
    }
    return it->second;
}

std::string
statsJson(const RunStats &stats)
{
    std::ostringstream os;
    writeRunStatsJson(os, stats, "exactness");
    return os.str();
}

constexpr const char *kLoopVisits = "sim.loop_visits";

/** Require equal registries except for the loop-visit count, which
 *  skipping may only lower. */
void
expectSameCounters(const obs::MetricRegistry &polled,
                   const obs::MetricRegistry &skipped)
{
    auto withoutVisits = [](const obs::MetricRegistry &registry) {
        auto all = registry.sorted();
        std::erase_if(all,
                      [](const auto &kv) { return kv.first == kLoopVisits; });
        return all;
    };
    EXPECT_EQ(withoutVisits(polled), withoutVisits(skipped));
    EXPECT_LE(skipped.value(kLoopVisits), polled.value(kLoopVisits));
}

/** Run @p bench under @p cfg with skipping forced on and off and
 *  require byte-identical stats JSON. Returns the (shared) stats. */
RunStats
expectExact(const std::string &bench, SystemConfig cfg)
{
    const Workload workload = buildWorkload(bench, InputSet::Train);
    obs::MetricRegistry polledCounters, skippedCounters;
    cfg.cycleSkipping = false;
    RunStats polled =
        simulate(cfg, workload, Observability{&polledCounters});
    cfg.cycleSkipping = true;
    RunStats skipped =
        simulate(cfg, workload, Observability{&skippedCounters});
    EXPECT_EQ(statsJson(polled), statsJson(skipped)) << bench;
    expectSameCounters(polledCounters, skippedCounters);
    return skipped;
}

/** The multi-core counterpart of expectExact over one mix. */
void
expectMultiCoreExact(const std::vector<std::string> &benches,
                     SystemConfig cfg)
{
    std::vector<Workload> workloads;
    for (const std::string &bench : benches)
        workloads.push_back(buildWorkload(bench, InputSet::Train));
    std::vector<const Workload *> mix;
    for (const Workload &workload : workloads)
        mix.push_back(&workload);
    const std::vector<double> alone(mix.size(), 1.0);

    obs::MetricRegistry polledCounters, skippedCounters;
    cfg.cycleSkipping = false;
    MultiCoreResult polled = simulateMultiCore(
        cfg, mix, alone, Observability{&polledCounters});
    cfg.cycleSkipping = true;
    MultiCoreResult skipped = simulateMultiCore(
        cfg, mix, alone, Observability{&skippedCounters});

    EXPECT_EQ(polled.timedOut, skipped.timedOut);
    EXPECT_EQ(polled.busTransactions, skipped.busTransactions);
    EXPECT_DOUBLE_EQ(polled.weightedSpeedup, skipped.weightedSpeedup);
    EXPECT_DOUBLE_EQ(polled.hmeanSpeedup, skipped.hmeanSpeedup);
    ASSERT_EQ(polled.perCore.size(), skipped.perCore.size());
    for (std::size_t i = 0; i < polled.perCore.size(); ++i) {
        EXPECT_EQ(statsJson(polled.perCore[i]),
                  statsJson(skipped.perCore[i]))
            << "core " << i;
    }
    expectSameCounters(polledCounters, skippedCounters);
}

struct ExactCase
{
    const char *bench;
    const char *config;
};

class SkippingIsExact : public ::testing::TestWithParam<ExactCase>
{
};

SystemConfig
caseConfig(const ExactCase &c)
{
    const std::string config = c.config;
    if (config == "noprefetch")
        return configs::noPrefetch();
    if (config == "baseline")
        return configs::baseline();
    if (config == "cdp")
        return configs::streamCdp();
    if (config == "cdp+throttle")
        return configs::streamCdpThrottled();
    if (config == "full")
        return configs::fullProposal(&trainHints(c.bench));
    if (config == "ecdp+fdp")
        return configs::streamEcdpFdp(&trainHints(c.bench));
    if (config == "cdp+pab")
        return configs::streamCdpPab();
    if (config == "dbp")
        return configs::streamDbp();
    if (config == "markov")
        return configs::streamMarkov();
    if (config == "side-buffer") {
        SystemConfig cfg = configs::streamCdp();
        cfg.idealNoPollution = true;
        return cfg;
    }
    throw std::runtime_error("unknown exactness config " + config);
}

TEST_P(SkippingIsExact, StatsJsonIsByteIdentical)
{
    const ExactCase &c = GetParam();
    RunStats stats = expectExact(c.bench, caseConfig(c));
    // Sanity: these runs actually finish and do real work.
    EXPECT_FALSE(stats.timedOut);
    EXPECT_GT(stats.cycles, Cycle{});
    EXPECT_GT(stats.instructions, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    ConfigMatrix, SkippingIsExact,
    ::testing::Values(ExactCase{"health", "baseline"},
                      ExactCase{"mst", "cdp+throttle"},
                      // The greedy-CDP flood: the prefetch queue sits
                      // behind the MSHR demand reserve for most of
                      // the run, and the scheduler skips that wait.
                      ExactCase{"mst", "cdp"},
                      ExactCase{"pfast", "cdp"},
                      ExactCase{"xalancbmk", "cdp"},
                      ExactCase{"bisort", "full"},
                      ExactCase{"perimeter", "ecdp+fdp"},
                      ExactCase{"health", "cdp+pab"},
                      ExactCase{"mst", "dbp"},
                      ExactCase{"bisort", "markov"},
                      ExactCase{"health", "side-buffer"},
                      ExactCase{"mst", "noprefetch"}),
    [](const ::testing::TestParamInfo<ExactCase> &info) {
        std::string name = std::string(info.param.bench) + "_" +
                           info.param.config;
        for (char &ch : name) {
            if (ch == '+' || ch == '-')
                ch = '_';
        }
        return name;
    });

TEST(SkippingIsExactEdge, SmallBlockSizeConfig)
{
    // 64 B blocks exercise the block-size-derived DRAM bank hash
    // together with the scheduler.
    SystemConfig cfg = configs::baseline();
    cfg.l1BlockBytes = 64;
    cfg.l2BlockBytes = 64;
    expectExact("health", cfg);
}

TEST(SkippingIsExactEdge, MaxCyclesWatchdog)
{
    // A run cut off by the watchdog must time out at the identical
    // cycle with the identical partial stats: the skipping loop
    // clamps its jumps to maxCycles.
    SystemConfig cfg = configs::baseline();
    cfg.maxCycles = Cycle{20'000};
    RunStats stats = expectExact("health", cfg);
    EXPECT_TRUE(stats.timedOut);
    EXPECT_EQ(stats.cycles, Cycle{20'000});
}

TEST(SkippingIsExactEdge, MultiCoreSharedDram)
{
    expectMultiCoreExact({"health", "mst"},
                         configs::streamCdpThrottled());
}

TEST(SkippingIsExactEdge, MultiCoreCdpFlood)
{
    // Two unthrottled CDP floods on one DRAM: one core's queue can
    // wait on its MSHRs while the other's DRAM traffic moves on.
    expectMultiCoreExact({"mst", "xalancbmk"}, configs::streamCdp());
}

// ---------------------------------------------------------------
// Trailing-partial-interval flush.
// ---------------------------------------------------------------

TEST(TrailingInterval, ShortRunEmitsOnePartialSample)
{
    // With an interval longer than the whole run, no boundary is ever
    // crossed in tick(); the run's entire feedback activity lives in
    // the trailing partial interval and must still produce a sample.
    SystemConfig cfg = configs::streamCdpThrottled();
    cfg.intervalEvictions = 1u << 30;
    RunStats stats =
        simulate(cfg, buildWorkload("health", InputSet::Train));
    EXPECT_EQ(stats.intervals, 0u);
    ASSERT_EQ(stats.intervalSeries.size(), 1u);
    EXPECT_EQ(stats.intervalSeries.back().cycle, stats.cycles);
}

TEST(TrailingInterval, SeriesCarriesTheTail)
{
    // A normal run: completed intervals plus exactly one trailing
    // partial sample stamped with the run's end cycle. intervals
    // keeps counting completed boundaries only.
    SystemConfig cfg = configs::streamCdpThrottled();
    RunStats stats =
        simulate(cfg, buildWorkload("mst", InputSet::Train));
    ASSERT_GT(stats.intervals, 0u);
    ASSERT_EQ(stats.intervalSeries.size(), stats.intervals + 1);
    EXPECT_EQ(stats.intervalSeries.back().cycle, stats.cycles);
    // The completed samples end strictly before the run does.
    EXPECT_LT(stats.intervalSeries[stats.intervals - 1].cycle,
              stats.cycles);
}

} // namespace
} // namespace ecdp
