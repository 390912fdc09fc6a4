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
 * but sim.loop_visits, sim.memory_ticks and sim.core_ticks must match
 * as well; those count the loop visits and ticks skipping saves.
 *
 * Besides the hand-picked matrix, fixed lists of seeds draw random
 * single-core cells and 2-4-core mixes (engine stacks, policies,
 * knobs, block sizes) and hold each to the same oracle.
 *
 * Also covers the trailing-partial-interval flush: a run that ends
 * mid-feedback-interval emits one final sample at its end cycle
 * instead of silently dropping its tail from the series.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "named_cells.hh"
#include "prefetch/engine.hh"
#include "server/cell.hh"
#include "sim/experiment.hh"
#include "sim/multicore.hh"
#include "sim/simulator.hh"
#include "stats/json.hh"
#include "throttle/throttle_policy.hh"
#include "workloads/workload.hh"

namespace ecdp
{
namespace
{

std::string
statsJson(const RunStats &stats)
{
    std::ostringstream os;
    writeRunStatsJson(os, stats, "exactness");
    return os.str();
}

/** The scheduler's own counters: the distinct cycles at which
 *  anything ticked, and the memory-system and core ticks, summed
 *  over the cores. */
constexpr const char *kLoopVisits = "sim.loop_visits";
constexpr const char *kMemoryTicks = "sim.memory_ticks";
constexpr const char *kCoreTicks = "sim.core_ticks";

/** Require equal registries except for the scheduler's counters,
 *  which skipping may only lower, and which count at most one tick
 *  per core (or memory system) per visit, for any of @p cores. */
void
expectSameCounters(const obs::MetricRegistry &polled,
                   const obs::MetricRegistry &skipped, std::uint64_t cores)
{
    auto withoutScheduler = [](const obs::MetricRegistry &registry) {
        auto all = registry.sorted();
        std::erase_if(all, [](const auto &kv) {
            return kv.first == kLoopVisits || kv.first == kMemoryTicks ||
                   kv.first == kCoreTicks;
        });
        return all;
    };
    EXPECT_EQ(withoutScheduler(polled), withoutScheduler(skipped));
    for (const obs::MetricRegistry *registry : {&polled, &skipped}) {
        const std::uint64_t visits = registry->value(kLoopVisits);
        EXPECT_GT(visits, 0u);
        EXPECT_LE(registry->value(kMemoryTicks), cores * visits);
        EXPECT_LE(registry->value(kCoreTicks), cores * visits);
    }
    for (const char *name : {kLoopVisits, kMemoryTicks, kCoreTicks})
        EXPECT_LE(skipped.value(name), polled.value(name)) << name;
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
    expectSameCounters(polledCounters, skippedCounters, 1);
    return skipped;
}

/** The multi-core counterpart of expectExact over one mix. Returns
 *  the skipping run; its counters land in @p counters when given. */
MultiCoreResult
expectMultiCoreExact(const std::vector<std::string> &benches,
                     SystemConfig cfg,
                     obs::MetricRegistry *counters = nullptr)
{
    std::vector<Workload> workloads;
    for (const std::string &bench : benches)
        workloads.push_back(buildWorkload(bench, InputSet::Train));
    std::vector<const Workload *> mix;
    for (const Workload &workload : workloads)
        mix.push_back(&workload);
    const std::vector<double> alone(mix.size(), 1.0);

    obs::MetricRegistry polledCounters, ownCounters;
    obs::MetricRegistry &skippedCounters =
        counters ? *counters : ownCounters;
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
    EXPECT_EQ(polled.perCore.size(), skipped.perCore.size());
    for (std::size_t i = 0;
         i < std::min(polled.perCore.size(), skipped.perCore.size()); ++i) {
        EXPECT_EQ(statsJson(polled.perCore[i]),
                  statsJson(skipped.perCore[i]))
            << "core " << i;
    }
    expectSameCounters(polledCounters, skippedCounters, mix.size());
    return skipped;
}

using cells::NamedCell;

class SkippingIsExact : public ::testing::TestWithParam<NamedCell>
{
};

TEST_P(SkippingIsExact, StatsJsonIsByteIdentical)
{
    const NamedCell &c = GetParam();
    RunStats stats = expectExact(c.bench, cells::cellConfig(c));
    // Sanity: these runs actually finish and do real work.
    EXPECT_FALSE(stats.timedOut);
    EXPECT_GT(stats.cycles, Cycle{});
    EXPECT_GT(stats.instructions, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    ConfigMatrix, SkippingIsExact,
    ::testing::Values(NamedCell{"health", "baseline"},
                      NamedCell{"mst", "cdp+throttle"},
                      // The greedy-CDP flood: the prefetch queue sits
                      // behind the MSHR demand reserve for most of
                      // the run, and the scheduler skips that wait.
                      NamedCell{"mst", "cdp"},
                      NamedCell{"pfast", "cdp"},
                      NamedCell{"xalancbmk", "cdp"},
                      NamedCell{"bisort", "full"},
                      // bisort reaches interval boundaries on train
                      // inputs, so FDP decisions and PAB selection
                      // run under the scheduler.
                      NamedCell{"bisort", "ecdp+fdp"},
                      NamedCell{"bisort", "cdp+pab"},
                      NamedCell{"mst", "dbp"},
                      NamedCell{"bisort", "markov"},
                      NamedCell{"health", "side-buffer"},
                      NamedCell{"mst", "noprefetch"}),
    cells::cellTestName);

TEST(SkippingIsExactEdge, SmallBlockSizeConfig)
{
    // 64 B blocks exercise the block-size-derived DRAM bank hash
    // together with the scheduler.
    expectExact("health", cells::cellConfig("small-blocks", "health"));
}

TEST(SkippingIsExactEdge, MaxCyclesWatchdog)
{
    // A run cut off by the watchdog must time out at the identical
    // cycle with the identical partial stats: the skipping loop
    // clamps its jumps to maxCycles.
    SystemConfig cfg = configs::byName("baseline");
    cfg.maxCycles = Cycle{20'000};
    RunStats stats = expectExact("health", cfg);
    EXPECT_TRUE(stats.timedOut);
    EXPECT_EQ(stats.cycles, Cycle{20'000});
}

TEST(SkippingIsExactEdge, MultiCoreSharedDram)
{
    expectMultiCoreExact({"health", "mst"},
                         configs::byName("cdp+throttle"));
}

TEST(SkippingIsExactEdge, MultiCoreCdpFlood)
{
    // Two unthrottled CDP floods on one DRAM: one core's queue can
    // wait on its MSHRs while the other's DRAM traffic moves on.
    expectMultiCoreExact({"mst", "xalancbmk"}, configs::byName("cdp"));
}

TEST(SkippingIsExactEdge, MultiCoreFullSharedBuffer)
{
    // Four CDP cores behind a two-entry-per-core request buffer:
    // cores stall on refusals while others run ahead of them.
    SystemConfig cfg = configs::byName("cdp");
    cfg.dram.requestBufferPerCore = 2;
    obs::MetricRegistry counters;
    expectMultiCoreExact({"gemsfdtd", "libquantum", "h264ref", "parser"},
                         cfg, &counters);
    EXPECT_GT(counters.value("dram.buffer_rejects"), 0u);
}

TEST(SkippingIsExactEdge, MultiCoreMaxCyclesWatchdog)
{
    SystemConfig cfg = configs::byName("cdp+throttle");
    cfg.maxCycles = Cycle{30'000};
    const MultiCoreResult result =
        expectMultiCoreExact({"health", "mst", "bisort"}, cfg);
    EXPECT_TRUE(result.timedOut);
    for (const RunStats &stats : result.perCore) {
        if (stats.timedOut) {
            EXPECT_EQ(stats.cycles, Cycle{30'000});
        }
    }
}

TEST(SkippingIsExactEdge, OneCoreMixIsTheSingleCoreRun)
{
    // simulate() is simulateMultiCore's one-core case, in both modes.
    const Workload workload = buildWorkload("health", InputSet::Train);
    SystemConfig cfg = configs::byName("cdp+throttle");
    for (const bool skipping : {false, true}) {
        cfg.cycleSkipping = skipping;
        const MultiCoreResult mix =
            simulateMultiCore(cfg, {&workload}, {1.0});
        ASSERT_EQ(mix.perCore.size(), 1u);
        EXPECT_EQ(statsJson(mix.perCore[0]),
                  statsJson(simulate(cfg, workload)))
            << "skipping " << skipping;
    }
}

// ---------------------------------------------------------------
// Seeded random single-core cells and multi-core mixes.
// ---------------------------------------------------------------

/** A drawn cell: an ecdpd cell spec plus the block size of both
 *  cache levels, which no cell knob sets. */
struct RandomCell
{
    server::CellSpec spec;
    std::uint32_t blockBytes = 128;
};

/** Train inputs that simulate in milliseconds. */
constexpr const char *kShortBenches[] = {
    "parser", "art",       "perimeter", "gemsfdtd", "h264ref", "libquantum",
    "gcc",    "mcf",       "milc",      "pfast",    "bzip2",   "health"};

/**
 * Draws the knobs of @p cell from @p rng: a named config, a stack of
 * 1-3 distinct engine-table rows, a throttle policy, the coverage
 * threshold, the interval, an RL seed and the block size.
 */
void
drawKnobs(std::mt19937_64 &rng, RandomCell &cell)
{
    auto pick = [&rng](std::size_t n) {
        return static_cast<std::size_t>(rng() % n);
    };
    server::CellSpec &spec = cell.spec;
    spec.input = "train";
    const std::vector<std::string> &configNames = configs::knownNames();
    spec.config = configNames[pick(configNames.size())];
    std::vector<std::string_view> engines;
    for (const EngineRow &row : engineTable())
        engines.push_back(row.name);
    std::shuffle(engines.begin(), engines.end(), rng);
    engines.resize(1 + pick(3));
    spec.engines.assign(engines.begin(), engines.end());
    const std::span<const PolicyRow> policies = policyTable();
    spec.throttlePolicy = policies[pick(policies.size())].name;
    // Eighths, so the canonical JSON prints them exactly.
    spec.tcov = static_cast<double>(pick(9)) / 8.0;
    // Short intervals, so short runs cross many interval boundaries.
    spec.interval = 64L << pick(7);
    spec.rlSeed = static_cast<long>(pick(1000));
    cell.blockBytes = 64u << pick(3);
}

/** The cell seed @p seed draws: a short train bench and its knobs. */
RandomCell
drawCell(std::uint64_t seed)
{
    std::mt19937_64 rng(seed);
    RandomCell cell;
    cell.spec.bench = kShortBenches[rng() % std::size(kShortBenches)];
    drawKnobs(rng, cell);
    return cell;
}

/** The SystemConfig of @p cell with @p hints (which must outlive it)
 *  and the drawn block size at both cache levels. */
SystemConfig
randomCellConfig(const RandomCell &cell, const HintTable *hints)
{
    SystemConfig cfg = server::makeCellConfig(cell.spec, hints);
    cfg.l1BlockBytes = cell.blockBytes;
    cfg.l2BlockBytes = cell.blockBytes;
    return cfg;
}

/** The fixed seed list, seeds 1 to 48: its draws reach every engine
 *  row, every policy and every block size
 *  (RandomCellOracle.SeedsCoverTheTables). */
constexpr std::uint64_t kSeedEnd = 49;

class RandomCellIsExact : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(RandomCellIsExact, StatsJsonIsByteIdentical)
{
    const RandomCell cell = drawCell(GetParam());
    // The reproducer: ecdpd takes the JSON as a cell, ecdpsim the
    // same fields as flags; the block size needs a SystemConfig.
    SCOPED_TRACE("cell " + server::canonicalCellJson(cell.spec) + " with " +
                 std::to_string(cell.blockBytes) + " B blocks");
    const HintTable *hints = server::cellNeedsHints(cell.spec)
        ? &cells::trainHints(cell.spec.bench)
        : nullptr;
    RunStats stats =
        expectExact(cell.spec.bench, randomCellConfig(cell, hints));
    EXPECT_FALSE(stats.timedOut);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomCellIsExact,
                         ::testing::Range<std::uint64_t>(1, kSeedEnd),
                         [](const ::testing::TestParamInfo<std::uint64_t> &p) {
                             return "seed_" + std::to_string(p.param);
                         });

/** The short benches whose per-cycle train run takes about 10 ms:
 *  a four-core mix that wraps its early finishers runs several times
 *  its slowest member's cycles in both modes. */
constexpr const char *kMixBenches[] = {"parser",   "art",     "perimeter",
                                       "gemsfdtd", "h264ref", "libquantum",
                                       "milc"};

/** A drawn mix: 2-4 distinct kMixBenches, one per core, all under
 *  one drawn cell's knobs (its bench is the first core's). */
struct RandomMix
{
    RandomCell cell;
    std::vector<std::string> benches;
};

RandomMix
drawMix(std::uint64_t seed)
{
    std::mt19937_64 rng(seed);
    RandomMix mix;
    mix.benches.assign(std::begin(kMixBenches), std::end(kMixBenches));
    std::shuffle(mix.benches.begin(), mix.benches.end(), rng);
    mix.benches.resize(2 + rng() % 3);
    mix.cell.spec.bench = mix.benches.front();
    drawKnobs(rng, mix.cell);
    return mix;
}

/** The fixed mix seed list, seeds 1 to 17: its draws reach 2, 3 and
 *  4 cores and every policy (RandomCellOracle.MixSeedsCoverTheTables).
 *  The 17 mixes take about 3 s of CPU. */
constexpr std::uint64_t kMixSeedEnd = 18;

class RandomMixIsExact : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(RandomMixIsExact, StatsJsonIsByteIdentical)
{
    const RandomMix mix = drawMix(GetParam());
    std::string benches;
    for (const std::string &bench : mix.benches)
        benches += (benches.empty() ? "" : ",") + bench;
    // The reproducer: `ecdpsim --multicore` of these benches with
    // the cell's fields as flags, and the block size.
    SCOPED_TRACE("mix " + benches + " under " +
                 server::canonicalCellJson(mix.cell.spec) + " with " +
                 std::to_string(mix.cell.blockBytes) + " B blocks");
    // The members' train hints, merged as ExperimentContext::mixHints
    // merges them.
    const bool needsHints = server::cellNeedsHints(mix.cell.spec);
    HintTable hints;
    for (const std::string &bench : mix.benches) {
        if (needsHints) {
            for (const auto &[pc, hint] : cells::trainHints(bench))
                hints.entry(pc) = hint;
        }
    }
    const MultiCoreResult result = expectMultiCoreExact(
        mix.benches,
        randomCellConfig(mix.cell, needsHints ? &hints : nullptr));
    EXPECT_FALSE(result.timedOut);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomMixIsExact,
                         ::testing::Range<std::uint64_t>(1, kMixSeedEnd),
                         [](const ::testing::TestParamInfo<std::uint64_t> &p) {
                             return "seed_" + std::to_string(p.param);
                         });

TEST(RandomCellOracle, SeedsCoverTheTables)
{
    std::set<std::string> engines, policies;
    std::set<std::uint32_t> blocks;
    for (std::uint64_t seed = 1; seed < kSeedEnd; ++seed) {
        const RandomCell cell = drawCell(seed);
        engines.insert(cell.spec.engines.begin(), cell.spec.engines.end());
        policies.insert(cell.spec.throttlePolicy);
        blocks.insert(cell.blockBytes);
        EXPECT_NO_THROW(server::validateCellSpec(cell.spec))
            << server::canonicalCellJson(cell.spec);
    }
    for (const EngineRow &row : engineTable())
        EXPECT_TRUE(engines.count(std::string(row.name))) << row.name;
    for (const PolicyRow &row : policyTable())
        EXPECT_TRUE(policies.count(std::string(row.name))) << row.name;
    EXPECT_EQ(blocks, (std::set<std::uint32_t>{64, 128, 256}));
}

TEST(RandomCellOracle, MixSeedsCoverTheTables)
{
    std::set<std::size_t> cores;
    std::set<std::string> policies;
    for (std::uint64_t seed = 1; seed < kMixSeedEnd; ++seed) {
        const RandomMix mix = drawMix(seed);
        cores.insert(mix.benches.size());
        policies.insert(mix.cell.spec.throttlePolicy);
        EXPECT_NO_THROW(server::validateCellSpec(mix.cell.spec))
            << server::canonicalCellJson(mix.cell.spec);
    }
    EXPECT_EQ(cores, (std::set<std::size_t>{2, 3, 4}));
    for (const PolicyRow &row : policyTable())
        EXPECT_TRUE(policies.count(std::string(row.name))) << row.name;
}

// ---------------------------------------------------------------
// Trailing-partial-interval flush.
// ---------------------------------------------------------------

TEST(TrailingInterval, ShortRunEmitsOnePartialSample)
{
    // With an interval longer than the whole run, no boundary is ever
    // crossed in tick(); the run's entire feedback activity lives in
    // the trailing partial interval and must still produce a sample.
    SystemConfig cfg = configs::byName("cdp+throttle");
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
    SystemConfig cfg = configs::byName("cdp+throttle");
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
