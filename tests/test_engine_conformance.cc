/**
 * @file
 * Engine-conformance battery: one parameterized suite, instantiated
 * automatically over every name in the engine table, so a newly
 * added engine is held to the full contract (creatable, degree
 * caps honoured, deterministic, disable-able, conservation-clean,
 * bit-identical on replay and under cycle skipping) without anyone
 * remembering to add tests for it. The per-engine fixtures live in
 * engine_harness.hh.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "dram/dram.hh"
#include "engine_harness.hh"
#include "obs/observability.hh"
#include "sim/memory_system.hh"
#include "sim/simulator.hh"
#include "stats/json.hh"

namespace ecdp
{
namespace
{

using harness::EngineFixture;
using harness::RequestLog;

std::string
statsJson(const RunStats &stats)
{
    std::ostringstream os;
    writeRunStatsJson(os, stats, "conformance");
    return os.str();
}

/** Fixtures are deterministic, so build each engine's once. */
const EngineFixture &
cachedFixture(const std::string &engine)
{
    static std::map<std::string, EngineFixture> cache;
    auto it = cache.find(engine);
    if (it == cache.end())
        it = cache.emplace(engine, harness::makeEngineFixture(engine))
                 .first;
    return it->second;
}

class EngineConformance : public ::testing::TestWithParam<std::string>
{
  protected:
    const EngineFixture &fixture() const
    {
        return cachedFixture(GetParam());
    }

    std::unique_ptr<PrefetchEngine> create() const
    {
        // Script-matched hints (not the fixture's profiled ones) so
        // the hinted CDP engine fires under driveHookScript too.
        return findEngine(GetParam()).make(
            harness::defaultEngineContext(&harness::scriptHints()));
    }
};

TEST_P(EngineConformance, RegistryCreatesWellFormedEngine)
{
    const std::vector<std::string> names = harness::engineNames();
    EXPECT_NE(std::find(names.begin(), names.end(), GetParam()),
              names.end());

    std::unique_ptr<PrefetchEngine> engine = create();
    ASSERT_NE(engine, nullptr);
    EXPECT_EQ(engine->name(), GetParam());
    // A degree-0 cap is only legal for the engine that never fires.
    if (fixture().expectsTraffic) {
        EXPECT_GE(engine->maxRequestsPerTrigger(), 1u);
    }
    // An engine that claims fill scanning must scan demand fills.
    if (engine->wantsFillScan()) {
        EXPECT_TRUE(engine->scansOwnFillAt(0));
    }
}

TEST_P(EngineConformance, StorageBitsStableAcrossInstances)
{
    std::unique_ptr<PrefetchEngine> a = create();
    std::unique_ptr<PrefetchEngine> b = create();
    EXPECT_EQ(a->storageBits(), b->storageBits());
    // Hardware-table budget sanity: under 16 Mbit (2 MB).
    EXPECT_LT(a->storageBits(), 16ull * 1024 * 1024);
}

TEST_P(EngineConformance, HookCallsRespectDegreeCap)
{
    for (unsigned l = 0; l < kNumAggLevels; ++l) {
        const AggLevel level = static_cast<AggLevel>(l);
        std::unique_ptr<PrefetchEngine> engine = create();
        engine->setAggressiveness(level);
        const unsigned cap = engine->maxRequestsPerTrigger();
        SCOPED_TRACE("level " + std::to_string(l) + " cap " +
                     std::to_string(cap));
        harness::driveHookScript(*engine, [&](std::size_t appended) {
            EXPECT_LE(appended, cap);
        });
    }
}

TEST_P(EngineConformance, FreshReplayIsDeterministic)
{
    auto run = [&] {
        std::unique_ptr<PrefetchEngine> engine = create();
        return harness::driveHookScript(*engine, [](std::size_t) {});
    };
    const RequestLog first = run();
    const RequestLog second = run();
    EXPECT_EQ(first, second);
    if (fixture().expectsTraffic) {
        EXPECT_FALSE(first.empty())
            << "hook script produced no requests";
    }
}

TEST_P(EngineConformance, DisabledSlotGeneratesNothing)
{
    const EngineFixture &f = fixture();
    obs::MetricRegistry metrics;
    Observability obs{&metrics, nullptr};
    DramSystem dram(f.cfg.dram, 1);
    MemorySystem mem(f.cfg, 0, f.workload.image.clone(), &dram, &obs);
    ASSERT_EQ(mem.engineCount(), 1u);
    mem.setEngineEnabled(0, false);

    Cycle now{0};
    const std::size_t limit =
        std::min<std::size_t>(f.workload.trace.size(), 1024);
    for (std::size_t i = 0; i < limit; ++i) {
        const TraceEntry &entry = f.workload.trace[i];
        for (unsigned c = 0; c < 4; ++c) {
            mem.tick(now);
            now = now + 1;
        }
        if (entry.kind == AccessKind::Store)
            mem.store(entry, now);
        else
            mem.load(entry, now); // MSHR-full rejections are fine
    }
    for (unsigned c = 0; c < 2000; ++c) {
        mem.tick(now);
        now = now + 1;
    }

    EXPECT_EQ(metrics.value("core0.pf.primary.generated"), 0u);
    EXPECT_EQ(metrics.value("core0.pf.primary.issued"), 0u);
}

TEST_P(EngineConformance, FiresWhenExpectedAndConserves)
{
    const EngineFixture &f = fixture();
    obs::MetricRegistry metrics;
    RunStats stats =
        simulate(f.cfg, f.workload, Observability{&metrics, nullptr});

    const std::uint64_t generated =
        metrics.value("core0.pf.primary.generated");
    if (f.expectsTraffic) {
        EXPECT_GT(generated, 0u)
            << f.engine << " generated no prefetches on its fixture";
    } else {
        EXPECT_EQ(generated, 0u);
    }

    harness::checkEngineIdentities(
        metrics, 0, engineInstanceNames(f.cfg.engines), f.engine);

    ASSERT_EQ(stats.engineStats.size(), 1u);
    EXPECT_EQ(stats.engineStats[0].engine, f.engine);
    EXPECT_EQ(stats.engineStats[0].instance, "primary");
    EXPECT_EQ(stats.engineStats[0].issued,
              metrics.value("core0.pf.primary.issued"));
}

TEST_P(EngineConformance, ReplayIsByteIdentical)
{
    const EngineFixture &f = fixture();
    const std::string first = statsJson(simulate(f.cfg, f.workload));
    const std::string second = statsJson(simulate(f.cfg, f.workload));
    EXPECT_EQ(first, second);
}

TEST_P(EngineConformance, CycleSkippingIsExact)
{
    const EngineFixture &f = fixture();
    SystemConfig polled = f.cfg;
    polled.cycleSkipping = false;
    SystemConfig skipped = f.cfg;
    skipped.cycleSkipping = true;
    EXPECT_EQ(statsJson(simulate(polled, f.workload)),
              statsJson(simulate(skipped, f.workload)));
}

INSTANTIATE_TEST_SUITE_P(
    AllRegisteredEngines, EngineConformance,
    ::testing::ValuesIn(harness::engineNames()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        return info.param;
    });

/** Every table row must have a fixture row, and vice versa. */
TEST(EngineConformanceCoverage, FixtureTableMatchesRegistry)
{
    const std::vector<std::string> names = harness::engineNames();
    for (const std::string &name : names)
        EXPECT_NO_THROW(harness::fixtureSpec(name)) << name;
    EXPECT_EQ(harness::fixtureTable().size(), names.size())
        << "stale fixture row for an engine the table lacks";
}

/** A three-engine hybrid stack: slots 2+ get derived instance names,
 *  their own counter scopes, interval `extra` slots, and a top-level
 *  `engines` array in the stats JSON. */
TEST(EngineStacks, ThreeEngineHybridConserves)
{
    Workload workload = harness::pointerChaseWorkload();
    SystemConfig cfg;
    cfg.engines = {"stream", "cdp", "isb"};
    cfg.throttlePolicy = "coordinated";

    obs::MetricRegistry metrics;
    RunStats stats =
        simulate(cfg, workload, Observability{&metrics, nullptr});

    const std::vector<std::string> instances =
        engineInstanceNames(cfg.engines);
    ASSERT_EQ(instances,
              (std::vector<std::string>{"primary", "lds", "isb2"}));
    harness::checkEngineIdentities(metrics, 0, instances, "hybrid");

    ASSERT_EQ(stats.engineStats.size(), 3u);
    EXPECT_EQ(stats.engineStats[2].instance, "isb2");
    EXPECT_EQ(stats.engineStats[2].engine, "isb");
    for (const IntervalSample &s : stats.intervalSeries)
        EXPECT_EQ(s.slots.size(), 3u);

    const std::string json = statsJson(stats);
    EXPECT_NE(json.find("\"engines\":["), std::string::npos);
    EXPECT_NE(json.find("\"isb2\""), std::string::npos);
}

/** A two-slot stack is fully described by the "prefetchers" object:
 *  no "engines" array and no interval "extra" slots. */
TEST(EngineStacks, TwoSlotJsonKeepsLegacyShape)
{
    Workload workload = harness::sequentialWorkload();
    SystemConfig cfg; // default stream+none two-slot stack
    const std::string json = statsJson(simulate(cfg, workload));
    EXPECT_EQ(json.find("\"engines\":["), std::string::npos);
    EXPECT_EQ(json.find("\"extra\":["), std::string::npos);
}

} // namespace
} // namespace ecdp
