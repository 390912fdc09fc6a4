/**
 * @file
 * Property tests for the engine table and the engine-stack plumbing
 * in SystemConfig: unknown names fail with a diagnosable error,
 * configHash() distinguishes
 * every stack ordering (including duplicates), and instance naming
 * never collides — so two configs that run different engine stacks
 * can never alias in the result store or the metric tree.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "dram/dram.hh"
#include "engine_harness.hh"
#include "obs/observability.hh"
#include "sim/memory_system.hh"

namespace ecdp
{
namespace
{

TEST(EngineTable, UnknownNameThrowsWithDiagnosis)
{
    try {
        findEngine("no-such-engine");
        FAIL() << "findEngine() accepted an unknown engine name";
    } catch (const std::runtime_error &err) {
        const std::string what = err.what();
        // The error must name the offender and list valid choices.
        EXPECT_NE(what.find("no-such-engine"), std::string::npos)
            << what;
        EXPECT_NE(what.find("stream"), std::string::npos) << what;
    }
}

TEST(EngineTable, NamesAreSortedAndCreatable)
{
    const std::vector<std::string> names = harness::engineNames();
    EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
    const EngineContext ctx =
        harness::defaultEngineContext(&harness::scriptHints());
    for (const std::string &name : names)
        EXPECT_NE(findEngine(name).make(ctx), nullptr) << name;
}

TEST(EngineTable, EcdpRowRejectsMissingHints)
{
    // Looking "ecdp" up constructs nothing, so a cell check can name
    // it without hints; building it without hints is an error.
    EXPECT_EQ(findEngine("ecdp").name, "ecdp");
    EXPECT_THROW(findEngine("ecdp").make(harness::defaultEngineContext()),
                 std::invalid_argument);
}

TEST(EngineStackHash, OrderAndMultiplicitySensitive)
{
    SystemConfig a;
    a.engines = {"stream", "cdp"};
    SystemConfig b;
    b.engines = {"cdp", "stream"};
    EXPECT_NE(configHash(a), configHash(b));

    SystemConfig c;
    c.engines = {"stream", "cdp", "cdp"};
    EXPECT_NE(configHash(a), configHash(c));
    EXPECT_NE(configHash(b), configHash(c));

    SystemConfig a2;
    a2.engines = {"stream", "cdp"};
    EXPECT_EQ(configHash(a), configHash(a2));
}

TEST(EngineStackHash, RandomStacksCollideOnlyWhenEqual)
{
    // Deterministic fuzz: random stacks (length 1-4, duplicates
    // allowed) drawn from a pool of engines that need no hints. Two
    // configs may share a hash only if their stacks are identical.
    const std::vector<std::string> pool = {"none",   "stream", "ghb",
                                           "cdp",    "dbp",    "markov",
                                           "isb",    "dspatch"};
    std::mt19937 rng(0xec9f);
    std::map<std::uint64_t, std::vector<std::string>> seen;
    for (unsigned trial = 0; trial < 256; ++trial) {
        SystemConfig cfg;
        const unsigned len = 1 + rng() % 4;
        for (unsigned i = 0; i < len; ++i)
            cfg.engines.push_back(pool[rng() % pool.size()]);

        const std::uint64_t hash = configHash(cfg);
        auto [it, inserted] = seen.emplace(hash, cfg.engines);
        if (!inserted) {
            EXPECT_EQ(it->second, cfg.engines)
                << "hash collision between different stacks";
        }
    }
    // The pool admits 8+64+512+4096 stacks; 256 draws must have
    // produced well over one distinct hash.
    EXPECT_GT(seen.size(), 64u);
}

TEST(EngineStackNames, InstanceNamesNeverCollide)
{
    const std::vector<std::string> pool = {"none",   "stream", "ghb",
                                           "cdp",    "dbp",    "markov",
                                           "isb",    "dspatch"};
    std::mt19937 rng(0x5eed);
    for (unsigned trial = 0; trial < 128; ++trial) {
        std::vector<std::string> stack;
        const unsigned len = 1 + rng() % 6;
        for (unsigned i = 0; i < len; ++i)
            stack.push_back(pool[rng() % pool.size()]);

        const std::vector<std::string> instances =
            engineInstanceNames(stack);
        ASSERT_EQ(instances.size(), stack.size());
        // Slots 0/1 keep the paper's scope names, which the pinned
        // goldens and the stats JSON's primary/lds keys rely on.
        EXPECT_EQ(instances[0], "primary");
        if (instances.size() > 1) {
            EXPECT_EQ(instances[1], "lds");
        }
        const std::set<std::string> unique(instances.begin(),
                                           instances.end());
        EXPECT_EQ(unique.size(), instances.size())
            << "duplicate instance name in a " +
                   std::to_string(len) + "-engine stack";
    }
}

TEST(EngineStackNames, DuplicateEnginesGetDistinctCounterScopes)
{
    // The same engine twice in one stack must bind two separate
    // counter subtrees; MetricRegistry::value() throws on a missing
    // path, so this also proves both scopes exist.
    SystemConfig cfg;
    cfg.engines = {"stream", "stream", "stream"};
    obs::MetricRegistry metrics;
    Observability obs{&metrics, nullptr};
    DramSystem dram(cfg.dram, 1);
    MemorySystem mem(cfg, 0, SimMemory{}, &dram, &obs);

    ASSERT_EQ(mem.engineCount(), 3u);
    for (const std::string &inst : {std::string("primary"),
                                    std::string("lds"),
                                    std::string("stream2")}) {
        EXPECT_EQ(metrics.value("core0.pf." + inst + ".generated"),
                  0u)
            << inst;
    }
}

} // namespace
} // namespace ecdp
