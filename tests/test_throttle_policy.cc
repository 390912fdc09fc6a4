/**
 * @file
 * ThrottlePolicy table, conformance and byte-identity tests.
 *
 *  - Policy-table lookup (builtins, sorted names, unknown names),
 *    as for the engine table.
 *  - A conformance battery instantiated over every table row
 *    (creatable, deterministic over a scripted snapshot sequence,
 *    serialized state parses).
 *  - PAB as a policy: it selects enable bits, never levels.
 *  - Seeded-determinism tests for tabular-rl: equal seeds give
 *    byte-identical runs, different seeds diverge, and the seed
 *    folds into configHash.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "memsim/name_table.hh"
#include "sim/experiment.hh"
#include "sim/simulator.hh"
#include "stats/json.hh"
#include "throttle/tabular_rl_policy.hh"
#include "throttle/throttle_policy.hh"
#include "workloads/workload.hh"

namespace ecdp
{
namespace
{

// ---------------------------------------------------------------
// Per-policy fixture table. The simlint `policy-conformance` rule
// greps these rows: every policy-table row must have one, so a new
// policy cannot dodge the battery below.
// ---------------------------------------------------------------

enum class PolicyProbe { RuleBased, Learned };

struct PolicyFixtureRow
{
    const char *policy;
    PolicyProbe probe;
};

constexpr PolicyFixtureRow kPolicyFixtures[] = {
    {"static", PolicyProbe::RuleBased},
    {"coordinated", PolicyProbe::RuleBased},
    {"fdp", PolicyProbe::RuleBased},
    {"pab", PolicyProbe::RuleBased},
    {"tabular-rl", PolicyProbe::Learned},
};

const PolicyFixtureRow &
fixtureRow(const std::string &policy)
{
    for (const PolicyFixtureRow &row : kPolicyFixtures) {
        if (policy == row.policy)
            return row;
    }
    throw std::logic_error("no policy fixture row for " + policy);
}

/** Every policy-table name, in table order. */
std::vector<std::string>
policyNames()
{
    return namesOf(policyTable());
}

std::unique_ptr<ThrottlePolicy>
makePolicy(const std::string &name, const PolicyContext &ctx = {})
{
    return findPolicy(name).make(ctx);
}

// ---------------------------------------------------------------
// Table lookup.
// ---------------------------------------------------------------

TEST(PolicyTable, ContainsAllBuiltins)
{
    for (const char *name : {"static", "coordinated", "fdp", "pab",
                             "tabular-rl"})
        EXPECT_EQ(findPolicy(name).name, name);
    EXPECT_THROW(findPolicy("nonsense"), std::runtime_error);
}

TEST(PolicyTable, NamesAreSorted)
{
    const std::vector<std::string> names = policyNames();
    EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
    EXPECT_EQ(names.size(), std::size(kPolicyFixtures));
}

TEST(PolicyTable, UnknownNameListsKnownNames)
{
    try {
        findPolicy("no-such-policy");
        FAIL() << "expected std::runtime_error";
    } catch (const std::runtime_error &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("no-such-policy"), std::string::npos);
        EXPECT_NE(what.find("coordinated"), std::string::npos);
        EXPECT_NE(what.find("tabular-rl"), std::string::npos);
    }
}

// ---------------------------------------------------------------
// Conformance battery over every registered policy.
// ---------------------------------------------------------------

/** Deterministic scripted feedback history: `intervals` interval
 *  boundaries of a two-slot stack with LCG-varied snapshots. Returns
 *  the flat decision sequence the policy produced. */
std::vector<ThrottleDecision>
driveScript(ThrottlePolicy &policy, unsigned intervals = 64)
{
    std::uint64_t lcg = 99991;
    auto next01 = [&lcg] {
        lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
        return static_cast<double>(lcg >> 40) /
               static_cast<double>(1 << 24);
    };
    std::vector<ThrottleDecision> decisions;
    for (unsigned n = 0; n < intervals; ++n) {
        std::vector<FeedbackSnapshot> snaps(2);
        for (FeedbackSnapshot &s : snaps) {
            s.accuracy = next01();
            s.coverage = next01() * 0.5;
            s.lateness = next01() * 0.3;
            s.pollution = next01() * 0.1;
            s.anyPrefetches = next01() > 0.2;
        }
        IntervalContext ictx;
        ictx.cycle = Cycle{(n + 1) * 10000ull};
        ictx.deltaCycles = 10000;
        ictx.deltaInstructions =
            static_cast<std::uint64_t>(next01() * 20000.0);
        ictx.deltaBusTransactions =
            static_cast<std::uint64_t>(next01() * 600.0);
        for (std::size_t slot = 0; slot < snaps.size(); ++slot)
            decisions.push_back(
                policy.onIntervalEnd(slot, snaps, ictx));
    }
    return decisions;
}

class PolicyConformance : public ::testing::TestWithParam<std::string>
{
  protected:
    std::unique_ptr<ThrottlePolicy> create() const
    {
        return makePolicy(GetParam());
    }
};

TEST_P(PolicyConformance, RegistryCreatesWellFormedPolicy)
{
    std::unique_ptr<ThrottlePolicy> policy = create();
    ASSERT_NE(policy, nullptr);
    EXPECT_EQ(policy->name(), GetParam());
    // The fixture table must know the policy (simlint pins this too).
    EXPECT_NO_THROW(fixtureRow(GetParam()));
}

TEST_P(PolicyConformance, DeterministicOverScriptedHistory)
{
    std::unique_ptr<ThrottlePolicy> a = create();
    std::unique_ptr<ThrottlePolicy> b = create();
    EXPECT_EQ(driveScript(*a), driveScript(*b));
}

TEST_P(PolicyConformance, SerializedStateIsValidJsonOrEmpty)
{
    std::unique_ptr<ThrottlePolicy> policy = create();
    driveScript(*policy);
    for (const std::string &blob :
         {policy->intervalStateJson(), policy->stateJson()}) {
        if (blob.empty())
            continue;
        JsonValue parsed = parseJson(blob);
        EXPECT_EQ(parsed.kind(), JsonValue::Kind::Object);
    }
    // Rule policies must serialize nothing: the pinned goldens depend
    // on default-policy JSON keeping its exact legacy shape.
    if (fixtureRow(GetParam()).probe == PolicyProbe::RuleBased) {
        EXPECT_TRUE(policy->intervalStateJson().empty());
        EXPECT_TRUE(policy->stateJson().empty());
    } else {
        EXPECT_FALSE(policy->stateJson().empty());
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllRegisteredPolicies, PolicyConformance,
    ::testing::ValuesIn(policyNames()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        std::string name = info.param;
        for (char &ch : name) {
            if (ch == '-')
                ch = '_';
        }
        return name;
    });

/** Every table row must have a fixture row, and vice versa. */
TEST(PolicyConformanceCoverage, FixtureTableMatchesRegistry)
{
    const std::vector<std::string> names = policyNames();
    for (const std::string &name : names)
        EXPECT_NO_THROW(fixtureRow(name)) << name;
    EXPECT_EQ(std::size(kPolicyFixtures), names.size())
        << "stale fixture row for a policy the table lacks";
}

// ---------------------------------------------------------------
// PAB (Section 7.4): a selector policy — it flips enable bits from
// per-slot outcome windows and never moves a level.
// ---------------------------------------------------------------

/** Feed @p used_of_four "used" outcomes out of four to @p slot. */
void
feedOutcomes(ThrottlePolicy &policy, std::size_t slot,
             unsigned used_of_four)
{
    for (unsigned i = 0; i < 4; ++i)
        policy.onPrefetchOutcome(slot, i < used_of_four);
}

TEST(PabPolicyTest, KeepsOnlyTheMostAccurateSlotEnabled)
{
    PolicyContext ctx;
    ctx.slots = 3;
    ctx.pabWindow = 4;
    std::unique_ptr<ThrottlePolicy> pab = makePolicy("pab", ctx);
    ASSERT_TRUE(pab->wantsOutcomes());
    feedOutcomes(*pab, 0, 1);
    feedOutcomes(*pab, 1, 3);
    feedOutcomes(*pab, 2, 2);
    std::vector<std::uint8_t> enabled(3, 1);
    pab->selectEnabled(enabled);
    EXPECT_EQ(enabled, (std::vector<std::uint8_t>{0, 1, 0}));

    // The window holds the last four outcomes per slot: slot 2 now
    // reads 4/4 and takes over.
    feedOutcomes(*pab, 2, 4);
    pab->selectEnabled(enabled);
    EXPECT_EQ(enabled, (std::vector<std::uint8_t>{0, 0, 1}));

    // Levels never move.
    const std::vector<FeedbackSnapshot> snaps(3);
    for (std::size_t slot = 0; slot < 3; ++slot) {
        EXPECT_EQ(pab->onIntervalEnd(slot, snaps, IntervalContext{}),
                  ThrottleDecision::Nothing);
    }
}

TEST(PabPolicyTest, OnlyPabAsksForOutcomes)
{
    for (const std::string &name : policyNames())
        EXPECT_EQ(makePolicy(name)->wantsOutcomes(), name == "pab")
            << name;
}

TEST(PabPolicyTest, RunCountsUnderThePabScope)
{
    obs::MetricRegistry metrics;
    RunStats stats =
        simulate(configs::byName("cdp+pab"),
                 buildWorkload("bisort", InputSet::Train),
                 Observability{&metrics, nullptr});
    ASSERT_GT(stats.intervals, 0u);
    EXPECT_EQ(metrics.value("core0.throttle.pab.intervals"),
              stats.intervals);
    EXPECT_TRUE(metrics.sortedWithPrefix("core0.throttle.static.")
                    .empty());
}

// ---------------------------------------------------------------
// Tabular-RL: discretization corners, seeded determinism, stats
// plumbing, and the configHash fold.
// ---------------------------------------------------------------

IntervalContext
busContext(std::uint64_t bus, std::uint64_t cycles = 10000)
{
    IntervalContext ictx;
    ictx.cycle = Cycle{cycles};
    ictx.deltaCycles = cycles;
    ictx.deltaBusTransactions = bus;
    return ictx;
}

FeedbackSnapshot
rlSnap(double accuracy, double coverage)
{
    FeedbackSnapshot s;
    s.accuracy = accuracy;
    s.coverage = coverage;
    s.anyPrefetches = true;
    return s;
}

TEST(TabularRlPolicyTest, DiscretizeCoversEncodingCorners)
{
    TabularRlPolicy policy{PolicyContext{}};
    // Defaults: aLow 0.4, aHigh 0.7, tCoverage 0.2; bw cuts at
    // 8/24/48 transactions per kilocycle. State index is
    // (acc * 4 + cov) * 4 + bw.
    EXPECT_EQ(policy.discretize(rlSnap(0.0, 0.0), busContext(0)), 0u);
    // acc High (2), cov >= 2T (3), bw saturated (3) -> last state.
    EXPECT_EQ(policy.discretize(rlSnap(0.9, 0.5), busContext(1000)),
              TabularRlPolicy::kStates - 1);
    // acc Medium (1), cov in [T/2, T) (1), bw light (1).
    EXPECT_EQ(policy.discretize(rlSnap(0.5, 0.15), busContext(100)),
              (1u * 4 + 1) * 4 + 1);
    // Threshold edges are half-open: accuracy aHigh is High, coverage
    // exactly T lands in bucket 2, bus exactly 8/kc in bucket 1.
    EXPECT_EQ(policy.discretize(rlSnap(0.7, 0.2), busContext(80)),
              (2u * 4 + 2) * 4 + 1);
}

TEST(TabularRlPolicyTest, ExplorationRateTracksEpsilon)
{
    PolicyContext ctx;
    ctx.seed = 42;
    TabularRlPolicy policy{ctx};
    driveScript(policy, 500);
    ASSERT_EQ(policy.intervalsSeen(), 500u);
    // 1000 decisions at epsilon = 0.1: expect ~100 explorations;
    // a generous 3-sigma band keeps this deterministic-seed test
    // meaningful without being brittle.
    EXPECT_GT(policy.explorations(), 60u);
    EXPECT_LT(policy.explorations(), 150u);
}

std::string
tabularRlRunJson(std::uint64_t seed)
{
    SystemConfig cfg = configs::byName("cdp+throttle");
    cfg.throttlePolicy = "tabular-rl";
    cfg.throttleRlSeed = seed;
    RunStats stats =
        simulate(cfg, buildWorkload("mst", InputSet::Train));
    std::ostringstream os;
    writeRunStatsJson(os, stats, "tabular-rl");
    return os.str();
}

TEST(TabularRlPolicyTest, SameSeedIsByteIdentical)
{
    EXPECT_EQ(tabularRlRunJson(7), tabularRlRunJson(7));
}

TEST(TabularRlPolicyTest, DifferentSeedsDiverge)
{
    EXPECT_NE(tabularRlRunJson(7), tabularRlRunJson(8));
}

TEST(TabularRlPolicyTest, RunStatsCarryPolicyState)
{
    SystemConfig cfg = configs::byName("cdp+throttle");
    cfg.throttlePolicy = "tabular-rl";
    RunStats stats =
        simulate(cfg, buildWorkload("mst", InputSet::Train));

    EXPECT_EQ(stats.throttlePolicy, "tabular-rl");
    ASSERT_FALSE(stats.throttlePolicyState.empty());
    JsonValue state = parseJson(stats.throttlePolicyState);
    EXPECT_EQ(state.at("policy").asString(), "tabular-rl");
    EXPECT_GT(state.at("intervals").asU64(), 0u);

    // Per-interval policy blobs ride along in the interval series and
    // in the emitted JSON.
    ASSERT_FALSE(stats.intervalSeries.empty());
    bool any_policy_blob = false;
    for (const IntervalSample &s : stats.intervalSeries) {
        if (s.policy.empty())
            continue;
        any_policy_blob = true;
        JsonValue blob = parseJson(s.policy);
        EXPECT_EQ(blob.kind(), JsonValue::Kind::Object);
    }
    EXPECT_TRUE(any_policy_blob);

    std::ostringstream os;
    writeRunStatsJson(os, stats, "tabular-rl");
    const std::string json = os.str();
    EXPECT_NE(json.find("\"throttlePolicyState\":"),
              std::string::npos);
    EXPECT_NE(json.find("\"policy\":{"), std::string::npos);
    // The whole document still parses with the embedded blobs.
    EXPECT_NO_THROW(parseJson(json));
}

TEST(TabularRlPolicyTest, DefaultRunsCarryNoPolicyState)
{
    // The rule policies serialize nothing, so a default coordinated
    // run keeps the exact legacy JSON shape the goldens pin.
    RunStats stats =
        simulate(configs::byName("cdp+throttle"),
                 buildWorkload("mst", InputSet::Train));
    EXPECT_TRUE(stats.throttlePolicyState.empty());
    std::ostringstream os;
    writeRunStatsJson(os, stats, "cdp+throttle");
    EXPECT_EQ(os.str().find("throttlePolicy"), std::string::npos);
}

TEST(TabularRlPolicyTest, SeedFoldsIntoConfigHash)
{
    SystemConfig a = configs::byName("cdp+throttle");
    a.throttlePolicy = "tabular-rl";
    a.throttleRlSeed = 1;
    SystemConfig b = a;
    b.throttleRlSeed = 2;
    EXPECT_NE(configHash(a), configHash(b));

    SystemConfig c = a;
    c.throttlePolicy = "coordinated";
    EXPECT_NE(configHash(a), configHash(c));
}

} // namespace
} // namespace ecdp
