/**
 * @file
 * Conservation-law tests over the observability metric registry:
 * every prefetch the system generates must be accounted for exactly
 * once (issued, dropped for a recorded reason, or still queued /
 * in flight at the end of the run), every demand access must be a
 * hit, a merge, or a miss, and every MSHR allocation must be matched
 * by a release or a live entry. The identities are checked across
 * the full matrix of prefetcher / throttle / filter configurations
 * so that no accounting site can silently leak.
 *
 * MetricRegistry::value() throws on a missing path, so a typo in an
 * identity fails loudly instead of comparing against zero.
 */

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "compiler/profiling_compiler.hh"
#include "obs/observability.hh"
#include "sim/experiment.hh"
#include "sim/multicore.hh"
#include "sim/simulator.hh"
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

SystemConfig
makeCaseConfig(const std::string &config, const std::string &bench)
{
    if (config == "noprefetch")
        return configs::noPrefetch();
    if (config == "baseline")
        return configs::baseline();
    if (config == "cdp")
        return configs::streamCdp();
    if (config == "cdp+throttle")
        return configs::streamCdpThrottled();
    if (config == "full")
        return configs::fullProposal(&trainHints(bench));
    if (config == "dbp")
        return configs::streamDbp();
    if (config == "markov")
        return configs::streamMarkov();
    if (config == "ghb")
        return configs::ghbAlone();
    if (config == "cdp+filter")
        return configs::streamCdpHwFilter(true);
    if (config == "ecdp+fdp")
        return configs::streamEcdpFdp(&trainHints(bench));
    if (config == "cdp+pab")
        return configs::streamCdpPab();
    if (config == "ideal-lds")
        return configs::idealLds();
    if (config == "side-buffer") {
        // The Section 2.3 no-pollution oracle: prefetches fill a side
        // buffer instead of the L2, exercising the side_resident /
        // side_used legs of the fill identity.
        SystemConfig cfg = configs::streamCdp();
        cfg.idealNoPollution = true;
        return cfg;
    }
    throw std::runtime_error("unknown case config " + config);
}

/** Check every conservation identity for one core's subtree. */
void
checkCoreIdentities(const obs::MetricRegistry &m, unsigned core,
                    const std::string &context)
{
    const std::string root = "core" + std::to_string(core) + ".";
    auto v = [&](const std::string &path) {
        return m.value(root + path);
    };

    for (const auto &pf :
         {std::string("pf.primary."), std::string("pf.lds.")}) {
        SCOPED_TRACE(context + " " + root + pf);

        // Every generated prefetch request either entered the queue
        // or was dropped on queue overflow.
        EXPECT_EQ(v(pf + "generated"),
                  v(pf + "queued") + v(pf + "dropped.queue_full"));

        // Every queued request was issued to DRAM, dropped for a
        // recorded reason at issue time, or is still queued at the
        // end of the run.
        EXPECT_EQ(v(pf + "queued"),
                  v(pf + "issued") + v(pf + "dropped.source_disabled") +
                      v(pf + "dropped.cached") +
                      v(pf + "dropped.in_flight") +
                      v(pf + "dropped.side_buffer") +
                      v(pf + "dropped.hw_filter") +
                      v(pf + "in_queue_end"));

        // Every issued prefetch filled, or is still in an MSHR.
        EXPECT_EQ(v(pf + "issued"),
                  v(pf + "filled") + v(pf + "in_flight_end"));

        // Every filled prefetch was demanded (timely or late),
        // evicted unused, or is still resident unused (in the L2 or
        // the side buffer) when the run ended.
        EXPECT_EQ(v(pf + "filled"),
                  v(pf + "used") + v(pf + "consumed_late") +
                      v(pf + "evicted_unused") +
                      v(pf + "resident_unused_end") +
                      v(pf + "side_resident_end"));

        // Side-buffer hits are a subset of uses.
        EXPECT_LE(v(pf + "side_used"), v(pf + "used"));
        EXPECT_EQ(v(pf + "useful_latency_count"), v(pf + "used"));
    }

    {
        SCOPED_TRACE(context + " " + root + "l2");
        // Every demand access hit the L2, merged into an in-flight
        // MSHR, hit the side buffer or the ideal-LDS oracle, or
        // missed for real.
        EXPECT_EQ(v("l2.demand_accesses"),
                  v("l2.demand_hits") + v("l2.mshr_merges") +
                      v("l2.side_hits") + v("l2.ideal_hits") +
                      v("l2.demand_misses_true"));

        // The reported miss count splits into true misses and late
        // merges behind a prefetch.
        EXPECT_EQ(v("l2.demand_misses"),
                  v("l2.demand_misses_true") +
                      v("l2.demand_misses_late"));
        EXPECT_LE(v("l2.lds_misses"), v("l2.demand_misses"));
        EXPECT_LE(v("l2.demand_misses_late"), v("l2.mshr_merges"));

        // demand_loads counts every load (L1 hits included), so the
        // L2 can never see more demand traffic than ran through the
        // core in total (loads plus at most one probe per store).
        EXPECT_GT(v("demand_loads"), 0u);
    }

    {
        SCOPED_TRACE(context + " " + root + "mshr");
        // Every MSHR allocation is matched by a release or a live
        // entry at the end of the run.
        EXPECT_EQ(v("mshr.allocations"),
                  v("mshr.releases") + v("mshr.in_flight_end"));
    }
}

/** Registry totals must agree with the legacy RunStats fields. */
void
checkRunStatsAgreement(const obs::MetricRegistry &m, unsigned core,
                       const RunStats &stats)
{
    const std::string root = "core" + std::to_string(core) + ".";
    auto v = [&](const std::string &path) {
        return m.value(root + path);
    };
    static const char *const kPf[2] = {"pf.primary.", "pf.lds."};
    for (unsigned which = 0; which < 2; ++which) {
        const std::string pf = kPf[which];
        EXPECT_EQ(stats.prefIssued[which], v(pf + "issued"));
        EXPECT_EQ(stats.prefUsed[which], v(pf + "used"));
        EXPECT_EQ(stats.prefDropped[which],
                  v(pf + "dropped.queue_full"));
        EXPECT_EQ(stats.usefulLatencySum[which],
                  v(pf + "useful_latency_sum"));
    }
    EXPECT_EQ(stats.demandLoads, v("demand_loads"));
    EXPECT_EQ(stats.l2DemandAccesses, v("l2.demand_accesses"));
    EXPECT_EQ(stats.l2DemandMisses, v("l2.demand_misses"));
    EXPECT_EQ(stats.l2LdsMisses, v("l2.lds_misses"));
}

struct AccountingCase
{
    const char *bench;
    const char *config;
};

void
PrintTo(const AccountingCase &c, std::ostream *os)
{
    *os << c.bench << ":" << c.config;
}

class ConservationTest
    : public ::testing::TestWithParam<AccountingCase>
{
};

TEST_P(ConservationTest, RegistryBalances)
{
    const AccountingCase &c = GetParam();
    SystemConfig cfg = makeCaseConfig(c.config, c.bench);
    Workload workload = buildWorkload(c.bench, InputSet::Train);

    obs::MetricRegistry metrics;
    RunStats stats =
        simulate(cfg, workload, Observability{&metrics, nullptr});

    const std::string context =
        std::string(c.bench) + ":" + c.config;
    checkCoreIdentities(metrics, 0, context);
    checkRunStatsAgreement(metrics, 0, stats);

    // DRAM totals exist and at least every true L2 miss went to DRAM
    // or merged; reads cover demand fills and prefetches.
    EXPECT_GE(metrics.value("dram.reads"),
              metrics.value("core0.l2.demand_misses_true"));
}

INSTANTIATE_TEST_SUITE_P(
    WorkloadsByConfig, ConservationTest,
    ::testing::Values(
        AccountingCase{"health", "noprefetch"},
        AccountingCase{"health", "baseline"},
        AccountingCase{"health", "cdp"},
        AccountingCase{"health", "full"},
        AccountingCase{"health", "cdp+filter"},
        AccountingCase{"health", "cdp+pab"},
        AccountingCase{"health", "ecdp+fdp"},
        AccountingCase{"health", "markov"},
        AccountingCase{"health", "side-buffer"},
        AccountingCase{"mst", "cdp+throttle"},
        AccountingCase{"mst", "dbp"},
        AccountingCase{"mst", "ghb"},
        AccountingCase{"mst", "full"},
        AccountingCase{"bisort", "cdp"},
        AccountingCase{"libquantum", "baseline"},
        AccountingCase{"libquantum", "ideal-lds"}),
    [](const ::testing::TestParamInfo<AccountingCase> &info) {
        std::string name = std::string(info.param.bench) + "_" +
                           info.param.config;
        for (char &ch : name) {
            if (ch == '+' || ch == '-')
                ch = '_';
        }
        return name;
    });

TEST(ConservationMultiCore, EveryCoreBalances)
{
    Workload a = buildWorkload("health", InputSet::Train);
    Workload b = buildWorkload("libquantum", InputSet::Train);
    SystemConfig cfg = configs::streamCdpThrottled();

    obs::MetricRegistry metrics;
    MultiCoreResult result =
        simulateMultiCore(cfg, {&a, &b}, {1.0, 1.0},
                          Observability{&metrics, nullptr});

    ASSERT_EQ(result.perCore.size(), 2u);
    for (unsigned core = 0; core < 2; ++core) {
        checkCoreIdentities(metrics, core, "dual-core");
        checkRunStatsAgreement(metrics, core, result.perCore[core]);
    }
}

TEST(ConservationMultiCore, SharedRegistryKeepsCoresApart)
{
    Workload a = buildWorkload("mst", InputSet::Train);
    SystemConfig cfg = configs::baseline();

    obs::MetricRegistry metrics;
    simulateMultiCore(cfg, {&a, &a}, {1.0, 1.0},
                      Observability{&metrics, nullptr});

    // Identical workloads on a shared bus still register distinct
    // counters; the subtree prefixes must not collide.
    EXPECT_GT(metrics.value("core0.l2.demand_accesses"), 0u);
    EXPECT_GT(metrics.value("core1.l2.demand_accesses"), 0u);
    EXPECT_FALSE(
        metrics.sortedWithPrefix("core0.pf.primary.").empty());
    EXPECT_FALSE(
        metrics.sortedWithPrefix("core1.pf.primary.").empty());
}

TEST(ConservationRegistry, MissingPathThrows)
{
    obs::MetricRegistry metrics;
    metrics.counter("core0.l2.demand_hits").add(3);
    EXPECT_EQ(metrics.value("core0.l2.demand_hits"), 3u);
    EXPECT_THROW(metrics.value("core0.l2.demand_hit"),
                 std::out_of_range);
}

} // namespace
} // namespace ecdp
