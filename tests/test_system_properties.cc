/**
 * @file
 * Parameterized whole-system property sweeps: invariants that must
 * hold across cache sizes, DRAM bank counts, core widths, and
 * prefetcher configurations.
 */

#include <gtest/gtest.h>

#include "sim/experiment.hh"
#include "sim/simulator.hh"

namespace ecdp
{
namespace
{

const Workload &
trainWorkload()
{
    static Workload wl = buildWorkload("mst", InputSet::Train);
    return wl;
}

/** Larger caches can only reduce demand misses. */
class CacheSizeSweep : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(CacheSizeSweep, BiggerL2MeansFewerMisses)
{
    SystemConfig small = configs::byName("noprefetch");
    small.l2Bytes = GetParam() * 1024;
    SystemConfig big = small;
    big.l2Bytes *= 4;
    RunStats s = simulate(small, trainWorkload());
    RunStats b = simulate(big, trainWorkload());
    EXPECT_LE(b.l2DemandMisses, s.l2DemandMisses * 101 / 100);
    EXPECT_GE(b.ipc, 0.95 * s.ipc);
}

INSTANTIATE_TEST_SUITE_P(Sizes, CacheSizeSweep,
                         ::testing::Values(128u, 256u, 512u));

/** More DRAM banks can only help a bank-conflicted workload. */
class BankSweep : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(BankSweep, MoreBanksNeverHurtMuch)
{
    SystemConfig few = configs::byName("baseline");
    few.dram.banks = GetParam();
    SystemConfig many = few;
    many.dram.banks = GetParam() * 4;
    RunStats f = simulate(few, trainWorkload());
    RunStats m = simulate(many, trainWorkload());
    EXPECT_GE(m.ipc, 0.95 * f.ipc);
}

INSTANTIATE_TEST_SUITE_P(Banks, BankSweep, ::testing::Values(2u, 4u));

/** Wider cores can only raise IPC (same memory system). */
class WidthSweep : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(WidthSweep, WiderRetireNeverHurts)
{
    SystemConfig narrow = configs::byName("baseline");
    narrow.core.width = GetParam();
    SystemConfig wide = narrow;
    wide.core.width = GetParam() * 2;
    RunStats n = simulate(narrow, trainWorkload());
    RunStats w = simulate(wide, trainWorkload());
    EXPECT_GE(w.ipc, 0.98 * n.ipc);
}

INSTANTIATE_TEST_SUITE_P(Widths, WidthSweep,
                         ::testing::Values(1u, 2u, 4u));

/** Prefetcher aggressiveness monotonicity in traffic. */
class AggressivenessSweep
    : public ::testing::TestWithParam<AggLevel>
{
};

TEST_P(AggressivenessSweep, MoreAggressiveStreamsIssueMore)
{
    SystemConfig conservative = configs::byName("baseline");
    conservative.primaryStartLevel = AggLevel::VeryConservative;
    SystemConfig level = configs::byName("baseline");
    level.primaryStartLevel = GetParam();
    Workload wl = buildWorkload("libquantum", InputSet::Train);
    RunStats c = simulate(conservative, wl);
    RunStats l = simulate(level, wl);
    EXPECT_GE(l.slot(0).issued, c.slot(0).issued);
}

INSTANTIATE_TEST_SUITE_P(Levels, AggressivenessSweep,
                         ::testing::Values(AggLevel::Conservative,
                                           AggLevel::Moderate,
                                           AggLevel::Aggressive));

/** Every pointer benchmark preserves cross-run bit-exactness under
 *  every headline configuration. */
class DeterminismSweep
    : public ::testing::TestWithParam<const char *>
{
};

TEST_P(DeterminismSweep, BitExactRepeats)
{
    Workload wl = buildWorkload(GetParam(), InputSet::Train);
    RunStats a = simulate(configs::byName("cdp"), wl);
    RunStats b = simulate(configs::byName("cdp"), wl);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.busTransactions, b.busTransactions);
    EXPECT_EQ(a.slot(0).issued, b.slot(0).issued);
    EXPECT_EQ(a.slot(1).issued, b.slot(1).issued);
}

INSTANTIATE_TEST_SUITE_P(Benchmarks, DeterminismSweep,
                         ::testing::Values("perlbench", "xalancbmk",
                                           "bisort", "pfast",
                                           "omnetpp"));

TEST(SystemProperties, ThrottlingNeverExplodesBandwidth)
{
    // Adding coordinated throttling to any CDP system must not
    // increase bandwidth by more than a few percent.
    for (const char *name : {"mst", "bisort", "health"}) {
        Workload wl = buildWorkload(name, InputSet::Train);
        RunStats plain = simulate(configs::byName("cdp"), wl);
        RunStats throttled =
            simulate(configs::byName("cdp+throttle"), wl);
        EXPECT_LE(throttled.busTransactions,
                  plain.busTransactions * 110 / 100)
            << name;
    }
}

TEST(SystemProperties, IdealNoPollutionNeverHurtsCdp)
{
    // Removing prefetch pollution by oracle can only help (Section
    // 2.3's bisort/mst analysis).
    for (const char *name : {"bisort", "mst"}) {
        Workload wl = buildWorkload(name, InputSet::Train);
        SystemConfig cdp = configs::byName("cdp");
        SystemConfig oracle = cdp;
        oracle.idealNoPollution = true;
        RunStats plain = simulate(cdp, wl);
        RunStats clean = simulate(oracle, wl);
        EXPECT_GE(clean.ipc, 0.97 * plain.ipc) << name;
    }
}

} // namespace
} // namespace ecdp
