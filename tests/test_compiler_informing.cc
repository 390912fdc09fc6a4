/**
 * @file
 * Tests for the informing-load profiling implementation (the paper's
 * second Section 3 sketch): it must agree with the functional pass on
 * clearly-beneficial and clearly-harmful pointer groups.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <tuple>
#include <vector>

#include "compiler/profiling_compiler.hh"
#include "sim/experiment.hh"
#include "trace/trace.hh"
#include "workloads/workload.hh"

namespace ecdp
{
namespace
{

constexpr Addr kPcWalk = 0x6000;

/** Scattered list whose `next` (slot +2) is followed and whose junk
 *  pointer (slot +1) never is — same shape as the functional test. */
Workload
chainWorkload(std::size_t nodes)
{
    TraceBuilder tb("chain");
    std::vector<Addr> node_addrs, junk_addrs;
    for (std::size_t i = 0; i < nodes; ++i) {
        node_addrs.push_back(tb.heap().allocate(64, 64));
        // Scatter beyond the stream prefetcher's training window so
        // the chain is genuinely only CDP-prefetchable.
        tb.heap().allocate(4288, 64);
    }
    for (std::size_t i = 0; i < nodes; ++i)
        junk_addrs.push_back(tb.heap().allocate(64, 64));
    for (std::size_t i = 0; i < nodes; ++i) {
        tb.mem().write(node_addrs[i], 4, 1u);
        tb.mem().writePointer(node_addrs[i] + 4, junk_addrs[i]);
        tb.mem().writePointer(node_addrs[i] + 8,
                              i + 1 < nodes ? node_addrs[i + 1] : 0);
    }
    tb.beginTimed();
    Addr node = node_addrs[0];
    TraceRef ref = kNoDep;
    while (node != 0) {
        tb.load(kPcWalk, node, 4, ref, true, 30);
        auto [next, nref] = tb.loadPointer(kPcWalk + 8, node + 8, ref,
                                           10);
        node = next;
        ref = nref;
    }
    return std::move(tb).finish();
}

TEST(InformingLoads, AgreesWithFunctionalPassOnClearCases)
{
    Workload wl = chainWorkload(600);
    HintTable functional = ProfilingCompiler::profile(wl);
    HintTable informing =
        ProfilingCompiler::profileWithInformingLoads(wl);

    const PrefetchHint *f = functional.find(kPcWalk);
    const PrefetchHint *i = informing.find(kPcWalk);
    ASSERT_NE(f, nullptr);
    ASSERT_NE(i, nullptr);
    // Both must bless the next pointer and damn the junk pointer.
    EXPECT_TRUE(f->allows(2));
    EXPECT_TRUE(i->allows(2));
    EXPECT_FALSE(f->allows(1));
    EXPECT_FALSE(i->allows(1));
}

TEST(InformingLoads, ProducesUsableHintsForRealBenchmarks)
{
    Workload train = buildWorkload("health", InputSet::Train);
    HintTable hints =
        ProfilingCompiler::profileWithInformingLoads(train);
    // health's patient-next PG is the single most obviously
    // beneficial PG in the suite; any sane profiler finds it.
    EXPECT_FALSE(hints.empty());
}

/** (pc, positive, negative) rows in pc order, for exact comparison. */
std::vector<std::tuple<std::uint64_t, std::uint32_t, std::uint32_t>>
hintRows(const HintTable &hints)
{
    std::vector<std::tuple<std::uint64_t, std::uint32_t, std::uint32_t>>
        rows;
    for (const auto &[pc, hint] : hints)
        rows.emplace_back(pc.raw(), hint.pos, hint.neg);
    std::sort(rows.begin(), rows.end());
    return rows;
}

TEST(InformingLoads, TrainingRunPutsCdpInTheLdsSlotOfAnyStack)
{
    // Whatever the target runs in its LDS slot, the training run uses
    // plain CDP there: ECDP would need the very hints being computed,
    // and any other engine would profile the wrong pointer groups.
    const Workload train = buildWorkload("health", InputSet::Train);
    const auto expected = hintRows(
        ProfilingCompiler::profileWithInformingLoads(
            train, configs::byName("baseline")));
    ASSERT_FALSE(expected.empty());
    for (const char *lds : {"ecdp", "isb"}) {
        SystemConfig target = configs::byName("baseline");
        target.engines = {"stream", lds};
        EXPECT_EQ(hintRows(ProfilingCompiler::profileWithInformingLoads(
                      train, target)),
                  expected)
            << lds;
    }
}

} // namespace
} // namespace ecdp
