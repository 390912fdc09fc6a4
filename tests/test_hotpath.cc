/**
 * @file
 * Hot-path flattening tests: the SoA cache/MSHR layout and the SIMD
 * CDP candidate kernel must be pure optimisations, and the metric
 * registry and event tracer pure observations — same results,
 * different speed or visibility.
 *
 * Two layers of proof:
 *  - kernel fuzz: candidateMaskScalar is the oracle; the AVX2 kernel
 *    (when built) must agree bit-for-bit on randomized block images,
 *    compare widths, block sizes and tail slot counts, and both must
 *    agree with the one-word isPointerCandidate predicate;
 *  - identity matrix: attaching a registry and a tracer to a run must
 *    not change one byte of its stats JSON, across a workload×config
 *    matrix of named cells (plus the 64B-block edge) — every case
 *    crossing the SoA cache, the SoA MSHR file and whichever CDP
 *    kernel the build selected.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "cache/cache.hh"
#include "cache/mshr.hh"
#include "named_cells.hh"
#include "prefetch/cdp.hh"
#include "sim/experiment.hh"
#include "sim/simulator.hh"
#include "stats/json.hh"
#include "workloads/workload.hh"

namespace ecdp
{
namespace
{

// ---------------------------------------------------------------
// Kernel fuzz: scalar ≡ SIMD candidate sets.
// ---------------------------------------------------------------

/** Reference implementation built on the public one-word predicate. */
std::uint64_t
oracleMask(const ContentDirectedPrefetcher &cdp, Addr block_vaddr,
           const std::uint8_t *bytes, unsigned slots)
{
    std::uint64_t mask = 0;
    for (unsigned slot = 0; slot < slots; ++slot) {
        std::uint32_t word = 0;
        for (unsigned b = 0; b < kPointerBytes; ++b) {
            word |= std::uint32_t{bytes[slot * kPointerBytes + b]}
                    << (8 * b);
        }
        if (cdp.isPointerCandidate(block_vaddr, word))
            mask |= std::uint64_t{1} << slot;
    }
    return mask;
}

TEST(CdpCandidateKernel, ScalarMatchesSimdOnFuzzedBlocks)
{
    // Deterministic seed: a failure reproduces.
    std::mt19937 rng(0xecd9u);
    std::uniform_int_distribution<std::uint32_t> u32;
    std::uniform_int_distribution<unsigned> byteDist(0, 255);

    const unsigned block_sizes[] = {64, 128, 256};
    const unsigned compare_bits[] = {1, 4, 8, 12, 17, 31};

    for (unsigned block_bytes : block_sizes) {
        const unsigned max_slots = block_bytes / kPointerBytes;
        std::vector<std::uint8_t> bytes(block_bytes);
        for (unsigned cb : compare_bits) {
            ContentDirectedPrefetcher cdp(cb, block_bytes);
            for (int iter = 0; iter < 400; ++iter) {
                const Addr block_vaddr{kHeapBase.raw() +
                                       (u32(rng) & 0x00FFFF80u)};
                // Mix of byte noise, heap-looking pointers and zero
                // words so every kernel branch sees hits and misses.
                for (auto &b : bytes)
                    b = static_cast<std::uint8_t>(byteDist(rng));
                for (unsigned slot = 0; slot < max_slots; ++slot) {
                    const unsigned roll = byteDist(rng);
                    std::uint32_t word;
                    if (roll < 96)
                        word = kHeapBase.raw() +
                               (u32(rng) & 0x00FFFFFFu);
                    else if (roll < 128)
                        word = 0;
                    else
                        continue; // keep the random bytes
                    for (unsigned b = 0; b < kPointerBytes; ++b) {
                        bytes[slot * kPointerBytes + b] =
                            static_cast<std::uint8_t>(
                                word >> (8 * b) & 0xFF);
                    }
                }
                // Full block, plus ragged slot counts to force the
                // SIMD kernel through its scalar tail.
                for (unsigned slots :
                     {max_slots, max_slots - 3u, 5u, 1u}) {
                    const std::uint64_t expect = oracleMask(
                        cdp, block_vaddr, bytes.data(), slots);
                    EXPECT_EQ(cdp.candidateMaskScalar(
                                  block_vaddr, bytes.data(), slots),
                              expect)
                        << "scalar cb=" << cb << " slots=" << slots;
#if defined(ECDP_HAVE_AVX2)
                    EXPECT_EQ(cdp.candidateMaskAvx2(
                                  block_vaddr, bytes.data(), slots),
                              expect)
                        << "avx2 cb=" << cb << " slots=" << slots;
#endif
                    EXPECT_EQ(cdp.candidateMask(block_vaddr,
                                                bytes.data(), slots),
                              expect)
                        << "dispatch cb=" << cb << " slots=" << slots;
                }
            }
        }
    }
}

// ---------------------------------------------------------------
// MshrFile SoA probe lane.
// ---------------------------------------------------------------

TEST(MshrFileSoa, ValidMaskMirrorsAllocationOrder)
{
    MshrFile mshrs(8);
    EXPECT_EQ(mshrs.validMask(), 0u);
    Mshr &a = mshrs.allocate(0x40000000);
    Mshr &b = mshrs.allocate(0x40000080);
    Mshr &c = mshrs.allocate(0x40000100);
    EXPECT_EQ(mshrs.validMask(), 0b111u);
    // Releasing the middle entry frees its slot; the next allocation
    // must reuse the lowest free index, as the original linear
    // first-invalid scan did.
    mshrs.release(b);
    EXPECT_EQ(mshrs.validMask(), 0b101u);
    Mshr &d = mshrs.allocate(0x40000180);
    EXPECT_EQ(&d, &b);
    EXPECT_EQ(mshrs.validMask(), 0b111u);
    // find() goes through the packed address lane.
    EXPECT_EQ(mshrs.find(0x40000180), &d);
    EXPECT_EQ(mshrs.find(0x40000080), nullptr);
    mshrs.release(a);
    mshrs.release(c);
    mshrs.release(d);
    EXPECT_EQ(mshrs.validMask(), 0u);
}

TEST(CacheSoa, ContentVersionTracksInsertsAndInvalidates)
{
    Cache cache("L", 1024, 2, 64);
    const std::uint64_t v0 = cache.contentVersion();
    cache.insert(0x40000000);
    EXPECT_EQ(cache.contentVersion(), v0 + 1);
    // Refreshing a resident block changes recency, not content.
    cache.insert(0x40000000);
    EXPECT_EQ(cache.contentVersion(), v0 + 1);
    cache.lookup(0x40000000);
    EXPECT_EQ(cache.contentVersion(), v0 + 1);
    cache.invalidate(0x40000000);
    EXPECT_EQ(cache.contentVersion(), v0 + 2);
    // Invalidating an absent block is a no-op.
    cache.invalidate(0x40000000);
    EXPECT_EQ(cache.contentVersion(), v0 + 2);
}

// ---------------------------------------------------------------
// Stats identity with a registry and a tracer attached.
// ---------------------------------------------------------------

std::string
statsJson(const RunStats &stats)
{
    std::ostringstream os;
    writeRunStatsJson(os, stats, "hotpath");
    return os.str();
}

/** Attaching a metric registry and an event tracer must be pure
 *  observation: the stats JSON of an unobserved and an observed run
 *  must be byte-identical. */
void
expectObservedIdentical(const std::string &bench,
                        const SystemConfig &cfg)
{
    const Workload workload = buildWorkload(bench, InputSet::Train);
    RunStats plain = simulate(cfg, workload);

    obs::MetricRegistry metrics;
    obs::EventTracer tracer;
    RunStats observed =
        simulate(cfg, workload, Observability{&metrics, &tracer});

    EXPECT_EQ(statsJson(plain), statsJson(observed)) << bench;
    EXPECT_GT(metrics.value("sim.loop_visits"), 0u);
}

using cells::NamedCell;

class ObservationIsPure : public ::testing::TestWithParam<NamedCell>
{
};

TEST_P(ObservationIsPure, StatsJsonIsByteIdentical)
{
    const NamedCell &c = GetParam();
    expectObservedIdentical(c.bench, cells::cellConfig(c));
}

INSTANTIATE_TEST_SUITE_P(
    ConfigMatrix, ObservationIsPure,
    ::testing::Values(NamedCell{"health", "baseline"},
                      NamedCell{"health", "cdp+throttle"},
                      NamedCell{"mst", "cdp+throttle"},
                      NamedCell{"bisort", "full"},
                      // bisort reaches interval boundaries on train
                      // inputs, so FDP decisions and PAB selection
                      // run with the tracer's rare lane recording.
                      NamedCell{"bisort", "ecdp+fdp"},
                      NamedCell{"bisort", "cdp+pab"},
                      NamedCell{"mst", "dbp"},
                      NamedCell{"bisort", "markov"},
                      NamedCell{"health", "side-buffer"},
                      NamedCell{"mst", "noprefetch"}),
    cells::cellTestName);

TEST(ObservationIsPureEdge, SmallBlockSizeConfig)
{
    // 64 B blocks: 16-slot scans exercise the short-block path of the
    // candidate kernel inside a whole run.
    expectObservedIdentical("health",
                            cells::cellConfig("small-blocks", "health"));
}

} // namespace
} // namespace ecdp
