/**
 * @file
 * Google-benchmark microbenchmarks of the prefetcher hot paths: the
 * per-fill CDP block scan, the per-miss stream trigger, and the
 * comparison predictors' lookup costs. These bound the simulation
 * overhead of each mechanism (and, loosely, its hardware complexity).
 * BM_CoreTick times the core's per-visit cost on a pointer-chain
 * trace, apart from the memory hierarchy. BM_CacheInsert and
 * BM_SimMemoryAccess time the memory side's per-access tables: the
 * L2 fill and the simulated memory image.
 */

#include <benchmark/benchmark.h>

#include <random>

#include "cache/cache.hh"
#include "core/core.hh"
#include "memsim/sim_memory.hh"
#include "prefetch/cdp.hh"
#include "prefetch/dbp.hh"
#include "prefetch/ghb_prefetcher.hh"
#include "prefetch/markov_prefetcher.hh"
#include "prefetch/stream_prefetcher.hh"

namespace
{

using namespace ecdp;

void
BM_CdpScan(benchmark::State &state)
{
    ContentDirectedPrefetcher cdp(8, 128);
    std::uint8_t block[128] = {};
    // Plant pointers in half the slots.
    for (unsigned slot = 0; slot < 32; slot += 2) {
        std::uint32_t ptr = 0x40000000u + slot * 4096;
        for (unsigned b = 0; b < 4; ++b)
            block[slot * 4 + b] =
                static_cast<std::uint8_t>(ptr >> (8 * b));
    }
    ContentDirectedPrefetcher::ScanContext ctx;
    ctx.demandFill = true;
    ctx.loadPc = 0x1000;
    std::vector<PrefetchRequest> out;
    for (auto _ : state) {
        out.clear();
        cdp.scan(0x40001000, block, ctx, out);
        benchmark::DoNotOptimize(out.data());
    }
}
BENCHMARK(BM_CdpScan);

void
BM_StreamTrigger(benchmark::State &state)
{
    StreamPrefetcher stream;
    std::vector<PrefetchRequest> out;
    Addr addr = 0x40000000;
    for (auto _ : state) {
        out.clear();
        stream.trigger(addr, out);
        addr += 128;
        benchmark::DoNotOptimize(out.data());
    }
}
BENCHMARK(BM_StreamTrigger);

/**
 * The stream table under a mixed miss sequence: 40 interleaved
 * streams (more than the 32 entries, so replacement runs), each
 * stepping one block up or down, and one far random miss in eight,
 * so monitor hits, training hits and allocations all occur.
 */
void
BM_StreamTriggerMixed(benchmark::State &state)
{
    constexpr unsigned kStreams = 40;
    std::mt19937 rng(7);
    std::uint32_t pos[kStreams];
    int dir[kStreams];
    for (unsigned s = 0; s < kStreams; ++s) {
        pos[s] = 0x40000000u +
                 static_cast<std::uint32_t>(rng() % 65536) * 4096;
        dir[s] = s % 2 ? 128 : -128;
    }
    std::vector<Addr> seq;
    for (unsigned i = 0; i < 65536; ++i) {
        if (rng() % 8 == 0) {
            seq.push_back(Addr{0x40000000u +
                               static_cast<std::uint32_t>(rng() % (1u << 22)) * 128});
            continue;
        }
        const unsigned s = rng() % kStreams;
        pos[s] += dir[s];
        seq.push_back(Addr{pos[s]});
    }
    StreamPrefetcher stream;
    std::vector<PrefetchRequest> out;
    std::size_t i = 0;
    for (auto _ : state) {
        out.clear();
        stream.trigger(seq[i], out);
        i = (i + 1) & (seq.size() - 1);
        benchmark::DoNotOptimize(out.data());
    }
}
BENCHMARK(BM_StreamTriggerMixed);

/**
 * One L2 fill (1 MiB, 8 ways, 128 B blocks, as in Table 5) of a
 * random block from a 64 MiB footprint, so nearly every insert
 * misses and evicts the LRU way.
 */
void
BM_CacheInsert(benchmark::State &state)
{
    Cache l2("L2", 1024 * 1024, 8, 128);
    std::mt19937 rng(7);
    std::vector<Addr> seq;
    for (unsigned i = 0; i < 65536; ++i)
        seq.push_back(Addr{0x40000000u +
                           static_cast<std::uint32_t>(rng() % (1u << 19)) * 128});
    std::size_t i = 0;
    for (auto _ : state) {
        Cache::Victim victim = l2.insert(seq[i]);
        i = (i + 1) & (seq.size() - 1);
        benchmark::DoNotOptimize(victim);
    }
}
BENCHMARK(BM_CacheInsert);

/**
 * A 4-byte write, a 4- and an 8-byte read and a 128-byte block read
 * of the simulated memory image, at random aligned addresses over a
 * 16 MiB heap.
 */
void
BM_SimMemoryAccess(benchmark::State &state)
{
    SimMemory mem;
    for (std::uint32_t a = 0; a < (1u << 24); a += 4096)
        mem.write(Addr{0x40000000u + a}, 4, a);
    std::mt19937 rng(7);
    std::vector<Addr> seq;
    for (unsigned i = 0; i < 65536; ++i)
        seq.push_back(Addr{0x40000000u +
                           static_cast<std::uint32_t>(rng() % (1u << 21)) * 8});
    std::uint8_t block[128];
    std::size_t i = 0;
    for (auto _ : state) {
        const Addr addr = seq[i];
        i = (i + 1) & (seq.size() - 1);
        mem.write(addr, 4, i);
        std::uint64_t sum = mem.read(addr, 4) + mem.read(addr + 8, 8);
        mem.readBlock(Addr{addr.raw() & ~127u}, block, sizeof(block));
        benchmark::DoNotOptimize(sum);
        benchmark::DoNotOptimize(block);
    }
}
BENCHMARK(BM_SimMemoryAccess);

void
BM_GhbMiss(benchmark::State &state)
{
    GhbPrefetcher ghb;
    std::vector<PrefetchRequest> out;
    Addr addr = 0x40000000;
    for (auto _ : state) {
        out.clear();
        ghb.onDemandMiss(addr, out);
        addr += 128;
        benchmark::DoNotOptimize(out.data());
    }
}
BENCHMARK(BM_GhbMiss);

void
BM_MarkovMiss(benchmark::State &state)
{
    const BlockGeometry geom{128};
    MarkovPrefetcher markov(geom);
    std::vector<PrefetchRequest> out;
    std::mt19937 rng(7);
    for (auto _ : state) {
        out.clear();
        markov.onDemandMiss(
            geom.blockOf(Addr{0x40000000u +
                              static_cast<std::uint32_t>(rng() % 4096) *
                                  128u}),
            out);
        benchmark::DoNotOptimize(out.data());
    }
}
BENCHMARK(BM_MarkovMiss);

void
BM_DbpIssueAndComplete(benchmark::State &state)
{
    DependenceBasedPrefetcher dbp;
    std::vector<PrefetchRequest> out;
    std::mt19937 rng(7);
    for (auto _ : state) {
        out.clear();
        Addr value = 0x40000000 + (rng() % 65536) * 64;
        dbp.onLoadComplete(0x1000 + rng() % 64, value, out);
        dbp.onLoadIssue(0x2000, value + 8);
        benchmark::DoNotOptimize(out.data());
    }
}
BENCHMARK(BM_DbpIssueAndComplete);

/** Memory that accepts every load with one fixed latency. */
class FixedLatencyMemory : public CoreMemoryInterface
{
  public:
    std::optional<Cycle> load(const TraceEntry &, Cycle now) override
    {
        return now + 200;
    }
    void store(const TraceEntry &, Cycle) override {}
};

/**
 * One event-driven visit of a Core (tick, then jump to its
 * nextEventCycle) over a canned trace of 8 interleaved pointer
 * chains, each load a few fillers after the last and dependent on
 * the previous link of its chain, so the LSQ mostly holds loads that
 * wait on an unissued producer. The core wraps so it never finishes.
 */
void
BM_CoreTick(benchmark::State &state)
{
    constexpr unsigned kChains = 8;
    Workload wl;
    wl.name = "chains";
    for (unsigned i = 0; i < 4096; ++i) {
        TraceEntry e;
        e.pc = 0x1000 + 4 * (i % kChains);
        e.vaddr = Addr{0x40000000u + 128u * i};
        e.isLds = true;
        e.dep = i >= kChains ? static_cast<TraceRef>(i - kChains) : kNoDep;
        e.nonMemBefore = 5;
        wl.trace.push_back(e);
    }
    FixedLatencyMemory memory;
    Core core(&wl, &memory);
    core.setWrapAround(true);
    Cycle now{};
    for (auto _ : state) {
        core.tick(now);
        now = core.nextEventCycle(now);
    }
    benchmark::DoNotOptimize(core.retired());
}
BENCHMARK(BM_CoreTick);

} // namespace

BENCHMARK_MAIN();
