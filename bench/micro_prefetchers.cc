/**
 * @file
 * Google-benchmark microbenchmarks of the prefetcher hot paths: the
 * per-fill CDP block scan, the per-miss stream trigger, and the
 * comparison predictors' lookup costs. These bound the simulation
 * overhead of each mechanism (and, loosely, its hardware complexity).
 * BM_CoreTick times the core's per-visit cost on a pointer-chain
 * trace, apart from the memory hierarchy.
 */

#include <benchmark/benchmark.h>

#include <random>

#include "core/core.hh"
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
