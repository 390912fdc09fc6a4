// Scratch diagnostic tool (not a paper experiment): dumps PG stats,
// hints, trace shape, and per-config run details for one benchmark.
#include <cstdio>
#include <algorithm>
#include <unordered_set>
#include <vector>
#include "memsim/block_geometry.hh"
#include "sim/experiment.hh"
#include "compiler/profiling_compiler.hh"

using namespace ecdp;

static void report(const char* tag, const RunStats& s) {
    printf("%-6s ipc=%.3f bpki=%6.1f misses=%lu | prim iss=%lu used=%lu late=%lu lvl=%d en=%d | lds iss=%lu used=%lu late=%lu lvl=%d en=%d | intervals=%lu\n",
        tag, s.ipc, s.bpki, s.l2DemandMisses,
        s.prefIssued[0], s.prefUsed[0], s.prefLate[0],
        (int)s.finalPrimaryLevel, (int)s.finalPrimaryEnabled,
        s.prefIssued[1], s.prefUsed[1], s.prefLate[1],
        (int)s.finalLdsLevel, (int)s.finalLdsEnabled, s.intervals);
}

int main(int argc, char** argv) {
    std::string name = argc > 1 ? argv[1] : "mcf";
    ExperimentContext ctx;
    const Workload& wl = ctx.ref(name);
    const BlockGeometry geom{128};
    std::unordered_set<Addr> blocks;
    std::uint64_t loads = 0, lds = 0;
    for (auto& e : wl.trace) {
        blocks.insert(geom.alignDown(e.vaddr));
        loads += e.kind == AccessKind::Load;
        lds += e.isLds;
    }
    printf("trace: %zu accesses, %lu loads, %lu lds, %zu distinct blocks (%.1f KB), image %.1f MB\n",
        wl.trace.size(), loads, lds, blocks.size(), blocks.size() * 128 / 1024.0,
        wl.image.footprintBytes() / 1048576.0);

    const Workload& tr = ctx.train(name);
    PgStatsMap fstats = ProfilingCompiler::profileStats(tr);
    std::vector<std::pair<PgId, PgStats>> v(fstats.begin(), fstats.end());
    std::sort(v.begin(), v.end(), [](auto&a, auto&b){return a.second.issued > b.second.issued;});
    printf("train PGs (top 12 of %zu):\n", v.size());
    for (size_t i = 0; i < std::min<size_t>(12, v.size()); ++i)
        printf("  pc=%x slot=%+d issued=%lu used=%lu u=%.2f\n",
               v[i].first.loadPc.raw(), v[i].first.slot, v[i].second.issued,
               v[i].second.used, v[i].second.usefulness());
    const HintTable& h = ctx.hints(name);
    printf("hint table: %zu PCs:", h.size());
    for (auto& [pc, hint] : h) printf(" %x(pos=%x,neg=%x)", pc.raw(), hint.pos, hint.neg);
    printf("\n");

    report("np",   ctx.run(name, configs::noPrefetch(), "noprefetch"));
    report("base", ctx.run(name, configs::baseline(), "baseline"));
    report("cdp",  ctx.run(name, configs::streamCdp(), "streamcdp"));
    report("ecdp", ctx.run(name, configs::streamEcdp(&h), "streamecdp"));
    report("cdp+t", ctx.run(name, configs::streamCdpThrottled(), "cdpthr"));
    report("full", ctx.run(name, configs::fullProposal(&h), "full"));
    return 0;
}
