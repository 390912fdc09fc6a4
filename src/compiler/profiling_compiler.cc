#include "compiler/profiling_compiler.hh"

#include <deque>
#include <vector>

#include "cache/cache.hh"
#include "prefetch/cdp.hh"
#include "sim/simulator.hh"

namespace ecdp
{

HintTable
ProfilingCompiler::profileWithInformingLoads(const Workload &train,
                                             SystemConfig target,
                                             ProfileOptions options)
{
    // Full timing run with the unfiltered prefetcher; the memory
    // system's per-PG bookkeeping plays the role of the informing
    // loads, reporting for every load whether it consumed a
    // prefetched block. Whatever the target runs in its LDS slot
    // (ECDP would need the very hints being computed), the training
    // run uses plain CDP there.
    if (target.engines.size() < 2)
        target.engines.resize(2, "none");
    target.engines[1] = "cdp";
    target.hints = nullptr;
    target.hwFilter = false;
    target.grpCoarse = false;
    target.throttlePolicy = "static";
    target.idealLds = false;
    target.idealNoPollution = false;
    RunStats stats = simulate(target, train);
    return fromPgStats(stats.pgStats, options);
}

HintTable
ProfilingCompiler::profile(const Workload &train, SystemConfig target,
                           ProfileOptions options)
{
    return fromPgStats(profileStats(train, target), options);
}

PgStatsMap
ProfilingCompiler::profileStats(const Workload &train,
                                SystemConfig target)
{
    // The paper's first profiling implementation (Section 3): a
    // *functional* simulation of the target's cache hierarchy and
    // content-directed prefetcher — no timing — that attributes every
    // (recursively generated) prefetch to its root pointer group and
    // tracks whether the prefetched block is demanded before
    // eviction.
    Cache l2("L2-profile", target.l2Bytes, target.l2Assoc,
             target.l2BlockBytes);
    ContentDirectedPrefetcher cdp(target.cdpCompareBits,
                                  target.l2BlockBytes);
    cdp.setAggressiveness(AggLevel::Aggressive);

    SimMemory image = train.image.clone();
    PgStatsMap stats;
    std::vector<std::uint8_t> buf(target.l2BlockBytes, 0);
    std::vector<PrefetchRequest> scratch;
    std::deque<PrefetchRequest> frontier;

    // Bound the per-miss recursive expansion, mirroring the finite
    // prefetch request queue of the real machine.
    constexpr unsigned kMaxPerMiss = 64;

    auto scan_block = [&](Addr block_addr,
                          const ContentDirectedPrefetcher::ScanContext
                              &ctx) {
        image.readBlock(block_addr, buf.data(), buf.size());
        scratch.clear();
        cdp.scan(block_addr, buf.data(), ctx, scratch);
        for (const PrefetchRequest &req : scratch)
            frontier.push_back(req);
    };

    for (const TraceEntry &entry : train.trace) {
        if (entry.kind == AccessKind::Store)
            image.write(entry.vaddr, entry.size, entry.storeValue);

        const Addr block_addr = l2.blockAddr(entry.vaddr);
        if (CacheBlock *block = l2.lookup(entry.vaddr)) {
            if (block->pgValid) {
                ++stats[block->pg].used;
                block->pgValid = false;
                block->prefetchOwner = kNoPrefetchOwner;
            }
            continue;
        }

        l2.insert(block_addr);
        if (entry.kind != AccessKind::Load)
            continue;

        ContentDirectedPrefetcher::ScanContext ctx;
        ctx.demandFill = true;
        ctx.loadPc = entry.pc;
        ctx.accessByteOffset = l2.blockOffset(entry.vaddr);
        ctx.fillDepth = 0;
        frontier.clear();
        scan_block(block_addr, ctx);

        unsigned expanded = 0;
        while (!frontier.empty() && expanded < kMaxPerMiss) {
            PrefetchRequest req = frontier.front();
            frontier.pop_front();
            if (l2.peek(req.blockAddr))
                continue;
            ++expanded;
            if (req.pgValid)
                ++stats[req.pg].issued;
            // The paper's LDS slot.
            CacheBlock *block = l2.insert(req.blockAddr, 1).block;
            block->pgValid = req.pgValid;
            block->pg = req.pg;
            block->cdpDepth = req.depth;
            if (cdp.shouldScan(req.depth)) {
                ContentDirectedPrefetcher::ScanContext rctx;
                rctx.demandFill = false;
                rctx.fillDepth = req.depth;
                rctx.pgValid = req.pgValid;
                rctx.pgRoot = req.pg;
                scan_block(req.blockAddr, rctx);
            }
        }
    }
    return stats;
}

HintTable
ProfilingCompiler::fromPgStats(const PgStatsMap &stats,
                               ProfileOptions options)
{
    HintTable hints;
    for (const auto &[pg, pg_stats] : stats) {
        if (pg_stats.issued < options.minIssued)
            continue;
        if (pg_stats.usefulness() > options.usefulnessThreshold)
            hints.entry(pg.loadPc).set(pg.slot);
    }
    return hints;
}

void
ProfilingCompiler::usefulnessHistogram(const PgStatsMap &stats,
                                       std::uint64_t quartiles[4],
                                       std::uint64_t min_issued)
{
    for (unsigned i = 0; i < 4; ++i)
        quartiles[i] = 0;
    for (const auto &[pg, pg_stats] : stats) {
        if (pg_stats.issued < min_issued)
            continue;
        double u = pg_stats.usefulness();
        unsigned bin = u < 0.25 ? 0 : u < 0.5 ? 1 : u < 0.75 ? 2 : 3;
        ++quartiles[bin];
    }
}

} // namespace ecdp
