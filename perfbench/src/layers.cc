/**
 * @file
 * Outside-in per-layer costs (traced runs only): each layer's public
 * entry point is called in isolation on the workloads' own traces and
 * SimMemory blocks, and timed per call. Multiplied by the exact call
 * counts of a traced run, these give a cost model of simulate() whose
 * residual is what the isolated calls do not explain (scheduling,
 * queues, throttling, cache misses the isolated loops do not suffer).
 */

#include <optional>
#include <set>
#include <stdexcept>
#include <vector>

#include "cache/cache.hh"
#include "cache/mshr.hh"
#include "core/core.hh"
#include "dram/dram.hh"
#include "layers.hh"
#include "obs/metrics.hh"
#include "obs/observability.hh"
#include "prefetch/cdp.hh"

namespace perfbench
{

namespace
{

using namespace ecdp;

/** Fixed-latency memory: isolates Core::tick from the hierarchy. */
class StubMemory : public CoreMemoryInterface
{
  public:
    std::optional<Cycle> load(const TraceEntry &, Cycle now) override
    {
        return now + 2;
    }
    void store(const TraceEntry &, Cycle) override {}
};

/** Block addresses of a workload's loads, in trace order. */
std::vector<Addr>
loadBlocks(const Workload &workload, const Cache &geometry,
           std::size_t limit)
{
    std::vector<Addr> blocks;
    for (const TraceEntry &entry : workload.trace) {
        if (entry.kind != AccessKind::Load)
            continue;
        blocks.push_back(geometry.blockAddr(entry.vaddr));
        if (blocks.size() == limit)
            break;
    }
    return blocks;
}

double
nsPer(Clock::time_point start, std::uint64_t ops)
{
    return ops == 0 ? 0.0 : msSince(start) * 1e6 / double(ops);
}

} // namespace

LayerCosts
measureLayers(ecdp::ExperimentContext &ctx,
              const std::vector<std::string> &names)
{
    const SystemConfig cfg;
    constexpr std::size_t kBlocksPerWorkload = 1 << 18;
    constexpr std::size_t kScansPerWorkload = 1 << 14;
    const std::uint32_t blockBytes = cfg.l2BlockBytes;
    LayerCosts costs;

    // Core::tick, per tick and per retired instruction.
    {
        std::uint64_t ticks = 0, retired = 0;
        const Clock::time_point start = Clock::now();
        for (const std::string &name : names) {
            StubMemory memory;
            Core core(&ctx.ref(name), &memory, cfg.core);
            Cycle now{0};
            while (!core.finishedOnce()) {
                core.tick(now);
                now = now + 1;
                ++ticks;
            }
            retired += core.retiredFirstPass();
        }
        const double ns = msSince(start) * 1e6;
        costs.coreTickNs = ticks ? ns / double(ticks) : 0.0;
        costs.coreNsPerInstr = retired ? ns / double(retired) : 0.0;
    }

    const Cache geometry("geometry", cfg.l2Bytes, cfg.l2Assoc, blockBytes);
    std::vector<std::vector<Addr>> blocks;
    for (const std::string &name : names)
        blocks.push_back(loadBlocks(ctx.ref(name), geometry,
                                    kBlocksPerWorkload));

    // Cache probe: lookup, and insert on a miss, on an empty L2.
    {
        std::uint64_t ops = 0, hits = 0;
        const Clock::time_point start = Clock::now();
        for (const std::vector<Addr> &stream : blocks) {
            Cache l2("L2", cfg.l2Bytes, cfg.l2Assoc, blockBytes);
            for (Addr block : stream) {
                if (l2.lookup(block))
                    ++hits;
                else
                    l2.insert(block);
                ++ops;
            }
        }
        costs.probeNs = nsPer(start, ops);
        costs.probeHits = hits;
    }

    // MSHR file: retire ripe fills, then find-or-allocate, one miss
    // per cycle with the uncontended DRAM latency.
    {
        std::uint64_t ops = 0;
        const Cycle fillLatency = cfg.dram.frontLatency +
                                  cfg.dram.bankBusy +
                                  cfg.dram.busTransfer;
        std::vector<Mshr *> ripe;
        const Clock::time_point start = Clock::now();
        for (const std::vector<Addr> &stream : blocks) {
            MshrFile mshrs(cfg.l2Mshrs);
            Cycle now{0};
            for (Addr block : stream) {
                now = now + 1;
                mshrs.ripe(now, ripe);
                for (Mshr *entry : ripe)
                    mshrs.release(*entry);
                if (!mshrs.find(block) && !mshrs.full())
                    mshrs.allocate(block).fillAt = now + fillLatency;
                ++ops;
            }
        }
        costs.mshrOpNs = nsPer(start, ops);
    }

    // CDP scan of real SimMemory blocks, as demand fills.
    {
        std::vector<std::uint8_t> bytes;
        std::vector<Addr> scanned;
        for (std::size_t w = 0; w < names.size(); ++w) {
            const Workload &workload = ctx.ref(names[w]);
            const std::size_t n =
                std::min(blocks[w].size(), kScansPerWorkload);
            for (std::size_t i = 0; i < n; ++i) {
                scanned.push_back(blocks[w][i]);
                bytes.resize(bytes.size() + blockBytes);
                workload.image.readBlock(
                    blocks[w][i], bytes.data() + bytes.size() - blockBytes,
                    blockBytes);
            }
        }
        ContentDirectedPrefetcher cdp(cfg.cdpCompareBits, blockBytes);
        ContentDirectedPrefetcher::ScanContext scan;
        std::vector<PrefetchRequest> out;
        std::uint64_t candidates = 0;
        const Clock::time_point start = Clock::now();
        for (std::size_t i = 0; i < scanned.size(); ++i) {
            cdp.scan(scanned[i], bytes.data() + i * blockBytes, scan, out);
            candidates += out.size();
        }
        costs.cdpScanNs = nsPer(start, scanned.size());
        costs.cdpCandidates = candidates;
    }

    // DRAM read acceptance at one request per bus transfer.
    {
        std::uint64_t ops = 0, accepted = 0;
        obs::MetricRegistry registry;
        const Clock::time_point start = Clock::now();
        for (const std::vector<Addr> &stream : blocks) {
            DramSystem dram(cfg.dram, 1, blockBytes);
            dram.attachObservability(Observability{&registry});
            Cycle now{0};
            for (Addr block : stream) {
                if (dram.read(0, block, now))
                    ++accepted;
                now = now + cfg.dram.busTransfer;
                ++ops;
            }
        }
        costs.dramReadNs = nsPer(start, ops);
        costs.dramAccepted = accepted;
    }
    return costs;
}

namespace
{

/** The per-layer metrics, as BENCHMARK.json lists them. */
const std::vector<std::pair<std::string, std::string>> &
layerMetricNames()
{
    static const std::vector<std::pair<std::string, std::string>> names = {
        {"workloads.build_ms", "ms"},
        {"compiler.profile_ms", "ms"},
        {"sim.simulate_ms.p50", "ms"},
        {"sim.simulate_ms.max", "ms"},
        {"sim.ns_per_instr", "ns"},
        {"sim.ns_per_cycle", "ns"},
        {"sim.cycles", "count"},
        {"sim.instructions", "count"},
        {"sim.model_ms", "ms"},
        {"sim.residual_ms", "ms"},
        {"core.demand_loads", "count"},
        {"core.tick_ns", "ns"},
        {"core.ns_per_instr", "ns"},
        {"cache.l2_accesses", "count"},
        {"cache.l2_hit_ratio", "ratio"},
        {"cache.probe_ns", "ns"},
        {"cache.mshr_allocations", "count"},
        {"cache.mshr_merges", "count"},
        {"cache.mshr_stall_cycles", "count"},
        {"cache.mshr_op_ns", "ns"},
        {"prefetch.primary.generated", "count"},
        {"prefetch.primary.issued", "count"},
        {"prefetch.primary.used", "count"},
        {"prefetch.primary.dropped_queue_full", "count"},
        {"prefetch.lds.generated", "count"},
        {"prefetch.lds.issued", "count"},
        {"prefetch.lds.used", "count"},
        {"prefetch.lds.dropped_queue_full", "count"},
        {"prefetch.lds.accuracy", "ratio"},
        {"prefetch.lds.issue_ratio", "ratio"},
        {"prefetch.cdp_scans", "count"},
        {"prefetch.cdp_scan_ns", "ns"},
        {"dram.reads", "count"},
        {"dram.bank_conflicts", "count"},
        {"dram.buffer_rejects", "count"},
        {"dram.read_ns", "ns"},
        {"throttle.intervals", "count"},
        {"throttle.decisions_down", "count"},
        {"runner.queue_wait_ms.p50", "ms"},
        {"runner.queue_wait_ms.max", "ms"},
        {"runner.job_ms.max", "ms"},
        {"runner.job_sum_s", "s"},
        {"runner.parallel_efficiency", "ratio"},
        {"server.request_ms", "ms"},
        {"server.hit_p99_ms", "ms"},
        {"server.side_latency_us.mean", "us"},
        {"server.client_gap_us", "us"},
        {"server.requests_attempted", "count"},
        {"server.requests_refused", "count"},
        {"server.requests_failed", "count"},
        {"server.spawned", "count"},
        {"server.store_hits", "count"},
        {"server.dedup_attached", "count"},
        {"server.dedup_pairs", "count"},
        {"server.dedup_overlapped", "count"},
        {"server.cold_overhead_ms", "ms"},
        {"stats.json_us", "us"},
        {"workloads.self_ms", "ms"},
        {"compiler.self_ms", "ms"},
        {"runner.self_ms", "ms"},
        {"sim.self_ms", "ms"},
        {"stats.self_ms", "ms"},
        {"server.self_ms", "ms"},
        {"trace.spans", "count"},
        {"trace.overhead_s", "s"},
    };
    return names;
}

} // namespace

void
addLayerMetrics(Result &result, const LayerValues &values)
{
    std::set<std::string> known;
    for (const auto &[name, unit] : layerMetricNames()) {
        known.insert(name);
        auto it = values.find(name);
        result.add(name, it == values.end() ? 0.0 : it->second, unit);
    }
    for (const auto &entry : values) {
        if (!known.count(entry.first))
            throw std::logic_error("unlisted layer metric " + entry.first);
    }
}

} // namespace perfbench
