/**
 * @file
 * Section 4 premise: resource contention between the two prefetchers
 * inflates the latency of useful prefetches. The paper measured a
 * 52% increase in average useful-prefetch latency when both run
 * together vs each alone.
 */

#include "bench_util.hh"

using namespace ecdp;
using namespace ecdp::bench;

namespace
{

double
usefulLatency(const RunStats &stats)
{
    std::uint64_t sum = 0;
    std::uint64_t count = 0;
    for (const RunStats::EngineRunStats &es : stats.engineStats) {
        sum += es.usefulLatencySum;
        count += es.usefulLatencyCount;
    }
    return count ? static_cast<double>(sum) /
                       static_cast<double>(count)
                 : 0.0;
}

} // namespace

int
main()
{
    ExperimentContext ctx;
    const std::vector<std::string> names = pointerIntensiveNames();

    // Stream alone, CDP alone, and the naive hybrid.
    NamedConfig stream_only = cfgBaseline();
    SystemConfig cdp_only_cfg = configs::streamCdp();
    cdp_only_cfg.engines[0] = "none";
    NamedConfig cdp_only = fixedConfig("cdponly", cdp_only_cfg);
    NamedConfig hybrid = cfgCdp();
    runGrid(ctx, names, {stream_only, cdp_only, hybrid});

    TablePrinter table(
        "Section 4: useful-prefetch latency, alone vs naive hybrid");
    table.header({"bench", "stream-alone", "cdp-alone", "hybrid",
                  "inflation%"});
    std::vector<double> inflation;
    for (const std::string &name : names) {
        double alone_stream =
            run(ctx, name, stream_only).avgUsefulPrefetchLatency(0);
        double alone_cdp =
            run(ctx, name, cdp_only).avgUsefulPrefetchLatency(1);
        const RunStats &h = run(ctx, name, hybrid);
        double together = usefulLatency(h);
        double alone = (alone_stream + alone_cdp) / 2.0;
        if (alone > 0.0 && together > 0.0)
            inflation.push_back(together / alone);
        table.row()
            .cell(name)
            .cell(alone_stream, 0)
            .cell(alone_cdp, 0)
            .cell(together, 0)
            .cell(alone > 0.0 && together > 0.0
                      ? percentDelta(together, alone)
                      : 0.0,
                  1);
    }
    table.row()
        .cell("gmean")
        .cell("-")
        .cell("-")
        .cell("-")
        .cell(percentDelta(gmean(inflation), 1.0), 1);
    table.print(std::cout);
    std::cout << "\nPaper: contention raises the average latency of\n"
                 "useful prefetches by 52% in the naive hybrid.\n";
    return 0;
}
