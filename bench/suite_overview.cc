/**
 * @file
 * Diagnostic overview of the whole benchmark suite: for each workload,
 * the key statistics under the main configurations. Not a paper
 * table; used to sanity-check workload shapes (footprints, miss
 * rates, stream coverage, CDP accuracy) against the paper's
 * qualitative descriptions. The drop columns count prefetch requests
 * lost to prefetch-queue overflow (per source, under the full
 * proposal) — nonzero values mean the queue is undersized for that
 * workload.
 */

#include <iostream>

#include "bench_util.hh"
#include "stats/table.hh"

using namespace ecdp;
using namespace ecdp::bench;

int
main()
{
    ExperimentContext ctx;

    std::vector<std::string> names;
    for (const BenchmarkInfo &info : benchmarkSuite())
        names.push_back(info.name);

    NamedConfig np = fixedConfig("noprefetch", configs::noPrefetch());
    NamedConfig base = fixedConfig("baseline", configs::baseline());
    NamedConfig cdp = fixedConfig("streamcdp", configs::streamCdp());
    NamedConfig ideal = fixedConfig("ideallds", configs::idealLds());
    NamedConfig full{"full",
                     [](ExperimentContext &c, const std::string &b) {
                         return configs::fullProposal(&c.hints(b));
                     }};
    runGrid(ctx, names, {np, base, cdp, ideal, full});

    TablePrinter table("Suite overview (ref inputs)");
    table.header({"bench", "accesses", "instrs", "ipc-np", "ipc-base",
                  "ipc-cdp", "ipc-full", "ideal-lds%", "strm-cov",
                  "cdp-acc", "bpki-base", "bpki-cdp", "bpki-full",
                  "missK", "dropP", "dropL"});

    for (const std::string &name : names) {
        const Workload &wl = ctx.ref(name);
        const RunStats &np_s = run(ctx, name, np);
        const RunStats &base_s = run(ctx, name, base);
        const RunStats &cdp_s = run(ctx, name, cdp);
        const RunStats &ideal_s = run(ctx, name, ideal);
        const RunStats &full_s = run(ctx, name, full);

        table.row()
            .cell(name)
            .cell(static_cast<std::uint64_t>(wl.trace.size()))
            .cell(static_cast<std::uint64_t>(wl.instructionCount()))
            .cell(np_s.ipc, 3)
            .cell(base_s.ipc, 3)
            .cell(cdp_s.ipc, 3)
            .cell(full_s.ipc, 3)
            .cell(100.0 * (ideal_s.ipc / base_s.ipc - 1.0), 1)
            .cell(base_s.coverage(0), 2)
            .cell(cdp_s.accuracy(1), 2)
            .cell(base_s.bpki, 1)
            .cell(cdp_s.bpki, 1)
            .cell(full_s.bpki, 1)
            .cell(base_s.l2DemandMisses / 1000, 0)
            .cell(full_s.slot(0).dropped)
            .cell(full_s.slot(1).dropped);
    }
    table.print(std::cout);
    return 0;
}
