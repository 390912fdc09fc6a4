/**
 * @file
 * traceinfo — inspect a benchmark's generated workload: access mix,
 * dependency-chain structure, per-PC load sites, block-level reuse,
 * and what the content-directed prefetcher would see in its blocks.
 *
 *   traceinfo <benchmark> [ref|train]
 */

#include <algorithm>
#include <iostream>
#include <map>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "memsim/block_geometry.hh"
#include "stats/table.hh"
#include "workloads/workload.hh"

namespace
{

using namespace ecdp;

constexpr BlockGeometry kGeom{128};

void
dependencyStats(const Workload &workload)
{
    // Chain depth per entry: 1 + depth of its producer.
    std::vector<std::uint32_t> depth(workload.trace.size(), 0);
    std::uint32_t max_depth = 0;
    std::uint64_t dependent = 0;
    for (std::size_t i = 0; i < workload.trace.size(); ++i) {
        const TraceEntry &entry = workload.trace[i];
        if (entry.dep != kNoDep) {
            depth[i] = depth[static_cast<std::size_t>(entry.dep)] + 1;
            ++dependent;
            max_depth = std::max(max_depth, depth[i]);
        }
    }
    std::cout << "dependency structure:\n"
              << "  dependent accesses : " << dependent << " of "
              << workload.trace.size() << '\n'
              << "  longest chain      : " << max_depth
              << " loads\n";
}

void
pcTable(const Workload &workload)
{
    struct Site
    {
        std::uint64_t count = 0;
        std::uint64_t lds = 0;
        bool store = false;
    };
    std::map<Addr, Site> sites;
    for (const TraceEntry &entry : workload.trace) {
        Site &site = sites[entry.pc];
        ++site.count;
        site.lds += entry.isLds;
        site.store |= entry.kind == AccessKind::Store;
    }
    TablePrinter table("static memory-access sites");
    table.header({"pc", "accesses", "lds", "kind"});
    for (const auto &[pc, site] : sites) {
        char buf[16];
        std::snprintf(buf, sizeof(buf), "0x%x", pc.raw());
        table.row()
            .cell(buf)
            .cell(site.count)
            .cell(site.lds)
            .cell(site.store ? "store" : "load");
    }
    table.print(std::cout);
}

void
blockStats(const Workload &workload)
{
    std::unordered_map<Addr, std::uint64_t> touches;
    for (const TraceEntry &entry : workload.trace)
        ++touches[kGeom.alignDown(entry.vaddr)];
    std::uint64_t total = workload.trace.size();
    std::cout << "block-level locality:\n"
              << "  distinct 128 B blocks : " << touches.size() << " ("
              << touches.size() * 128 / 1024 << " KB)\n"
              << "  accesses per block    : "
              << static_cast<double>(total) /
                     static_cast<double>(touches.size())
              << '\n';
}

void
pointerScan(const Workload &workload)
{
    // What greedy CDP sees: pointer candidates per touched block.
    std::unordered_set<Addr> blocks;
    for (const TraceEntry &entry : workload.trace)
        blocks.insert(kGeom.alignDown(entry.vaddr));
    std::uint64_t candidates = 0;
    for (Addr block : blocks) {
        for (unsigned slot = 0; slot < 32; ++slot) {
            std::uint32_t word = static_cast<std::uint32_t>(
                workload.image.read(block + 4 * slot, 4));
            candidates += word != 0 &&
                          (word >> 24) == (block.raw() >> 24);
        }
    }
    std::cout << "content-directed view:\n"
              << "  pointer candidates per touched block: "
              << static_cast<double>(candidates) /
                     static_cast<double>(blocks.size())
              << " (of 32 slots)\n";
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        std::cerr << "usage: traceinfo <benchmark> [ref|train]\n";
        return 2;
    }
    const std::string name = argv[1];
    if (!findBenchmark(name)) {
        std::cerr << "unknown benchmark '" << name << "'\n";
        return 2;
    }
    InputSet input = argc > 2 && std::string(argv[2]) == "train"
        ? InputSet::Train
        : InputSet::Ref;

    Workload workload = buildWorkload(name, input);
    std::uint64_t loads = 0, stores = 0, lds = 0;
    for (const TraceEntry &entry : workload.trace) {
        loads += entry.kind == AccessKind::Load;
        stores += entry.kind == AccessKind::Store;
        lds += entry.isLds;
    }
    std::cout << "workload '" << workload.name << "' ("
              << (input == InputSet::Ref ? "ref" : "train") << ")\n"
              << "  accesses     : " << workload.trace.size() << " ("
              << loads << " loads, " << stores << " stores, " << lds
              << " LDS)\n"
              << "  instructions : " << workload.instructionCount()
              << '\n'
              << "  image        : "
              << workload.image.footprintBytes() / 1024 << " KB\n\n";
    dependencyStats(workload);
    std::cout << '\n';
    blockStats(workload);
    std::cout << '\n';
    pointerScan(workload);
    std::cout << '\n';
    pcTable(workload);
    return 0;
}
