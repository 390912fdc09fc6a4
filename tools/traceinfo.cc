/**
 * @file
 * traceinfo — inspect a benchmark's generated workload: access mix,
 * dependency-chain structure, per-PC load sites, block-level reuse,
 * what the content-directed prefetcher would see in its blocks, and
 * what the profiling compiler learns from the train input (its
 * busiest pointer groups and the hint table ECDP runs with).
 *
 *   traceinfo <benchmark> [ref|train]
 */

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <map>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "compiler/profiling_compiler.hh"
#include "memsim/block_geometry.hh"
#include "stats/table.hh"
#include "workloads/workload.hh"

namespace
{

using namespace ecdp;

constexpr BlockGeometry kGeom{128};

std::string
hex(Addr pc)
{
    char buf[16];
    std::snprintf(buf, sizeof(buf), "0x%x", pc.raw());
    return buf;
}

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
        table.row()
            .cell(hex(pc))
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

void
profileView(const Workload &train)
{
    const PgStatsMap stats = ProfilingCompiler::profileStats(train);
    std::vector<std::pair<PgId, PgStats>> groups(stats.begin(),
                                                 stats.end());
    std::sort(groups.begin(), groups.end(),
              [](const auto &a, const auto &b) {
                  if (a.second.issued != b.second.issued)
                      return a.second.issued > b.second.issued;
                  if (a.first.loadPc != b.first.loadPc)
                      return a.first.loadPc < b.first.loadPc;
                  return a.first.slot < b.first.slot;
              });
    const std::size_t shown = std::min<std::size_t>(12, groups.size());
    TablePrinter pgs("busiest pointer groups (train profile, top " +
                     std::to_string(shown) + " of " +
                     std::to_string(groups.size()) + ")");
    pgs.header({"pc", "slot", "issued", "used", "usefulness"});
    for (std::size_t i = 0; i < shown; ++i) {
        const auto &[pg, s] = groups[i];
        pgs.row()
            .cell(hex(pg.loadPc))
            .cell(std::to_string(pg.slot))
            .cell(s.issued)
            .cell(s.used)
            .cell(s.usefulness(), 2);
    }
    pgs.print(std::cout);
    std::cout << '\n';

    const HintTable hints = ProfilingCompiler::fromPgStats(stats);
    std::vector<std::pair<Addr, PrefetchHint>> entries(hints.begin(),
                                                       hints.end());
    std::sort(entries.begin(), entries.end(),
              [](const auto &a, const auto &b) {
                  return a.first < b.first;
              });
    TablePrinter table("hint table (" + std::to_string(entries.size()) +
                       " load PCs)");
    table.header({"pc", "pos", "neg"});
    for (const auto &[pc, hint] : entries) {
        char pos[16], neg[16];
        std::snprintf(pos, sizeof(pos), "0x%x", hint.pos);
        std::snprintf(neg, sizeof(neg), "0x%x", hint.neg);
        table.row().cell(hex(pc)).cell(pos).cell(neg);
    }
    table.print(std::cout);
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
    std::cout << '\n';
    if (input == InputSet::Train)
        profileView(workload);
    else
        profileView(buildWorkload(name, InputSet::Train));
    return 0;
}
