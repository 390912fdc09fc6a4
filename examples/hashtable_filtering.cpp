/**
 * @file
 * The paper's Figure 5 walkthrough, end to end: a hash table whose
 * chain nodes carry two data pointers (harmful to prefetch) and one
 * next pointer (beneficial). The example builds the structure by
 * hand, runs the profiling compiler, prints the per-PG verdicts, and
 * shows the resulting hint bit vector — exactly the Figure 6 picture.
 */

#include <algorithm>
#include <iostream>
#include <vector>

#include "compiler/profiling_compiler.hh"
#include "sim/experiment.hh"
#include "sim/simulator.hh"
#include "trace/trace.hh"

using namespace ecdp;

namespace
{

constexpr Addr kPcKeyCompare = 0x4010; // `ent->Key != Key` in Fig. 5
constexpr Addr kPcNext = 0x4014;
constexpr Addr kPcData = 0x4020;

/** Build the Figure 5 hash table and lookup loop. */
Workload
buildHashLookup()
{
    TraceBuilder tb("fig5-hash");
    const std::size_t buckets = 512, chain = 16;
    const std::size_t nodes = buckets * chain;

    // Node layout from Figure 5: {Key, D1*, D2*, Next}.
    std::vector<Addr> node_addrs;
    for (std::size_t i = 0; i < nodes; ++i) {
        node_addrs.push_back(tb.heap().allocate(32, 32));
        tb.heap().allocate(96, 32); // scatter chain nodes
    }
    std::vector<Addr> payloads;
    for (std::size_t i = 0; i < 2 * nodes; ++i)
        payloads.push_back(tb.heap().allocate(32, 32));
    for (std::size_t b = 0; b < buckets; ++b) {
        for (std::size_t k = 0; k < chain; ++k) {
            std::size_t i = b * chain + k;
            Addr node = node_addrs[i];
            tb.mem().write(node, 4,
                           static_cast<std::uint32_t>(i + 1));
            tb.mem().writePointer(node + 4, payloads[2 * i]);
            tb.mem().writePointer(node + 8, payloads[2 * i + 1]);
            tb.mem().writePointer(node + 12,
                                  k + 1 < chain ? node_addrs[i + 1]
                                                : 0);
        }
    }

    // HashLookup(): walk the chain comparing keys; almost every
    // iteration takes the Next pointer, not the data pointers.
    tb.beginTimed();
    std::uint32_t seed = 12345;
    auto rnd = [&seed]() { return seed = seed * 1664525 + 1013904223; };
    for (unsigned lookup = 0; lookup < 3000; ++lookup) {
        std::size_t b = rnd() % buckets;
        Addr node = node_addrs[b * chain];
        TraceRef ref = kNoDep;
        bool found = rnd() % 4 == 0;
        std::size_t depth = found ? rnd() % chain : chain;
        for (std::size_t k = 0; node != 0; ++k) {
            tb.load(kPcKeyCompare, node, 4, ref, true, 4);
            if (k == depth) {
                auto [d1, d1ref] =
                    tb.loadPointer(kPcData, node + 4, ref, 2);
                tb.load(kPcData + 8, d1, 4, d1ref, true, 2);
                break;
            }
            auto [next, nref] =
                tb.loadPointer(kPcNext, node + 12, ref, 3);
            node = next;
            ref = nref;
        }
    }
    return std::move(tb).finish();
}

} // namespace

int
main()
{
    Workload workload = buildHashLookup();
    std::cout << "Figure 5 hash table: " << workload.trace.size()
              << " traced accesses\n\n";

    // Profile: which pointer groups of the key-compare load are
    // beneficial?
    PgStatsMap stats = ProfilingCompiler::profileStats(workload);
    std::vector<std::pair<PgId, PgStats>> pgs(stats.begin(),
                                              stats.end());
    std::sort(pgs.begin(), pgs.end(), [](auto &a, auto &b) {
        return a.second.issued > b.second.issued;
    });
    std::cout << "pointer groups of the key-compare load "
                 "(PG(L, X), Section 3):\n";
    for (const auto &[pg, s] : pgs) {
        if (pg.loadPc != kPcKeyCompare || s.issued < 16)
            continue;
        std::cout << "  slot " << (pg.slot >= 0 ? "+" : "") << pg.slot
                  << ": issued " << s.issued << ", used " << s.used
                  << " -> usefulness " << s.usefulness()
                  << (s.usefulness() > 0.5 ? "  [beneficial]"
                                           : "  [harmful]")
                  << '\n';
    }

    HintTable hints = ProfilingCompiler::fromPgStats(stats);
    if (const PrefetchHint *hint = hints.find(kPcKeyCompare)) {
        std::cout << "\nhint bit vector for the key-compare load "
                     "(Figure 6): pos=0x"
                  << std::hex << hint->pos << " neg=0x" << hint->neg
                  << std::dec << '\n';
    }

    // Show the end effect: greedy CDP vs ECDP on this table.
    RunStats base = simulate(configs::byName("baseline"), workload);
    RunStats cdp = simulate(configs::byName("cdp"), workload);
    RunStats ecdp = simulate(configs::byName("ecdp", &hints), workload);
    std::cout << "\n               IPC     BPKI   LDS-prefetches\n";
    auto row = [](const char *label, const RunStats &s) {
        std::cout << label << s.ipc << "   " << s.bpki << "   "
                  << s.slot(1).issued << '\n';
    };
    row("baseline:      ", base);
    row("greedy CDP:    ", cdp);
    row("ECDP (hints):  ", ecdp);
    std::cout << "\nECDP keeps the Next-pointer prefetches and drops "
                 "the D1/D2 noise.\n";
    return 0;
}
