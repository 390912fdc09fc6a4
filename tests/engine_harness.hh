/**
 * @file
 * Engine-conformance harness: per-engine fixtures (a config plus a
 * synthetic workload chosen to make that engine generate traffic), a
 * deterministic hook-script driver for exercising a PrefetchEngine in
 * isolation, and the conservation-identity checker generalised to an
 * arbitrary engine stack.
 *
 * Every engine-table row must have a row in
 * fixtureTable() below — test_engine_conformance.cc instantiates the
 * full battery from the engine table's names and fails loudly on a
 * missing fixture, and tools/simlint greps this table to enforce the
 * same rule statically (rule: engine-conformance).
 */

#ifndef ECDP_TESTS_ENGINE_HARNESS_HH
#define ECDP_TESTS_ENGINE_HARNESS_HH

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "compiler/profiling_compiler.hh"
#include "obs/metrics.hh"
#include "memsim/name_table.hh"
#include "prefetch/engine.hh"
#include "sim/config.hh"
#include "trace/trace.hh"

namespace ecdp
{
namespace harness
{

/** Which synthetic workload a fixture drives. */
enum class WorkloadKind : std::uint8_t
{
    Sequential,     ///< unit-stride sweep (stream / GHB / DSPatch)
    PointerChase,   ///< circular linked list (CDP / ECDP / DBP)
    IrregularRepeat ///< repeated irregular block sequence (Markov/ISB)
};

/**
 * One row per engine-table row. simlint's engine-conformance rule
 * greps for `{"<name>",` in this table, so keep each entry on its own
 * line in that exact shape.
 */
struct FixtureSpec
{
    const char *engine;
    WorkloadKind kind;
    /** False only for engines that by contract never prefetch. */
    bool expectsTraffic;
};

inline const std::vector<FixtureSpec> &
fixtureTable()
{
    static const std::vector<FixtureSpec> table = {
        {"none", WorkloadKind::Sequential, false},
        {"stream", WorkloadKind::Sequential, true},
        {"ghb", WorkloadKind::Sequential, true},
        {"cdp", WorkloadKind::PointerChase, true},
        {"ecdp", WorkloadKind::PointerChase, true},
        {"dbp", WorkloadKind::PointerChase, true},
        {"markov", WorkloadKind::IrregularRepeat, true},
        {"isb", WorkloadKind::IrregularRepeat, true},
        {"dspatch", WorkloadKind::Sequential, true},
    };
    return table;
}

/**
 * A unit-stride sweep of 256 KB with one load PC. 64 B steps touch
 * every block for any geometry; the footprint spans enough 2 KB
 * regions to retire DSPatch's 64-entry page buffer many times over.
 */
inline Workload
sequentialWorkload()
{
    TraceBuilder tb("harness-seq");
    const Addr base = tb.heap().allocate(4096 * 64, 64);
    tb.beginTimed();
    for (unsigned i = 0; i < 4096; ++i)
        tb.load(0x1100, base + i * 64, 4, kNoDep, false, 1);
    return std::move(tb).finish();
}

/**
 * A circular singly-linked list of 512 64-byte nodes, chased twice.
 * Every node's next pointer targets the same heap, so CDP's
 * compare-bits test accepts them; each hop is a 4-byte dependent
 * pointer load, which is exactly what DBP correlates on.
 */
inline Workload
pointerChaseWorkload()
{
    constexpr unsigned kNodes = 512;
    TraceBuilder tb("harness-chase");
    std::vector<Addr> nodes;
    nodes.reserve(kNodes);
    for (unsigned i = 0; i < kNodes; ++i)
        nodes.push_back(tb.heap().allocate(64, 64));
    for (unsigned i = 0; i < kNodes; ++i)
        tb.mem().writePointer(nodes[i], nodes[(i + 1) % kNodes]);
    tb.beginTimed();
    Addr p = nodes[0];
    TraceRef dep = kNoDep;
    for (unsigned pass = 0; pass < 2; ++pass) {
        for (unsigned i = 0; i < kNodes; ++i) {
            const TraceRef ref = tb.load(0x2100, p, 4, dep,
                                         /*is_lds=*/true, 2);
            p = tb.mem().readPointer(p);
            dep = ref;
        }
    }
    return std::move(tb).finish();
}

/**
 * 512 blocks spread one per 4 KB, visited in a fixed pseudo-random
 * permutation, three passes. The first pass trains the temporal /
 * miss-correlation tables; later passes replay the identical miss
 * sequence (the page-stride aliases enough L2 sets that the repeats
 * still miss), so Markov and ISB predict from their history.
 */
inline Workload
irregularRepeatWorkload()
{
    constexpr unsigned kSlots = 512;
    TraceBuilder tb("harness-irregular");
    const Addr base = tb.heap().allocate(kSlots * 4096, 4096);

    // Fixed LCG-driven Fisher-Yates permutation: deterministic across
    // platforms (no std::random dependence on libstdc++ versions).
    std::vector<std::uint32_t> perm(kSlots);
    for (unsigned i = 0; i < kSlots; ++i)
        perm[i] = i;
    std::uint64_t lcg = 0x2545f4914f6cdd1dull;
    for (unsigned i = kSlots - 1; i > 0; --i) {
        lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
        const unsigned j =
            static_cast<unsigned>((lcg >> 33) % (i + 1));
        std::swap(perm[i], perm[j]);
    }

    tb.beginTimed();
    for (unsigned pass = 0; pass < 3; ++pass) {
        for (unsigned i = 0; i < kSlots; ++i) {
            tb.load(0x3100, base + perm[i] * 4096, 4, kNoDep,
                    /*is_lds=*/true, 1);
        }
    }
    return std::move(tb).finish();
}

/**
 * A single-engine stack fixture for @p engine: config, workload, and
 * (for hinted engines) the compiler hints the config points at.
 */
struct EngineFixture
{
    std::string engine;
    SystemConfig cfg;
    Workload workload;
    /** Keeps cfg.hints alive (only set for hinted engines). */
    std::shared_ptr<HintTable> hints;
    bool expectsTraffic = true;
};

inline const FixtureSpec &
fixtureSpec(const std::string &engine)
{
    for (const FixtureSpec &spec : fixtureTable()) {
        if (engine == spec.engine)
            return spec;
    }
    throw std::logic_error(
        "no conformance fixture for engine \"" + engine +
        "\" — add a row to fixtureTable() in tests/engine_harness.hh");
}

inline Workload
buildFixtureWorkload(WorkloadKind kind)
{
    switch (kind) {
    case WorkloadKind::Sequential:
        return sequentialWorkload();
    case WorkloadKind::PointerChase:
        return pointerChaseWorkload();
    case WorkloadKind::IrregularRepeat:
        return irregularRepeatWorkload();
    }
    throw std::logic_error("unreachable workload kind");
}

inline EngineFixture
makeEngineFixture(const std::string &engine)
{
    const FixtureSpec &spec = fixtureSpec(engine);
    EngineFixture fixture;
    fixture.engine = engine;
    fixture.expectsTraffic = spec.expectsTraffic;
    fixture.workload = buildFixtureWorkload(spec.kind);
    fixture.cfg.engines = {engine};
    if (engine == "ecdp") {
        fixture.hints = std::make_shared<HintTable>(
            ProfilingCompiler::profile(fixture.workload));
        fixture.cfg.hints = fixture.hints.get();
    }
    return fixture;
}

/** EngineContext over a default 128 B geometry (hints optional). */
/** Every engine-table name, in table order. */
inline std::vector<std::string>
engineNames()
{
    return namesOf(engineTable());
}

inline EngineContext
defaultEngineContext(const HintTable *hints = nullptr)
{
    EngineContext ctx;
    ctx.hints = hints;
    return ctx;
}

/** Hints matching driveHookScript()'s fill-scan PC: every positive
 *  slot of loads at 0x300 is marked beneficial, so the hinted CDP
 *  engine emits requests under the script too. */
inline const HintTable &
scriptHints()
{
    static const HintTable table = [] {
        HintTable t;
        PrefetchHint &hint = t.entry(0x300);
        for (int slot = 0; slot < 32; ++slot)
            hint.set(slot);
        return t;
    }();
    return table;
}

/** A (blockAddr, depth) fingerprint of one emitted request. */
using RequestLog = std::vector<std::pair<std::uint64_t, unsigned>>;

/**
 * Drive every PrefetchEngine hook with a fixed access script and
 * record the emitted requests. @p per_call is invoked after each
 * triggering hook with the number of requests that call appended —
 * the degree-cap test asserts it against maxRequestsPerTrigger().
 */
template <typename PerCallFn>
inline RequestLog
driveHookScript(PrefetchEngine &engine, PerCallFn per_call)
{
    const BlockGeometry geom{128};
    constexpr std::uint64_t kHeap = 0x50000000;

    RequestLog log;
    std::vector<PrefetchRequest> out;
    auto call = [&](auto &&hook) {
        const std::size_t before = out.size();
        hook(out);
        for (std::size_t i = before; i < out.size(); ++i) {
            log.emplace_back(out[i].blockAddr.raw(),
                             unsigned{out[i].depth});
        }
        per_call(out.size() - before);
    };
    auto miss = [](Addr pc, Addr addr, bool is_lds) {
        TraceEntry e;
        e.pc = pc;
        e.vaddr = addr;
        e.kind = AccessKind::Load;
        e.isLds = is_lds;
        return e;
    };

    // Unit-stride misses (streams, deltas, spatial patterns).
    for (unsigned i = 0; i < 32; ++i) {
        call([&](std::vector<PrefetchRequest> &o) {
            engine.onDemandMiss(miss(0x100, kHeap + i * 128, false),
                                o);
        });
    }
    // A second stream at a 3-block stride. Its first region aliases
    // the sweep's first region in DSPatch's 64-entry page buffer
    // (both are multiples of 64 x 2 KB), so the displaced sweep
    // region retires into the SPT under its trigger PC.
    for (unsigned i = 0; i < 16; ++i) {
        call([&](std::vector<PrefetchRequest> &o) {
            engine.onDemandMiss(
                miss(0x104, kHeap + 0x100000 + i * 384, false), o);
        });
    }
    // Revisit a third aliasing region with the sweep's PC: spatial
    // prefetchers replay the learned dense pattern for the new region.
    for (unsigned i = 0; i < 16; ++i) {
        call([&](std::vector<PrefetchRequest> &o) {
            engine.onDemandMiss(miss(0x100, kHeap + 0x40000 + i * 128,
                                     false),
                                o);
        });
    }
    // An irregular block sequence, repeated (temporal correlation).
    static const unsigned kSeq[] = {7,  2,  11, 5,  3,  13, 1,  9,
                                    15, 4,  12, 6,  14, 0,  10, 8};
    for (unsigned pass = 0; pass < 2; ++pass) {
        for (unsigned s : kSeq) {
            call([&](std::vector<PrefetchRequest> &o) {
                engine.onDemandMiss(
                    miss(0x108, kHeap + 0x200000 + s * 128, true), o);
            });
        }
    }
    // Store misses and prefetch hits.
    for (unsigned i = 0; i < 8; ++i) {
        call([&](std::vector<PrefetchRequest> &o) {
            engine.onStoreMiss(kHeap + 0x300000 + i * 128, o);
        });
    }
    for (unsigned i = 0; i < 4; ++i) {
        call([&](std::vector<PrefetchRequest> &o) {
            engine.onPrefetchHit(kHeap + i * 128, o);
        });
    }
    // Dependent pointer-load pairs: each load's address equals the
    // previous load's completed value (DBP's producer/consumer idiom).
    for (unsigned i = 0; i < 8; ++i) {
        engine.onLoadIssue(0x200, kHeap + 0x400000 + i * 64);
        call([&](std::vector<PrefetchRequest> &o) {
            engine.onLoadComplete(0x200, kHeap + 0x400000 + (i + 1) * 64,
                                  o);
        });
    }
    // Fill scans over a block of plausible same-heap pointers.
    if (engine.wantsFillScan()) {
        std::vector<std::uint8_t> bytes(geom.blockBytes(), 0);
        for (unsigned slot = 0; slot * 4 < bytes.size(); ++slot) {
            const std::uint32_t value =
                static_cast<std::uint32_t>(kHeap + 0x500000 +
                                           slot * 128);
            for (unsigned b = 0; b < 4; ++b) {
                bytes[slot * 4 + b] =
                    static_cast<std::uint8_t>(value >> (8 * b));
            }
        }
        for (unsigned i = 0; i < 4; ++i) {
            ScanContext ctx;
            ctx.demandFill = true;
            ctx.loadPc = 0x300;
            ctx.accessByteOffset = 0;
            ctx.fillDepth = 0;
            call([&](std::vector<PrefetchRequest> &o) {
                engine.onFill(kHeap + 0x500000 + i * 128,
                              bytes.data(), ctx, o);
            });
        }
    }
    return log;
}

/**
 * Conservation identities for one core's engine stack, over any list
 * of instance names (generalises test_accounting.cc's two-slot
 * checker; that file keeps the legacy literal-scope version so the
 * default stack's metric names stay pinned).
 */
inline void
checkEngineIdentities(const obs::MetricRegistry &m, unsigned core,
                      const std::vector<std::string> &instances,
                      const std::string &context)
{
    const std::string root = "core" + std::to_string(core) + ".";
    auto v = [&](const std::string &path) {
        return m.value(root + path);
    };

    for (const std::string &instance : instances) {
        const std::string pf = "pf." + instance + ".";
        SCOPED_TRACE(context + " " + root + pf);

        EXPECT_EQ(v(pf + "generated"),
                  v(pf + "queued") + v(pf + "dropped.queue_full"));
        EXPECT_EQ(v(pf + "queued"),
                  v(pf + "issued") + v(pf + "dropped.source_disabled") +
                      v(pf + "dropped.cached") +
                      v(pf + "dropped.in_flight") +
                      v(pf + "dropped.side_buffer") +
                      v(pf + "dropped.hw_filter") +
                      v(pf + "in_queue_end"));
        EXPECT_EQ(v(pf + "issued"),
                  v(pf + "filled") + v(pf + "in_flight_end"));
        EXPECT_EQ(v(pf + "filled"),
                  v(pf + "used") + v(pf + "consumed_late") +
                      v(pf + "evicted_unused") +
                      v(pf + "resident_unused_end") +
                      v(pf + "side_resident_end"));
        EXPECT_LE(v(pf + "side_used"), v(pf + "used"));
        EXPECT_EQ(v(pf + "useful_latency_count"), v(pf + "used"));
    }

    {
        SCOPED_TRACE(context + " " + root + "l2");
        EXPECT_EQ(v("l2.demand_accesses"),
                  v("l2.demand_hits") + v("l2.mshr_merges") +
                      v("l2.side_hits") + v("l2.ideal_hits") +
                      v("l2.demand_misses_true"));
        EXPECT_EQ(v("l2.demand_misses"),
                  v("l2.demand_misses_true") +
                      v("l2.demand_misses_late"));
    }
    {
        SCOPED_TRACE(context + " " + root + "mshr");
        EXPECT_EQ(v("mshr.allocations"),
                  v("mshr.releases") + v("mshr.in_flight_end"));
    }
}

} // namespace harness
} // namespace ecdp

#endif // ECDP_TESTS_ENGINE_HARNESS_HH
