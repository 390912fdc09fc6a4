/**
 * @file
 * The pluggable prefetch-engine interface and the engine table.
 *
 * Every prefetching mechanism the simulator can instantiate — the
 * paper's stream/CDP pair, the Section 6.3 comparison points, and the
 * ported competitors (ISB, DSPatch) — is one class implementing
 * PrefetchEngine. The MemorySystem owns an ordered *stack* of engines
 * (SystemConfig::engines, by table name) and drives every engine
 * through the same hooks: train on demand/store misses, retrigger on
 * prefetched-block use, observe load values (dependence-based
 * prefetching), and scan fresh fills (content-directed prefetching).
 * Each stack slot owns its prefetched-bit tag in the cache, its
 * feedback/throttle lane, and its obs counter scope, so the paper's
 * accuracy/coverage/pollution feedback applies uniformly to stacks
 * the paper never ran.
 *
 * Engines are found by name in one constant table (engineTable(),
 * defined in engine.cc). The conformance harness
 * (tests/engine_harness.hh) instantiates its full battery once per
 * table row; a new engine only needs a row to inherit the tests, and
 * the simlint rule `engine-conformance` fails the build if a
 * PrefetchEngine class has no row or a row has no fixture.
 */

#ifndef ECDP_PREFETCH_ENGINE_HH
#define ECDP_PREFETCH_ENGINE_HH

#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "memsim/block_geometry.hh"
#include "prefetch/hint_table.hh"
#include "prefetch/prefetcher.hh"
#include "trace/trace.hh"

namespace ecdp
{

/**
 * Everything an engine factory may need at construction time. A plain
 * value struct (not the full SystemConfig) so the prefetch layer stays
 * independent of sim/.
 */
struct EngineContext
{
    /** Geometry of the cache level being prefetched (the L2). */
    BlockGeometry geom{128};
    /** Stream-prefetcher tracking entries. */
    unsigned streamEntries = 32;
    /** CDP virtual-address compare bits. */
    unsigned cdpCompareBits = 8;
    /** GRP-style coarse gating instead of per-PG hints (ecdp only). */
    bool grpCoarse = false;
    /** Compiler hints (required by "ecdp"; not owned). */
    const HintTable *hints = nullptr;
};

/** Context of a block fill that is about to be scanned. */
struct ScanContext
{
    /** True when a demand load miss fetched the block. */
    bool demandFill = true;
    /** Demand fills: PC of the missing load. */
    Addr loadPc = 0;
    /** Demand fills: byte offset the load accessed in the block. */
    std::uint32_t accessByteOffset = 0;
    /** Recursion depth of the fill (0 = demand fill). */
    std::uint8_t fillDepth = 0;
    /** Root PG for recursive fills. */
    bool pgValid = false;
    PgId pgRoot{};
};

/**
 * One prefetching mechanism behind uniform hooks.
 *
 * Contract, enforced per table row by the conformance harness:
 *  - no hook call may append more than maxRequestsPerTrigger()
 *    requests to its output vector;
 *  - engines are deterministic: the same hook sequence produces the
 *    same requests (no wall-clock, no randomness);
 *  - engines never issue directly — they only append PrefetchRequests,
 *    and the MemorySystem owns queueing, filtering, issue and the
 *    per-engine prefetched-bit/counter accounting.
 */
class PrefetchEngine
{
  public:
    /**
     * Which of the paper's two roles the engine's traffic plays for
     * classification purposes: Lds-class engines target linked-data
     * misses and sit behind the Zhuang-Lee hardware filter when it is
     * enabled; Primary-class engines model the streaming side and
     * bypass it.
     */
    enum class Class : std::uint8_t { Primary, Lds };

    virtual ~PrefetchEngine() = default;

    /** Table name ("stream", "cdp", "isb", ...). */
    virtual const char *name() const = 0;

    virtual Class statClass() const = 0;

    /**
     * Upper bound on requests a single hook invocation may append at
     * the *current* aggressiveness level (the degree/distance cap the
     * conformance harness asserts).
     */
    virtual unsigned maxRequestsPerTrigger() const = 0;

    /** Table 2 knob; engines without one ignore it. */
    virtual void setAggressiveness(AggLevel) {}

    /** A demand load missed the last-level cache. */
    virtual void onDemandMiss(const TraceEntry &,
                              std::vector<PrefetchRequest> &)
    {
    }

    /** A store missed the last-level cache (write-allocate path). */
    virtual void onStoreMiss(Addr, std::vector<PrefetchRequest> &) {}

    /**
     * A demand access consumed a block this engine prefetched (the
     * stream prefetcher keeps its stream alive from here).
     */
    virtual void onPrefetchHit(Addr /*block_addr*/,
                               std::vector<PrefetchRequest> &)
    {
    }

    /** @{ Load-value observation (dependence-based prefetching). The
     *  MemorySystem only routes load issue/complete events to engines
     *  that want them. */
    virtual bool wantsLoadValues() const { return false; }
    virtual void onLoadIssue(Addr /*pc*/, Addr /*addr*/) {}
    virtual void onLoadComplete(Addr /*pc*/, Addr /*value*/,
                                std::vector<PrefetchRequest> &)
    {
    }
    /** @} */

    /** @{ Fill scanning (content-directed prefetching). Engines that
     *  want it see every demand fill; recursive scans of an engine's
     *  own prefetched fills are additionally gated by
     *  scansOwnFillAt(depth). */
    virtual bool wantsFillScan() const { return false; }
    virtual bool scansOwnFillAt(unsigned /*fill_depth*/) const
    {
        return false;
    }
    virtual void onFill(Addr /*block_vaddr*/,
                        const std::uint8_t * /*bytes*/,
                        const ScanContext &,
                        std::vector<PrefetchRequest> &)
    {
    }
    /** @} */

    /** Table 7-style hardware cost of the engine's own state. */
    virtual std::uint64_t storageBits() const { return 0; }
};

/** Empty stack slot: never prefetches. The named configs put it in
 *  an unused paper slot so the slot still exists: it owns a feedback
 *  lane and a PAB window, and an idle slot reports accuracy 1.0 in
 *  both, which PAB's tie-break reads. */
class NullEngine final : public PrefetchEngine
{
  public:
    explicit NullEngine(const EngineContext &) {}

    const char *name() const override { return "none"; }
    Class statClass() const override { return Class::Primary; }
    unsigned maxRequestsPerTrigger() const override { return 0; }
};

/** One engine-table row: a name and the factory behind it. */
struct EngineRow
{
    std::string_view name;
    std::unique_ptr<PrefetchEngine> (*make)(const EngineContext &);
};

/** Every engine, sorted by name. */
std::span<const EngineRow> engineTable();

/**
 * The engine row named @p name; nothing is constructed. Throws
 * std::runtime_error naming @p name and every engine otherwise.
 */
const EngineRow &findEngine(std::string_view name);

} // namespace ecdp

#endif // ECDP_PREFETCH_ENGINE_HH
