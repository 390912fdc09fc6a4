/**
 * @file
 * The pluggable prefetch-engine interface and its string-keyed
 * registry.
 *
 * Every prefetching mechanism the simulator can instantiate — the
 * paper's stream/CDP pair, the Section 6.3 comparison points, and the
 * ported competitors (ISB, DSPatch) — implements PrefetchEngine. The
 * MemorySystem owns an ordered *stack* of engines (SystemConfig::
 * engines, by registry name) and drives every engine through the same
 * hooks: train on demand/store misses, retrigger on prefetched-block
 * use, observe load values (dependence-based prefetching), and scan
 * fresh fills (content-directed prefetching). Each stack slot owns its
 * prefetched-bit tag in the cache, its feedback/throttle lane, and its
 * obs counter scope, so the paper's accuracy/coverage/pollution
 * feedback applies uniformly to stacks the paper never ran.
 *
 * The conformance harness (tests/engine_harness.hh) instantiates its
 * full battery once per registry entry; a new engine only has to
 * register itself to inherit the tests, and the simlint rule
 * `engine-conformance` fails the build if it forgets.
 */

#ifndef ECDP_PREFETCH_ENGINE_HH
#define ECDP_PREFETCH_ENGINE_HH

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "memsim/block_geometry.hh"
#include "prefetch/cdp.hh"
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

/**
 * One prefetching mechanism behind uniform hooks.
 *
 * Contract, enforced per registry entry by the conformance harness:
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
     * bypass it (matching the pre-registry hard-coded pair).
     */
    enum class Class : std::uint8_t { Primary, Lds };

    virtual ~PrefetchEngine() = default;

    /** Registry name ("stream", "cdp", "isb", ...). */
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
                        const ContentDirectedPrefetcher::ScanContext &,
                        std::vector<PrefetchRequest> &)
    {
    }
    /** @} */

    /** Table 7-style hardware cost of the engine's own state. */
    virtual std::uint64_t storageBits() const { return 0; }
};

/**
 * Process-wide string-keyed engine factory registry.
 *
 * Built-in engines are registered on first use (an explicit call from
 * instance(), not static initializers, so static-archive dead
 * stripping cannot silently drop an engine). Unknown names fail with
 * an error listing every known name.
 */
class EngineRegistry
{
  public:
    using Factory = std::function<std::unique_ptr<PrefetchEngine>(
        const EngineContext &)>;

    /** The process-wide registry, builtins included. */
    static EngineRegistry &instance();

    /**
     * Register a factory under @p name.
     * @throws std::logic_error if the name is already taken.
     */
    void add(const std::string &name, Factory factory);

    bool contains(const std::string &name) const;

    /** All registered names, sorted. */
    std::vector<std::string> names() const;

    /**
     * Create an engine by name.
     * @throws std::invalid_argument naming the unknown engine and
     *         listing the known ones.
     */
    std::unique_ptr<PrefetchEngine>
    create(const std::string &name, const EngineContext &ctx) const;

  private:
    std::map<std::string, Factory> factories_;
};

/** Registers the built-in engines (defined in engines.cc; called once
 *  from EngineRegistry::instance()). */
void registerBuiltinEngines(EngineRegistry &registry);

} // namespace ecdp

#endif // ECDP_PREFETCH_ENGINE_HH
