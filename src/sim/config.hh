/**
 * @file
 * System configuration (Table 5 of the paper) and run statistics.
 */

#ifndef ECDP_SIM_CONFIG_HH
#define ECDP_SIM_CONFIG_HH

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/core.hh"
#include "dram/dram.hh"
#include "prefetch/hint_table.hh"
#include "prefetch/prefetcher.hh"
#include "throttle/throttle_policy.hh"

namespace ecdp
{

/**
 * Full system configuration. Defaults reproduce the paper's baseline:
 * an aggressive stream prefetcher, no LDS prefetcher, no throttling.
 * A configuration's prefetching is its engine stack plus its throttle
 * policy name; each row of configs::byName()'s table sets both.
 */
struct SystemConfig
{
    CoreParams core{};

    /** @{ L1 D-cache (Table 5). */
    std::uint32_t l1Bytes = 32 * 1024;
    std::uint32_t l1Assoc = 4;
    std::uint32_t l1BlockBytes = 64;
    Cycle l1Latency{2};
    /** @} */

    /** @{ L2 (last-level) cache (Table 5). */
    std::uint32_t l2Bytes = 1024 * 1024;
    std::uint32_t l2Assoc = 8;
    std::uint32_t l2BlockBytes = 128;
    Cycle l2Latency{15};
    unsigned l2Mshrs = 32;
    /** @} */

    DramParams dram{};

    /** @{ Prefetcher selection. */
    /**
     * The engine stack by engine-table name, one engine per slot. Slot
     * order matters: slot 0 is the primary (streaming-capable)
     * prefetcher, with the "primary" counter scope and start level;
     * slot 1 is the LDS prefetcher, with "lds"; further slots are
     * "<engine><slot>". The order is part of configHash(). The named
     * configs always fill both paper slots, "none" included: PAB's
     * tie-break and the stats JSON's primary/lds keys read slots 0
     * and 1.
     */
    std::vector<std::string> engines = {"stream", "none"};
    unsigned streamEntries = 32;
    unsigned cdpCompareBits = 8;
    unsigned prefetchQueueEntries = 128;
    unsigned prefetchIssuePerCycle = 2;
    /** MSHR / memory-request-buffer entries prefetches must leave
     *  free so they cannot starve demand misses outright. */
    unsigned mshrReserveForDemand = 8;
    unsigned dramReserveForDemand = 8;
    /** Zhuang-Lee hardware filter applied to LDS prefetches. */
    bool hwFilter = false;
    /** GRP-style coarse gating instead of per-PG hints (Sec 7.1). */
    bool grpCoarse = false;
    /** Compiler hints (required by the "ecdp" engine; not owned). */
    const HintTable *hints = nullptr;
    /** @} */

    /** @{ Throttling. */
    AggLevel primaryStartLevel = AggLevel::Aggressive;
    AggLevel ldsStartLevel = AggLevel::Aggressive;
    /** The paper uses 8192 L2 evictions per interval for 200M-
     *  instruction samples; our traces are ~100x shorter, so the
     *  default interval is scaled down to keep the number of
     *  throttling decisions per run comparable (see DESIGN.md). */
    std::uint64_t intervalEvictions = 1024;
    /** Table 4 thresholds. The paper's defaults are T_cov = 0.2 and
     *  A_low = 0.4, and Section 4.2 advises raising them on
     *  bandwidth-limited systems; this system (128 B blocks over an
     *  8 B bus) is one, so T_coverage defaults to 0.3 here.
     *  `repro --figure ablation_thresholds` sweeps them. */
    CoordinatedThresholds coordThresholds{0.3, 0.4, 0.7};
    FdpThresholds fdpThresholds{};
    /** Outcomes per slot in the "pab" policy's accuracy window. */
    unsigned pabWindow = 64;
    /**
     * Throttle policy by policy-table name: "static" (fixed
     * aggressiveness), "coordinated" (Section 4), "fdp" (Section 6.5),
     * "pab" (Section 7.4) or "tabular-rl". Part of configHash().
     */
    std::string throttlePolicy = "static";
    /**
     * Exploration seed for randomized policies ("tabular-rl"), folded
     * into configHash() together with the policy name.
     * Policies derive all randomness from it — never from wall clock —
     * so equal seeds give byte-identical runs (enforced by the
     * seeded-determinism tests).
     */
    std::uint64_t throttleRlSeed = 1;
    /** @} */

    /** @{ Oracle modes. */
    /** Figure 1 (bottom): LDS demand misses become L2 hits. */
    bool idealLds = false;
    /** Section 2.3: prefetch fills go to a side buffer, never
     *  polluting the L2. */
    bool idealNoPollution = false;
    /** @} */

    /** Safety limit for the cycle loop. */
    Cycle maxCycles{4'000'000'000ull};

    /**
     * Event-driven cycle skipping: advance the clock directly to the
     * next cycle any component can act on (the minimum over the
     * cores' wakeups, pending fills, queued prefetches and DRAM
     * drains) instead of ticking every cycle. A pure wall-clock
     * optimisation — results are bit-identical either way (see
     * DESIGN.md's exactness argument and the SkippingIsExact tests),
     * which is also why the flag is deliberately excluded from
     * configHash(): both settings name the same simulated machine.
     * Off is only useful for the simbench speed comparison and for
     * debugging the scheduler itself.
     */
    bool cycleSkipping = true;
};

/** Per-pointer-group usefulness statistics. */
struct PgStats
{
    std::uint64_t issued = 0;
    std::uint64_t used = 0;

    double usefulness() const
    {
        return issued == 0
            ? 0.0
            : static_cast<double>(used) / static_cast<double>(issued);
    }
};

using PgStatsMap = std::unordered_map<PgId, PgStats, PgIdHash>;

/**
 * Collision-free identity of a SystemConfig: a 64-bit FNV-1a hash
 * over every field (hint tables are hashed by content, in sorted PC
 * order, so the hash is stable across processes). Used to key run
 * memoization and the persistent result store (see runKey()).
 */
std::uint64_t configHash(const SystemConfig &cfg);

/**
 * Stats/counter instance name of each stack slot: slot 0 is always
 * "primary" and slot 1 "lds" (the accounting tests and JSON schema key
 * on those), further slots are "<engine><slot>" — unique even when
 * one engine name appears twice.
 */
std::vector<std::string>
engineInstanceNames(const std::vector<std::string> &stack);

/**
 * One feedback-interval boundary: the aged accuracy/coverage sample
 * the throttler saw and the throttling state after its decision was
 * applied. RunStats carries the full series so post-hoc tooling can
 * plot throttle-level timelines without re-running the simulation.
 */
struct IntervalSample
{
    /** Feedback and throttle state of one engine-stack slot. */
    struct Slot
    {
        double accuracy = 0.0;
        double coverage = 0.0;
        AggLevel level = AggLevel::Aggressive;
        bool enabled = true;
    };

    /** Cycle at which the interval ended. */
    Cycle cycle{};
    /** One entry per stack slot, in stack order. */
    std::vector<Slot> slots;
    /** Raw JSON blob of per-interval policy state (tabular-rl action
     *  trace); empty — and omitted from the stats JSON — for the
     *  built-in rule policies, keeping the goldens byte-identical. */
    std::string policy;
};

/** Statistics of one single-core run. */
struct RunStats
{
    std::string workload;
    Cycle cycles{};
    std::uint64_t instructions = 0;
    double ipc = 0.0;
    /** True when the run hit the maxCycles watchdog before the trace
     *  finished its first pass; the stats cover only the cycles that
     *  did execute. Checked unconditionally (survives NDEBUG). */
    bool timedOut = false;

    std::uint64_t busTransactions = 0;
    /** Bus accesses per thousand retired instructions. */
    double bpki = 0.0;

    std::uint64_t demandLoads = 0;
    std::uint64_t l2DemandAccesses = 0;
    std::uint64_t l2DemandMisses = 0;
    std::uint64_t l2LdsMisses = 0;

    PgStatsMap pgStats;

    std::uint64_t intervals = 0;

    /** Per-interval feedback/throttle time series (one entry per
     *  completed interval, in order). */
    std::vector<IntervalSample> intervalSeries;

    /** @{ Throttle policy of the run (cfg.throttlePolicy) and its
     *  final serialized state. Emitted to the stats JSON only
     *  when the state blob is non-empty — the built-in rule policies
     *  serialize nothing, so default runs stay byte-identical to the
     *  pinned goldens. */
    std::string throttlePolicy;
    std::string throttlePolicyState;
    /** @} */

    /** Lifetime totals and final state of one engine-stack slot. */
    struct EngineRunStats
    {
        /** Counter-scope instance name ("primary", "lds", "isb2"). */
        std::string instance;
        /** Registry name of the engine in the slot. */
        std::string engine;
        std::uint64_t issued = 0;
        std::uint64_t used = 0;
        std::uint64_t late = 0;
        /** Requests dropped on prefetch-queue overflow. */
        std::uint64_t dropped = 0;
        /** Sum/count of issue-to-use latencies of useful prefetches. */
        std::uint64_t usefulLatencySum = 0;
        std::uint64_t usefulLatencyCount = 0;
        /** Throttling state at the end of the run. */
        AggLevel finalLevel = AggLevel::Aggressive;
        bool finalEnabled = true;
    };

    /** One entry per stack slot, in stack order; slot 0 is the
     *  paper's primary prefetcher and slot 1 its LDS prefetcher. */
    std::vector<EngineRunStats> engineStats;

    /** Fraction of prefetches used from the cache (tag-bit metric);
     *  0 for an idle or missing slot. */
    double accuracy(unsigned which) const
    {
        const EngineRunStats &e = slot(which);
        return e.issued == 0 ? 0.0
                             : static_cast<double>(e.used) /
                                   static_cast<double>(e.issued);
    }

    /** Fraction of prefetches demanded at all (cache use or late
     *  MSHR merge) — the throttling mechanism's view. */
    double accuracyDemanded(unsigned which) const
    {
        const EngineRunStats &e = slot(which);
        return e.issued == 0 ? 0.0
                             : static_cast<double>(e.used + e.late) /
                                   static_cast<double>(e.issued);
    }

    /** Fraction of demand misses eliminated by slot @p which. */
    double coverage(unsigned which) const
    {
        const std::uint64_t used = slot(which).used;
        const std::uint64_t denom = used + l2DemandMisses;
        return denom == 0 ? 0.0
                          : static_cast<double>(used) /
                                static_cast<double>(denom);
    }

    double avgUsefulPrefetchLatency(unsigned which) const
    {
        const EngineRunStats &e = slot(which);
        return e.usefulLatencyCount == 0
            ? 0.0
            : static_cast<double>(e.usefulLatencySum) /
                  static_cast<double>(e.usefulLatencyCount);
    }

    /** Slot @p which's totals, or an idle slot's (zero counts, level
     *  Aggressive, enabled) when the stack is narrower. */
    const EngineRunStats &slot(unsigned which) const
    {
        static const EngineRunStats kIdle{};
        return which < engineStats.size() ? engineStats[which] : kIdle;
    }
};

} // namespace ecdp

#endif // ECDP_SIM_CONFIG_HH
