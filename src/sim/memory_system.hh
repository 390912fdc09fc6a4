/**
 * @file
 * Per-core memory hierarchy: L1D, L2 with MSHRs, an ordered stack of
 * prefetch engines (SystemConfig::engines, by registry name), feedback
 * collection and throttling. Several cores' memory systems share one
 * DramSystem.
 *
 * Every engine slot owns its prefetched-bit tag in the cache (the
 * CacheBlock::prefetchOwner index), its feedback/throttle lane and its
 * counter scope, so the paper's accuracy/coverage/pollution machinery
 * applies uniformly whether the stack is the paper's stream+CDP pair
 * or an arbitrary N-engine hybrid. Legacy two-slot configurations
 * (primary/lds kinds, empty cfg.engines) derive their stack via
 * effectiveEngineStack() and behave bit-identically to the
 * pre-registry implementation.
 *
 * Accounting lives in an obs::MetricRegistry (prefix "core<N>.")
 * rather than ad-hoc struct fields, so every run exposes the full
 * counter hierarchy and the conservation-law tests can audit it. When
 * the caller provides no registry the memory system owns a private
 * one — the counters always exist and always add up.
 */

#ifndef ECDP_SIM_MEMORY_SYSTEM_HH
#define ECDP_SIM_MEMORY_SYSTEM_HH

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <queue>
#include <string>
#include <unordered_map>
#include <vector>

#include "cache/cache.hh"
#include "cache/mshr.hh"
#include "core/core.hh"
#include "dram/dram.hh"
#include "memsim/sim_memory.hh"
#include "obs/event_tracer.hh"
#include "obs/metrics.hh"
#include "obs/observability.hh"
#include "obs/throttle_monitor.hh"
#include "prefetch/cdp.hh"
#include "prefetch/engine.hh"
#include "prefetch/hardware_filter.hh"
#include "prefetch/pab_selector.hh"
#include "sim/config.hh"
#include "throttle/coordinated_throttler.hh"
#include "throttle/feedback.hh"
#include "throttle/throttle_policy.hh"

namespace ecdp
{

/**
 * One core's memory system.
 */
class MemorySystem : public CoreMemoryInterface
{
  public:
    /**
     * @param cfg System configuration.
     * @param core_id Index of the owning core.
     * @param image This core's memory image (taken by value).
     * @param dram Shared DRAM system (not owned).
     * @param obs Observability bundle (optional, not owned). Without
     *        one, counters go to a private registry and tracing is
     *        off. Deliberately not part of SystemConfig: the same
     *        configuration must hash identically whether or not the
     *        run is observed.
     */
    MemorySystem(const SystemConfig &cfg, unsigned core_id,
                 SimMemory image, DramSystem *dram,
                 const Observability *obs = nullptr);

    std::optional<Cycle> load(const TraceEntry &entry, Cycle now) override;
    void store(const TraceEntry &entry, Cycle now) override;

    /** Per-cycle work: fills, prefetch issue, interval throttling. */
    void tick(Cycle now);

    /**
     * Earliest cycle after @p now at which tick() could do anything —
     * the event-driven scheduler's wakeup bound. Call after the
     * owning core's tick(now): core activity enqueues prefetches,
     * allocates MSHRs and fills the L2, and the bound must see it.
     * Guarantees every cycle in (now, bound) is a no-op tick:
     *  - a ready-queue head forces now + 1 when the next tick would
     *    drop it (dropReason(), counted) or send it to DRAM (which
     *    may count a buffer reject and then retries every cycle);
     *  - a head that passes every filter and is held back only by
     *    the MSHRs (mshrsRefusePrefetch()) waits silently, so it
     *    does not pin the clock: MSHRs free only in processFills,
     *    and the filter inputs (L2 and MSHR contents, side buffer,
     *    hardware filter, enable bits) change only on fills, on core
     *    events, which bound the wake themselves, or in endInterval;
     *  - a crossed eviction-delta interval boundary forces now + 1 so
     *    endInterval fires on the same cycle as under per-cycle
     *    polling;
     *  - otherwise the bound is the earliest MSHR fill or delayed-
     *    prefetch release.
     */
    Cycle nextEventCycle(Cycle now) const;

    /**
     * Fold lifetime counters into @p out. Non-const because it also
     * folds end-of-run gauges (queue depths, resident-prefetch
     * census, in-flight MSHRs) into the metric registry so the
     * conservation identities balance at any collection point.
     *
     * A run that ends mid-feedback-interval has a trailing partial
     * interval that never hit the eviction-delta boundary in tick();
     * collectStats appends one final sample for it (stamped with
     * @p now, the run's end cycle) to out.intervalSeries so short
     * runs are not missing their tail in the stats JSON. The sample
     * is computed from copies of the interval counters — simulation
     * and throttling state are untouched, so collecting stats
     * mid-run or repeatedly is safe and idempotent. out.intervals
     * keeps counting completed intervals only.
     */
    void collectStats(RunStats &out, Cycle now = Cycle{});

    /** @{ Introspection for tests and benches. */
    const Cache &l2() const { return l2_; }
    const Cache &l1() const { return l1_; }
    AggLevel primaryLevel() const { return levels_[0]; }
    AggLevel ldsLevel() const
    {
        return levels_.size() > 1 ? levels_[1] : AggLevel::Aggressive;
    }
    bool primaryEnabled() const { return enabled_[0] != 0; }
    bool ldsEnabled() const
    {
        return levels_.size() > 1 ? enabled_[1] != 0 : true;
    }
    const PgStatsMap &pgStats() const { return pgStats_; }
    SimMemory &image() { return image_; }
    std::uint64_t intervalsElapsed() const { return intervals_; }
    /** The registry this core's counters live in (the caller's, or
     *  the private fallback). */
    const obs::MetricRegistry &metrics() const { return *metrics_; }
    /** @} */

    /** @{ Engine-stack introspection (conformance harness, tests). */
    std::size_t engineCount() const { return engines_.size(); }
    const PrefetchEngine &engine(std::size_t i) const
    {
        return *engines_[i];
    }
    /** Counter-scope instance name of slot @p i ("primary", "lds",
     *  "<engine><slot>"). */
    const std::string &engineInstanceName(std::size_t i) const
    {
        return instanceNames_[i];
    }
    bool engineEnabled(std::size_t i) const { return enabled_[i] != 0; }
    AggLevel engineLevel(std::size_t i) const { return levels_[i]; }
    /** Test hook: force a slot's enable bit (what a selector-style
     *  throttler does). The conformance harness uses it to prove a
     *  disabled engine issues nothing. */
    void setEngineEnabled(std::size_t i, bool on)
    {
        enabled_[i] = on ? 1 : 0;
    }
    /** Test hook: apply an aggressiveness level to one slot. */
    void setEngineLevel(std::size_t i, AggLevel level)
    {
        applyLevel(i, level);
    }
    /** Test hook: one slot's feedback lane (reset-path assertions). */
    const PrefetcherFeedback &feedbackLane(std::size_t i) const
    {
        return feedback_[i];
    }
    /** PolicyRegistry name of the running throttle policy. */
    const std::string &throttlePolicyName() const
    {
        return policyName_;
    }
    /** @} */

    /**
     * Attach the owning core as the progress source for the policy's
     * interval-level IPC deltas (the tabular-rl reward signal). Pure
     * observation: the built-in rule policies never read the deltas,
     * so attaching (or not) cannot change legacy behaviour. Without a
     * core, deltaInstructions reads 0 (tests driving a bare
     * MemorySystem).
     */
    void attachCore(const Core *core) { progressCore_ = core; }

    /**
     * Fresh-replay reset of the adaptive machinery: every engine
     * forgets its learned state, all feedback lanes (interval
     * counters AND the latched held accuracy), the shared miss
     * counter, pollution filters/counters, aggressiveness levels,
     * enable bits and the policy's learned state return to their
     * construction values, and the interval baselines re-arm at the
     * current eviction/bus/instruction counts. Cache contents, MSHRs
     * and lifetime obs counters are deliberately untouched: the hook
     * models replaying the *throttling* machinery, not a machine
     * reset.
     */
    void resetEngineStack();

  private:
    struct QueuedPrefetch
    {
        PrefetchRequest req;
        Cycle readyAt{};
    };

    struct DelayedOrder
    {
        bool operator()(const QueuedPrefetch &a,
                        const QueuedPrefetch &b) const
        {
            return a.readyAt > b.readyAt;
        }
    };

    /** Ideal-no-pollution side buffer entry. */
    struct SideEntry
    {
        std::uint8_t engine = kNoPrefetchOwner;
        bool pgValid = false;
        PgId pg{};
        Cycle latency{};
        std::uint8_t depth = 0;
    };

    /**
     * Per-engine prefetch counters, bound once at construction. The
     * lifecycle identities the conservation tests audit:
     *   generated == queued + drop[QueueFull]
     *   queued == issued + other drops + in_queue_end
     *   issued == filled + in_flight_end
     *   filled == used + consumed_late + evicted_unused
     *             + resident_unused_end + side_resident_end
     * (side_used counts the subset of `used` served from the
     * ideal-no-pollution side buffer.)
     */
    struct PfCounters
    {
        obs::Counter *generated = nullptr;
        obs::Counter *queued = nullptr;
        obs::Counter *issued = nullptr;
        obs::Counter *filled = nullptr;
        obs::Counter *used = nullptr;
        obs::Counter *sideUsed = nullptr;
        obs::Counter *consumedLate = nullptr;
        obs::Counter *evictedUnused = nullptr;
        obs::Counter *usefulLatencySum = nullptr;
        obs::Counter *usefulLatencyCount = nullptr;
        /** Indexed by obs::DropReason. */
        obs::Counter *drop[6] = {};
        /** @{ End-of-run gauges (set in collectStats). */
        obs::Counter *residentUnusedEnd = nullptr;
        obs::Counter *inFlightEnd = nullptr;
        obs::Counter *inQueueEnd = nullptr;
        obs::Counter *sideResidentEnd = nullptr;
        /** @} */
    };

    /** Register this core's counters under "core<id>." once. */
    void bindCounters();
    /** Count + trace one discarded prefetch request. */
    void dropPrefetch(std::uint8_t engine, obs::DropReason reason,
                      Addr block_addr, Cycle now);
    /** Count an MSHR-full demand rejection; traces burst starts. */
    void noteMshrStall(Cycle now);

    /**
     * Count one last-level demand miss: lifetime and interval
     * counters, and (for true cache misses, @p probe_pollution) the
     * FDP pollution-filter probe. Shared by the load-miss, store
     * write-allocate-miss and late-MSHR-merge paths so they cannot
     * drift apart again.
     */
    void recordDemandMiss(Addr block_addr, bool is_lds,
                          bool probe_pollution, Cycle now);
    void l1Fill(Addr addr, bool dirty, Cycle now);
    void onDemandUseOfPrefetch(CacheBlock *block, Addr block_addr,
                               Cycle now);
    void trainOnDemandMiss(const TraceEntry &entry, Cycle now);
    /** Route a completed pointer load to the load-value engines
     *  (dependence-based prefetching). */
    void notifyLoadComplete(const TraceEntry &entry, Cycle ready);
    void enqueuePrefetch(const PrefetchRequest &req, Cycle ready_at,
                         Cycle now);
    /** Stamp requests appended since @p base with their slot. */
    void stampScratch(std::size_t base, std::uint8_t engine);
    void drainScratch(Cycle ready_at, Cycle now);
    void processFills(Cycle now);
    void installFill(Mshr &mshr, Cycle now);
    void scanAndEnqueue(std::uint8_t engine, Addr block_addr,
                        const ContentDirectedPrefetcher::ScanContext &ctx,
                        Cycle now);
    void handleVictim(const Cache::Victim &victim,
                      std::uint8_t insert_owner, Cycle now);
    void issuePrefetches(Cycle now);
    /** The filter chain issuePrefetches runs on a ready-queue head:
     *  why @p req would be dropped now, or nullopt if it may issue. */
    std::optional<obs::DropReason>
    dropReason(const PrefetchRequest &req) const;
    /** True while MSHR occupancy (including the demand reserve)
     *  holds back every prefetch; only a fill can clear it. */
    bool mshrsRefusePrefetch() const;
    /** Is any fill-scanning engine currently enabled? (Gates the
     *  demand-MSHR scanOnFill bit.) */
    bool anyFillScanEnabled() const;
    void endInterval(Cycle now);
    /** Snapshot from explicit (possibly copied) interval counters. */
    static FeedbackSnapshot makeSnapshot(const PrefetcherFeedback &fb,
                                         std::uint64_t aged_misses,
                                         std::uint64_t aged_pollution);
    FeedbackSnapshot snapshot(std::size_t which) const;
    void applyLevel(std::size_t which, AggLevel level);
    void pabRecord(std::size_t which, bool used);

    SystemConfig cfg_;
    unsigned coreId_;
    SimMemory image_;
    DramSystem *dram_;

    /** @{ The engine stack: registry names, stats instance names, and
     *  the engine objects, all indexed by slot. */
    std::vector<std::string> stackNames_;
    std::vector<std::string> instanceNames_;
    std::vector<std::unique_ptr<PrefetchEngine>> engines_;
    /** ldsClass_[i] != 0 iff slot i's engine is LDS-class (sits
     *  behind the hardware filter). */
    std::vector<std::uint8_t> ldsClass_;
    /** Slots whose engines observe load values / scan fills. */
    std::vector<std::uint8_t> loadValueEngines_;
    std::vector<std::uint8_t> fillScanEngines_;
    /** @} */

    /** @{ Observability: the caller's registry/tracer, or a private
     *  fallback registry so the counters always exist. */
    std::unique_ptr<obs::MetricRegistry> ownedMetrics_;
    obs::MetricRegistry *metrics_;
    obs::EventTracer *tracer_;
    obs::PhaseProfiler *phases_;
    std::vector<obs::ThrottleMonitor> monitors_;
    /** @} */

    Cache l1_;
    Cache l2_;
    MshrFile mshrs_;

    std::unique_ptr<HardwareFilter> hwFilter_;
    PabSelector pab_;

    /** The level-decision policy (effectiveThrottlePolicy(cfg)). */
    std::string policyName_;
    std::unique_ptr<ThrottlePolicy> policy_;
    /** Progress source for interval IPC deltas (attachCore()). */
    const Core *progressCore_ = nullptr;
    /** @{ Baselines for the IntervalContext deltas. */
    Cycle lastIntervalCycle_{};
    std::uint64_t lastIntervalInstructions_ = 0;
    std::uint64_t lastIntervalBus_ = 0;
    /** @} */
    std::vector<PrefetcherFeedback> feedback_;
    IntervalCounter demandMissCounter_;
    std::vector<IntervalCounter> pollutionEvents_;
    std::vector<PollutionFilter> pollutionFilter_;

    /** Per-slot aggressiveness and enable state. */
    std::vector<AggLevel> levels_;
    std::vector<std::uint8_t> enabled_;

    std::deque<QueuedPrefetch> readyQueue_;
    std::priority_queue<QueuedPrefetch, std::vector<QueuedPrefetch>,
                        DelayedOrder>
        delayedQueue_;

    std::unordered_map<Addr, SideEntry> sideBuffer_;

    Cycle earliestFill_ = Cycle{~std::uint64_t{0}};
    std::uint64_t lastIntervalEvictions_ = 0;
    std::uint64_t intervals_ = 0;

    /** @{ Registered counters (storage lives in *metrics_). */
    obs::Counter *demandLoadsCtr_ = nullptr;
    obs::Counter *demandAccessesCtr_ = nullptr;
    obs::Counter *demandHitsCtr_ = nullptr;
    obs::Counter *mshrMergesCtr_ = nullptr;
    obs::Counter *sideHitsCtr_ = nullptr;
    obs::Counter *idealHitsCtr_ = nullptr;
    obs::Counter *demandMissesCtr_ = nullptr;
    obs::Counter *demandMissesTrueCtr_ = nullptr;
    obs::Counter *demandMissesLateCtr_ = nullptr;
    obs::Counter *ldsMissesCtr_ = nullptr;
    obs::Counter *mshrAllocationsCtr_ = nullptr;
    obs::Counter *mshrReleasesCtr_ = nullptr;
    obs::Counter *mshrInFlightEndCtr_ = nullptr;
    obs::Counter *mshrStallCyclesCtr_ = nullptr;
    /** @{ Policy decision counters ("core<N>.throttle.<policy>."). */
    obs::Counter *throttleIntervalsCtr_ = nullptr;
    obs::Counter *throttleUpCtr_ = nullptr;
    obs::Counter *throttleDownCtr_ = nullptr;
    obs::Counter *throttleNothingCtr_ = nullptr;
    /** @} */
    std::vector<PfCounters> pf_;
    /** @} */

    /** Last cycle a demand was rejected on full MSHRs (dedupes the
     *  MshrFullStall trace events to burst starts). */
    Cycle lastMshrStall_ = Cycle{~std::uint64_t{0}};

    /** Per-interval feedback time series (folded into RunStats). */
    std::vector<IntervalSample> intervalSeries_;

    PgStatsMap pgStats_;

    std::vector<PrefetchRequest> scratch_;
    std::vector<std::uint8_t> blockBuf_;
};

} // namespace ecdp

#endif // ECDP_SIM_MEMORY_SYSTEM_HH
