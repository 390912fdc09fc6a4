#include "sim/memory_system.hh"

#include <algorithm>
#include <bit>
#include <cassert>
#include <string>

namespace ecdp
{

MemorySystem::MemorySystem(const SystemConfig &cfg, unsigned core_id,
                           SimMemory image, DramSystem *dram,
                           const Observability *obs)
    : cfg_(cfg),
      coreId_(core_id),
      image_(std::move(image)),
      dram_(dram),
      stackNames_(effectiveEngineStack(cfg)),
      instanceNames_(engineInstanceNames(stackNames_)),
      ownedMetrics_(obs && obs->metrics
                        ? nullptr
                        : std::make_unique<obs::MetricRegistry>()),
      metrics_(obs && obs->metrics ? obs->metrics
                                   : ownedMetrics_.get()),
      tracer_(obs ? obs->tracer : nullptr),
      phases_(obs ? obs->phases : nullptr),
      l1_("L1D", cfg.l1Bytes, cfg.l1Assoc, cfg.l1BlockBytes),
      l2_("L2", cfg.l2Bytes, cfg.l2Assoc, cfg.l2BlockBytes),
      mshrs_(cfg.l2Mshrs),
      pab_(cfg.pabWindow,
           static_cast<unsigned>(stackNames_.size())),
      policyName_(effectiveThrottlePolicy(cfg)),
      blockBuf_(cfg.l2BlockBytes, 0)
{
    assert(dram_);
    assert(!stackNames_.empty());

    PolicyContext pctx;
    pctx.coord = cfg_.coordThresholds;
    pctx.fdp = cfg_.fdpThresholds;
    // Decorrelate per-core exploration streams in multi-core runs
    // without adding a per-core config knob (core 0 keeps the plain
    // seed's stream only up to the constructor's remapping).
    pctx.seed = cfg_.throttleRlSeed +
                0x9e3779b97f4a7c15ull * static_cast<std::uint64_t>(
                                            core_id);
    policy_ = PolicyRegistry::instance().create(policyName_, pctx);

    EngineContext ectx;
    ectx.geom = l2_.geom();
    ectx.streamEntries = cfg_.streamEntries;
    ectx.cdpCompareBits = cfg_.cdpCompareBits;
    ectx.grpCoarse = cfg_.grpCoarse;
    ectx.hints = cfg_.hints;

    EngineRegistry &registry = EngineRegistry::instance();
    engines_.reserve(stackNames_.size());
    for (const std::string &name : stackNames_)
        engines_.push_back(registry.create(name, ectx));

    const std::size_t n = engines_.size();
    ldsClass_.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        ldsClass_[i] =
            engines_[i]->statClass() == PrefetchEngine::Class::Lds;
        if (engines_[i]->wantsLoadValues())
            loadValueEngines_.push_back(static_cast<std::uint8_t>(i));
        if (engines_[i]->wantsFillScan())
            fillScanEngines_.push_back(static_cast<std::uint8_t>(i));
    }

    feedback_.resize(n);
    pollutionEvents_.resize(n);
    pollutionFilter_.assign(
        n, PollutionFilter(cfg_.fdpThresholds.pollutionFilterEntries));
    levels_.assign(n, AggLevel::Aggressive);
    levels_[0] = cfg_.primaryStartLevel;
    if (n > 1)
        levels_[1] = cfg_.ldsStartLevel;
    enabled_.assign(n, 1);
    monitors_.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        monitors_.emplace_back(tracer_, core_id,
                               static_cast<unsigned>(i), levels_[i]);
    }
    if (cfg_.hwFilter)
        hwFilter_ = std::make_unique<HardwareFilter>();
    pf_.resize(n);
    bindCounters();
    for (std::size_t i = 0; i < n; ++i)
        applyLevel(i, levels_[i]);
}

void
MemorySystem::bindCounters()
{
    obs::MetricScope core(*metrics_,
                          "core" + std::to_string(coreId_) + ".");
    demandLoadsCtr_ = &core.counter("demand_loads");

    obs::MetricScope l2 = core.scope("l2.");
    demandAccessesCtr_ = &l2.counter("demand_accesses");
    demandHitsCtr_ = &l2.counter("demand_hits");
    mshrMergesCtr_ = &l2.counter("mshr_merges");
    sideHitsCtr_ = &l2.counter("side_hits");
    idealHitsCtr_ = &l2.counter("ideal_hits");
    demandMissesCtr_ = &l2.counter("demand_misses");
    demandMissesTrueCtr_ = &l2.counter("demand_misses_true");
    demandMissesLateCtr_ = &l2.counter("demand_misses_late");
    ldsMissesCtr_ = &l2.counter("lds_misses");

    obs::MetricScope mshr = core.scope("mshr.");
    mshrAllocationsCtr_ = &mshr.counter("allocations");
    mshrReleasesCtr_ = &mshr.counter("releases");
    mshrInFlightEndCtr_ = &mshr.counter("in_flight_end");
    mshrStallCyclesCtr_ = &mshr.counter("demand_stall_cycles");

    // Decision counters live under the policy's own scope so a
    // policy-comparison sweep can diff them by path; the policy
    // additionally binds its private counters (Q-table visits,
    // explorations, ...) in the same scope.
    obs::MetricScope throttle =
        core.scope("throttle." + policyName_ + ".");
    throttleIntervalsCtr_ = &throttle.counter("intervals");
    throttleUpCtr_ = &throttle.counter("decisions.up");
    throttleDownCtr_ = &throttle.counter("decisions.down");
    throttleNothingCtr_ = &throttle.counter("decisions.nothing");
    policy_->bindCounters(throttle);

    static const char *const kDropName[6] = {
        "queue_full",  "source_disabled", "cached",
        "in_flight",   "side_buffer",     "hw_filter",
    };
    for (std::size_t which = 0; which < pf_.size(); ++which) {
        obs::MetricScope pf = core.scope(std::string("pf.") +
                                         instanceNames_[which] + ".");
        PfCounters &c = pf_[which];
        c.generated = &pf.counter("generated");
        c.queued = &pf.counter("queued");
        c.issued = &pf.counter("issued");
        c.filled = &pf.counter("filled");
        c.used = &pf.counter("used");
        c.sideUsed = &pf.counter("side_used");
        c.consumedLate = &pf.counter("consumed_late");
        c.evictedUnused = &pf.counter("evicted_unused");
        c.usefulLatencySum = &pf.counter("useful_latency_sum");
        c.usefulLatencyCount = &pf.counter("useful_latency_count");
        for (unsigned reason = 0; reason < 6; ++reason) {
            c.drop[reason] = &pf.counter(std::string("dropped.") +
                                         kDropName[reason]);
        }
        c.residentUnusedEnd = &pf.counter("resident_unused_end");
        c.inFlightEnd = &pf.counter("in_flight_end");
        c.inQueueEnd = &pf.counter("in_queue_end");
        c.sideResidentEnd = &pf.counter("side_resident_end");
    }
}

void
MemorySystem::dropPrefetch(std::uint8_t engine, obs::DropReason reason,
                           Addr block_addr, Cycle now)
{
    pf_[engine].drop[static_cast<unsigned>(reason)]->inc();
    if (tracer_) {
        obs::TraceEvent event;
        event.type = obs::EventType::PrefetchDrop;
        event.source = engine;
        event.a = static_cast<std::uint8_t>(reason);
        event.core = static_cast<std::uint16_t>(coreId_);
        event.cycle = now;
        event.addr = block_addr.raw();
        tracer_->record(event);
    }
}

void
MemorySystem::noteMshrStall(Cycle now)
{
    mshrStallCyclesCtr_->inc();
    // The core retries a rejected load every cycle; trace only the
    // first cycle of each contiguous stall burst.
    const bool burst_start =
        lastMshrStall_ == Cycle{~std::uint64_t{0}} || now > lastMshrStall_ + 1;
    lastMshrStall_ = now;
    if (tracer_ && burst_start) {
        obs::TraceEvent event;
        event.type = obs::EventType::MshrFullStall;
        event.core = static_cast<std::uint16_t>(coreId_);
        event.cycle = now;
        event.arg = mshrs_.inFlight();
        tracer_->record(event);
    }
}

void
MemorySystem::applyLevel(std::size_t which, AggLevel level)
{
    levels_[which] = level;
    engines_[which]->setAggressiveness(level);
}

void
MemorySystem::pabRecord(std::size_t which, bool used)
{
    if (cfg_.throttle == ThrottleKind::Pab)
        pab_.recordOutcome(static_cast<unsigned>(which), used);
}

void
MemorySystem::recordDemandMiss(Addr block_addr, bool is_lds,
                               bool probe_pollution, Cycle now)
{
    demandMissesCtr_->inc();
    if (probe_pollution)
        demandMissesTrueCtr_->inc();
    else
        demandMissesLateCtr_->inc();
    if (is_lds)
        ldsMissesCtr_->inc();
    demandMissCounter_.add();
    if (tracer_) {
        obs::TraceEvent event;
        event.type = obs::EventType::DemandMiss;
        event.a = is_lds ? 1 : 0;
        event.core = static_cast<std::uint16_t>(coreId_);
        event.cycle = now;
        event.addr = block_addr.raw();
        tracer_->record(event);
    }
    if (!probe_pollution)
        return;
    for (std::size_t which = 0; which < pollutionFilter_.size();
         ++which) {
        if (pollutionFilter_[which].test(l2_.geom().blockOf(block_addr)))
            pollutionEvents_[which].add();
    }
}

void
MemorySystem::l1Fill(Addr addr, bool dirty, Cycle now)
{
    Cache::Victim victim = l1_.insert(addr);
    if (CacheBlock *block = l1_.lookup(addr, false))
        block->dirty = block->dirty || dirty;
    if (victim.valid && victim.dirty) {
        // Dirty L1 victim folds into the L2 copy; if the L2 block is
        // already gone, the data goes straight to memory.
        if (CacheBlock *parent = l2_.lookup(victim.addr, false))
            parent->dirty = true;
        else
            dram_->writeback(coreId_, l2_.blockAddr(victim.addr), now);
    }
}

void
MemorySystem::onDemandUseOfPrefetch(CacheBlock *block, Addr block_addr,
                                    Cycle now)
{
    const std::uint8_t owner = block->prefetchOwner;
    if (owner == kNoPrefetchOwner)
        return;
    feedback_[owner].onPrefetchUsed();
    pf_[owner].used->inc();
    pf_[owner].usefulLatencySum->add(block->prefetchLatency.raw());
    pf_[owner].usefulLatencyCount->inc();
    if (block->pgValid)
        ++pgStats_[block->pg].used;
    pabRecord(owner, true);
    if (hwFilter_ && ldsClass_[owner])
        hwFilter_->onPrefetchUsed(l2_.geom().blockOf(block_addr));
    if (enabled_[owner]) {
        // A hit on a prefetched block retrains the owning engine (the
        // stream prefetcher keeps its stream alive from here; engines
        // without a retrigger hook no-op).
        scratch_.clear();
        engines_[owner]->onPrefetchHit(block_addr, scratch_);
        stampScratch(0, owner);
        drainScratch(now, now);
    }
    block->prefetchOwner = kNoPrefetchOwner;
    block->pgValid = false;
}

void
MemorySystem::trainOnDemandMiss(const TraceEntry &entry, Cycle now)
{
    scratch_.clear();
    for (std::size_t i = 0; i < engines_.size(); ++i) {
        if (!enabled_[i])
            continue;
        const std::size_t base = scratch_.size();
        engines_[i]->onDemandMiss(entry, scratch_);
        stampScratch(base, static_cast<std::uint8_t>(i));
    }
    drainScratch(now, now);
}

void
MemorySystem::notifyLoadComplete(const TraceEntry &entry, Cycle ready)
{
    if (loadValueEngines_.empty())
        return;
    if (entry.size != kPointerBytes)
        return;
    bool any = false;
    for (std::uint8_t i : loadValueEngines_)
        any = any || enabled_[i] != 0;
    if (!any)
        return;
    const Addr value = image_.readPointer(entry.vaddr);
    scratch_.clear();
    for (std::uint8_t i : loadValueEngines_) {
        if (!enabled_[i])
            continue;
        const std::size_t base = scratch_.size();
        engines_[i]->onLoadComplete(entry.pc, value, scratch_);
        stampScratch(base, i);
    }
    drainScratch(ready, ready);
}

void
MemorySystem::stampScratch(std::size_t base, std::uint8_t engine)
{
    for (std::size_t i = base; i < scratch_.size(); ++i)
        scratch_[i].engine = engine;
}

void
MemorySystem::drainScratch(Cycle ready_at, Cycle now)
{
    for (const PrefetchRequest &req : scratch_)
        enqueuePrefetch(req, ready_at, now);
    scratch_.clear();
}

void
MemorySystem::enqueuePrefetch(const PrefetchRequest &req, Cycle ready_at,
                              Cycle now)
{
    pf_[req.engine].generated->inc();
    if (readyQueue_.size() + delayedQueue_.size() >=
        cfg_.prefetchQueueEntries) {
        // Prefetch request queue overflow: drop, but count it so
        // sweeps can see a too-small queue instead of silently losing
        // coverage.
        dropPrefetch(req.engine, obs::DropReason::QueueFull,
                     l2_.blockAddr(req.blockAddr), now);
        return;
    }
    pf_[req.engine].queued->inc();
    QueuedPrefetch queued;
    queued.req = req;
    queued.req.blockAddr = l2_.blockAddr(req.blockAddr);
    queued.readyAt = ready_at;
    if (ready_at <= now)
        readyQueue_.push_back(queued);
    else
        delayedQueue_.push(queued);
}

std::optional<Cycle>
MemorySystem::load(const TraceEntry &entry, Cycle now)
{
    obs::PhaseProfiler::Scoped scope(
        phases_, obs::PhaseProfiler::Phase::CacheProbe);
    const Addr addr = entry.vaddr;

    if (l1_.lookup(addr)) {
        demandLoadsCtr_->inc();
        return now + cfg_.l1Latency;
    }

    const Addr block_addr = l2_.blockAddr(addr);

    for (std::uint8_t i : loadValueEngines_) {
        if (enabled_[i])
            engines_[i]->onLoadIssue(entry.pc, addr);
    }

    if (CacheBlock *block = l2_.lookup(addr)) {
        demandLoadsCtr_->inc();
        demandAccessesCtr_->inc();
        demandHitsCtr_->inc();
        onDemandUseOfPrefetch(block, block_addr, now);
        l1Fill(addr, false, now);
        notifyLoadComplete(entry, now + cfg_.l2Latency);
        return now + cfg_.l1Latency + cfg_.l2Latency;
    }

    if (Mshr *mshr = mshrs_.find(block_addr)) {
        demandLoadsCtr_->inc();
        demandAccessesCtr_->inc();
        mshrMergesCtr_->inc();
        if (!mshr->demand) {
            mshr->demand = true;
            mshr->blockByteOffset =
                static_cast<std::uint8_t>(l2_.blockOffset(addr));
            if (mshr->engine != kNoPrefetchOwner) {
                // A demand matching an in-flight prefetch: the
                // prefetch is late. The block was not in the cache,
                // so this still counts as a last-level demand miss
                // (only cache-resident prefetches count as used) and
                // still trains the miss-stream predictors. The block
                // is in flight, not prefetch-evicted, so the
                // pollution filter is not probed.
                feedback_[mshr->engine].onPrefetchLate();
                recordDemandMiss(block_addr, entry.isLds, false, now);
                trainOnDemandMiss(entry, now);
            }
        }
        Cycle done = std::max(mshr->fillAt, now);
        notifyLoadComplete(entry, done);
        return done + cfg_.l1Latency;
    }

    // Ideal-no-pollution side buffer (Section 2.3 oracle).
    if (cfg_.idealNoPollution) {
        auto it = sideBuffer_.find(block_addr);
        if (it != sideBuffer_.end()) {
            demandLoadsCtr_->inc();
            demandAccessesCtr_->inc();
            sideHitsCtr_->inc();
            const SideEntry &side = it->second;
            const std::uint8_t which = side.engine;
            feedback_[which].onPrefetchUsed();
            pf_[which].used->inc();
            pf_[which].sideUsed->inc();
            pf_[which].usefulLatencySum->add(side.latency.raw());
            pf_[which].usefulLatencyCount->inc();
            if (side.pgValid)
                ++pgStats_[side.pg].used;
            Cache::Victim victim = l2_.insert(block_addr);
            handleVictim(victim, kNoPrefetchOwner, now);
            sideBuffer_.erase(it);
            l1Fill(addr, false, now);
            notifyLoadComplete(entry, now + cfg_.l2Latency);
            return now + cfg_.l1Latency + cfg_.l2Latency;
        }
    }

    // Figure 1 oracle: LDS misses become L2 hits.
    if (cfg_.idealLds && entry.isLds) {
        demandLoadsCtr_->inc();
        demandAccessesCtr_->inc();
        idealHitsCtr_->inc();
        Cache::Victim victim = l2_.insert(block_addr);
        handleVictim(victim, kNoPrefetchOwner, now);
        l1Fill(addr, false, now);
        return now + cfg_.l1Latency + cfg_.l2Latency;
    }

    // True L2 demand miss. Only count it once accepted.
    if (mshrs_.full()) {
        noteMshrStall(now);
        return std::nullopt;
    }
    std::optional<Cycle> done = dram_->read(coreId_, block_addr, now);
    if (!done)
        return std::nullopt;

    demandLoadsCtr_->inc();
    demandAccessesCtr_->inc();
    recordDemandMiss(block_addr, entry.isLds, true, now);

    Mshr &mshr = mshrs_.allocate(block_addr);
    mshr.fillAt = *done;
    mshr.issuedAt = now;
    mshr.demand = true;
    mshr.engine = kNoPrefetchOwner;
    mshr.loadPc = entry.pc;
    mshr.blockByteOffset =
        static_cast<std::uint8_t>(l2_.blockOffset(addr));
    mshr.scanOnFill = anyFillScanEnabled();
    earliestFill_ = std::min(earliestFill_, mshr.fillAt);

    trainOnDemandMiss(entry, now);
    notifyLoadComplete(entry, *done);
    return *done + cfg_.l1Latency;
}

void
MemorySystem::store(const TraceEntry &entry, Cycle now)
{
    obs::PhaseProfiler::Scoped scope(
        phases_, obs::PhaseProfiler::Phase::CacheProbe);
    image_.write(entry.vaddr, entry.size, entry.storeValue);

    if (CacheBlock *block = l1_.lookup(entry.vaddr)) {
        block->dirty = true;
        return;
    }

    const Addr block_addr = l2_.blockAddr(entry.vaddr);
    if (CacheBlock *block = l2_.lookup(entry.vaddr)) {
        demandAccessesCtr_->inc();
        demandHitsCtr_->inc();
        onDemandUseOfPrefetch(block, block_addr, now);
        block->dirty = true;
        l1Fill(entry.vaddr, true, now);
        return;
    }

    if (Mshr *mshr = mshrs_.find(block_addr)) {
        mshr->dirty = true;
        return;
    }

    // Store miss: background write-allocate. The fetch costs a bus
    // transaction but the core never waits for stores. It is still a
    // demand miss, so it probes the pollution filter exactly like the
    // load-miss path — store-heavy workloads would otherwise
    // undercount pollution and mislead FDP/coordinated throttling.
    demandAccessesCtr_->inc();
    recordDemandMiss(block_addr, entry.isLds, true, now);
    dram_->writeback(coreId_, block_addr, now);
    Cache::Victim victim = l2_.insert(block_addr);
    if (CacheBlock *block = l2_.lookup(entry.vaddr, false))
        block->dirty = true;
    handleVictim(victim, kNoPrefetchOwner, now);
    l1Fill(entry.vaddr, true, now);
    scratch_.clear();
    for (std::size_t i = 0; i < engines_.size(); ++i) {
        if (!enabled_[i])
            continue;
        const std::size_t base = scratch_.size();
        engines_[i]->onStoreMiss(entry.vaddr, scratch_);
        stampScratch(base, static_cast<std::uint8_t>(i));
    }
    drainScratch(now, now);
}

void
MemorySystem::scanAndEnqueue(
    std::uint8_t engine, Addr block_addr,
    const ContentDirectedPrefetcher::ScanContext &ctx, Cycle now)
{
    obs::PhaseProfiler::Scoped scope(
        phases_, obs::PhaseProfiler::Phase::CdpScan);
    image_.readBlock(block_addr, blockBuf_.data(), blockBuf_.size());
    scratch_.clear();
    engines_[engine]->onFill(block_addr, blockBuf_.data(), ctx,
                             scratch_);
    stampScratch(0, engine);
    drainScratch(now, now);
}

void
MemorySystem::handleVictim(const Cache::Victim &victim,
                           std::uint8_t insert_owner, Cycle now)
{
    if (!victim.valid)
        return;
    if (victim.dirty)
        dram_->writeback(coreId_, victim.addr, now);
    if (victim.prefetchOwner != kNoPrefetchOwner) {
        const std::uint8_t owner = victim.prefetchOwner;
        pf_[owner].evictedUnused->inc();
        pabRecord(owner, false);
        if (hwFilter_ && ldsClass_[owner])
            hwFilter_->onPrefetchEvictedUnused(
                l2_.geom().blockOf(victim.addr));
    }
    if (insert_owner != kNoPrefetchOwner) {
        pollutionFilter_[insert_owner].onPrefetchEvictedDemandBlock(
            l2_.geom().blockOf(victim.addr));
    }
}

bool
MemorySystem::anyFillScanEnabled() const
{
    for (std::uint8_t i : fillScanEngines_) {
        if (enabled_[i])
            return true;
    }
    return false;
}

void
MemorySystem::installFill(Mshr &mshr, Cycle now)
{
    const Addr block_addr = mshr.blockAddr;
    const std::uint8_t owner = mshr.engine;

    if (owner != kNoPrefetchOwner) {
        pf_[owner].filled->inc();
        if (tracer_) {
            obs::TraceEvent event;
            event.type = obs::EventType::PrefetchFill;
            event.source = owner;
            event.a = mshr.demand ? 1 : 0;
            event.core = static_cast<std::uint16_t>(coreId_);
            event.cycle = now;
            event.addr = block_addr.raw();
            event.arg = (now - mshr.issuedAt).raw();
            tracer_->record(event);
        }
    }

    const bool side_buffered = cfg_.idealNoPollution &&
                               owner != kNoPrefetchOwner &&
                               !mshr.demand;
    if (side_buffered) {
        SideEntry side;
        side.engine = owner;
        side.pgValid = mshr.pgRootValid;
        side.pg = mshr.pgRoot;
        side.latency = now - mshr.issuedAt;
        side.depth = mshr.cdpDepth;
        sideBuffer_[block_addr] = side;
    } else {
        Cache::Victim victim = l2_.insert(block_addr, owner);
        CacheBlock *block = l2_.lookup(block_addr, false);
        assert(block);
        if (mshr.dirty)
            block->dirty = true;
        if (owner != kNoPrefetchOwner) {
            block->prefetchLatency = now - mshr.issuedAt;
            block->cdpDepth = mshr.cdpDepth;
            block->pgValid = mshr.pgRootValid;
            block->pg = mshr.pgRoot;
            if (mshr.demand) {
                // Late prefetch: the waiting demand consumes it at
                // fill. It does not count as *used* (the tag-bit
                // mechanism only sees cache-resident uses) but the
                // PG that generated it did point at truly needed
                // data, so the profiling statistics credit it.
                pf_[owner].consumedLate->inc();
                if (mshr.pgRootValid)
                    ++pgStats_[mshr.pgRoot].used;
                pabRecord(owner, true);
                if (hwFilter_ && ldsClass_[owner])
                    hwFilter_->onPrefetchUsed(
                        l2_.geom().blockOf(block_addr));
                block->prefetchOwner = kNoPrefetchOwner;
                block->pgValid = false;
                l1Fill(block_addr + mshr.blockByteOffset, false, now);
            }
        } else {
            l1Fill(block_addr + mshr.blockByteOffset, false, now);
        }
        handleVictim(victim, owner, now);
    }

    // Content-directed scan of the freshly arrived block.
    if (owner == kNoPrefetchOwner) {
        if (mshr.scanOnFill) {
            ContentDirectedPrefetcher::ScanContext ctx;
            ctx.demandFill = true;
            ctx.loadPc = mshr.loadPc;
            ctx.accessByteOffset = mshr.blockByteOffset;
            ctx.fillDepth = 0;
            for (std::uint8_t i : fillScanEngines_) {
                if (enabled_[i])
                    scanAndEnqueue(i, block_addr, ctx, now);
            }
        }
    } else if (engines_[owner]->wantsFillScan() && enabled_[owner] &&
               engines_[owner]->scansOwnFillAt(mshr.cdpDepth)) {
        ContentDirectedPrefetcher::ScanContext ctx;
        ctx.demandFill = false;
        ctx.fillDepth = mshr.cdpDepth;
        ctx.pgValid = mshr.pgRootValid;
        ctx.pgRoot = mshr.pgRoot;
        scanAndEnqueue(owner, block_addr, ctx, now);
    }

    mshrs_.release(mshr);
}

void
MemorySystem::processFills(Cycle now)
{
    earliestFill_ = Cycle{~std::uint64_t{0}};
    // Snapshot the validity mask: installFill() releases the entry it
    // fills, and no new entries are allocated inside the loop.
    for (std::uint64_t mask = mshrs_.validMask(); mask;
         mask &= mask - 1) {
        Mshr &mshr =
            mshrs_.entry(static_cast<unsigned>(std::countr_zero(mask)));
        if (mshr.fillAt <= now)
            installFill(mshr, now);
        else
            earliestFill_ = std::min(earliestFill_, mshr.fillAt);
    }
}

void
MemorySystem::issuePrefetches(Cycle now)
{
    while (!delayedQueue_.empty() &&
           delayedQueue_.top().readyAt <= now) {
        readyQueue_.push_back(delayedQueue_.top());
        delayedQueue_.pop();
    }

    unsigned budget = cfg_.prefetchIssuePerCycle;
    while (budget > 0 && !readyQueue_.empty()) {
        const QueuedPrefetch &queued = readyQueue_.front();
        const PrefetchRequest &req = queued.req;
        // Count (and trace) each discard under its reason instead of
        // letting it vanish.
        if (const auto reject = dropReason(req)) {
            dropPrefetch(req.engine, *reject, req.blockAddr, now);
            readyQueue_.pop_front();
            continue;
        }
        if (mshrsRefusePrefetch())
            break;
        std::optional<Cycle> done = dram_->read(
            coreId_, req.blockAddr, now, cfg_.dramReserveForDemand);
        if (!done)
            break;
        Mshr &mshr = mshrs_.allocate(req.blockAddr);
        mshr.fillAt = *done;
        mshr.issuedAt = now;
        mshr.engine = req.engine;
        mshr.cdpDepth = req.depth;
        mshr.pgRoot = req.pg;
        mshr.pgRootValid = req.pgValid;
        earliestFill_ = std::min(earliestFill_, mshr.fillAt);
        feedback_[req.engine].onPrefetchIssued();
        pf_[req.engine].issued->inc();
        if (tracer_) {
            obs::TraceEvent event;
            event.type = obs::EventType::PrefetchIssue;
            event.source = req.engine;
            event.core = static_cast<std::uint16_t>(coreId_);
            event.cycle = now;
            event.addr = req.blockAddr.raw();
            tracer_->record(event);
        }
        if (req.pgValid)
            ++pgStats_[req.pg].issued;
        readyQueue_.pop_front();
        --budget;
    }
}

std::optional<obs::DropReason>
MemorySystem::dropReason(const PrefetchRequest &req) const
{
    if (!enabled_[req.engine])
        return obs::DropReason::SourceDisabled;
    if (l2_.peek(req.blockAddr))
        return obs::DropReason::AlreadyCached;
    if (mshrs_.contains(req.blockAddr))
        return obs::DropReason::AlreadyInFlight;
    if (cfg_.idealNoPollution && sideBuffer_.count(req.blockAddr))
        return obs::DropReason::SideBuffered;
    if (hwFilter_ && ldsClass_[req.engine] &&
        !hwFilter_->allow(l2_.geom().blockOf(req.blockAddr))) {
        return obs::DropReason::HwFilter;
    }
    return std::nullopt;
}

bool
MemorySystem::mshrsRefusePrefetch() const
{
    return mshrs_.full() ||
           mshrs_.inFlight() + cfg_.mshrReserveForDemand >= cfg_.l2Mshrs;
}

FeedbackSnapshot
MemorySystem::makeSnapshot(const PrefetcherFeedback &fb,
                           std::uint64_t aged_misses,
                           std::uint64_t aged_pollution)
{
    FeedbackSnapshot snap;
    snap.accuracy = fb.accuracy();
    snap.coverage = fb.coverage(aged_misses);
    snap.lateness = fb.lateness();
    snap.pollution = aged_misses == 0
        ? 0.0
        : static_cast<double>(aged_pollution) /
              static_cast<double>(aged_misses);
    snap.anyPrefetches = fb.anyPrefetches();
    return snap;
}

FeedbackSnapshot
MemorySystem::snapshot(std::size_t which) const
{
    return makeSnapshot(feedback_[which], demandMissCounter_.value(),
                        pollutionEvents_[which].value());
}

void
MemorySystem::endInterval(Cycle now)
{
    const std::size_t n = engines_.size();
    ++intervals_;
    for (std::size_t i = 0; i < n; ++i)
        feedback_[i].endInterval();
    demandMissCounter_.endInterval();
    for (std::size_t i = 0; i < n; ++i)
        pollutionEvents_[i].endInterval();

    // All snapshots are taken before any decision is applied, so
    // later slots never see an earlier slot's fresh decision.
    std::vector<FeedbackSnapshot> snaps(n);
    for (std::size_t i = 0; i < n; ++i)
        snaps[i] = snapshot(i);

    // Interval-level progress deltas for the policy. The rule
    // policies never read them; the tabular-rl reward does.
    IntervalContext ictx;
    ictx.cycle = now;
    ictx.deltaCycles = now.raw() - lastIntervalCycle_.raw();
    const std::uint64_t retired =
        progressCore_ ? progressCore_->retired() : 0;
    const std::uint64_t bus = dram_->busTransactions(coreId_);
    ictx.deltaInstructions = retired - lastIntervalInstructions_;
    ictx.deltaBusTransactions = bus - lastIntervalBus_;
    lastIntervalCycle_ = now;
    lastIntervalInstructions_ = retired;
    lastIntervalBus_ = bus;

    // PAB selects enable bits and keys on the ThrottleKind; the level
    // policy below runs regardless (a PAB run's default level policy
    // is "static", a no-op).
    if (cfg_.throttle == ThrottleKind::Pab) {
        const unsigned keep = pab_.select();
        for (std::size_t i = 0; i < n; ++i)
            enabled_[i] = i == keep ? 1 : 0;
    }

    // Uniform per-slot level decisions through the policy. Applying a
    // "Nothing" decision re-applies the unchanged level; every
    // engine's setAggressiveness is an idempotent parameter set, so
    // this is behaviourally identical to the pre-policy code that
    // skipped applyLevel entirely for ThrottleKind::None.
    throttleIntervalsCtr_->inc();
    for (std::size_t i = 0; i < n; ++i) {
        const ThrottleDecision decision =
            policy_->onIntervalEnd(i, snaps, ictx);
        switch (decision) {
          case ThrottleDecision::Up:
            throttleUpCtr_->inc();
            break;
          case ThrottleDecision::Down:
            throttleDownCtr_->inc();
            break;
          case ThrottleDecision::Nothing:
            throttleNothingCtr_->inc();
            break;
        }
        applyLevel(i,
                   CoordinatedThrottler::apply(levels_[i], decision));
    }

    IntervalSample sample;
    sample.cycle = now;
    sample.accuracy[0] = snaps[0].accuracy;
    sample.coverage[0] = snaps[0].coverage;
    sample.primaryLevel = levels_[0];
    sample.primaryEnabled = enabled_[0] != 0;
    if (n > 1) {
        sample.accuracy[1] = snaps[1].accuracy;
        sample.coverage[1] = snaps[1].coverage;
        sample.ldsLevel = levels_[1];
        sample.ldsEnabled = enabled_[1] != 0;
    }
    for (std::size_t i = 2; i < n; ++i) {
        EngineIntervalExtra extra;
        extra.accuracy = snaps[i].accuracy;
        extra.coverage = snaps[i].coverage;
        extra.level = levels_[i];
        extra.enabled = enabled_[i] != 0;
        sample.extra.push_back(extra);
    }
    sample.policy = policy_->intervalStateJson();
    intervalSeries_.push_back(sample);

    if (tracer_) {
        for (std::size_t which = 0; which < n; ++which) {
            obs::TraceEvent event;
            event.type = obs::EventType::IntervalSample;
            event.source = static_cast<std::uint8_t>(which);
            event.core = static_cast<std::uint16_t>(coreId_);
            event.cycle = now;
            event.arg = intervals_;
            event.x = snaps[which].accuracy;
            event.y = snaps[which].coverage;
            tracer_->record(event);
        }
    }
    for (std::size_t i = 0; i < n; ++i)
        monitors_[i].observe(now, levels_[i], enabled_[i] != 0);

    for (std::size_t i = 0; i < n; ++i)
        pollutionFilter_[i].clear();
    lastIntervalEvictions_ = l2_.evictions();
}

void
MemorySystem::tick(Cycle now)
{
    if (earliestFill_ <= now)
        processFills(now);
    if (!readyQueue_.empty() || !delayedQueue_.empty())
        issuePrefetches(now);
    if (l2_.evictions() - lastIntervalEvictions_ >=
        cfg_.intervalEvictions) {
        endInterval(now);
    }
}

Cycle
MemorySystem::nextEventCycle(Cycle now) const
{
    // A ready-queue head acts on the next tick — it is dropped, or
    // it tries DRAM, which may count a buffer reject — unless it
    // passes every filter and only the MSHRs refuse it. That wait
    // changes nothing and lasts until a fill: MSHRs free only in
    // processFills, and the filter inputs move only on fills, core
    // events (which bound the wake themselves) or endInterval.
    if (!readyQueue_.empty() &&
        (!mshrsRefusePrefetch() || dropReason(readyQueue_.front().req))) {
        return now + 1;
    }
    // An already-crossed interval boundary fires at the next tick;
    // the eviction delta is monotonic and only moves on fill/demand
    // activity, so if it has not crossed yet it cannot cross during
    // skipped (idle) cycles.
    if (l2_.evictions() - lastIntervalEvictions_ >=
        cfg_.intervalEvictions) {
        return now + 1;
    }
    Cycle wake = earliestFill_;
    if (!delayedQueue_.empty())
        wake = std::min(wake, delayedQueue_.top().readyAt);
    return wake > now ? wake : now + 1;
}

void
MemorySystem::collectStats(RunStats &out, Cycle now)
{
    const std::size_t n = engines_.size();

    // Fold the end-of-run gauges in first so the registry satisfies
    // the conservation identities at the same instant the RunStats
    // snapshot is taken.
    std::vector<std::uint64_t> resident(n, 0);
    l2_.prefetchedResidentByOwner(resident);
    for (std::size_t i = 0; i < n; ++i)
        pf_[i].residentUnusedEnd->set(resident[i]);

    std::vector<std::uint64_t> in_flight(n, 0);
    for (const Mshr &mshr : mshrs_.entries()) {
        if (mshr.valid && mshr.engine != kNoPrefetchOwner)
            ++in_flight[mshr.engine];
    }
    std::vector<std::uint64_t> in_queue(n, 0);
    for (const QueuedPrefetch &queued : readyQueue_)
        ++in_queue[queued.req.engine];
    auto delayed = delayedQueue_;
    while (!delayed.empty()) {
        ++in_queue[delayed.top().req.engine];
        delayed.pop();
    }
    std::vector<std::uint64_t> side_resident(n, 0);
    for (const auto &[addr, side] : sideBuffer_) {
        (void)addr;
        ++side_resident[side.engine];
    }
    for (std::size_t i = 0; i < n; ++i) {
        pf_[i].inFlightEnd->set(in_flight[i]);
        pf_[i].inQueueEnd->set(in_queue[i]);
        pf_[i].sideResidentEnd->set(side_resident[i]);
    }
    mshrAllocationsCtr_->set(mshrs_.allocations());
    mshrReleasesCtr_->set(mshrs_.releases());
    mshrInFlightEndCtr_->set(mshrs_.inFlight());

    out.demandLoads = demandLoadsCtr_->value();
    out.l2DemandAccesses = demandAccessesCtr_->value();
    out.l2DemandMisses = demandMissesCtr_->value();
    out.l2LdsMisses = ldsMissesCtr_->value();
    for (std::size_t which = 0; which < std::min<std::size_t>(2, n);
         ++which) {
        out.prefIssued[which] = feedback_[which].lifetimeIssued();
        out.prefUsed[which] = feedback_[which].lifetimeUsed();
        out.prefLate[which] = feedback_[which].lifetimeLate();
        // RunStats keeps the historical meaning: queue-overflow drops
        // only. The registry holds the full per-reason breakdown.
        out.prefDropped[which] =
            pf_[which]
                .drop[static_cast<unsigned>(
                    obs::DropReason::QueueFull)]
                ->value();
        out.usefulLatencySum[which] =
            pf_[which].usefulLatencySum->value();
        out.usefulLatencyCount[which] =
            pf_[which].usefulLatencyCount->value();
    }
    out.engineStats.clear();
    out.engineStats.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        RunStats::EngineRunStats es;
        es.instance = instanceNames_[i];
        es.engine = stackNames_[i];
        es.issued = feedback_[i].lifetimeIssued();
        es.used = feedback_[i].lifetimeUsed();
        es.late = feedback_[i].lifetimeLate();
        es.dropped =
            pf_[i]
                .drop[static_cast<unsigned>(
                    obs::DropReason::QueueFull)]
                ->value();
        out.engineStats.push_back(std::move(es));
    }
    out.pgStats = pgStats_;
    out.finalPrimaryLevel = levels_[0];
    out.finalPrimaryEnabled = enabled_[0] != 0;
    if (n > 1) {
        out.finalLdsLevel = levels_[1];
        out.finalLdsEnabled = enabled_[1] != 0;
    } else {
        out.finalLdsLevel = AggLevel::Aggressive;
        out.finalLdsEnabled = true;
    }
    out.intervals = intervals_;
    out.intervalSeries = intervalSeries_;
    out.throttlePolicy = policyName_;
    // The rule policies serialize nothing; the JSON writer keys the
    // new fields on a non-empty state blob, keeping default-policy
    // output byte-identical to the pinned goldens.
    out.throttlePolicyState = policy_->stateJson();

    // Trailing partial interval: interval ends are only detected via
    // the eviction delta in tick(), so a run that stops mid-interval
    // would silently drop its tail from the series. Emit one final
    // sample for it, computed on *copies* of the interval counters:
    // endInterval() on the copies applies the same Equation 3 aging a
    // real boundary would, while the live feedback/throttle state —
    // and therefore simulated behaviour, should the caller keep
    // ticking — stays untouched. No throttling decision is applied
    // (the run ended before the boundary), so the sample reports the
    // levels as they stand.
    bool partial_activity = l2_.evictions() > lastIntervalEvictions_ ||
                            demandMissCounter_.during() > 0;
    for (std::size_t i = 0; i < n && !partial_activity; ++i)
        partial_activity = feedback_[i].currentIntervalActive();
    if (partial_activity) {
        std::vector<PrefetcherFeedback> fb(feedback_);
        IntervalCounter misses = demandMissCounter_;
        std::vector<IntervalCounter> pollution(pollutionEvents_);
        for (std::size_t i = 0; i < n; ++i) {
            fb[i].endInterval();
            pollution[i].endInterval();
        }
        misses.endInterval();

        std::vector<FeedbackSnapshot> snaps(n);
        for (std::size_t i = 0; i < n; ++i) {
            snaps[i] = makeSnapshot(fb[i], misses.value(),
                                    pollution[i].value());
        }

        IntervalSample sample;
        sample.cycle = now;
        sample.accuracy[0] = snaps[0].accuracy;
        sample.coverage[0] = snaps[0].coverage;
        sample.primaryLevel = levels_[0];
        sample.primaryEnabled = enabled_[0] != 0;
        if (n > 1) {
            sample.accuracy[1] = snaps[1].accuracy;
            sample.coverage[1] = snaps[1].coverage;
            sample.ldsLevel = levels_[1];
            sample.ldsEnabled = enabled_[1] != 0;
        }
        for (std::size_t i = 2; i < n; ++i) {
            EngineIntervalExtra extra;
            extra.accuracy = snaps[i].accuracy;
            extra.coverage = snaps[i].coverage;
            extra.level = levels_[i];
            extra.enabled = enabled_[i] != 0;
            sample.extra.push_back(extra);
        }
        out.intervalSeries.push_back(sample);
    }
}

void
MemorySystem::resetEngineStack()
{
    const std::size_t n = engines_.size();
    for (std::size_t i = 0; i < n; ++i) {
        engines_[i]->reset();
        feedback_[i].reset();
        pollutionEvents_[i].reset();
        pollutionFilter_[i].clear();
        enabled_[i] = 1;
    }
    demandMissCounter_.reset();
    applyLevel(0, cfg_.primaryStartLevel);
    for (std::size_t i = 1; i < n; ++i)
        applyLevel(i, i == 1 ? cfg_.ldsStartLevel
                             : AggLevel::Aggressive);
    policy_->reset();
    // Re-arm the interval machinery at the current counts so the
    // first post-reset interval measures only post-reset activity.
    lastIntervalEvictions_ = l2_.evictions();
    lastIntervalInstructions_ =
        progressCore_ ? progressCore_->retired() : 0;
    lastIntervalBus_ = dram_->busTransactions(coreId_);
}

} // namespace ecdp
