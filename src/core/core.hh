/**
 * @file
 * Trace-driven out-of-order core timing model.
 *
 * The model captures the properties the paper's results hinge on:
 *
 *  - a 256-entry reorder buffer bounds memory-level parallelism,
 *  - loads issue only after the load that produced their address
 *    completes, so linked-data-structure traversals serialize their
 *    misses while streaming loads overlap,
 *  - 4-wide in-order retire, so a pending load at the ROB head stalls
 *    the pipeline,
 *  - a 32-entry load-store queue bounds in-flight memory operations.
 *
 * Non-memory instructions are represented by each trace entry's
 * leading instruction count and consume dispatch/retire bandwidth and
 * ROB space, but never stall.
 */

#ifndef ECDP_CORE_CORE_HH
#define ECDP_CORE_CORE_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "memsim/types.hh"
#include "trace/trace.hh"

namespace ecdp
{

/** Core sizing (defaults per Table 5 of the paper). */
struct CoreParams
{
    unsigned robEntries = 256;
    unsigned width = 4;
    unsigned lsqEntries = 32;
    /** Loads the core may issue to the memory system per cycle. */
    unsigned issuePerCycle = 4;
};

/**
 * Interface the core uses to access the memory hierarchy. Implemented
 * by sim::MemorySystem.
 */
class CoreMemoryInterface
{
  public:
    virtual ~CoreMemoryInterface() = default;

    /**
     * Try to start a load.
     * @return Completion cycle of the load's data, or nullopt if the
     *         memory system cannot accept the request this cycle.
     */
    virtual std::optional<Cycle> load(const TraceEntry &entry,
                                      Cycle now) = 0;

    /** Perform a store (never stalls the core). */
    virtual void store(const TraceEntry &entry, Cycle now) = 0;
};

/**
 * One simulated core executing a Workload trace.
 */
class Core
{
  public:
    /**
     * @param workload Trace to execute (not owned).
     * @param memory Memory hierarchy for this core (not owned).
     * @param params Core sizing.
     */
    Core(const Workload *workload, CoreMemoryInterface *memory,
         const CoreParams &params = {});

    /** Advance one cycle: retire, issue ready loads, dispatch. */
    void tick(Cycle now);

    /**
     * Run the core alone: tick at @p now, then at each of its own
     * wakes (nextEventCycle) that falls before @p horizon, and stop
     * after the first tick that called the memory system (a load,
     * accepted or refused, or a store) or ended a pass of the trace.
     * On return @p now is the cycle of the last tick. Returns true
     * when that tick called the memory system or ended a pass (the
     * caller must then recompute its bounds), false when the core's
     * next wake is at or after @p horizon.
     *
     * The ticks are exactly the ones a tick-then-nextEventCycle loop
     * would make up to @p horizon, so a caller that hands in the
     * earliest cycle anything else in the system can act on visits
     * the same cycles as one that polls every bound after every tick.
     */
    bool runUntil(Cycle &now, Cycle horizon);

    /**
     * Earliest cycle after @p now at which tick() could do anything —
     * the event-driven scheduler's wakeup bound. Must be called after
     * tick(now); every cycle in (now, nextEventCycle(now)) is
     * guaranteed to be a no-op tick (no retirement, no issue, no
     * dispatch, no memory-system call), so the simulation loop may
     * skip straight to the bound with bit-identical results.
     *
     * It answers now + 1 whenever the core could act next cycle:
     * fillers at the ROB head, a dispatchable entry, or a non-empty
     * ready list (a dependence-satisfied load held back by the issue
     * budget or a memory-system refusal, whose retry has observable
     * side effects: stall-cycle counters). Otherwise it is the
     * earliest of the ROB head's completion and the wake heap's top
     * (the earliest known completion any waiting load depends on);
     * loads behind an unissued producer cannot issue before either.
     *
     * Returns kNoEventCycle when the core can never act again without
     * external input (finished, non-wrapping).
     */
    Cycle nextEventCycle(Cycle now) const;

    /** True once every trace entry has been retired at least once. */
    bool finishedOnce() const { return finishedOnce_; }

    /** Cycle at which the trace finished its first pass (valid only
     *  after finishedOnce()). */
    Cycle finishCycle() const { return finishCycle_; }

    /** Instructions retired during the first pass of the trace. */
    std::uint64_t retiredFirstPass() const { return retiredFirstPass_; }

    /**
     * When true (multi-core runs), the core restarts its trace after
     * finishing so it keeps generating memory contention while other
     * cores complete their first pass.
     */
    void setWrapAround(bool wrap) { wrapAround_ = wrap; }

    /** Total retired instructions (all passes). */
    std::uint64_t retired() const { return retired_; }

    /** Cycles ticked so far (tick() and runUntil() alike). */
    std::uint64_t ticks() const { return ticks_; }

  private:
    /** One tick: retire, issue ready loads, dispatch. Returns true
     *  when it called the memory system or ended a pass. */
    bool step(Cycle now);
    /** nextEventCycle()'s body, inlined into runUntil(): an
     *  out-of-line call there costs 3 % of filtered-serial's
     *  simulate() time. */
    Cycle wake(Cycle now) const;
    void resetPass();

    /** Ring slot of an LSQ resident (see fillersAhead_). */
    std::size_t slot(std::size_t idx) const
    {
        return idx & slotMask_;
    }
    /** Queue load @p idx to issue once cycle @p ready is reached. */
    void wakeAt(Cycle ready, std::size_t idx);

    /** The workload's trace (not owned). */
    const TraceEntry *trace_;
    std::size_t traceLen_;
    CoreMemoryInterface *memory_;
    CoreParams params_;
    /** The rings below have lsqEntries slots rounded up to a power of
     *  two (exactly lsqEntries by default), so a slot is a mask. */
    std::size_t slotMask_;

    /** Next trace entry to dispatch. */
    std::size_t cursor_ = 0;
    /** Fillers of trace[cursor_] still to dispatch. */
    std::uint32_t fillersLeft_ = 0;
    bool fillersPrimed_ = false;

    /**
     * The ROB. Its memory ops (the LSQ) are the contiguous trace
     * indices [cursor_ - lsqCount_, cursor_), so each owns ring slot
     * slot(idx) until it retires; this ring, and the waiter rings
     * below, are indexed that way. Per slot: the non-memory fillers
     * dispatched ahead of that op and not yet retired.
     */
    std::vector<std::uint32_t> fillersAhead_;
    /** Fillers dispatched after the youngest memory op. */
    std::uint32_t tailFillers_ = 0;
    /** Instructions currently in the ROB (fillers + memory ops). */
    unsigned robCount_ = 0;
    /** Memory ops currently in the ROB (LSQ occupancy). */
    unsigned lsqCount_ = 0;

    /** Completion cycle per trace entry for the current pass;
     *  kPending when not yet complete. */
    std::vector<Cycle> completion_;
    static constexpr Cycle kPending = Cycle{~std::uint64_t{0}};

    /**
     * The issue queue. Every dispatched, unissued load is in exactly
     * one place: a waiter list (its producer is an unissued load),
     * the wake heap (its producer completes at a known future cycle)
     * or the ready list (its dependence is satisfied).
     */
    static constexpr std::size_t kNoLoad = ~std::size_t{0};
    /** Per producer slot: first load waiting for it to issue. */
    std::vector<std::size_t> waitHead_;
    /** Per waiter slot: next load waiting on the same producer. */
    std::vector<std::size_t> waitNext_;

    struct Wake
    {
        Cycle at;
        std::size_t idx;
        bool operator>(const Wake &o) const { return at > o.at; }
    };
    /** Min-heap on `at` (std::greater order). */
    std::vector<Wake> wakeHeap_;
    /** Dependence-satisfied loads, in trace order. */
    std::vector<std::size_t> ready_;

    std::uint64_t retired_ = 0;
    std::uint64_t retiredFirstPass_ = 0;
    std::uint64_t ticks_ = 0;
    bool finishedOnce_ = false;
    Cycle finishCycle_{};
    bool wrapAround_ = false;
    bool passDone_ = false;
};

} // namespace ecdp

#endif // ECDP_CORE_CORE_HH
