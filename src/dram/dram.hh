/**
 * @file
 * Main-memory model: banked DRAM behind a shared core-to-memory bus.
 *
 * Matches the paper's Table 5 memory system: 450-cycle minimum
 * latency, 8 banks, an 8-byte bus at a 5:1 frequency ratio (so a 128 B
 * block occupies the bus for 16 beats = 80 core cycles), and a memory
 * request buffer of 32 entries per core. Contention is modelled with
 * time-stamped resources: each accepted request reserves its bank and
 * a bus slot in arrival order, so bursts of useless prefetches push
 * out the completion times of later demand requests -- the effect the
 * coordinated throttling mechanism exists to manage.
 */

#ifndef ECDP_DRAM_DRAM_HH
#define ECDP_DRAM_DRAM_HH

#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "memsim/block_geometry.hh"
#include "memsim/types.hh"
#include "obs/observability.hh"

namespace ecdp
{

/** DRAM timing and sizing parameters (defaults per Table 5). */
struct DramParams
{
    unsigned banks = 8;
    /** Cycles a bank stays busy per access (throughput limit). */
    Cycle bankBusy{50};
    /** Bus occupancy of one block transfer: 128 B over an 8 B bus at a
     *  5:1 frequency ratio = 16 beats x 5 core cycles. */
    Cycle busTransfer{80};
    /** Fixed pipeline latency so an uncontended access takes
     *  front + bankBusy + busTransfer = 450 cycles. */
    Cycle frontLatency{320};
    /** Request buffer entries per core (total = entries x cores). */
    unsigned requestBufferPerCore = 32;
};

/**
 * The shared DRAM system.
 *
 * Completion times are computed at acceptance: the caller learns
 * immediately when its fill will arrive, and the reserved bank/bus
 * windows delay later requests.
 */
class DramSystem
{
  public:
    /**
     * @param params Timing parameters.
     * @param cores Number of cores sharing the memory system.
     * @param block_bytes Cache-block (bus transfer) size; the bank
     *        hash discards the intra-block bits, so it must match the
     *        last-level block size or adjacent blocks alias into
     *        lockstep bank patterns.
     */
    DramSystem(const DramParams &params, unsigned cores,
               std::uint32_t block_bytes = 128);

    /**
     * Try to accept a read (fill) request.
     *
     * @param core Requesting core (bus accounting).
     * @param block_addr Block-aligned address.
     * @param now Current cycle.
     * @param reserve Buffer entries to leave free (prefetch requests
     *        pass a nonzero reserve so they cannot starve demands).
     * @return Completion cycle, or nullopt if the request buffer is
     *         full (the caller must retry).
     */
    std::optional<Cycle> read(unsigned core, Addr block_addr, Cycle now,
                              unsigned reserve = 0);

    /**
     * Post a writeback. Writebacks reserve bank and bus time, count
     * as bus transactions, and occupy a request-buffer entry until
     * their bus transfer completes, so a writeback burst pushes the
     * buffer toward full and delays later reads' acceptance exactly
     * like reads do. Nothing ever waits for a writeback and one is
     * never rejected (the evicting cache has nowhere to hold the
     * dirty block), so occupancy may transiently exceed capacity;
     * reads arriving in that window are refused until it drains.
     */
    void writeback(unsigned core, Addr block_addr, Cycle now);

    /** Total data-bus transactions (fills + writebacks) so far. */
    std::uint64_t busTransactions() const { return busTransactions_; }

    /** Bus transactions attributed to @p core. */
    std::uint64_t busTransactions(unsigned core) const
    {
        return perCoreBus_[core];
    }

    /** Entries currently occupied in the request buffer at @p now. */
    unsigned bufferOccupancy(Cycle now);

    unsigned bufferCapacity() const { return bufferCapacity_; }

    /**
     * Earliest cycle after @p now at which the request buffer drains
     * an entry (the next in-flight completion), or kNoEventCycle when
     * nothing is in flight. Purely passive state cannot wake anyone
     * on its own — callers that were refused retry every cycle and
     * pin the clock themselves — so this is a belt-and-braces bound
     * for the cycle-skipping scheduler, never the binding one.
     * Non-const: it pops already-completed entries (the same lazy
     * drain bufferOccupancy() performs) so a completed entry at the
     * front cannot pin the clock to now + 1.
     */
    Cycle nextEventCycle(Cycle now);

    /**
     * Attach the run's observability bundle. Registers the "dram.*"
     * counters (reads, writebacks, bank_conflicts, buffer_rejects)
     * and emits DramBankConflict events for requests that arrive
     * while their bank is still busy. Idempotent per registry; a
     * default bundle detaches tracing and counts into nothing.
     */
    void attachObservability(const Observability &obs);

  private:
    /** Reserve bank + bus resources and a request-buffer entry;
     *  returns the bus-done cycle. */
    Cycle reserve(unsigned core, Addr block_addr, Cycle now);

    unsigned bankIndex(unsigned core, Addr block_addr) const;

    DramParams params_;
    unsigned bufferCapacity_;
    /** Block geometry whose intra-block bits the bank hash discards. */
    BlockGeometry geom_;
    std::vector<Cycle> bankFree_;
    Cycle busFree_{};
    /** Completion times of in-flight reads and writebacks (request
     *  buffer occupancy), oldest first. Each is the bus-done cycle
     *  reserve() returned, which is also the new busFree_, so they
     *  only increase and the front is the earliest. */
    std::deque<Cycle> inFlight_;
    std::uint64_t busTransactions_ = 0;
    std::vector<std::uint64_t> perCoreBus_;

    /** @{ Observability (null when the run is unobserved). */
    obs::EventTracer *tracer_ = nullptr;
    obs::Counter *readsCtr_ = nullptr;
    obs::Counter *writebacksCtr_ = nullptr;
    obs::Counter *bankConflictsCtr_ = nullptr;
    obs::Counter *bufferRejectsCtr_ = nullptr;
    /** @} */
};

} // namespace ecdp

#endif // ECDP_DRAM_DRAM_HH
