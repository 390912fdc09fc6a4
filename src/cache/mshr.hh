/**
 * @file
 * Miss status holding registers for the last-level cache.
 *
 * Besides the usual merge-and-track duties, each entry records the
 * block offset and ECDP hint bit vector of the triggering load, which
 * is exactly the per-MSHR storage the paper's Table 7 accounts for
 * (32 entries x (7 + 16) bits): the content-directed prefetcher needs
 * both at fill time to decide which pointers in the block to prefetch.
 *
 * The file keeps a hot probe lane — a packed array of block addresses
 * plus a validity bitmask — beside the cold entry records. find() is
 * called once per prefetch-issue attempt (every busy cycle), so it
 * walks the 8-byte-stride lane instead of the full Mshr structs.
 */
// simlint: hot-path

#ifndef ECDP_CACHE_MSHR_HH
#define ECDP_CACHE_MSHR_HH

#include <bit>
#include <cstdint>
#include <vector>

#include "cache/cache.hh"
#include "memsim/types.hh"

namespace ecdp
{

/** One in-flight miss. */
struct Mshr
{
    bool valid = false;
    Addr blockAddr = 0;
    /** Completion time of the fill, fixed when DRAM accepts it. */
    Cycle fillAt{};
    /** Cycle the request was accepted by DRAM. */
    Cycle issuedAt{};
    /** True once any demand request waits on this fill. */
    bool demand = false;
    /** True when a store wrote the block while it was in flight. */
    bool dirty = false;
    /** Engine-stack index of the prefetcher that created the entry
     *  (kNoPrefetchOwner for demand misses). */
    std::uint8_t engine = kNoPrefetchOwner;

    /** @{ ECDP scan context (demand misses only). */
    Addr loadPc = 0;
    std::uint8_t blockByteOffset = 0;
    bool scanOnFill = false;
    /** @} */

    /** @{ CDP recursion context (CDP prefetch misses only). */
    std::uint8_t cdpDepth = 0;
    PgId pgRoot{};
    bool pgRootValid = false;
    /** @} */
};

/**
 * Fully-associative MSHR file with merge semantics.
 */
class MshrFile
{
  public:
    /** @param entries Capacity (32 in the baseline, Table 5; at most
     *  64, the width of the validity bitmask). */
    explicit MshrFile(unsigned entries);

    /** Find the in-flight entry for @p block_addr, or nullptr. */
    Mshr *find(Addr block_addr)
    {
        const unsigned i = slotOf(block_addr);
        return i < entries_.size() ? &entries_[i] : nullptr;
    }

    /** True when @p block_addr has an in-flight entry. */
    bool contains(Addr block_addr) const
    {
        return slotOf(block_addr) < entries_.size();
    }

    /** True when no entry is free. */
    bool full() const { return free_ == 0; }

    /** Number of valid entries. */
    unsigned inFlight() const
    {
        return static_cast<unsigned>(entries_.size()) - free_;
    }

    /**
     * Allocate an entry for @p block_addr (must not be full, and no
     * entry for the block may exist).
     * @return The fresh entry for the caller to fill in.
     */
    Mshr &allocate(Addr block_addr);

    /** Release @p entry after its fill completes. */
    void release(Mshr &entry);

    /**
     * Append all valid entries whose fill time is <= @p now to
     * @p out (cleared first), in entry-index order. The caller owns
     * the scratch buffer so a per-event call costs no allocation once
     * the buffer has grown to the file's capacity.
     */
    void ripe(Cycle now, std::vector<Mshr *> &out);

    /** Validity bitmask: bit i set iff entries()[i] is in flight.
     *  Snapshot it to iterate while releasing entries. */
    std::uint64_t validMask() const { return validMask_; }

    /**
     * Raw entry storage for the memory system's fill loop. Entries
     * are stable (fixed vector); releasing during iteration is safe.
     * Callers must not flip Mshr::valid directly — allocate() and
     * release() own it (and the validity bitmask beside it).
     */
    std::vector<Mshr> &entries() { return entries_; }

    /** Entry at index @p i (paired with validMask() iteration). */
    Mshr &entry(unsigned i) { return entries_[i]; }

    /** Earliest fill time among valid entries (max Cycle if none). */
    Cycle earliestFill() const
    {
        Cycle earliest = Cycle{~std::uint64_t{0}};
        for (std::uint64_t mask = validMask_; mask; mask &= mask - 1) {
            const unsigned i =
                static_cast<unsigned>(std::countr_zero(mask));
            if (entries_[i].fillAt < earliest)
                earliest = entries_[i].fillAt;
        }
        return earliest;
    }

    /** Table 7: per-entry ECDP storage (7-bit offset + hint vector). */
    std::uint64_t ecdpStorageBits(unsigned hint_vector_bits) const
    {
        return entries_.size() * (7ull + hint_vector_bits);
    }

    /** @{ Lifetime accounting: allocations == releases + inFlight()
     *  must hold at any instant (the conservation-law tests check it
     *  at end of run). The sum also serves as an occupancy version:
     *  it moves exactly when the set of in-flight blocks changes. */
    std::uint64_t allocations() const { return allocations_; }
    std::uint64_t releases() const { return releases_; }
    /** @} */

  private:
    /** Index of @p block_addr's valid entry, or entries_.size(). */
    unsigned slotOf(Addr block_addr) const
    {
        const std::uint32_t raw = block_addr.raw();
        for (std::uint64_t mask = validMask_; mask; mask &= mask - 1) {
            const unsigned i =
                static_cast<unsigned>(std::countr_zero(mask));
            if (addrs_[i] == raw)
                return i;
        }
        return static_cast<unsigned>(entries_.size());
    }

    std::vector<Mshr> entries_;
    /** Hot probe lane: addrs_[i] mirrors entries_[i].blockAddr for
     *  every bit i set in validMask_. */
    std::vector<std::uint32_t> addrs_;
    std::uint64_t validMask_ = 0;
    unsigned free_;
    std::uint64_t allocations_ = 0;
    std::uint64_t releases_ = 0;
};

} // namespace ecdp

#endif // ECDP_CACHE_MSHR_HH
