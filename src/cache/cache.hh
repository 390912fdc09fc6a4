/**
 * @file
 * Set-associative cache model with the per-prefetcher "prefetched" tag
 * bits the paper's feedback mechanism relies on (Section 4.1), plus
 * pointer-group bookkeeping used for profiling and the Figure 4/10
 * usefulness analyses.
 *
 * The tag store is laid out structure-of-arrays: a set probe walks one
 * contiguous lane of 64-bit tags (a single cache line at 8-way
 * associativity) instead of striding across full per-block records.
 * The cold per-block payload (dirty/prefetched bits, pointer-group
 * attribution) lives in a parallel lane touched only on hits.
 */
// simlint: hot-path

#ifndef ECDP_CACHE_CACHE_HH
#define ECDP_CACHE_CACHE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "memsim/block_geometry.hh"
#include "memsim/types.hh"

namespace ecdp
{

/**
 * "No engine": sentinel for the per-block prefetched-owner tag and the
 * MSHR engine field. Real owners are indices into the MemorySystem's
 * engine stack (0 = the paper's primary slot, 1 = its LDS slot),
 * so the all-ones byte can never collide with one.
 */
inline constexpr std::uint8_t kNoPrefetchOwner = 0xff;

/**
 * Identity of a pointer group PG(L, X): the static load L (by PC) and
 * the signed pointer-slot offset X (in pointer-sized words) from the
 * byte the load accessed (Section 3 of the paper).
 */
struct PgId
{
    Addr loadPc = 0;
    std::int16_t slot = 0;

    bool operator==(const PgId &other) const = default;
};

/** Hash functor so PgId can key unordered_map. */
struct PgIdHash
{
    std::size_t operator()(const PgId &id) const
    {
        return std::hash<std::uint64_t>{}(
            (std::uint64_t{id.loadPc.raw()} << 16) ^
            static_cast<std::uint16_t>(id.slot));
    }
};

/**
 * Cold per-block state of one cache block. Validity, tag and LRU order
 * live in the Cache's hot lanes, not here: a lookup touches this
 * record only on a hit.
 */
struct CacheBlock
{
    bool dirty = false;
    /**
     * The paper's prefetched-by tag, generalized: the engine-stack
     * index of the prefetcher that fetched the block, or
     * kNoPrefetchOwner for demand fills. Engine 0 is the paper's
     * "prefetched-stream" bit, engine 1 the "prefetched-CDP" bit.
     */
    std::uint8_t prefetchOwner = kNoPrefetchOwner;
    /** PG that caused the CDP prefetch of this block (stats only). */
    bool pgValid = false;
    PgId pg;
    /** Recursion depth of the CDP prefetch that fetched the block. */
    std::uint8_t cdpDepth = 0;
    /** Issue-to-fill latency of the prefetch that fetched the block
     *  (stats only; drives the Section 4 contention analysis). */
    Cycle prefetchLatency{};
};

/**
 * A single level of set-associative cache with true-LRU replacement.
 *
 * The cache is a tag store only: data values live in the simulator's
 * SimMemory image. Timing lives in the memory system, not here.
 */
class Cache
{
  public:
    /**
     * @param name Display name ("L1D", "L2").
     * @param size_bytes Total capacity.
     * @param assoc Ways per set.
     * @param block_bytes Line size (power of two).
     */
    Cache(std::string name, std::uint32_t size_bytes, std::uint32_t assoc,
          std::uint32_t block_bytes);

    /** Address of the block containing @p addr. */
    Addr blockAddr(Addr addr) const { return geom_.alignDown(addr); }

    /** Byte offset of @p addr within its block. */
    std::uint32_t blockOffset(Addr addr) const
    {
        return geom_.offsetIn(addr);
    }

    /** Block geometry (size/shift/mask) of this cache's lines. */
    const BlockGeometry &geom() const { return geom_; }

    std::uint32_t blockBytes() const { return geom_.blockBytes(); }
    std::uint32_t numBlocks() const { return numBlocks_; }

    /**
     * Look up @p addr.
     *
     * @param update_lru When true, a hit refreshes LRU state.
     * @return The block's cold payload on a hit, nullptr on a miss.
     */
    CacheBlock *lookup(Addr addr, bool update_lru = true)
    {
        const std::uint32_t base = setIndex(addr) * assoc_;
        const std::uint64_t tag = tagOf(addr).raw();
        const std::uint64_t *tags = tags_.data() + base;
        for (std::uint32_t way = 0; way < assoc_; ++way) {
            if (tags[way] == tag) {
                if (update_lru)
                    lastUse_[base + way] = ++lruClock_;
                return &payload_[base + way];
            }
        }
        return nullptr;
    }

    const CacheBlock *peek(Addr addr) const
    {
        const std::uint32_t base = setIndex(addr) * assoc_;
        const std::uint64_t tag = tagOf(addr).raw();
        const std::uint64_t *tags = tags_.data() + base;
        for (std::uint32_t way = 0; way < assoc_; ++way) {
            if (tags[way] == tag)
                return &payload_[base + way];
        }
        return nullptr;
    }

    /** Evicted-block description returned by insert(). */
    struct Victim
    {
        bool valid = false;
        bool dirty = false;
        Addr addr = 0;
        /** Engine that had prefetched the victim (kNoPrefetchOwner if
         *  it was demand-fetched or already consumed). */
        std::uint8_t prefetchOwner = kNoPrefetchOwner;
        /** Payload of the block just inserted (what lookup() would
         *  return for it), so a caller need not probe again. */
        CacheBlock *block = nullptr;
    };

    /**
     * Insert the block containing @p addr, evicting the LRU way.
     *
     * @param owner Engine-stack index of the prefetcher that fetched
     *        the block (kNoPrefetchOwner = demand fill).
     * @return Description of the victim (valid = a block was evicted)
     *         and the inserted block's payload.
     */
    Victim insert(Addr addr, std::uint8_t owner = kNoPrefetchOwner);

    /** Invalidate the block containing @p addr if present. */
    void invalidate(Addr addr);

    /** Number of evictions of valid blocks so far (interval clock). */
    std::uint64_t evictions() const { return evictions_; }

    /**
     * Monotonic counter of content changes (inserts and invalidates;
     * LRU refreshes do not count). Lets callers that memoize
     * residency-dependent decisions detect when a re-probe is needed.
     */
    std::uint64_t contentVersion() const { return contentVersion_; }

    /** End-of-run census of still-resident unused prefetches (the
     *  paper's two-slot view: owner 0 = primary, owner 1 = lds). */
    struct PrefetchedResident
    {
        std::uint64_t primary = 0;
        std::uint64_t lds = 0;
    };

    /** Count resident blocks whose prefetched tag bit is still set
     *  (i.e. prefetched but never consumed by a demand). */
    PrefetchedResident prefetchedResident() const;

    /** Per-engine census: out[i] counts resident blocks still owned by
     *  engine i (owners >= out.size() are ignored). */
    void prefetchedResidentByOwner(std::vector<std::uint64_t> &out) const;

    const std::string &name() const { return name_; }

    /** Extra tag storage (bits) for the two prefetched bits/block,
     *  for the Table 7 hardware-cost accounting. */
    std::uint64_t prefetchedBitsStorageBits() const
    {
        return std::uint64_t{numBlocks_} * 2;
    }

  private:
    /** Tag-lane sentinel for an empty way. Real tags are block
     *  *numbers* of 32-bit byte addresses, so they can never collide
     *  with an all-ones 64-bit value. */
    static constexpr std::uint64_t kEmptyWay = ~std::uint64_t{0};

    std::uint32_t setIndex(Addr addr) const
    {
        return geom_.blockOf(addr).raw() & (numSets_ - 1);
    }

    /** The tag store keys blocks by their full block number. */
    BlockAddr tagOf(Addr addr) const { return geom_.blockOf(addr); }

    std::string name_;
    BlockGeometry geom_;
    std::uint32_t assoc_;
    std::uint32_t numSets_;
    std::uint32_t numBlocks_;
    std::uint64_t lruClock_ = 0;
    std::uint64_t evictions_ = 0;
    std::uint64_t contentVersion_ = 0;
    /** @{ Structure-of-arrays block state, all indexed
     *  set * assoc + way. Hot probe lane first. */
    std::vector<std::uint64_t> tags_;
    std::vector<std::uint64_t> lastUse_;
    std::vector<CacheBlock> payload_;
    /** @} */
};

} // namespace ecdp

#endif // ECDP_CACHE_CACHE_HH
