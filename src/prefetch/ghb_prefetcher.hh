/**
 * @file
 * Global History Buffer prefetcher with global delta correlation
 * (G/DC), after Nesbit & Smith (HPCA-10) — third comparison point of
 * Section 6.3. Used *instead of* the stream prefetcher (the paper
 * found GHB performs best alone, since delta correlation also covers
 * streaming patterns).
 *
 * A 1k-entry FIFO holds the global L2 miss (block) addresses. On a
 * miss, the last two deltas form a key into an index table pointing at
 * the most recent previous occurrence of the same delta pair; the
 * deltas that followed that occurrence are replayed to generate up to
 * `degree` prefetch addresses. As the engine "ghb" it is
 * primary-class, and Table 2's levels set its degree (1, 1, 2, 4).
 */

#ifndef ECDP_PREFETCH_GHB_PREFETCHER_HH
#define ECDP_PREFETCH_GHB_PREFETCHER_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "memsim/block_geometry.hh"
#include "prefetch/engine.hh"
#include "prefetch/prefetcher.hh"

namespace ecdp
{

/**
 * GHB G/DC prefetcher.
 */
class GhbPrefetcher final : public PrefetchEngine
{
  public:
    /**
     * @param entries History buffer entries (1024 in the paper).
     * @param block_bytes L2 block size.
     */
    explicit GhbPrefetcher(unsigned entries = 1024,
                           unsigned block_bytes = 128);

    explicit GhbPrefetcher(const EngineContext &ctx)
        : GhbPrefetcher(1024, ctx.geom.blockBytes())
    {
    }

    const char *name() const override { return "ghb"; }
    Class statClass() const override { return Class::Primary; }
    unsigned maxRequestsPerTrigger() const override { return degree_; }

    /** Prefetch degree knob (used when GHB is throttled). */
    void setDegree(unsigned degree) { degree_ = degree; }
    unsigned degree() const { return degree_; }

    void setAggressiveness(AggLevel level) override
    {
        static constexpr unsigned kGhbDegree[kNumAggLevels] = {1, 1, 2,
                                                               4};
        setDegree(kGhbDegree[static_cast<unsigned>(level)]);
    }

    /** Train on a demand miss and emit delta-correlated prefetches. */
    void onDemandMiss(Addr addr, std::vector<PrefetchRequest> &out);

    void onDemandMiss(const TraceEntry &entry,
                      std::vector<PrefetchRequest> &out) override
    {
        onDemandMiss(entry.vaddr, out);
    }

    std::uint64_t storageBits() const override;

  private:
    using Key = std::uint64_t;

    Key keyOf(std::int64_t d1, std::int64_t d2) const
    {
        return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(d1))
                << 32) |
               static_cast<std::uint32_t>(d2);
    }

    BlockGeometry geom_;
    unsigned degree_ = 4;
    /** Circular buffer of global miss block numbers. */
    std::vector<std::int64_t> history_;
    /** Monotonic count of pushes (head = writes_ % size). */
    std::uint64_t writes_ = 0;
    /** Delta-pair -> position (monotonic index) of last occurrence. */
    std::unordered_map<Key, std::uint64_t> indexTable_;
    /** Bound on index table size (modelling limited storage). */
    std::size_t indexCapacity_ = 512;
};

} // namespace ecdp

#endif // ECDP_PREFETCH_GHB_PREFETCHER_HH
