/**
 * @file
 * IBM POWER4/POWER5-style stream prefetcher (Section 2.1 of the paper,
 * after Tendler et al. and Srinath et al.).
 *
 * 32 stream tracking entries. A miss allocates an entry in training
 * state; a second nearby miss fixes the stream direction and moves the
 * entry to monitor state. In monitor state, demand accesses that land
 * in the monitored region pull the prefetch frontier forward, keeping
 * it at most `distance` blocks ahead and issuing at most `degree`
 * prefetch requests per trigger. Distance and degree are the
 * aggressiveness knobs of Table 2. As the engine "stream" it trains
 * on demand and store misses and on hits to the blocks it prefetched.
 */

#ifndef ECDP_PREFETCH_STREAM_PREFETCHER_HH
#define ECDP_PREFETCH_STREAM_PREFETCHER_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "memsim/block_geometry.hh"
#include "prefetch/engine.hh"
#include "prefetch/prefetcher.hh"

namespace ecdp
{

/**
 * The baseline stream prefetcher, a primary-class engine.
 */
class StreamPrefetcher final : public PrefetchEngine
{
  public:
    /**
     * @param streams Tracking entries (32 in the baseline, 1 to 64).
     * @param block_bytes L2 block size (frontier unit).
     */
    explicit StreamPrefetcher(unsigned streams = 32,
                              unsigned block_bytes = 128);

    explicit StreamPrefetcher(const EngineContext &ctx)
        : StreamPrefetcher(ctx.streamEntries, ctx.geom.blockBytes())
    {
    }

    const char *name() const override { return "stream"; }
    Class statClass() const override { return Class::Primary; }
    unsigned maxRequestsPerTrigger() const override { return degree_; }

    /** Apply a Table 2 aggressiveness level. */
    void setAggressiveness(AggLevel level) override;
    AggLevel aggressiveness() const { return level_; }

    unsigned distance() const { return distance_; }
    unsigned degree() const { return degree_; }

    /**
     * Train on a demand access that missed in the L2 or hit a
     * stream-prefetched block; may append prefetch requests.
     */
    void trigger(Addr addr, std::vector<PrefetchRequest> &out);

    void onDemandMiss(const TraceEntry &entry,
                      std::vector<PrefetchRequest> &out) override
    {
        trigger(entry.vaddr, out);
    }

    void onStoreMiss(Addr addr,
                     std::vector<PrefetchRequest> &out) override
    {
        trigger(addr, out);
    }

    /** A hit on a stream-prefetched block keeps the stream alive. */
    void onPrefetchHit(Addr block_addr,
                       std::vector<PrefetchRequest> &out) override
    {
        trigger(block_addr, out);
    }

    /** Approximate storage cost in bits (for cost accounting). */
    std::uint64_t storageBits() const override;

  private:
    /** Entries the table holds at most: one bit each in a mask. */
    static constexpr unsigned kMaxStreams = 64;

    /** Window (blocks) within which a second miss trains a stream. */
    static constexpr std::int64_t kTrainWindow = 16;

    /** Pull entry @p i's frontier toward `distance` blocks ahead of
     *  @p block, at most `degree` prefetches. */
    void advance(unsigned i, std::int64_t block,
                 std::vector<PrefetchRequest> &out);

    /** Set entry @p i's claimed blocks to those between @p a and @p b. */
    void claim(unsigned i, std::int64_t a, std::int64_t b)
    {
        lo_[i] = std::min(a, b);
        span_[i] = static_cast<std::uint64_t>(std::max(a, b) - lo_[i]);
    }

    void emit(std::int64_t block, std::vector<PrefetchRequest> &out);

    BlockGeometry geom_;
    unsigned distance_ = 32;
    unsigned degree_ = 4;
    AggLevel level_ = AggLevel::Aggressive;
    std::uint64_t useClock_ = 0;
    unsigned entries_;
    /** @{ Entry state, one bit per entry; an entry in neither mask
     *  is invalid. */
    std::uint64_t monitor_ = 0;
    std::uint64_t training_ = 0;
    /** @} */
    /** @{ Structure-of-arrays entry state, indexed by entry. Each
     *  valid entry claims the blocks [lo, lo + span]: a monitor entry
     *  the region between its last trigger and its frontier, a
     *  training entry the blocks within kTrainWindow of its first
     *  miss (which is lo + kTrainWindow). */
    std::array<std::int64_t, kMaxStreams> lo_{};
    std::array<std::uint64_t, kMaxStreams> span_{};
    std::array<std::uint64_t, kMaxStreams> lastUse_{};
    /** Prefetch frontier (last block prefetched). */
    std::array<std::int64_t, kMaxStreams> frontier_{};
    /** +1 or -1 once direction is known. */
    std::array<std::int8_t, kMaxStreams> dir_{};
    /** @} */
};

} // namespace ecdp

#endif // ECDP_PREFETCH_STREAM_PREFETCHER_HH
