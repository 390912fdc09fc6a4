/**
 * @file
 * ISB/Domino-style temporal prefetcher, ported as a table engine
 * (first competitor of Issue 7; after Jain & Lin's Irregular Stream
 * Buffer, MICRO-46, and Bakhshalipour et al.'s Domino, HPCA-24).
 *
 * Temporal prefetching replays previously observed *miss sequences*:
 * it needs no address structure at all, so it covers pointer chases
 * the stream prefetcher cannot — at the price of learning nothing
 * until a sequence repeats. Domino's insight is that correlating on
 * the last TWO misses (a pair key) disambiguates interleaved streams
 * far better than a single-miss key; we keep a single-miss table as
 * the fallback exactly as Domino does.
 *
 * Both tables are direct-mapped and bounded (temporal prefetchers are
 * infamous for metadata appetite; ISB's contribution was taming it),
 * so the engine models realistic on-chip storage: 8k pair entries +
 * 4k single entries at 9 bytes each ≈ 105 KB.
 */

#ifndef ECDP_PREFETCH_ISB_PREFETCHER_HH
#define ECDP_PREFETCH_ISB_PREFETCHER_HH

#include <cstdint>
#include <vector>

#include "memsim/block_geometry.hh"
#include "prefetch/engine.hh"
#include "prefetch/prefetcher.hh"

namespace ecdp
{

/**
 * The temporal (miss-sequence replay) engine, table row "isb".
 * LDS-class: its traffic targets irregular/pointer misses, so it sits
 * behind the hardware filter like CDP does.
 */
class IsbPrefetcher final : public PrefetchEngine
{
  public:
    explicit IsbPrefetcher(const EngineContext &ctx);

    const char *name() const override { return "isb"; }
    Class statClass() const override { return Class::Lds; }
    unsigned maxRequestsPerTrigger() const override { return degree_; }

    void setAggressiveness(AggLevel level) override;

    void onDemandMiss(const TraceEntry &entry,
                      std::vector<PrefetchRequest> &out) override;

    std::uint64_t storageBits() const override;

  private:
    struct Entry
    {
        bool valid = false;
        std::uint64_t key = 0;
        BlockAddr next{};
    };

    static std::uint64_t pairKey(BlockAddr a, BlockAddr b)
    {
        return (std::uint64_t{a.raw()} << 32) | b.raw();
    }

    const Entry *findPair(std::uint64_t key) const;
    const Entry *findSingle(BlockAddr key) const;

    BlockGeometry geom_;
    unsigned degree_ = 4;
    /** (miss[n-2], miss[n-1]) -> miss[n], the Domino pair table. */
    std::vector<Entry> pairTable_;
    /** miss[n-1] -> miss[n], the single-miss fallback. */
    std::vector<Entry> singleTable_;
    /** Last two global miss blocks. */
    BlockAddr last0_{};
    BlockAddr last1_{};
    unsigned historyLen_ = 0;
};

} // namespace ecdp

#endif // ECDP_PREFETCH_ISB_PREFETCHER_HH
