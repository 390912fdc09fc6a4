/**
 * @file
 * Markov prefetcher (Joseph & Grunwald, ISCA-24) — second comparison
 * point of Section 6.3.
 *
 * A large correlation table maps a miss (block) address to the miss
 * addresses that followed it in the past; on a miss, all recorded
 * successors are prefetched. The paper models a 1 MB table with 4
 * successor addresses per entry; so do we (65536 direct-mapped entries
 * x 16 bytes). Its inherent limits — it can only prefetch addresses it
 * has already seen miss, and the table thrashes on large pointer
 * working sets — are what the evaluation exposes. As the engine
 * "markov" it is LDS-class and has no aggressiveness knob.
 */

#ifndef ECDP_PREFETCH_MARKOV_PREFETCHER_HH
#define ECDP_PREFETCH_MARKOV_PREFETCHER_HH

#include <array>
#include <cstdint>
#include <vector>

#include "memsim/block_geometry.hh"
#include "prefetch/engine.hh"
#include "prefetch/prefetcher.hh"

namespace ecdp
{

/**
 * The Markov (miss-correlation) prefetcher.
 */
class MarkovPrefetcher final : public PrefetchEngine
{
  public:
    static constexpr unsigned kSuccessors = 4;

    /**
     * @param geom Block geometry of the cache level being prefetched
     *        (the correlation table is indexed by block number).
     * @param entries Correlation table entries (65536 = 1 MB with
     *        4 x 4-byte successors per entry).
     */
    explicit MarkovPrefetcher(const BlockGeometry &geom,
                              unsigned entries = 65536);

    explicit MarkovPrefetcher(const EngineContext &ctx)
        : MarkovPrefetcher(ctx.geom)
    {
    }

    const char *name() const override { return "markov"; }
    Class statClass() const override { return Class::Lds; }
    unsigned maxRequestsPerTrigger() const override
    {
        return kSuccessors;
    }

    /**
     * Train on a demand miss and emit prefetches for the recorded
     * successors of the missing block.
     */
    void onDemandMiss(BlockAddr block, std::vector<PrefetchRequest> &out);

    void onDemandMiss(const TraceEntry &entry,
                      std::vector<PrefetchRequest> &out) override
    {
        onDemandMiss(geom_.blockOf(entry.vaddr), out);
    }

    std::uint64_t storageBits() const override
    {
        return std::uint64_t{static_cast<std::uint32_t>(table_.size())} *
               (32 + kSuccessors * 32);
    }

  private:
    struct Entry
    {
        BlockAddr key{};
        bool valid = false;
        std::array<BlockAddr, kSuccessors> succ{};
        std::array<std::uint8_t, kSuccessors> age{};
    };

    Entry &entryFor(BlockAddr block)
    {
        return table_[block.raw() % table_.size()];
    }

    BlockGeometry geom_;
    std::vector<Entry> table_;
    BlockAddr lastMiss_{};
    bool lastMissValid_ = false;
};

} // namespace ecdp

#endif // ECDP_PREFETCH_MARKOV_PREFETCHER_HH
