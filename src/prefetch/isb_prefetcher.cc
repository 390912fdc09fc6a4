#include "prefetch/isb_prefetcher.hh"

namespace ecdp
{

namespace
{

constexpr std::size_t kPairEntries = 8192;
constexpr std::size_t kSingleEntries = 4096;

/** Degree per Table 2 level (temporal chains replay further when the
 *  feedback lets the engine run aggressively). */
constexpr unsigned kIsbDegree[kNumAggLevels] = {1, 1, 2, 4};

std::size_t
slotOf(std::uint64_t key, std::size_t size)
{
    // Fibonacci hashing: the tables are powers of two and pair keys
    // share low bits between neighbouring blocks.
    return static_cast<std::size_t>((key * 0x9e3779b97f4a7c15ull) >> 32) &
           (size - 1);
}

} // namespace

IsbPrefetcher::IsbPrefetcher(const EngineContext &ctx)
    : geom_(ctx.geom), pairTable_(kPairEntries),
      singleTable_(kSingleEntries)
{
}

void
IsbPrefetcher::setAggressiveness(AggLevel level)
{
    degree_ = kIsbDegree[static_cast<unsigned>(level)];
}

const IsbPrefetcher::Entry *
IsbPrefetcher::findPair(std::uint64_t key) const
{
    const Entry &e = pairTable_[slotOf(key, pairTable_.size())];
    return (e.valid && e.key == key) ? &e : nullptr;
}

const IsbPrefetcher::Entry *
IsbPrefetcher::findSingle(BlockAddr key) const
{
    const Entry &e = singleTable_[slotOf(key.raw(), singleTable_.size())];
    return (e.valid && e.key == key.raw()) ? &e : nullptr;
}

void
IsbPrefetcher::onDemandMiss(const TraceEntry &entry,
                            std::vector<PrefetchRequest> &out)
{
    const BlockAddr block = geom_.blockOf(entry.vaddr);

    // Train: the sequence (last1, last0) -> block.
    if (historyLen_ >= 2 && block != last0_) {
        const std::uint64_t key = pairKey(last1_, last0_);
        Entry &pair = pairTable_[slotOf(key, pairTable_.size())];
        pair.valid = true;
        pair.key = key;
        pair.next = block;
    }
    if (historyLen_ >= 1 && block != last0_) {
        Entry &single =
            singleTable_[slotOf(last0_.raw(), singleTable_.size())];
        single.valid = true;
        single.key = last0_.raw();
        single.next = block;
    }

    // Predict: replay the recorded successor chain starting from
    // (last0, block), falling back to the single-miss table when the
    // pair table has no entry for a link.
    BlockAddr prev = last0_;
    BlockAddr cur = block;
    const bool havePrev = historyLen_ >= 1;
    for (unsigned i = 0; i < degree_; ++i) {
        const Entry *e =
            havePrev || i > 0 ? findPair(pairKey(prev, cur)) : nullptr;
        if (e == nullptr)
            e = findSingle(cur);
        if (e == nullptr)
            break;
        PrefetchRequest req;
        req.blockAddr = geom_.baseOf(e->next);
        out.push_back(req);
        prev = cur;
        cur = e->next;
    }

    if (block != last0_ || historyLen_ == 0) {
        last1_ = last0_;
        last0_ = block;
        if (historyLen_ < 2)
            ++historyLen_;
    }
}

std::uint64_t
IsbPrefetcher::storageBits() const
{
    // Pair entries: 64-bit key + 32-bit next + valid; single entries:
    // 32-bit key + 32-bit next + valid.
    return pairTable_.size() * (64 + 32 + 1) +
           singleTable_.size() * (32 + 32 + 1);
}

} // namespace ecdp
