// simlint: hot-path
#include "cache/cache.hh"

#include <bit>
#include <cassert>
#include <utility>

namespace ecdp
{

Cache::Cache(std::string name, std::uint32_t size_bytes,
             std::uint32_t assoc, std::uint32_t block_bytes)
    : name_(std::move(name)), geom_(block_bytes), assoc_(assoc)
{
    assert(std::has_single_bit(block_bytes));
    assert(size_bytes % (assoc * block_bytes) == 0);
    numSets_ = size_bytes / (assoc * block_bytes);
    assert(std::has_single_bit(numSets_));
    numBlocks_ = numSets_ * assoc_;
    tags_.assign(numBlocks_, kEmptyWay);
    lastUse_.assign(numBlocks_, 0);
    payload_.resize(numBlocks_);
}

Cache::Victim
Cache::insert(Addr addr, std::uint8_t owner)
{
    const std::uint32_t base = setIndex(addr) * assoc_;
    const std::uint64_t tag = tagOf(addr).raw();
    std::uint64_t *tags = tags_.data() + base;

    // Victim priority in one pass: matching tag (refresh) > first
    // empty way > true LRU (earliest way wins ties). The LRU way only
    // counts when no way is empty, so it may compare empty ways too.
    const std::uint64_t *last_use = lastUse_.data() + base;
    std::uint32_t victim_way = assoc_;
    std::uint32_t empty_way = assoc_;
    std::uint32_t lru_way = 0;
    for (std::uint32_t way = 0; way < assoc_; ++way) {
        if (tags[way] == tag) {
            victim_way = way;
            break;
        }
        if (tags[way] == kEmptyWay && empty_way == assoc_)
            empty_way = way;
        if (last_use[way] < last_use[lru_way])
            lru_way = way;
    }
    if (victim_way == assoc_)
        victim_way = empty_way != assoc_ ? empty_way : lru_way;

    const std::uint64_t old_tag = tags[victim_way];
    CacheBlock &block = payload_[base + victim_way];

    Victim victim;
    victim.block = &block;
    if (old_tag != kEmptyWay && old_tag != tag) {
        victim.valid = true;
        victim.dirty = block.dirty;
        victim.addr =
            geom_.baseOf(BlockAddr{static_cast<std::uint32_t>(old_tag)});
        victim.prefetchOwner = block.prefetchOwner;
        ++evictions_;
    }

    const bool refresh = old_tag == tag;
    tags[victim_way] = tag;
    lastUse_[base + victim_way] = ++lruClock_;
    if (!refresh) {
        ++contentVersion_;
        block.dirty = false;
        block.prefetchOwner = owner;
        block.pgValid = false;
        block.pg = PgId{};
        block.cdpDepth = 0;
        block.prefetchLatency = Cycle{};
    }
    return victim;
}

Cache::PrefetchedResident
Cache::prefetchedResident() const
{
    PrefetchedResident census;
    for (std::uint32_t i = 0; i < numBlocks_; ++i) {
        if (tags_[i] == kEmptyWay)
            continue;
        if (payload_[i].prefetchOwner == 0)
            ++census.primary;
        else if (payload_[i].prefetchOwner == 1)
            ++census.lds;
    }
    return census;
}

void
Cache::prefetchedResidentByOwner(std::vector<std::uint64_t> &out) const
{
    for (std::uint32_t i = 0; i < numBlocks_; ++i) {
        if (tags_[i] == kEmptyWay)
            continue;
        const std::uint8_t owner = payload_[i].prefetchOwner;
        if (owner < out.size())
            ++out[owner];
    }
}

void
Cache::invalidate(Addr addr)
{
    const std::uint32_t base = setIndex(addr) * assoc_;
    const std::uint64_t tag = tagOf(addr).raw();
    for (std::uint32_t way = 0; way < assoc_; ++way) {
        if (tags_[base + way] == tag) {
            tags_[base + way] = kEmptyWay;
            ++contentVersion_;
            return;
        }
    }
}

} // namespace ecdp
