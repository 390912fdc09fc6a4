#include "prefetch/ghb_prefetcher.hh"

#include <bit>
#include <cassert>

namespace ecdp
{

GhbPrefetcher::GhbPrefetcher(unsigned entries, unsigned block_bytes)
    : geom_(block_bytes), history_(entries, 0)
{
    assert(entries >= 4);
    assert(std::has_single_bit(block_bytes));
}

void
GhbPrefetcher::onDemandMiss(Addr addr, std::vector<PrefetchRequest> &out)
{
    const std::int64_t block = geom_.signedBlockOf(addr);
    history_[writes_ % history_.size()] = block;
    ++writes_;
    if (writes_ < 3)
        return;

    auto at = [this](std::uint64_t pos) {
        return history_[pos % history_.size()];
    };
    const std::uint64_t n = writes_ - 1; // position of current miss
    const std::int64_t d1 = at(n) - at(n - 1);
    const std::int64_t d2 = at(n - 1) - at(n - 2);
    const Key key = keyOf(d1, d2);

    auto it = indexTable_.find(key);
    if (it != indexTable_.end()) {
        std::uint64_t p = it->second;
        // Entry stale once the FIFO wrapped past it.
        if (n - p < history_.size() - 2) {
            std::int64_t next = block;
            for (unsigned i = 0; i < degree_; ++i) {
                std::uint64_t succ = p + 1 + i;
                // Replay the deltas that followed the previous
                // occurrence; once the recorded history runs out
                // (always immediately for constant strides, whose
                // previous occurrence is the preceding miss), continue
                // with the current delta.
                std::int64_t delta =
                    succ < n ? at(succ) - at(succ - 1) : d1;
                next += delta;
                if (next < 0 ||
                    next > (std::int64_t{1}
                            << (32 - geom_.blockShift())) - 1) {
                    break;
                }
                PrefetchRequest req;
                req.blockAddr = geom_.baseOfSigned(next);
                out.push_back(req);
            }
        }
    }

    if (indexTable_.size() >= indexCapacity_ &&
        indexTable_.find(key) == indexTable_.end()) {
        // Modest eviction policy for the bounded index table: drop an
        // arbitrary entry (hash order approximates random).
        indexTable_.erase(indexTable_.begin());
    }
    indexTable_[key] = n;
}

std::uint64_t
GhbPrefetcher::storageBits() const
{
    // GHB: 1k x (address 32 + link pointer 10); index: 512 x
    // (key tag 32 + pointer 10) -- about 12 KB, per the paper.
    return history_.size() * 42 + indexCapacity_ * 42;
}

} // namespace ecdp
