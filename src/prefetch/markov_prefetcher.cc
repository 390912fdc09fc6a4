#include "prefetch/markov_prefetcher.hh"

#include <cassert>

namespace ecdp
{

MarkovPrefetcher::MarkovPrefetcher(const BlockGeometry &geom,
                                   unsigned entries)
    : geom_(geom), table_(entries)
{
    assert(entries > 0);
}

void
MarkovPrefetcher::onDemandMiss(BlockAddr block,
                               std::vector<PrefetchRequest> &out)
{
    // Record block as a successor of the previous miss.
    if (lastMissValid_ && lastMiss_ != block) {
        Entry &prev = entryFor(lastMiss_);
        if (!prev.valid || prev.key != lastMiss_) {
            prev = Entry{};
            prev.valid = true;
            prev.key = lastMiss_;
        }
        // Age everything; refresh or replace the oldest slot.
        unsigned victim = 0;
        bool found = false;
        for (unsigned i = 0; i < kSuccessors; ++i) {
            if (prev.age[i] < 0xff)
                ++prev.age[i];
            if (prev.succ[i] == block)
                found = true, victim = i;
        }
        if (!found) {
            for (unsigned i = 1; i < kSuccessors; ++i) {
                if (prev.age[i] > prev.age[victim])
                    victim = i;
            }
            prev.succ[victim] = block;
        }
        prev.age[victim] = 0;
    }
    lastMiss_ = block;
    lastMissValid_ = true;

    // Prefetch the recorded successors of this miss.
    const Entry &cur = entryFor(block);
    if (cur.valid && cur.key == block) {
        for (unsigned i = 0; i < kSuccessors; ++i) {
            if (cur.succ[i] == BlockAddr{} || cur.succ[i] == block)
                continue;
            PrefetchRequest req;
            req.blockAddr = geom_.baseOf(cur.succ[i]);
            out.push_back(req);
        }
    }
}

} // namespace ecdp
