// simlint: hot-path
#include "prefetch/stream_prefetcher.hh"

#include <bit>
#include <cassert>
#include <stdexcept>

namespace ecdp
{

StreamPrefetcher::StreamPrefetcher(unsigned streams, unsigned block_bytes)
    : geom_(block_bytes), entries_(streams)
{
    if (streams == 0 || streams > kMaxStreams)
        throw std::invalid_argument(
            "stream prefetcher needs 1 to 64 entries");
    assert(std::has_single_bit(block_bytes));
}

void
StreamPrefetcher::setAggressiveness(AggLevel level)
{
    level_ = level;
    const StreamAggConfig &cfg =
        kStreamAggTable[static_cast<unsigned>(level)];
    distance_ = cfg.distance;
    degree_ = cfg.degree;
}

void
StreamPrefetcher::emit(std::int64_t block,
                       std::vector<PrefetchRequest> &out)
{
    if (block < 0 ||
        block > (std::int64_t{1} << (32 - geom_.blockShift())) - 1)
        return;
    PrefetchRequest req;
    req.blockAddr = geom_.baseOfSigned(block);
    out.push_back(req);
}

void
StreamPrefetcher::advance(unsigned i, std::int64_t block,
                          std::vector<PrefetchRequest> &out)
{
    unsigned issued = 0;
    while (issued < degree_ &&
           (frontier_[i] - block) * dir_[i] <
               static_cast<std::int64_t>(distance_)) {
        frontier_[i] += dir_[i];
        emit(frontier_[i], out);
        ++issued;
    }
}

void
StreamPrefetcher::trigger(Addr addr, std::vector<PrefetchRequest> &out)
{
    const std::int64_t block = geom_.signedBlockOf(addr);

    // One pass over the lanes finds every entry that claims the block
    // (lanes past the highest valid entry cannot); the lowest index of
    // each state wins, as an in-order walk would.
    const std::uint64_t valid = monitor_ | training_;
    const unsigned scan = kMaxStreams - std::countl_zero(valid);
    std::uint64_t claims = 0;
    for (unsigned i = 0; i < scan; ++i) {
        // lo <= block <= lo + span, as one unsigned compare.
        const auto offset = static_cast<std::uint64_t>(block - lo_[i]);
        claims |= std::uint64_t{offset <= span_[i]} << i;
    }

    // 1. Monitor-state streams: a trigger inside the monitored region
    //    advances the frontier up to `distance` blocks ahead of it,
    //    issuing at most `degree` prefetches.
    if (const std::uint64_t hits = claims & monitor_) {
        const unsigned i = std::countr_zero(hits);
        lastUse_[i] = ++useClock_;
        advance(i, block, out);
        claim(i, block, frontier_[i]);
        return;
    }

    // 2. Training-state streams: a second miss within the window sets
    //    the direction and starts prefetching; a repeat of the first
    //    miss only refreshes the entry.
    if (const std::uint64_t hits = claims & training_) {
        const unsigned i = std::countr_zero(hits);
        const std::int64_t first = lo_[i] + kTrainWindow;
        const std::int64_t delta = block - first;
        lastUse_[i] = ++useClock_;
        if (delta == 0)
            return;
        training_ &= ~(std::uint64_t{1} << i);
        monitor_ |= std::uint64_t{1} << i;
        dir_[i] = delta > 0 ? 1 : -1;
        frontier_[i] = block;
        advance(i, block, out);
        claim(i, first, frontier_[i]);
        return;
    }

    // 3. Allocate a fresh training entry: the first invalid one, else
    //    the LRU entry (the earliest wins a tie).
    const std::uint64_t invalid =
        ~valid & (~std::uint64_t{0} >> (kMaxStreams - entries_));
    unsigned victim = 0;
    if (invalid) {
        victim = std::countr_zero(invalid);
    } else {
        std::uint64_t oldest = lastUse_[0];
        for (unsigned i = 1; i < entries_; ++i) {
            if (lastUse_[i] < oldest) {
                oldest = lastUse_[i];
                victim = i;
            }
        }
    }
    monitor_ &= ~(std::uint64_t{1} << victim);
    training_ |= std::uint64_t{1} << victim;
    claim(victim, block - kTrainWindow, block + kTrainWindow);
    lastUse_[victim] = ++useClock_;
}

std::uint64_t
StreamPrefetcher::storageBits() const
{
    // Per entry: state (2) + dir (1) + two 25-bit block numbers +
    // frontier (25) + LRU (6).
    return std::uint64_t{entries_} * (2 + 1 + 25 * 3 + 6);
}

} // namespace ecdp
