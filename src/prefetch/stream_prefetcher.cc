#include "prefetch/stream_prefetcher.hh"

#include <bit>
#include <cassert>
#include <cstdlib>

namespace ecdp
{

StreamPrefetcher::StreamPrefetcher(unsigned streams, unsigned block_bytes)
    : geom_(block_bytes), streams_(streams)
{
    assert(streams > 0);
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
StreamPrefetcher::trigger(Addr addr, std::vector<PrefetchRequest> &out)
{
    const std::int64_t block = geom_.signedBlockOf(addr);

    // 1. Monitor-state streams: a trigger inside the monitored region
    //    advances the frontier up to `distance` blocks ahead of it,
    //    issuing at most `degree` prefetches.
    for (Stream &stream : streams_) {
        if (stream.state != State::Monitor)
            continue;
        std::int64_t lo = std::min(stream.monitorStart, stream.frontier);
        std::int64_t hi = std::max(stream.monitorStart, stream.frontier);
        if (block < lo || block > hi)
            continue;
        stream.lastUse = ++useClock_;
        unsigned issued = 0;
        while (issued < degree_ &&
               (stream.frontier - block) * stream.dir <
                   static_cast<std::int64_t>(distance_)) {
            stream.frontier += stream.dir;
            emit(stream.frontier, out);
            ++issued;
        }
        stream.monitorStart = block;
        return;
    }

    // 2. Training-state streams: a second miss within the window sets
    //    the direction and starts prefetching.
    for (Stream &stream : streams_) {
        if (stream.state != State::Training)
            continue;
        std::int64_t delta = block - stream.firstBlock;
        if (delta == 0) {
            stream.lastUse = ++useClock_;
            return;
        }
        if (std::abs(delta) > kTrainWindow)
            continue;
        stream.state = State::Monitor;
        stream.dir = delta > 0 ? 1 : -1;
        stream.monitorStart = stream.firstBlock;
        stream.frontier = block;
        stream.lastUse = ++useClock_;
        unsigned issued = 0;
        while (issued < degree_ &&
               (stream.frontier - block) * stream.dir <
                   static_cast<std::int64_t>(distance_)) {
            stream.frontier += stream.dir;
            emit(stream.frontier, out);
            ++issued;
        }
        return;
    }

    // 3. Allocate a fresh training entry over the LRU victim.
    Stream *victim = &streams_[0];
    for (Stream &stream : streams_) {
        if (stream.state == State::Invalid) {
            victim = &stream;
            break;
        }
        if (stream.lastUse < victim->lastUse)
            victim = &stream;
    }
    *victim = Stream{};
    victim->state = State::Training;
    victim->firstBlock = block;
    victim->lastUse = ++useClock_;
}

std::uint64_t
StreamPrefetcher::storageBits() const
{
    // Per entry: state (2) + dir (1) + two 25-bit block numbers +
    // frontier (25) + LRU (6).
    return streams_.size() * (2 + 1 + 25 * 3 + 6);
}

} // namespace ecdp
