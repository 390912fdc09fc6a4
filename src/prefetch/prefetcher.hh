/**
 * @file
 * Common prefetcher types: requests and aggressiveness levels (Table 2
 * of the paper).
 */

#ifndef ECDP_PREFETCH_PREFETCHER_HH
#define ECDP_PREFETCH_PREFETCHER_HH

#include <cstdint>

#include "cache/cache.hh"
#include "memsim/types.hh"

namespace ecdp
{

/**
 * Aggressiveness levels of Table 2. Coordinated throttling moves
 * prefetchers one level at a time between these configurations.
 */
enum class AggLevel : std::uint8_t
{
    VeryConservative = 0,
    Conservative = 1,
    Moderate = 2,
    Aggressive = 3,
};

inline constexpr unsigned kNumAggLevels = 4;

/** Stream prefetcher configuration at each aggressiveness level. */
struct StreamAggConfig
{
    unsigned distance;
    unsigned degree;
};

/** Table 2: stream prefetcher distance/degree per level. */
inline constexpr StreamAggConfig kStreamAggTable[kNumAggLevels] = {
    {4, 1}, {8, 1}, {16, 2}, {32, 4},
};

/** Table 2: CDP maximum recursion depth per level. */
inline constexpr unsigned kCdpDepthTable[kNumAggLevels] = {1, 2, 3, 4};

/** Display name of an aggressiveness level. */
const char *aggLevelName(AggLevel level);

/** One prefetch request heading for the prefetch request queue. */
struct PrefetchRequest
{
    /** Block-aligned target address. */
    Addr blockAddr = 0;
    /** Engine-stack index of the generating engine; stamped by the
     *  MemorySystem when it drains an engine hook's output. */
    std::uint8_t engine = 0;
    /** CDP recursion depth of the request (1 = from a demand scan). */
    std::uint8_t depth = 0;
    /** Root pointer group of the (possibly recursive) CDP chain. */
    bool pgValid = false;
    PgId pg{};
};

} // namespace ecdp

#endif // ECDP_PREFETCH_PREFETCHER_HH
