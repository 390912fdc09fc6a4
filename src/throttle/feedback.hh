/**
 * @file
 * Run-time prefetcher feedback collection (Section 4.1 of the paper).
 *
 * Two counters per prefetcher (total-prefetched, total-used) plus one
 * global counter (total-misses) feed the accuracy and coverage
 * formulas (Equations 1 and 2). Counters are aged at interval
 * boundaries with the half/half rule of Equation 3; an interval ends
 * after a fixed number of L2 evictions (8192 in the paper).
 *
 * For the FDP comparison the collector additionally tracks lateness
 * (demand arrived while the prefetch was still in flight) and
 * pollution (demand misses to blocks recently evicted by prefetches).
 */

#ifndef ECDP_THROTTLE_FEEDBACK_HH
#define ECDP_THROTTLE_FEEDBACK_HH

#include <cstdint>
#include <vector>

#include "memsim/types.hh"
#include "stats/stats.hh"

namespace ecdp
{

/** Accuracy/coverage snapshot handed to the throttlers. */
struct FeedbackSnapshot
{
    double accuracy = 1.0;
    double coverage = 0.0;
    double lateness = 0.0;
    double pollution = 0.0;
    /** False when the prefetcher issued nothing (accuracy is then
     *  defined as 1.0 so an idle prefetcher is never punished). */
    bool anyPrefetches = false;
};

/**
 * Feedback state for one prefetcher.
 */
class PrefetcherFeedback
{
  public:
    void onPrefetchIssued() { issued_.add(); }
    void onPrefetchUsed() { used_.add(); }
    void onPrefetchLate() { late_.add(); }

    /** Fold the current interval per Equation 3. While the aged
     *  issued count is nonzero the freshly computed accuracy is also
     *  latched, so a later fully-throttled (zero-issue) stretch keeps
     *  reporting the last real measurement. */
    void endInterval()
    {
        issued_.endInterval();
        used_.endInterval();
        late_.endInterval();
        if (issued_.value() > 0)
            heldAccuracy_ = accuracy();
    }

    /** Equation 1 over the aged counters. A prefetch counts as used
     *  here if a demand consumed it at all — from the cache (the
     *  prefetched tag bit) or by merging into its in-flight MSHR
     *  (late): both are hardware-observable and both mean the pointer
     *  was truly needed.
     *
     *  When the aged issued count is zero the last held measurement
     *  is reported instead: 0/0 carries no information, and treating
     *  it as perfect accuracy would let the FDP/coordinated
     *  throttlers re-promote a fully-throttled inaccurate prefetcher
     *  the very next interval. A prefetcher that never issued
     *  anything still reports 1.0 (an idle prefetcher is never
     *  punished). */
    double accuracy() const;

    /** Equation 2; @p aged_demand_misses is the shared total-misses. */
    double coverage(std::uint64_t aged_demand_misses) const;

    /** Late prefetches / used prefetches (FDP metric). */
    double lateness() const;

    bool anyPrefetches() const { return issued_.value() > 0; }

    std::uint64_t lifetimeIssued() const { return issued_.lifetime(); }
    std::uint64_t lifetimeUsed() const { return used_.lifetime(); }
    std::uint64_t lifetimeLate() const { return late_.lifetime(); }

    /** True when any counter saw activity in the current (not yet
     *  folded) interval — the trailing-partial-interval flush test. */
    bool currentIntervalActive() const
    {
        return issued_.during() > 0 || used_.during() > 0 ||
               late_.during() > 0;
    }

  private:
    IntervalCounter issued_;
    IntervalCounter used_;
    IntervalCounter late_;
    /** Last accuracy measured over a nonzero aged issued count. */
    double heldAccuracy_ = 1.0;
};

/**
 * Pollution filter for the FDP comparison: a hashed bit table of
 * blocks recently evicted by prefetch fills. Cleared every interval.
 */
class PollutionFilter
{
  public:
    explicit PollutionFilter(unsigned entries = 4096);

    void onPrefetchEvictedDemandBlock(BlockAddr block);

    /** Does this demand miss hit a prefetch-evicted block? */
    bool test(BlockAddr block) const;

    void clear();

  private:
    std::size_t index(BlockAddr block) const
    {
        // Full-width xorshift-multiply mixer (the splitmix64
        // finalizer). The old single-shift hash (v ^= v >> 13, then
        // modulo) dropped every block-number bit above bit 24: one
        // 13-bit shift moves the high bits no further down than bit
        // 12 of the table index, so any two blocks differing only in
        // high-order bits aliased deterministically — phantom
        // pollution for large heaps that stride in high bits. The
        // regression test pins that every input bit reaches the index.
        std::uint64_t v = block.raw();
        v ^= v >> 33;
        v *= 0xff51afd7ed558ccdull;
        v ^= v >> 33;
        v *= 0xc4ceb9fe1a85ec53ull;
        v ^= v >> 33;
        return static_cast<std::size_t>(v % bits_.size());
    }

    std::vector<bool> bits_;
};

} // namespace ecdp

#endif // ECDP_THROTTLE_FEEDBACK_HH
