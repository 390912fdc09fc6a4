/**
 * @file
 * PAB-style multi-prefetcher selector after Gendler et al. — the
 * Section 7.4 comparison. Tracks each prefetcher's accuracy over its
 * last N prefetched addresses and, at every evaluation point, turns
 * off every prefetcher except the most accurate one. The paper shows
 * this degrades performance because it ignores coverage and cannot
 * modulate aggressiveness.
 */

#ifndef ECDP_PREFETCH_PAB_SELECTOR_HH
#define ECDP_PREFETCH_PAB_SELECTOR_HH

#include <cstdint>
#include <deque>
#include <vector>

namespace ecdp
{

/**
 * Sliding-window accuracy selector over an engine stack (lane i =
 * stack slot i; the paper's pair is lanes 0 = primary, 1 = LDS).
 */
class PabSelector
{
  public:
    /**
     * @param window Outcomes remembered per prefetcher.
     * @param lanes Engine-stack slots competing for selection.
     */
    explicit PabSelector(unsigned window = 64, unsigned lanes = 2);

    /** Record a resolved prefetch outcome for prefetcher @p which. */
    void recordOutcome(unsigned which, bool used);

    /** Sliding-window accuracy of prefetcher @p which. */
    double accuracy(unsigned which) const;

    /**
     * Re-evaluate: returns the index of the only prefetcher that
     * should stay enabled (ties go to the lowest index, so the
     * paper's pair ties to the primary).
     */
    unsigned select() const;

  private:
    unsigned window_;
    std::vector<std::deque<bool>> outcomes_;
};

} // namespace ecdp

#endif // ECDP_PREFETCH_PAB_SELECTOR_HH
