/**
 * @file
 * Coordinated prefetcher throttling — the paper's second contribution
 * (Section 4.2). At every interval each prefetcher decides its own
 * aggressiveness from its accuracy and coverage *and the rival
 * prefetcher's coverage*, following the five heuristics of Table 3
 * with the thresholds of Table 4. The rules are symmetric and
 * prefetcher-agnostic, so the same decide() serves both prefetchers
 * (and would extend to more than two).
 */

#ifndef ECDP_THROTTLE_COORDINATED_THROTTLER_HH
#define ECDP_THROTTLE_COORDINATED_THROTTLER_HH

#include <cstddef>
#include <vector>

#include "prefetch/prefetcher.hh"
#include "throttle/feedback.hh"

namespace ecdp
{

/** Throttling decision for a deciding prefetcher. */
enum class ThrottleDecision { Up, Down, Nothing };

/**
 * The Table 3 heuristics.
 */
class CoordinatedThrottler
{
  public:
    /** Table 4 thresholds. */
    struct Thresholds
    {
        double tCoverage = 0.2;
        double aLow = 0.4;
        double aHigh = 0.7;
    };

    CoordinatedThrottler() : thresholds_(Thresholds()) {}

    explicit CoordinatedThrottler(Thresholds thresholds)
        : thresholds_(thresholds)
    {}

    /**
     * Table 3: the deciding prefetcher's throttling decision from its
     * own coverage/accuracy and the rival's coverage.
     */
    ThrottleDecision decide(const FeedbackSnapshot &self,
                            const FeedbackSnapshot &rival) const;

    /**
     * The rival snapshot for stack slot @p self in an N-engine stack:
     * the Table 3 rules only consume the rival's *coverage*, so the
     * rival of an engine is the best-covering other engine (ties to
     * the lowest slot). For the paper's pair this is exactly "the other
     * prefetcher"; an engine running alone gets a neutral
     * (zero-coverage) rival and throttles on its own feedback.
     */
    static FeedbackSnapshot
    rival(const std::vector<FeedbackSnapshot> &all, std::size_t self);

    /** Apply a decision to an aggressiveness level, clamped to the
     *  four Table 2 levels. */
    static AggLevel apply(AggLevel level, ThrottleDecision decision);

    const Thresholds &thresholds() const { return thresholds_; }

  private:
    enum class AccClass { Low, Medium, High };

    AccClass classifyAccuracy(double accuracy) const;

    Thresholds thresholds_;
};

} // namespace ecdp

#endif // ECDP_THROTTLE_COORDINATED_THROTTLER_HH
