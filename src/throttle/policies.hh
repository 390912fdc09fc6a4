/**
 * @file
 * The rule-based throttle policies: the paper's Table 3 coordinated
 * throttling, the FDP and PAB comparison points, and the static (no
 * throttling) policy. Each is one ThrottlePolicy class; the learned
 * tabular-RL policy lives in tabular_rl_policy.hh. policies.cc holds
 * all of them in the policy table.
 */

#ifndef ECDP_THROTTLE_POLICIES_HH
#define ECDP_THROTTLE_POLICIES_HH

#include <cstddef>
#include <cstdint>
#include <deque>
#include <vector>

#include "throttle/feedback.hh"
#include "throttle/throttle_policy.hh"

namespace ecdp
{

/** Fixed aggressiveness: never moves a slot. */
class StaticPolicy final : public ThrottlePolicy
{
  public:
    explicit StaticPolicy(const PolicyContext &) {}

    const char *name() const override { return "static"; }

    ThrottleDecision
    onIntervalEnd(std::size_t /*slot*/,
                  const std::vector<FeedbackSnapshot> & /*snapshots*/,
                  const IntervalContext & /*interval*/) override
    {
        return ThrottleDecision::Nothing;
    }
};

/**
 * Coordinated prefetcher throttling — the paper's second contribution
 * (Section 4.2). At every interval each slot decides its own
 * aggressiveness from its accuracy and coverage *and its rival's
 * coverage*, following the five heuristics of Table 3 with the
 * thresholds of Table 4. The rules are symmetric and
 * prefetcher-agnostic, so the same rules serve every slot.
 */
class CoordinatedPolicy final : public ThrottlePolicy
{
  public:
    explicit CoordinatedPolicy(const PolicyContext &ctx)
        : thresholds_(ctx.coord)
    {}

    const char *name() const override { return "coordinated"; }

    /** Table 3: slot @p slot's decision from its own coverage and
     *  accuracy and its rival's coverage. */
    ThrottleDecision
    onIntervalEnd(std::size_t slot,
                  const std::vector<FeedbackSnapshot> &snapshots,
                  const IntervalContext &interval) override;

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

  private:
    enum class AccClass { Low, Medium, High };

    AccClass classifyAccuracy(double accuracy) const;

    CoordinatedThresholds thresholds_;
};

/**
 * Feedback-directed prefetching after Srinath et al. (HPCA 2007) —
 * the Section 6.5 comparison. FDP throttles each slot *individually*
 * from its own accuracy, lateness and pollution. Unlike coordinated
 * throttling it never looks at the rival prefetcher, which is
 * precisely the deficiency the paper's comparison exposes. The
 * decision table is reconstructed from the published heuristic: high
 * accuracy rewards lateness with more aggressiveness; medium accuracy
 * throttles down when polluting; low accuracy always throttles down.
 */
class FdpPolicy final : public ThrottlePolicy
{
  public:
    explicit FdpPolicy(const PolicyContext &ctx) : thresholds_(ctx.fdp)
    {}

    const char *name() const override { return "fdp"; }

    /** Decide from slot @p slot's own snapshot only. */
    ThrottleDecision
    onIntervalEnd(std::size_t slot,
                  const std::vector<FeedbackSnapshot> &snapshots,
                  const IntervalContext &interval) override;

  private:
    FdpThresholds thresholds_;
};

/**
 * PAB-style multi-prefetcher selection after Gendler et al. — the
 * Section 7.4 comparison. It tracks each slot's accuracy over its
 * last PolicyContext::pabWindow resolved prefetches and, at every
 * interval end, keeps only the most accurate slot enabled (ties to
 * the lowest slot, so the paper's pair ties to the primary). It flips
 * enable bits and never moves a level. The paper shows this degrades
 * performance because it ignores coverage and cannot modulate
 * aggressiveness.
 */
class PabPolicy final : public ThrottlePolicy
{
  public:
    explicit PabPolicy(const PolicyContext &ctx);

    const char *name() const override { return "pab"; }

    bool wantsOutcomes() const override { return true; }

    void onPrefetchOutcome(std::size_t slot, bool used) override;

    void selectEnabled(std::vector<std::uint8_t> &enabled) override;

    ThrottleDecision
    onIntervalEnd(std::size_t /*slot*/,
                  const std::vector<FeedbackSnapshot> & /*snapshots*/,
                  const IntervalContext & /*interval*/) override
    {
        return ThrottleDecision::Nothing;
    }

    /** Sliding-window accuracy of slot @p slot (1.0 before any
     *  outcome: no evidence reads as accurate). */
    double accuracy(std::size_t slot) const;

  private:
    unsigned window_;
    std::vector<std::deque<bool>> outcomes_;
};

} // namespace ecdp

#endif // ECDP_THROTTLE_POLICIES_HH
