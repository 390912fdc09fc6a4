/**
 * @file
 * The built-in throttle policies: the ports of the paper's rule
 * matrices onto the ThrottlePolicy interface, the PAB selector of the
 * Section 7.4 comparison, and the static (no-throttling) policy. The
 * tabular-RL policy lives in tabular_rl_policy.cc.
 *
 * The ports are thin adapters over the existing CoordinatedThrottler
 * and FdpThrottler so the Table 3/4 and FDP decision logic has exactly
 * one implementation — the unit tests keep pinning the matrices, and
 * the pinned goldens (tests/golden) pin the adapters.
 */

#include "throttle/throttle_policy.hh"

#include <memory>

#include "prefetch/pab_selector.hh"
#include "throttle/tabular_rl_policy.hh"

namespace ecdp
{

namespace
{

/** Fixed aggressiveness: never moves a slot. */
class StaticPolicy final : public ThrottlePolicy
{
  public:
    const char *name() const override { return "static"; }

    ThrottleDecision
    onIntervalEnd(std::size_t /*slot*/,
                  const std::vector<FeedbackSnapshot> & /*snapshots*/,
                  const IntervalContext & /*interval*/) override
    {
        return ThrottleDecision::Nothing;
    }
};

/** The paper's Table 3 coordinated rules (Section 4.2). */
class CoordinatedPolicy final : public ThrottlePolicy
{
  public:
    explicit CoordinatedPolicy(const PolicyContext &ctx)
        : throttler_(ctx.coord)
    {}

    const char *name() const override { return "coordinated"; }

    ThrottleDecision
    onIntervalEnd(std::size_t slot,
                  const std::vector<FeedbackSnapshot> &snapshots,
                  const IntervalContext & /*interval*/) override
    {
        return throttler_.decide(
            snapshots[slot],
            CoordinatedThrottler::rival(snapshots, slot));
    }

  private:
    CoordinatedThrottler throttler_;
};

/** Per-slot feedback-directed prefetching (Section 6.5 comparison). */
class FdpPolicy final : public ThrottlePolicy
{
  public:
    explicit FdpPolicy(const PolicyContext &ctx) : throttler_(ctx.fdp)
    {}

    const char *name() const override { return "fdp"; }

    ThrottleDecision
    onIntervalEnd(std::size_t slot,
                  const std::vector<FeedbackSnapshot> &snapshots,
                  const IntervalContext & /*interval*/) override
    {
        return throttler_.decide(snapshots[slot]);
    }

  private:
    FdpThrottler throttler_;
};

/**
 * Gendler-style PAB (Section 7.4): at every interval end, keep only
 * the slot with the best accuracy over its last pabWindow resolved
 * prefetches enabled. It flips enable bits and never moves a level.
 */
class PabPolicy final : public ThrottlePolicy
{
  public:
    explicit PabPolicy(const PolicyContext &ctx)
        : selector_(ctx.pabWindow, ctx.slots)
    {}

    const char *name() const override { return "pab"; }

    bool wantsOutcomes() const override { return true; }

    void onPrefetchOutcome(std::size_t slot, bool used) override
    {
        selector_.recordOutcome(static_cast<unsigned>(slot), used);
    }

    void selectEnabled(std::vector<std::uint8_t> &enabled) override
    {
        const unsigned keep = selector_.select();
        for (std::size_t i = 0; i < enabled.size(); ++i)
            enabled[i] = i == keep ? 1 : 0;
    }

    ThrottleDecision
    onIntervalEnd(std::size_t /*slot*/,
                  const std::vector<FeedbackSnapshot> & /*snapshots*/,
                  const IntervalContext & /*interval*/) override
    {
        return ThrottleDecision::Nothing;
    }

  private:
    PabSelector selector_;
};

} // namespace

void
registerBuiltinPolicies(PolicyRegistry &policies)
{
    policies.add("static", [](const PolicyContext &) {
        return std::make_unique<StaticPolicy>();
    });
    policies.add("coordinated", [](const PolicyContext &ctx) {
        return std::make_unique<CoordinatedPolicy>(ctx);
    });
    policies.add("fdp", [](const PolicyContext &ctx) {
        return std::make_unique<FdpPolicy>(ctx);
    });
    policies.add("pab", [](const PolicyContext &ctx) {
        return std::make_unique<PabPolicy>(ctx);
    });
    policies.add("tabular-rl", [](const PolicyContext &ctx) {
        return std::make_unique<TabularRlPolicy>(ctx);
    });
}

} // namespace ecdp
