/**
 * @file
 * Tabular-RL throttle policy: an epsilon-greedy Q-learning agent over
 * the same discretized (accuracy class, coverage bucket, bandwidth
 * bucket) state the paper's Table 3/4 rule matrix consumes — the
 * learned-coordination shape of the RL-prefetching paper in PAPERS.md,
 * scaled down to one small per-slot table.
 *
 * State (48 entries per slot):
 *   accuracy class  — Low / Medium / High against the coordinated
 *                     thresholds (aLow / aHigh), exactly the Table 3
 *                     discretization;
 *   coverage bucket — 4 buckets against T_coverage
 *                     (< T/2, < T, < 2T, >= 2T);
 *   bandwidth bucket— 4 buckets of interval bus transactions per
 *                     kilocycle (< 8, < 24, < 48, >= 48).
 * Actions: Up / Down / Nothing (the Table 2 aggressiveness moves).
 * Reward (shared by all slots, computed once per interval):
 *   r = (IPC_t - IPC_{t-1}) - kBwPenalty * (bus transactions/cycle)_t
 * i.e. delta-IPC minus a bandwidth price, the paper's two axes.
 *
 * Determinism: all exploration randomness comes from one xorshift64*
 * stream seeded by PolicyContext::seed (which SystemConfig folds into
 * configHash alongside the policy name). No wall clock, no address
 * entropy, no unordered containers — two runs with the same seed are
 * byte-identical, different seeds diverge (pinned by the
 * seeded-determinism tests).
 */

#ifndef ECDP_THROTTLE_TABULAR_RL_POLICY_HH
#define ECDP_THROTTLE_TABULAR_RL_POLICY_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "throttle/throttle_policy.hh"

namespace ecdp
{

/**
 * Epsilon-greedy tabular Q-learning over discretized feedback.
 */
class TabularRlPolicy final : public ThrottlePolicy
{
  public:
    /** @{ Discretization (see file comment). */
    static constexpr unsigned kAccClasses = 3;
    static constexpr unsigned kCovBuckets = 4;
    static constexpr unsigned kBwBuckets = 4;
    static constexpr unsigned kStates =
        kAccClasses * kCovBuckets * kBwBuckets;
    static constexpr unsigned kActions = 3;
    /** @} */

    /** @{ Hyperparameters (fixed; the seed is the only config knob). */
    static constexpr double kAlpha = 0.2;
    static constexpr double kGamma = 0.5;
    static constexpr double kEpsilon = 0.1;
    static constexpr double kBwPenalty = 0.5;
    /** @} */

    explicit TabularRlPolicy(const PolicyContext &ctx);

    const char *name() const override { return "tabular-rl"; }

    ThrottleDecision
    onIntervalEnd(std::size_t slot,
                  const std::vector<FeedbackSnapshot> &snapshots,
                  const IntervalContext &interval) override;

    std::string intervalStateJson() const override;
    std::string stateJson() const override;
    void bindCounters(obs::MetricScope &scope) override;

    /** @{ Introspection for tests. */
    std::uint64_t intervalsSeen() const { return intervalsSeen_; }
    std::uint64_t explorations() const { return explorations_; }
    /** The state index the discretizer assigns (exposed so tests can
     *  pin the encoding without reaching into the table). */
    unsigned discretize(const FeedbackSnapshot &snap,
                        const IntervalContext &interval) const;
    /** @} */

  private:
    /** One slot's Q-table and bookkeeping. */
    struct SlotAgent
    {
        std::array<std::array<double, kActions>, kStates> q{};
        std::array<std::uint64_t, kStates> visits{};
        /** Previous (state, action) pair, -1 before the first
         *  decision — the Q-update needs one interval of lag. */
        int prevState = -1;
        int prevAction = -1;
    };

    /** What each slot decided this interval (for the stats series). */
    struct SlotDecision
    {
        unsigned state = 0;
        unsigned action = 0;
        bool explored = false;
    };

    SlotAgent &agentFor(std::size_t slot);
    std::uint64_t nextRandom();
    double rand01();
    /** Fold interval-level reward bookkeeping (slot-0 call only). */
    void beginInterval(const IntervalContext &interval);
    static ThrottleDecision toDecision(unsigned action);

    CoordinatedThresholds coord_;
    std::uint64_t seed_;
    std::uint64_t rng_;
    std::vector<SlotAgent> agents_;
    std::vector<SlotDecision> lastDecisions_;

    /** @{ Reward state: previous interval's IPC and this interval's
     *  computed reward. */
    bool havePrevIpc_ = false;
    double prevIpc_ = 0.0;
    double reward_ = 0.0;
    /** @} */

    std::uint64_t intervalsSeen_ = 0;
    std::uint64_t explorations_ = 0;
    std::uint64_t updates_ = 0;

    /** @{ Registered counters (optional; null without a registry). */
    obs::Counter *explorationsCtr_ = nullptr;
    obs::Counter *updatesCtr_ = nullptr;
    obs::Counter *actionCtr_[kActions] = {};
    /** @} */
};

} // namespace ecdp

#endif // ECDP_THROTTLE_TABULAR_RL_POLICY_HH
