#include "throttle/tabular_rl_policy.hh"

#include <algorithm>
#include <sstream>

namespace ecdp
{

namespace
{

/** Bus-transactions-per-kilocycle cut points for the bandwidth
 *  buckets. An 8 B bus moving 128 B blocks saturates around 60+
 *  transactions per kilocycle on these workloads; the cuts split
 *  idle / light / loaded / saturated. */
constexpr double kBwCuts[TabularRlPolicy::kBwBuckets - 1] = {8.0, 24.0,
                                                             48.0};

} // namespace

TabularRlPolicy::TabularRlPolicy(const PolicyContext &ctx)
    : coord_(ctx.coord),
      // A zero seed would stick the xorshift stream at zero forever;
      // remap it to a fixed odd constant instead of rejecting it.
      seed_(ctx.seed ? ctx.seed : 0x9e3779b97f4a7c15ull),
      rng_(seed_)
{
}

std::uint64_t
TabularRlPolicy::nextRandom()
{
    // xorshift64* — 3 shifts + 1 multiply, full 2^64-1 period.
    std::uint64_t x = rng_;
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    rng_ = x;
    return x * 0x2545f4914f6cdd1dull;
}

double
TabularRlPolicy::rand01()
{
    // Top 53 bits -> uniform double in [0, 1).
    return static_cast<double>(nextRandom() >> 11) *
           (1.0 / 9007199254740992.0);
}

unsigned
TabularRlPolicy::discretize(const FeedbackSnapshot &snap,
                            const IntervalContext &interval) const
{
    // Accuracy class: the Table 3 discretization (Low/Medium/High
    // against aLow/aHigh).
    unsigned acc = 2;
    if (snap.accuracy < coord_.aLow)
        acc = 0;
    else if (snap.accuracy < coord_.aHigh)
        acc = 1;

    // Coverage bucket against T_coverage.
    const double t = coord_.tCoverage;
    unsigned cov = 3;
    if (snap.coverage < t / 2.0)
        cov = 0;
    else if (snap.coverage < t)
        cov = 1;
    else if (snap.coverage < 2.0 * t)
        cov = 2;

    // Bandwidth bucket: interval bus transactions per kilocycle.
    double per_kc = 0.0;
    if (interval.deltaCycles > 0) {
        per_kc = 1000.0 *
                 static_cast<double>(interval.deltaBusTransactions) /
                 static_cast<double>(interval.deltaCycles);
    }
    unsigned bw = kBwBuckets - 1;
    for (unsigned i = 0; i < kBwBuckets - 1; ++i) {
        if (per_kc < kBwCuts[i]) {
            bw = i;
            break;
        }
    }

    return (acc * kCovBuckets + cov) * kBwBuckets + bw;
}

TabularRlPolicy::SlotAgent &
TabularRlPolicy::agentFor(std::size_t slot)
{
    if (agents_.size() <= slot)
        agents_.resize(slot + 1);
    return agents_[slot];
}

void
TabularRlPolicy::beginInterval(const IntervalContext &interval)
{
    ++intervalsSeen_;
    lastDecisions_.clear();

    double ipc = 0.0;
    double bus_per_cycle = 0.0;
    if (interval.deltaCycles > 0) {
        ipc = static_cast<double>(interval.deltaInstructions) /
              static_cast<double>(interval.deltaCycles);
        bus_per_cycle =
            static_cast<double>(interval.deltaBusTransactions) /
            static_cast<double>(interval.deltaCycles);
    }
    // Delta-IPC minus a bandwidth price. The first interval has no
    // previous IPC; its reward is never consumed (no slot has a
    // previous action yet), so 0 is fine.
    reward_ = havePrevIpc_ ? (ipc - prevIpc_) - kBwPenalty * bus_per_cycle
                           : 0.0;
    prevIpc_ = ipc;
    havePrevIpc_ = true;
}

ThrottleDecision
TabularRlPolicy::toDecision(unsigned action)
{
    switch (action) {
      case 0: return ThrottleDecision::Up;
      case 1: return ThrottleDecision::Down;
      default: return ThrottleDecision::Nothing;
    }
}

ThrottleDecision
TabularRlPolicy::onIntervalEnd(
    std::size_t slot, const std::vector<FeedbackSnapshot> &snapshots,
    const IntervalContext &interval)
{
    // Slots are visited in increasing order per interval (interface
    // contract), so the slot-0 call folds the shared reward.
    if (slot == 0)
        beginInterval(interval);

    SlotAgent &agent = agentFor(slot);
    const unsigned state = discretize(snapshots[slot], interval);

    // One-step Q-update for the previous interval's action, now that
    // its outcome (this interval's reward and successor state) is in.
    if (agent.prevState >= 0) {
        const auto &next_row = agent.q[state];
        const double best =
            *std::max_element(next_row.begin(), next_row.end());
        double &q = agent.q[agent.prevState][agent.prevAction];
        q += kAlpha * (reward_ + kGamma * best - q);
        ++updates_;
        if (updatesCtr_)
            updatesCtr_->inc();
    }

    ++agent.visits[state];

    // Epsilon-greedy action selection; greedy ties break to the
    // lowest action index (deterministic).
    unsigned action = 0;
    const bool explore = rand01() < kEpsilon;
    if (explore) {
        action = static_cast<unsigned>(nextRandom() % kActions);
        ++explorations_;
        if (explorationsCtr_)
            explorationsCtr_->inc();
    } else {
        const auto &row = agent.q[state];
        for (unsigned a = 1; a < kActions; ++a) {
            if (row[a] > row[action])
                action = a;
        }
    }
    if (actionCtr_[action])
        actionCtr_[action]->inc();

    agent.prevState = static_cast<int>(state);
    agent.prevAction = static_cast<int>(action);
    lastDecisions_.push_back(SlotDecision{state, action, explore});
    return toDecision(action);
}

std::string
TabularRlPolicy::intervalStateJson() const
{
    if (lastDecisions_.empty())
        return "";
    std::ostringstream os;
    os << "{\"reward\":" << reward_ << ",\"slots\":[";
    for (std::size_t i = 0; i < lastDecisions_.size(); ++i) {
        const SlotDecision &d = lastDecisions_[i];
        os << (i ? "," : "") << "{\"state\":" << d.state
           << ",\"action\":" << d.action
           << ",\"explored\":" << (d.explored ? "true" : "false")
           << "}";
    }
    os << "]}";
    return os.str();
}

std::string
TabularRlPolicy::stateJson() const
{
    std::ostringstream os;
    os << "{\"policy\":\"tabular-rl\",\"seed\":" << seed_
       << ",\"intervals\":" << intervalsSeen_
       << ",\"explorations\":" << explorations_
       << ",\"updates\":" << updates_ << ",\"slots\":[";
    for (std::size_t i = 0; i < agents_.size(); ++i) {
        const SlotAgent &agent = agents_[i];
        std::uint64_t visits = 0;
        unsigned visited_states = 0;
        double q_abs_sum = 0.0;
        for (unsigned s = 0; s < kStates; ++s) {
            visits += agent.visits[s];
            if (agent.visits[s] > 0)
                ++visited_states;
            for (unsigned a = 0; a < kActions; ++a) {
                const double q = agent.q[s][a];
                q_abs_sum += q < 0.0 ? -q : q;
            }
        }
        os << (i ? "," : "") << "{\"visits\":" << visits
           << ",\"visitedStates\":" << visited_states
           << ",\"qAbsSum\":" << q_abs_sum << "}";
    }
    os << "]}";
    return os.str();
}

void
TabularRlPolicy::bindCounters(obs::MetricScope &scope)
{
    explorationsCtr_ = &scope.counter("explorations");
    updatesCtr_ = &scope.counter("updates");
    actionCtr_[0] = &scope.counter("actions.up");
    actionCtr_[1] = &scope.counter("actions.down");
    actionCtr_[2] = &scope.counter("actions.nothing");
}

} // namespace ecdp
