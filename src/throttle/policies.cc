#include "throttle/policies.hh"

#include <cassert>
#include <memory>

#include "memsim/name_table.hh"
#include "throttle/tabular_rl_policy.hh"

namespace ecdp
{

AggLevel
applyDecision(AggLevel level, ThrottleDecision decision)
{
    int v = static_cast<int>(level);
    switch (decision) {
      case ThrottleDecision::Up:
        v = v + 1;
        break;
      case ThrottleDecision::Down:
        v = v - 1;
        break;
      case ThrottleDecision::Nothing:
        break;
    }
    if (v < 0)
        v = 0;
    if (v > static_cast<int>(kNumAggLevels) - 1)
        v = static_cast<int>(kNumAggLevels) - 1;
    return static_cast<AggLevel>(v);
}

CoordinatedPolicy::AccClass
CoordinatedPolicy::classifyAccuracy(double accuracy) const
{
    if (accuracy < thresholds_.aLow)
        return AccClass::Low;
    if (accuracy < thresholds_.aHigh)
        return AccClass::Medium;
    return AccClass::High;
}

ThrottleDecision
CoordinatedPolicy::onIntervalEnd(
    std::size_t slot, const std::vector<FeedbackSnapshot> &snapshots,
    const IntervalContext & /*interval*/)
{
    const FeedbackSnapshot &self = snapshots[slot];
    const bool self_cov_high = self.coverage >= thresholds_.tCoverage;
    const bool rival_cov_high =
        rival(snapshots, slot).coverage >= thresholds_.tCoverage;
    const AccClass acc = classifyAccuracy(self.accuracy);

    // Case 1: high coverage -> always keep at maximum aggressiveness.
    if (self_cov_high)
        return ThrottleDecision::Up;

    // Case 2: low coverage, low accuracy -> throttle down.
    if (acc == AccClass::Low)
        return ThrottleDecision::Down;

    // Case 3: both coverages low, decent accuracy -> give the deciding
    // prefetcher a chance to earn coverage.
    if (!rival_cov_high)
        return ThrottleDecision::Up;

    // Rival coverage is high from here on.
    // Case 4: medium accuracy -> get out of the rival's way.
    if (acc == AccClass::Medium)
        return ThrottleDecision::Down;

    // Case 5: high accuracy, rival covering well -> leave as is.
    return ThrottleDecision::Nothing;
}

FeedbackSnapshot
CoordinatedPolicy::rival(const std::vector<FeedbackSnapshot> &all,
                         std::size_t self)
{
    FeedbackSnapshot best;
    best.coverage = -1.0;
    for (std::size_t j = 0; j < all.size(); ++j) {
        if (j == self)
            continue;
        if (all[j].coverage > best.coverage)
            best = all[j];
    }
    if (best.coverage < 0.0)
        return FeedbackSnapshot{}; // no rival: neutral snapshot
    // Normalize an idle best rival (issued nothing, covers nothing)
    // to the same neutral snapshot a lone engine gets: the rules only
    // read the rival's coverage, which is 0.0 either way, but
    // without this a slot in an N-engine stack whose rivals are all
    // idle would see the idle rival's held accuracy/lateness leak
    // through where a lone engine sees defaults — the asymmetry the
    // rival property tests pin down.
    if (!best.anyPrefetches && best.coverage == 0.0)
        return FeedbackSnapshot{};
    return best;
}

ThrottleDecision
FdpPolicy::onIntervalEnd(std::size_t slot,
                         const std::vector<FeedbackSnapshot> &snapshots,
                         const IntervalContext & /*interval*/)
{
    const FeedbackSnapshot &self = snapshots[slot];
    const bool late = self.lateness >= thresholds_.tLateness;
    const bool polluting = self.pollution >= thresholds_.tPollution;

    if (self.accuracy >= thresholds_.aHigh) {
        // Accurate prefetches that arrive late benefit from running
        // further ahead.
        return late ? ThrottleDecision::Up : ThrottleDecision::Nothing;
    }
    if (self.accuracy >= thresholds_.aLow) {
        if (polluting)
            return ThrottleDecision::Down;
        return late ? ThrottleDecision::Up : ThrottleDecision::Nothing;
    }
    // Low accuracy: always back off.
    return ThrottleDecision::Down;
}

PabPolicy::PabPolicy(const PolicyContext &ctx)
    : window_(ctx.pabWindow), outcomes_(ctx.slots)
{
    assert(window_ > 0);
    assert(!outcomes_.empty());
}

void
PabPolicy::onPrefetchOutcome(std::size_t slot, bool used)
{
    assert(slot < outcomes_.size());
    auto &ring = outcomes_[slot];
    ring.push_back(used);
    if (ring.size() > window_)
        ring.pop_front();
}

double
PabPolicy::accuracy(std::size_t slot) const
{
    assert(slot < outcomes_.size());
    const auto &ring = outcomes_[slot];
    if (ring.empty())
        return 1.0; // no evidence yet: assume accurate
    unsigned used = 0;
    for (bool u : ring)
        used += u;
    return static_cast<double>(used) /
           static_cast<double>(ring.size());
}

void
PabPolicy::selectEnabled(std::vector<std::uint8_t> &enabled)
{
    // Strict greater-than keeps ties at the lowest slot, which for
    // the paper's pair means ties go to the primary.
    std::size_t keep = 0;
    double best = accuracy(0);
    for (std::size_t i = 1; i < outcomes_.size(); ++i) {
        const double acc = accuracy(i);
        if (acc > best) {
            keep = i;
            best = acc;
        }
    }
    for (std::size_t i = 0; i < enabled.size(); ++i)
        enabled[i] = i == keep ? 1 : 0;
}

namespace
{

template <typename Policy>
std::unique_ptr<ThrottlePolicy>
make(const PolicyContext &ctx)
{
    return std::make_unique<Policy>(ctx);
}

constexpr PolicyRow kPolicies[] = {
    {"coordinated", make<CoordinatedPolicy>},
    {"fdp", make<FdpPolicy>},
    {"pab", make<PabPolicy>},
    {"static", make<StaticPolicy>},
    {"tabular-rl", make<TabularRlPolicy>},
};

} // namespace

std::span<const PolicyRow>
policyTable()
{
    return kPolicies;
}

const PolicyRow &
findPolicy(std::string_view name)
{
    return findByName(kPolicies, name, "throttle policy");
}

} // namespace ecdp
