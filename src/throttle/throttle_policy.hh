/**
 * @file
 * The pluggable throttle-decision interface and the policy table.
 *
 * The paper's Table 3 coordinated rules and the FDP comparison point
 * are two hand-built policies over the same per-interval feedback
 * snapshots (accuracy, coverage, lateness, pollution). ThrottlePolicy
 * factors that decision out of the MemorySystem: at every interval
 * boundary each engine-stack slot asks the configured policy for an
 * Up/Down/Nothing move, given the pre-decision snapshots of the whole
 * stack plus interval-level progress deltas (cycles, instructions,
 * bus transactions). Rule policies ignore the deltas; learned
 * policies ("tabular-rl") use them as their reward signal. The
 * MemorySystem applies every policy's decision with applyDecision().
 *
 * Each policy is one class (policies.hh, tabular_rl_policy.hh) found
 * by name in one constant table (policyTable(), in policies.cc). The
 * conformance battery in tests/test_throttle_policy.cc instantiates
 * per table row, and the simlint `policy-conformance` rule fails the
 * build if a ThrottlePolicy class has no row or a row has no fixture.
 */

#ifndef ECDP_THROTTLE_THROTTLE_POLICY_HH
#define ECDP_THROTTLE_THROTTLE_POLICY_HH

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "memsim/types.hh"
#include "obs/metrics.hh"
#include "prefetch/prefetcher.hh"
#include "throttle/feedback.hh"

namespace ecdp
{

/** A policy's move for one slot at an interval end. */
enum class ThrottleDecision { Up, Down, Nothing };

/** Apply @p decision to @p level, clamped to the four Table 2
 *  levels. */
AggLevel applyDecision(AggLevel level, ThrottleDecision decision);

/** Table 4 thresholds of the coordinated rules (Section 4.2). */
struct CoordinatedThresholds
{
    double tCoverage = 0.2;
    double aLow = 0.4;
    double aHigh = 0.7;
};

/** FDP's thresholds (Srinath et al.; the Section 6.5 comparison). Its
 *  interval is SystemConfig::intervalEvictions, as for every policy. */
struct FdpThresholds
{
    double aHigh = 0.75;
    double aLow = 0.40;
    double tLateness = 0.10;
    double tPollution = 0.005;
    /** Pollution filter entries. */
    unsigned pollutionFilterEntries = 4096;
};

/**
 * Interval-level system observation shared by every slot's decision:
 * the deltas since the previous interval boundary. deltaInstructions
 * is 0 when no progress source is attached (tests that drive a bare
 * MemorySystem); the built-in rule policies never read the context,
 * so their decisions cannot depend on it.
 */
struct IntervalContext
{
    /** Cycle at which the interval ended. */
    Cycle cycle{};
    std::uint64_t deltaCycles = 0;
    std::uint64_t deltaInstructions = 0;
    std::uint64_t deltaBusTransactions = 0;
};

/**
 * Everything a policy factory may need at construction time — the
 * SystemConfig throttle knobs as plain values, so the throttle layer
 * stays independent of sim/.
 */
struct PolicyContext
{
    CoordinatedThresholds coord{};
    FdpThresholds fdp{};
    /**
     * Exploration seed for randomized policies. All policy randomness
     * derives from it (never from wall clock or address entropy), so
     * equal seeds give byte-identical runs — the determinism the
     * seeded-replay tests pin down.
     */
    std::uint64_t seed = 1;
    /** Engine-stack slots the policy decides for. */
    unsigned slots = 2;
    /** Outcomes per slot in the "pab" accuracy window. */
    unsigned pabWindow = 64;
};

/**
 * One throttle-decision policy behind uniform hooks.
 *
 * Contract, enforced per table row by the conformance battery:
 *  - onIntervalEnd() is called once per stack slot at every interval
 *    boundary, slots in increasing order, with the same pre-decision
 *    @c snapshots vector (all snapshots are taken before any decision
 *    is applied) and the same IntervalContext — a stateful policy may
 *    therefore fold its per-interval bookkeeping on the slot-0 call;
 *  - policies are deterministic: the same snapshot/context sequence
 *    (and seed) produces the same decisions;
 *  - policies only *decide* — applying a decision to a slot's
 *    aggressiveness level stays with the MemorySystem.
 */
class ThrottlePolicy
{
  public:
    virtual ~ThrottlePolicy() = default;

    /** Table name ("coordinated", "fdp", "pab", "static",
     *  "tabular-rl"). */
    virtual const char *name() const = 0;

    /** Decide slot @p slot's aggressiveness move at an interval end. */
    virtual ThrottleDecision
    onIntervalEnd(std::size_t slot,
                  const std::vector<FeedbackSnapshot> &snapshots,
                  const IntervalContext &interval) = 0;

    /**
     * Whether the policy consumes onPrefetchOutcome(). Asked once at
     * construction; policies that answer false cost the prefetch
     * path no virtual call.
     */
    virtual bool wantsOutcomes() const { return false; }

    /** A prefetch of slot @p slot resolved: demanded (@p used), or
     *  evicted unused. Called only when wantsOutcomes(). */
    virtual void onPrefetchOutcome(std::size_t /*slot*/, bool /*used*/)
    {}

    /**
     * Interval end, before the level decisions: set the per-slot
     * enable bits (one entry per slot, nonzero = enabled). Selector
     * policies ("pab") switch slots off here; the default leaves
     * them as they are.
     */
    virtual void selectEnabled(std::vector<std::uint8_t> & /*enabled*/)
    {}

    /**
     * Compact JSON object describing the policy's state over the
     * interval just decided ("" = nothing to report). Non-empty
     * returns are embedded verbatim as intervalSeries[i]."policy";
     * the built-in rule policies return "" so default-policy stats
     * stay byte-identical to the pinned goldens.
     */
    virtual std::string intervalStateJson() const { return ""; }

    /** Final serialized policy state ("" = none) for RunStats. */
    virtual std::string stateJson() const { return ""; }

    /** Register policy-specific counters (actions, visits, ...). */
    virtual void bindCounters(obs::MetricScope & /*scope*/) {}
};

/** One policy-table row: a name and the factory behind it. */
struct PolicyRow
{
    std::string_view name;
    std::unique_ptr<ThrottlePolicy> (*make)(const PolicyContext &);
};

/** Every throttle policy, sorted by name. */
std::span<const PolicyRow> policyTable();

/**
 * The policy row named @p name; nothing is constructed. Throws
 * std::runtime_error naming @p name and every policy otherwise.
 */
const PolicyRow &findPolicy(std::string_view name);

} // namespace ecdp

#endif // ECDP_THROTTLE_THROTTLE_POLICY_HH
