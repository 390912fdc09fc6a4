/**
 * @file
 * The pluggable throttle-decision interface and its string-keyed
 * registry.
 *
 * The paper's Table 3 coordinated rules and the FDP comparison point
 * are two hand-built policies over the same per-interval feedback
 * snapshots (accuracy, coverage, lateness, pollution). ThrottlePolicy
 * factors that decision out of the MemorySystem: at every interval
 * boundary each engine-stack slot asks the configured policy for an
 * Up/Down/Nothing move, given the pre-decision snapshots of the whole
 * stack plus interval-level progress deltas (cycles, instructions,
 * bus transactions). Rule policies ignore the deltas; learned
 * policies ("tabular-rl") use them as their reward signal.
 *
 * PolicyRegistry mirrors the PR-7 EngineRegistry: built-in policies
 * are registered on first use by an explicit call (never static
 * initializers), duplicate names throw, and unknown names fail with a
 * diagnostic listing every known policy. The conformance battery in
 * tests/test_throttle_policy.cc instantiates per registry entry, and
 * the simlint `policy-conformance` rule fails the build if a
 * ThrottlePolicy subclass skips registration or the fixture table.
 */

#ifndef ECDP_THROTTLE_THROTTLE_POLICY_HH
#define ECDP_THROTTLE_THROTTLE_POLICY_HH

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "memsim/types.hh"
#include "obs/metrics.hh"
#include "throttle/coordinated_throttler.hh"
#include "throttle/fdp_throttler.hh"

namespace ecdp
{

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
    CoordinatedThrottler::Thresholds coord{};
    FdpThrottler::Thresholds fdp{};
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
 * Contract, enforced per registry entry by the conformance battery:
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

    /** Registry name ("coordinated", "fdp", "pab", "static",
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

/**
 * Process-wide string-keyed policy factory registry, mirroring
 * EngineRegistry: explicit builtin registration from instance(),
 * duplicate add() throws, unknown create() lists the known names.
 */
class PolicyRegistry
{
  public:
    using Factory = std::function<std::unique_ptr<ThrottlePolicy>(
        const PolicyContext &)>;

    /** The process-wide registry, builtins included. */
    static PolicyRegistry &instance();

    /**
     * Register a factory under @p name.
     * @throws std::logic_error if the name is already taken.
     */
    void add(const std::string &name, Factory factory);

    bool contains(const std::string &name) const;

    /** All registered names, sorted. */
    std::vector<std::string> names() const;

    /**
     * Create a policy by name.
     * @throws std::invalid_argument naming the unknown policy and
     *         listing the known ones.
     */
    std::unique_ptr<ThrottlePolicy>
    create(const std::string &name, const PolicyContext &ctx) const;

  private:
    std::map<std::string, Factory> factories_;
};

/** Registers the built-in policies (defined in policies.cc; called
 *  once from PolicyRegistry::instance()). */
void registerBuiltinPolicies(PolicyRegistry &policies);

} // namespace ecdp

#endif // ECDP_THROTTLE_THROTTLE_POLICY_HH
