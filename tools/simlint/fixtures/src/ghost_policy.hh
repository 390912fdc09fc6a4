// Intentionally-broken header seeding both legs of the
// policy-conformance rule (see fixtures/README.md):
//   - GhostPolicy inherits ThrottlePolicy but no make<...> or
//     make_unique<...> anywhere in this fixture tree constructs it,
//     so it could never come out of the policy table.
//   - "ghost-policy" has a kPolicies row but no
//     {"ghost-policy", PolicyProbe...} fixture row under tests/, so
//     the conformance battery would never exercise it.
// (Never built; only scanned.)

#ifndef ECDP_SIMLINT_FIXTURE_GHOST_POLICY_HH
#define ECDP_SIMLINT_FIXTURE_GHOST_POLICY_HH

namespace fixture
{

class ThrottlePolicy;
struct PolicyRow;

class GhostPolicy final : public ThrottlePolicy
{
};

constexpr PolicyRow kPolicies[] = {
    {"ghost-policy", nullptr},
};

} // namespace fixture

#endif // ECDP_SIMLINT_FIXTURE_GHOST_POLICY_HH
