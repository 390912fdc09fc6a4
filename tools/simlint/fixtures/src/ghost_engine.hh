// Intentionally-broken header seeding both legs of the
// engine-conformance rule (see fixtures/README.md):
//   - GhostEngine inherits PrefetchEngine but no make<...> or
//     make_unique<...> anywhere in this fixture tree constructs it,
//     so it could never come out of the engine table.
//   - "phantom" has a kEngines row but no {"phantom", WorkloadKind...}
//     fixture row under tests/, so the conformance battery would
//     never exercise it.
// (Never built; only scanned.)

#ifndef ECDP_SIMLINT_FIXTURE_GHOST_ENGINE_HH
#define ECDP_SIMLINT_FIXTURE_GHOST_ENGINE_HH

namespace fixture
{

class PrefetchEngine;
struct EngineRow;

class GhostEngine final : public PrefetchEngine
{
};

constexpr EngineRow kEngines[] = {
    {"phantom", nullptr},
};

} // namespace fixture

#endif // ECDP_SIMLINT_FIXTURE_GHOST_ENGINE_HH
