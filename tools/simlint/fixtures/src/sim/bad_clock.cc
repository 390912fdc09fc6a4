// Intentionally-broken source: seeds the sim-clock rule. See
// fixtures/README.md.

#include <chrono>
#include <cstdint>

namespace fixture
{

// sim-clock: a wall-clock probe around a simulated-machine tick.
std::uint64_t
timedTick()
{
    const auto t0 = std::chrono::steady_clock::now();
    const auto t1 = std::chrono::steady_clock::now();
    return static_cast<std::uint64_t>((t1 - t0).count());
}

} // namespace fixture
