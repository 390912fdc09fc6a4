/**
 * @file
 * Opt-in persistent cache of simulation results.
 *
 * When the ECDP_RESULT_CACHE environment variable names a directory,
 * ExperimentContext::run() stores every finished RunStats there as
 * one JSON file per (workload, configuration) pair, keyed by
 * configHash() over the actual SystemConfig fields — so re-running a
 * bench after an unrelated code change skips completed simulations,
 * and a changed configuration can never satisfy a lookup. Counters
 * are written verbatim and doubles with max_digits10 precision, so a
 * cache hit reproduces the original run bit-for-bit.
 *
 * File format: `<dir>/<workload>-<hash16>.json`, a single object with
 * a `version` field (bumped whenever RunStats changes shape; stale
 * versions read as misses).
 */

#ifndef ECDP_RUNNER_RESULT_CACHE_HH
#define ECDP_RUNNER_RESULT_CACHE_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "sim/config.hh"

namespace ecdp
{
namespace runner
{

class ResultCache
{
  public:
    /** Cache format version; readers reject anything else.
     *  v2 added the per-interval feedback series (intervalSeries);
     *  v3 added per-engine-slot totals (engineStats) and the extra
     *  interval slots of N-engine stacks; v4 keeps everything per
     *  slot (no fixed primary/LDS pair) and keys on a configHash that
     *  always covers the engine stack and the throttle policy. */
    static constexpr int kVersion = 4;

    /**
     * Cache configured by ECDP_RESULT_CACHE, or nullptr when the
     * variable is unset/empty (caching off, the default).
     */
    static std::unique_ptr<ResultCache> fromEnv();

    /** @param dir Cache directory; created on first store. */
    explicit ResultCache(std::string dir);

    /**
     * Cached stats for @p name under the config hashed to @p hash,
     * or nullopt on miss (absent, unreadable, stale version, or hash
     * mismatch — all treated identically).
     */
    std::optional<RunStats> load(const std::string &name,
                                 std::uint64_t hash) const;

    /** Persist @p stats; failures are silently ignored (the cache is
     *  an accelerator, never a correctness dependency). */
    void store(const std::string &name, std::uint64_t hash,
               const RunStats &stats) const;

    const std::string &directory() const { return dir_; }

    /** `<dir>/<workload>-<hash16>.json` (exposed for tests). */
    std::string entryPath(const std::string &name,
                          std::uint64_t hash) const;

  private:
    std::string dir_;
};

} // namespace runner
} // namespace ecdp

#endif // ECDP_RUNNER_RESULT_CACHE_HH
