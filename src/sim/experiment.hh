/**
 * @file
 * Experiment plumbing shared by the benchmark harnesses: the standard
 * configurations the paper evaluates, and a context that caches built
 * workloads, profiling runs, and simulation results across benches.
 */

#ifndef ECDP_SIM_EXPERIMENT_HH
#define ECDP_SIM_EXPERIMENT_HH

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "compiler/profiling_compiler.hh"
#include "memsim/thread_annotations.hh"
#include "sim/config.hh"
#include "sim/simulator.hh"
#include "workloads/workload.hh"

namespace ecdp
{

namespace server
{
class ResultStore;
} // namespace server

namespace obs
{
class TraceSession;
} // namespace obs

/** The named configurations of the evaluation. */
namespace configs
{

/** No prefetching at all. */
SystemConfig noPrefetch();

/** The Table 5 baseline: aggressive stream prefetcher only. */
SystemConfig baseline();

/** Stream + original (greedy) CDP — the Figure 2 configuration. */
SystemConfig streamCdp();

/** Stream + ECDP (compiler hints), no throttling. */
SystemConfig streamEcdp(const HintTable *hints);

/** Stream + original CDP + coordinated throttling. */
SystemConfig streamCdpThrottled();

/** The full proposal: stream + ECDP + coordinated throttling. */
SystemConfig fullProposal(const HintTable *hints);

/** Stream + DBP (Section 6.3). */
SystemConfig streamDbp();

/** Stream + Markov (Section 6.3). */
SystemConfig streamMarkov();

/** GHB G/DC alone (Section 6.3). */
SystemConfig ghbAlone();

/** GHB + ECDP hybrid (Section 6.3 orthogonality experiment). */
SystemConfig ghbEcdp(const HintTable *hints, bool throttled);

/** Stream + CDP behind the Zhuang-Lee filter (Section 6.4). */
SystemConfig streamCdpHwFilter(bool throttled);

/** Stream + CDP/ECDP under FDP throttling (Section 6.5). */
SystemConfig streamEcdpFdp(const HintTable *hints);

/** Stream + CDP under the PAB selector (Section 7.4). */
SystemConfig streamCdpPab();

/** Stream + GRP-style coarse-grained gating (Section 7.1). */
SystemConfig streamGrpCoarse(const HintTable *hints);

/** Baseline + the Figure 1 ideal-LDS oracle. */
SystemConfig idealLds();

/**
 * The named configuration the CLI tools and the ecdpd wire format
 * share ("baseline", "cdp+throttle", "full", ...). Throws
 * std::runtime_error listing the known names on an unknown one.
 * Configurations that consume compiler hints take them from
 * @p hints; the caller profiles (see nameNeedsHints()).
 */
SystemConfig byName(const std::string &name, const HintTable *hints);

/** True when byName(@p name) wires a hint table into the config. */
bool nameNeedsHints(const std::string &name);

/** Every name byName() accepts, in canonical order. */
const std::vector<std::string> &knownNames();

} // namespace configs

/**
 * The key ExperimentContext memoizes and persists the run of
 * benchmark @p workload (ref input) under: resultKey() over the
 * workload name and configHash(@p cfg), so it folds kStatsSchema.
 */
std::uint64_t runKey(const std::string &workload,
                     const SystemConfig &cfg);

/**
 * Caches workloads, hints and runs for the bench binaries.
 *
 * All accessors build lazily and memoize, so a bench touching five
 * configurations of fifteen benchmarks pays each workload build and
 * profiling pass once.
 *
 * Every accessor is thread-safe: the parallel experiment runner calls
 * them from its worker pool. Memoization is future-based — when two
 * jobs need the same workload build, profiling pass or simulation,
 * the second blocks on the first's in-flight computation instead of
 * duplicating or racing it. Returned references are stable for the
 * context's lifetime.
 *
 * Simulation results are memoized under runKey() — the workload
 * name and a hash of the actual SystemConfig fields (see
 * configHash()), never the human-readable label alone. When the
 * ECDP_RESULT_CACHE environment variable names a directory, runs also
 * spill there through a ResultStore (as cell-<runKey>.bin) and later
 * processes reload them; the memo stays the memory tier.
 */
class ExperimentContext
{
  public:
    ExperimentContext();
    ~ExperimentContext();

    ExperimentContext(const ExperimentContext &) = delete;
    ExperimentContext &operator=(const ExperimentContext &) = delete;

    const Workload &ref(const std::string &name);
    const Workload &train(const std::string &name);

    /** Hints profiled on the train input (the paper's default). */
    const HintTable &hints(const std::string &name);

    /** Hints profiled on the ref input (Section 6.1.6). */
    const HintTable &hintsFromRef(const std::string &name);

    /**
     * Simulate benchmark @p name (ref input) under @p cfg, memoized
     * by runKey(@p name, @p cfg). @p key is a short human-readable
     * config label ("baseline") used for diagnostics only; reusing a
     * (name, key) label with a *different* configuration throws
     * std::logic_error — the old behaviour silently returned the
     * first config's stale stats.
     */
    const RunStats &run(const std::string &name, const SystemConfig &cfg,
                        const std::string &key);

    /**
     * Override the trace session (tests use a private session; the
     * default is the process-wide ECDP_TRACE session). While a
     * session is attached, run() executes every unique simulation
     * with an event tracer and flushes it as "<name>:<key>", and the
     * persistent result store is bypassed on load — a store hit would
     * otherwise silently produce an empty trace — but results are
     * still stored. The in-memory memo still deduplicates, so each
     * unique (workload, config) is traced exactly once per process,
     * and tracing touches only the trace file, never stdout.
     */
    void setTraceSession(obs::TraceSession *session)
    {
        traceSession_ = session;
    }

  private:
    /**
     * Thread-safe memo table. Each key owns one cell; the first
     * caller materializes the value under the cell's once-flag while
     * later callers block on it, so a value is built exactly once
     * even under concurrent lookups. Cell storage is a shared_ptr so
     * returned references survive map rehashing.
     */
    template <typename K, typename V>
    class MemoTable
    {
      public:
        template <typename Build>
        const V &get(const K &key, Build &&build)
            ECDP_EXCLUDES(mutex_)
        {
            std::shared_ptr<Cell> cell;
            {
                MutexLock lock(mutex_);
                std::shared_ptr<Cell> &slot = cells_[key];
                if (!slot)
                    slot = std::make_shared<Cell>();
                cell = slot;
            }
            // If build() throws, the once-flag stays unset and the
            // next caller retries.
            std::call_once(cell->once,
                           [&] { cell->value.emplace(build()); });
            return *cell->value;
        }

      private:
        struct Cell
        {
            std::once_flag once;
            std::optional<V> value;
        };

        AnnotatedMutex mutex_;
        std::map<K, std::shared_ptr<Cell>> cells_
            ECDP_GUARDED_BY(mutex_);
    };

    MemoTable<std::string, Workload> refs_;
    MemoTable<std::string, Workload> trains_;
    MemoTable<std::string, HintTable> hints_;
    MemoTable<std::string, HintTable> refHints_;
    /** Keyed by runKey(). */
    MemoTable<std::uint64_t, RunStats> runs_;

    /** Diagnostic label registry: (name ":" key) -> config hash. */
    AnnotatedMutex labelMutex_;
    std::map<std::string, std::uint64_t> labels_
        ECDP_GUARDED_BY(labelMutex_);

    /** Trace sink (ECDP_TRACE), or nullptr when tracing is off. */
    obs::TraceSession *traceSession_ = nullptr;

    /** Spill store (ECDP_RESULT_CACHE), or nullptr when unset.
     *  Declared last: members destroy in reverse order. */
    std::unique_ptr<server::ResultStore> store_;
};

} // namespace ecdp

#endif // ECDP_SIM_EXPERIMENT_HH
