/**
 * @file
 * Experiment plumbing shared by `repro`, the CLI tools and the ecdpd
 * workers: the named configurations the paper evaluates (one table,
 * reached through configs::byName()), and a context that caches
 * built workloads, profiling runs and simulation results across
 * benches.
 */

#ifndef ECDP_SIM_EXPERIMENT_HH
#define ECDP_SIM_EXPERIMENT_HH

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "compiler/profiling_compiler.hh"
#include "memsim/thread_annotations.hh"
#include "sim/config.hh"
#include "sim/multicore.hh"
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

/**
 * The one hint rule: a configuration takes the train-profiled
 * compiler hints exactly when its final engine stack runs "ecdp".
 * byName(), nameNeedsHints() and the ecdpd cell resolver
 * (server::makeCellConfig, server::cellNeedsHints) all apply it.
 */
template <typename Stack>
bool
stackRunsEcdp(const Stack &engines)
{
    return std::ranges::any_of(
        engines, [](const auto &engine) { return engine == "ecdp"; });
}

/**
 * The named configuration ("baseline", "cdp+throttle", "full", ...)
 * that `repro`, the CLI tools and the ecdpd wire format share: a row
 * of the table in experiment.cc, i.e. an engine stack, a throttle
 * policy and at most one of hwFilter/grpCoarse/idealLds over the
 * Table 5 machine. Throws std::runtime_error listing the known names
 * on an unknown one. @p hints is wired in when the stack runs ECDP
 * (stackRunsEcdp()) and dropped otherwise; the caller profiles (see
 * nameNeedsHints()).
 */
SystemConfig byName(const std::string &name,
                    const HintTable *hints = nullptr);

/** True when byName(@p name)'s stack runs ECDP and so takes hints.
 *  Reads the table; builds no SystemConfig. */
bool nameNeedsHints(const std::string &name);

/** Every name byName() accepts, in canonical order. */
const std::vector<std::string> &knownNames();

} // namespace configs

/**
 * The key ExperimentContext memoizes and persists the run of
 * benchmark @p workload under: resultKey() over the workload name
 * (suffixed ":train" for the train input) and configHash(@p cfg), so
 * it folds kStatsSchema.
 */
std::uint64_t runKey(const std::string &workload,
                     const SystemConfig &cfg,
                     InputSet input = InputSet::Ref);

/** A multi-core mix's name: its members joined by '+'. */
std::string mixName(const std::vector<std::string> &mix);

/**
 * Caches workloads, hints and runs for `repro` (bench/repro.cc), the
 * CLI tools and the daemon's workers: the one place a single-core
 * run or a multi-core mix is resolved, traced and memoized.
 *
 * All accessors build lazily and memoize, so a bench touching five
 * configurations of fifteen benchmarks pays each workload build and
 * profiling pass once.
 *
 * Every accessor is thread-safe: `repro`'s job list calls them from
 * its worker pool. Memoization is future-based — when two
 * jobs need the same workload build, profiling pass or simulation,
 * the second blocks on the first's in-flight computation instead of
 * duplicating or racing it. Returned references are stable for the
 * context's lifetime.
 *
 * Simulation results are memoized under runKey() — the workload
 * name, its input and a hash of the actual SystemConfig fields (see
 * configHash()), never the human-readable label alone. When the
 * ECDP_RESULT_CACHE environment variable names a directory,
 * single-core runs also spill there through a ResultStore (as
 * cell-<runKey>.bin) and later processes reload them; the memo stays
 * the memory tier. Mixes live in the memo only.
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

    /** Hints profiled with informing loads on the train input
     *  (Section 3's second implementation). */
    const HintTable &informingHints(const std::string &name);

    /** Hints of every member of @p mix, merged into one table (the
     *  benchmarks' static PCs are disjoint, so merging is exact). */
    const HintTable &mixHints(const std::vector<std::string> &mix);

    /**
     * Simulate benchmark @p name on @p input under @p cfg, memoized
     * by runKey(@p name, @p cfg, @p input). @p key is a short
     * human-readable config label ("baseline") that only names the
     * run's trace flush; it never selects a result.
     */
    const RunStats &run(const std::string &name, const SystemConfig &cfg,
                        const std::string &key,
                        InputSet input = InputSet::Ref);

    /**
     * Simulate @p mix, one benchmark per core, under @p cfg, memoized
     * by the mix's name, @p input and configHash(@p cfg). Its speedups
     * divide by each member's run() under the "baseline" config, so
     * every mechanism is measured on one scale (a better single-core
     * IPC must not inflate its own denominator). @p label names the
     * trace flush, as run()'s @p key does.
     */
    const MultiCoreResult &runMix(const std::vector<std::string> &mix,
                                  const SystemConfig &cfg,
                                  const std::string &label,
                                  InputSet input = InputSet::Ref);

    /**
     * Override the trace session (tests use a private session; the
     * default is the process-wide ECDP_TRACE session). While a
     * session is attached, run() and runMix() execute every unique
     * simulation with an event tracer and flush it as "<name>:<key>"
     * ("<a+b>:<label>" for a mix), and the
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
    const Workload &workload(const std::string &name, InputSet input)
    {
        return input == InputSet::Train ? train(name) : ref(name);
    }

    /** Calls @p sim, with an event tracer it then flushes as
     *  @p traceName while a trace session is attached. */
    void traced(const std::string &traceName,
                const std::function<void(const Observability &)> &sim);

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
    MemoTable<std::string, HintTable> informingHints_;
    /** Keyed by mixName(). */
    MemoTable<std::string, HintTable> mixHints_;
    /** Keyed by runKey(). */
    MemoTable<std::uint64_t, RunStats> runs_;
    MemoTable<std::uint64_t, MultiCoreResult> mixes_;

    /** Trace sink (ECDP_TRACE), or nullptr when tracing is off. */
    obs::TraceSession *traceSession_ = nullptr;

    /** Spill store (ECDP_RESULT_CACHE), or nullptr when unset.
     *  Declared last: members destroy in reverse order. */
    std::unique_ptr<server::ResultStore> store_;
};

} // namespace ecdp

#endif // ECDP_SIM_EXPERIMENT_HH
