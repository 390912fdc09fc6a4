/**
 * @file
 * Parallel experiment runner.
 *
 * `repro` submits its whole (workload x configuration) grid
 * up front; a fixed-size worker pool executes the independent
 * simulate() calls concurrently (each simulation owns its cloned
 * SimMemory image, so runs are embarrassingly parallel) and results
 * land in the shared ExperimentContext's memo tables. Results are
 * also returned in deterministic submission order, so table output
 * generated from them is bit-for-bit identical to a serial run —
 * ECDP_JOBS=1 and ECDP_JOBS=N produce the same stdout.
 *
 * Worker count: the ECDP_JOBS environment variable, defaulting to
 * the hardware thread count. Per-job progress/timing lines go to
 * stderr (never stdout, which carries the tables).
 */

#ifndef ECDP_RUNNER_RUNNER_HH
#define ECDP_RUNNER_RUNNER_HH

#include <deque>
#include <functional>
#include <future>
#include <iosfwd>
#include <string>

#include "memsim/thread_annotations.hh"
#include "runner/thread_pool.hh"
#include "sim/experiment.hh"

namespace ecdp
{
namespace runner
{

/** One completed grid cell, in submission order. */
struct JobResult
{
    std::string name;
    std::string key;
    /** Memoized stats, owned by the ExperimentContext; nullptr only
     *  when the job failed (see JobResult::error). */
    const RunStats *stats = nullptr;
    double wallMs = 0.0;
    /** Failure description; empty on success. */
    std::string error;
};

class ExperimentRunner
{
  public:
    /** Builds the SystemConfig for one (benchmark) job; runs on a
     *  worker thread, so hint profiling parallelizes too. */
    using ConfigFn = std::function<SystemConfig(ExperimentContext &,
                                                const std::string &)>;

    /**
     * @param ctx Shared context; must outlive the runner.
     * @param jobs Worker threads; 0 means ECDP_JOBS / hardware.
     */
    explicit ExperimentRunner(ExperimentContext &ctx,
                              unsigned jobs = 0);

    /** Waits for outstanding jobs. */
    ~ExperimentRunner();

    /** Progress sink (default stderr); nullptr silences progress. */
    void setProgressStream(std::ostream *os) ECDP_EXCLUDES(mutex_);

    /**
     * Queue one simulation; returns immediately with a future for
     * THIS job: it resolves to the memoized stats on success and
     * carries the worker's original exception (not a flattened
     * string) on failure. Callers that only care about the whole
     * grid can ignore it and use wait().
     */
    std::shared_future<const RunStats *>
    submit(std::string name, std::string key, ConfigFn make)
        ECDP_EXCLUDES(mutex_);

    /**
     * Block until every submitted job finished; results are in
     * submission order. Throws std::runtime_error describing the
     * first failed job, if any.
     */
    const std::deque<JobResult> &wait() ECDP_EXCLUDES(mutex_);

    unsigned threadCount() const { return pool_.threadCount(); }

  private:
    void runJob(JobResult *slot, const ConfigFn &make,
                std::promise<const RunStats *> &promise);

    ExperimentContext &ctx_;

    AnnotatedMutex mutex_;
    std::deque<JobResult> results_ ECDP_GUARDED_BY(mutex_);
    unsigned submitted_ ECDP_GUARDED_BY(mutex_) = 0;
    unsigned completed_ ECDP_GUARDED_BY(mutex_) = 0;
    std::ostream *progress_ ECDP_GUARDED_BY(mutex_);

    // Last member: worker threads store into results_ and bump the
    // counters above, so the pool must be joined (and destroyed)
    // before any of that state goes away.
    ThreadPool pool_;
};

} // namespace runner
} // namespace ecdp

#endif // ECDP_RUNNER_RUNNER_HH
