/**
 * @file
 * Grid runner kept for one caller, perfbench: its `fig07-grid`
 * workload (and its reference writer) submit cells here and read
 * each job's stats and wall time back from wait(). `repro` runs its
 * own job list on a ThreadPool; the next change to the benchmark
 * moves `fig07-grid` onto one too and deletes this class.
 *
 * Each job resolves its SystemConfig and runs it through the shared
 * ExperimentContext on a worker of a fixed-size pool, so results land
 * in the context's memo. wait() returns them in submission order.
 * Worker count: ECDP_JOBS, defaulting to the hardware thread count.
 * Per-job progress lines go to stderr unless silenced.
 */

#ifndef ECDP_RUNNER_RUNNER_HH
#define ECDP_RUNNER_RUNNER_HH

#include <deque>
#include <functional>
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

    /** Queue one simulation of benchmark @p name, labelled @p key. */
    void submit(std::string name, std::string key, ConfigFn make)
        ECDP_EXCLUDES(mutex_);

    /**
     * Block until every submitted job finished; results are in
     * submission order. Throws std::runtime_error describing the
     * first failed job, if any.
     */
    const std::deque<JobResult> &wait() ECDP_EXCLUDES(mutex_);

  private:
    void runJob(JobResult *slot, const ConfigFn &make);

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
