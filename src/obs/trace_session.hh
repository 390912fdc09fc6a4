/**
 * @file
 * Chrome trace_event JSON export of EventTracer rings.
 *
 * A TraceSession owns one output file in the Chrome trace_event JSON
 * array format (loadable in chrome://tracing and Perfetto). Each
 * completed simulation run flushes its tracer into the session under
 * its own pid, labelled with the run's "<workload>:<config>" string;
 * within a run, tid is the core index. flush() is thread-safe so the
 * workers of `repro`'s job list can flush concurrently; only
 * the cross-run event order in the file depends on worker timing,
 * the per-run content never does.
 *
 * Event mapping (ts is the simulated cycle):
 *  - ThrottleTransition -> instant "throttle-transition" (args pf,
 *    from, to) plus counter "agg-level.<pf>" for timeline plots
 *  - IntervalSample     -> counter "feedback.<pf>" with accuracy and
 *    coverage series
 *  - PrefetchDrop       -> instant "prefetch-drop" (args pf, reason,
 *    addr)
 *  - everything else    -> instant events under eventTypeName()
 *
 * The process-wide session is configured by the ECDP_TRACE
 * environment variable (a file path) and finalized when the process
 * exits; tests construct their own sessions and call close().
 */

#ifndef ECDP_OBS_TRACE_SESSION_HH
#define ECDP_OBS_TRACE_SESSION_HH

#include <fstream>
#include <string>

#include "memsim/thread_annotations.hh"
#include "obs/event_tracer.hh"

namespace ecdp
{
namespace obs
{

/** Write one event as a Chrome trace_event JSON object (no comma). */
void writeChromeTraceEvent(std::ostream &os, unsigned pid,
                           const TraceEvent &event);

class TraceSession
{
  public:
    /**
     * The process-wide session named by ECDP_TRACE, or nullptr when
     * the variable is unset/empty (tracing off, the default). Created
     * on first call; finalized by a static destructor at exit.
     */
    static TraceSession *global();

    /** Open @p path and write the trace header. */
    explicit TraceSession(std::string path);

    /** Finalizes via close(). */
    ~TraceSession();

    TraceSession(const TraceSession &) = delete;
    TraceSession &operator=(const TraceSession &) = delete;

    /**
     * Append every retained event of @p tracer under a fresh pid
     * whose process_name metadata is @p label. Thread-safe.
     * @return The pid assigned to this run.
     */
    unsigned flush(const std::string &label, const EventTracer &tracer)
        ECDP_EXCLUDES(mutex_);

    /** Write the footer and close the file (idempotent). */
    void close() ECDP_EXCLUDES(mutex_);

    const std::string &path() const { return path_; }

    /** False when the file could not be opened. */
    bool ok() const { return ok_; }

    /** Runs flushed so far. */
    unsigned runsFlushed() const ECDP_EXCLUDES(mutex_)
    {
        MutexLock lock(mutex_);
        return nextPid_;
    }

  private:
    void comma() ECDP_REQUIRES(mutex_);

    std::string path_;
    mutable AnnotatedMutex mutex_;
    std::ofstream os_ ECDP_GUARDED_BY(mutex_);
    bool ok_ = false; // written once in the ctor, then read-only
    bool closed_ ECDP_GUARDED_BY(mutex_) = false;
    bool any_ ECDP_GUARDED_BY(mutex_) = false;
    unsigned nextPid_ ECDP_GUARDED_BY(mutex_) = 0;
};

} // namespace obs
} // namespace ecdp

#endif // ECDP_OBS_TRACE_SESSION_HH
