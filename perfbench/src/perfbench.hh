/**
 * @file
 * Shared plumbing of the perfbench harness: command-line options, the
 * result line, sample statistics and the span recorder used by traced
 * runs. Every workload drives the simulator from outside, through its
 * public headers only.
 */

#ifndef PERFBENCH_PERFBENCH_HH
#define PERFBENCH_PERFBENCH_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "memsim/thread_annotations.hh"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

inline double
msBetween(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double, std::milli>(to - from).count();
}

inline double
msSince(Clock::time_point from)
{
    return msBetween(from, Clock::now());
}

/** Parsed command line shared by every mode. */
struct Options
{
    std::string mode;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** ecdpd-sweep: the daemon's loopback port. */
    unsigned port = 0;
    /** grid/serial: per-cell reference file; reference: output. */
    std::string reference;
};

/** The benchmark's result: the last line of standard output. */
class Result
{
  public:
    void add(const std::string &name, double value,
             const std::string &unit)
    {
        metrics_.push_back({name, {value, unit}});
    }

    /** Count one checked operation; @p ok false marks it failed. */
    void attempt(bool ok, std::uint64_t n = 1)
    {
        attempted_ += n;
        if (!ok)
            failed_ += n;
    }

    /** Prints {"correct","attempted","failed","metrics"} on one line. */
    void print() const;

  private:
    std::vector<std::pair<std::string, std::pair<double, std::string>>>
        metrics_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
};

/** Linear-interpolated quantile @p q in [0, 1]; 0 when empty. */
double quantile(std::vector<double> values, double q);

inline double
median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

/** Peak resident set of this process (VmHWM), in MiB. */
double peakRssMb();

/** One line describing the host and build the numbers came from. */
std::string environmentLine();

/**
 * In-memory span recorder for traced runs. A span is a named interval
 * of host time around one call into a layer; spans of one cell share
 * its id, and a span may name the span that caused it. Spans stay in
 * memory until selfMs() reads them at the end of the run. A null
 * recorder (untraced runs) makes every helper a no-op.
 */
class SpanRecorder
{
  public:
    SpanRecorder();

    /** Opens a span; returns its index for end() and children. */
    int begin(std::uint32_t cell, const char *name, int parent = -1)
        ECDP_EXCLUDES(mutex_);
    void end(int span) ECDP_EXCLUDES(mutex_);

    /** Records an interval that was timed elsewhere. */
    int record(std::uint32_t cell, const char *name,
               Clock::time_point start, Clock::time_point end,
               int parent = -1) ECDP_EXCLUDES(mutex_);

    /** Per span name: summed duration minus the child spans' time. */
    std::map<std::string, double> selfMs() const ECDP_EXCLUDES(mutex_);

    /** Per span name: every duration, in ms. */
    std::map<std::string, std::vector<double>> durationsMs() const
        ECDP_EXCLUDES(mutex_);

    std::size_t size() const ECDP_EXCLUDES(mutex_);

  private:
    struct Span
    {
        std::uint32_t cell;
        const char *name;
        std::int64_t startNs;
        std::int64_t endNs;
        int parent;
    };

    std::int64_t ns(Clock::time_point t) const;

    Clock::time_point origin_;
    mutable ecdp::AnnotatedMutex mutex_;
    std::vector<Span> spans_ ECDP_GUARDED_BY(mutex_);
};

/** RAII span on a possibly-null recorder. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder *recorder, std::uint32_t cell,
               const char *name, int parent = -1)
        : recorder_(recorder),
          index_(recorder ? recorder->begin(cell, name, parent) : -1)
    {}
    ~ScopedSpan()
    {
        if (recorder_)
            recorder_->end(index_);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    int index() const { return index_; }

  private:
    SpanRecorder *recorder_;
    int index_;
};

/** @{ The workloads; each fills @p result and returns an exit code. */
int runFig07Grid(const Options &opts, Result &result);
int runFilteredSerial(const Options &opts, Result &result);
int runSweepWarm(const Options &opts);
int runSweep(const Options &opts, Result &result);
/** Writes the per-cell reference file the two grids are checked
 *  against (maintenance mode, not a workload). */
int writeReference(const Options &opts);
/** @} */

} // namespace perfbench

#endif // PERFBENCH_PERFBENCH_HH
