#include "runner/runner.hh"

#include <chrono>
#include <exception>
#include <iostream>
#include <stdexcept>

namespace ecdp
{
namespace runner
{

ExperimentRunner::ExperimentRunner(ExperimentContext &ctx,
                                   unsigned jobs)
    : ctx_(ctx), progress_(&std::cerr), pool_(jobs)
{}

ExperimentRunner::~ExperimentRunner()
{
    pool_.wait();
}

void
ExperimentRunner::setProgressStream(std::ostream *os)
{
    MutexLock lock(mutex_);
    progress_ = os;
}

void
ExperimentRunner::submit(std::string name, std::string key,
                         ConfigFn make)
{
    JobResult *slot;
    {
        MutexLock lock(mutex_);
        // deque: pointers to existing slots stay valid while the
        // workers fill them and later submits grow the container.
        results_.push_back(
            JobResult{std::move(name), std::move(key), nullptr, 0.0,
                      ""});
        slot = &results_.back();
        ++submitted_;
    }
    pool_.submit(
        [this, slot, make = std::move(make)] { runJob(slot, make); });
}

void
ExperimentRunner::runJob(JobResult *slot, const ConfigFn &make)
{
    using Clock = std::chrono::steady_clock;
    const Clock::time_point start = Clock::now();
    try {
        SystemConfig cfg = make(ctx_, slot->name);
        slot->stats = &ctx_.run(slot->name, cfg, slot->key);
    } catch (const std::exception &e) {
        slot->error = e.what();
    } catch (...) {
        slot->error = "unknown error";
    }
    slot->wallMs = std::chrono::duration<double, std::milli>(
                       Clock::now() - start)
                       .count();

    MutexLock lock(mutex_);
    ++completed_;
    if (!progress_)
        return;
    std::ostream &os = *progress_;
    os << "[" << completed_ << "/" << submitted_ << "] "
       << slot->name << "/" << slot->key;
    if (slot->stats) {
        os << " ipc=" << slot->stats->ipc;
        if (slot->stats->timedOut)
            os << " TIMEOUT";
    } else {
        os << " FAILED: " << slot->error;
    }
    os << " (" << slot->wallMs << " ms)" << std::endl;
}

const std::deque<JobResult> &
ExperimentRunner::wait()
{
    pool_.wait();
    // Every worker is idle now, but take the lock anyway: the scan
    // below reads guarded state, and "the pool is quiet" is a fact
    // the analysis (rightly) refuses to take on faith.
    MutexLock lock(mutex_);
    for (const JobResult &result : results_) {
        if (!result.error.empty()) {
            throw std::runtime_error("experiment job " + result.name +
                                     "/" + result.key + " failed: " +
                                     result.error);
        }
    }
    return results_;
}

} // namespace runner
} // namespace ecdp
