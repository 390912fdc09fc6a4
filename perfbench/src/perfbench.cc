/**
 * @file
 * Result line, sample statistics, host facts and the span recorder
 * (see perfbench.hh).
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "perfbench.hh"

namespace perfbench
{

using ecdp::MutexLock;

void
Result::print() const
{
    std::ostringstream os;
    os << "{\"correct\": "
       << (failed_ == 0 && attempted_ > 0 ? "true" : "false")
       << ", \"attempted\": " << attempted_
       << ", \"failed\": " << failed_ << ", \"metrics\": {";
    bool first = true;
    for (const auto &[name, entry] : metrics_) {
        char value[64];
        // All significant digits of the measurement.
        std::snprintf(value, sizeof(value), "%.17g",
                      std::isfinite(entry.first) ? entry.first : 0.0);
        os << (first ? "" : ", ") << '"' << name << "\": {\"value\": "
           << value << ", \"unit\": \"" << entry.second << "\"}";
        first = false;
    }
    os << "}}";
    std::cout << os.str() << std::endl;
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double rank = q * double(values.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] + (values[hi] - values[lo]) * (rank - double(lo));
}

double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    }
    return 0.0;
}

std::string
environmentLine()
{
    std::ostringstream os;
    os << "{\"nproc\": " << std::thread::hardware_concurrency()
       << ", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
       << "\", \"compiler\": \"" << __VERSION__ << "\", \"cdp_kernel\": \""
#ifdef ECDP_HAVE_AVX2
       << "avx2"
#else
       << "scalar"
#endif
       << "\"}";
    return os.str();
}

SpanRecorder::SpanRecorder() : origin_(Clock::now())
{
    MutexLock lock(mutex_);
    spans_.reserve(1 << 14);
}

std::int64_t
SpanRecorder::ns(Clock::time_point t) const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t -
                                                                origin_)
        .count();
}

int
SpanRecorder::begin(std::uint32_t cell, const char *name, int parent)
{
    const std::int64_t start = ns(Clock::now());
    MutexLock lock(mutex_);
    spans_.push_back({cell, name, start, start, parent});
    return static_cast<int>(spans_.size() - 1);
}

void
SpanRecorder::end(int span)
{
    const std::int64_t stop = ns(Clock::now());
    MutexLock lock(mutex_);
    spans_[static_cast<std::size_t>(span)].endNs = stop;
}

int
SpanRecorder::record(std::uint32_t cell, const char *name,
                     Clock::time_point start, Clock::time_point end,
                     int parent)
{
    MutexLock lock(mutex_);
    spans_.push_back({cell, name, ns(start), ns(end), parent});
    return static_cast<int>(spans_.size() - 1);
}

std::map<std::string, double>
SpanRecorder::selfMs() const
{
    MutexLock lock(mutex_);
    std::vector<std::int64_t> childNs(spans_.size(), 0);
    for (const Span &span : spans_) {
        if (span.parent >= 0)
            childNs[static_cast<std::size_t>(span.parent)] +=
                span.endNs - span.startNs;
    }
    std::map<std::string, double> self;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &span = spans_[i];
        self[span.name] +=
            double(span.endNs - span.startNs - childNs[i]) / 1e6;
    }
    return self;
}

std::map<std::string, std::vector<double>>
SpanRecorder::durationsMs() const
{
    MutexLock lock(mutex_);
    std::map<std::string, std::vector<double>> out;
    for (const Span &span : spans_)
        out[span.name].push_back(double(span.endNs - span.startNs) /
                                 1e6);
    return out;
}

std::size_t
SpanRecorder::size() const
{
    MutexLock lock(mutex_);
    return spans_.size();
}

} // namespace perfbench
