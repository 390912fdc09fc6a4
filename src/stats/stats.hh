/**
 * @file
 * Small statistics helpers shared by the simulator and the benchmark
 * harnesses: means used for speedup aggregation and a safe-ratio helper.
 */

#ifndef ECDP_STATS_STATS_HH
#define ECDP_STATS_STATS_HH

#include <cstdint>
#include <vector>

namespace ecdp
{

/** Arithmetic mean; 0 for an empty vector. */
double amean(const std::vector<double> &values);

/** Geometric mean; 0 for an empty vector. Values must be positive. */
double gmean(const std::vector<double> &values);

/** Harmonic mean; 0 for an empty vector. Values must be positive. */
double hmean(const std::vector<double> &values);

/** @return numer / denom, or 0 when denom is 0. */
double safeRatio(double numer, double denom);

/** Percent change from @p base to @p value ((value/base - 1) * 100). */
double percentDelta(double value, double base);

/**
 * Exponentially-aged counter used by the throttling feedback
 * (Equation 3 of the paper): at each interval boundary the running
 * value becomes half the old value plus half the in-interval value.
 */
class IntervalCounter
{
  public:
    /** Add to the current interval's count. */
    void add(std::uint64_t n = 1) { during_ += n; }

    /** Fold the interval in per Equation 3 and start a new interval. */
    void endInterval()
    {
        value_ = value_ / 2 + during_ / 2;
        lifetime_ += during_;
        during_ = 0;
    }

    /** The aged value used for decisions (excludes current interval). */
    std::uint64_t value() const { return value_; }

    /** Raw count inside the current interval. */
    std::uint64_t during() const { return during_; }

    /** Lifetime total across all intervals (for end-of-run stats). */
    std::uint64_t lifetime() const { return lifetime_ + during_; }

  private:
    std::uint64_t value_ = 0;
    std::uint64_t during_ = 0;
    std::uint64_t lifetime_ = 0;
};

} // namespace ecdp

#endif // ECDP_STATS_STATS_HH
