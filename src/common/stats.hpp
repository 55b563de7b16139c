/**
 * @file
 * Small statistics accumulators used throughout the simulator.
 */

#ifndef CATSIM_COMMON_STATS_HPP
#define CATSIM_COMMON_STATS_HPP

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

namespace catsim
{

/**
 * Welford online mean/variance accumulator.
 */
class RunningStat
{
  public:
    /** Add one observation. */
    void
    add(double x)
    {
        ++n_;
        const double delta = x - mean_;
        mean_ += delta / static_cast<double>(n_);
        m2_ += delta * (x - mean_);
        min_ = std::min(min_, x);
        max_ = std::max(max_, x);
        sum_ += x;
    }

    std::uint64_t count() const { return n_; }
    double mean() const { return n_ ? mean_ : 0.0; }
    double sum() const { return sum_; }

    /** Sample variance (n-1 denominator). */
    double
    variance() const
    {
        return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
    }

    double stddev() const { return std::sqrt(variance()); }
    double min() const { return n_ ? min_ : 0.0; }
    double max() const { return n_ ? max_ : 0.0; }

    void
    reset()
    {
        *this = RunningStat();
    }

  private:
    std::uint64_t n_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double sum_ = 0.0;
    double min_ = std::numeric_limits<double>::infinity();
    double max_ = -std::numeric_limits<double>::infinity();
};

} // namespace catsim

#endif // CATSIM_COMMON_STATS_HPP
