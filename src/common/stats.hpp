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
#include <vector>

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

/**
 * Fixed-bucket histogram over [lo, hi); out-of-range samples clamp to
 * the first/last bucket.
 */
class Histogram
{
  public:
    Histogram(double lo, double hi, std::size_t buckets)
        : lo_(lo), hi_(hi), counts_(buckets, 0)
    {
    }

    void
    add(double x)
    {
        const double span = hi_ - lo_;
        long idx = static_cast<long>((x - lo_) / span
                                     * static_cast<double>(counts_.size()));
        idx = std::clamp<long>(idx, 0,
                               static_cast<long>(counts_.size()) - 1);
        ++counts_[static_cast<std::size_t>(idx)];
        ++total_;
    }

    std::uint64_t bucket(std::size_t i) const { return counts_.at(i); }
    std::size_t buckets() const { return counts_.size(); }
    std::uint64_t total() const { return total_; }
    double bucketLow(std::size_t i) const
    {
        return lo_ + (hi_ - lo_) * static_cast<double>(i)
               / static_cast<double>(counts_.size());
    }

  private:
    double lo_;
    double hi_;
    std::vector<std::uint64_t> counts_;
    std::uint64_t total_ = 0;
};

} // namespace catsim

#endif // CATSIM_COMMON_STATS_HPP
