/**
 * @file
 * Zipf-distributed integer sampling.
 *
 * DRAM row popularity in real workloads is heavily skewed (paper Fig 3:
 * "a small group of rows dominate overall accesses").  The synthetic
 * workload generators model row popularity with a Zipf(theta) law over a
 * permuted row id space; this sampler provides O(1) amortized draws via
 * rejection-inversion (W. Hormann, G. Derflinger, 1996).  Its callers
 * draw over small hot sets - a profile's hotRows (12-48) or a cloud
 * tenant's hotRowsPerTenant (256, at most a bank's rows) - so the
 * constructor tabulates the acceptance bound per item (8n bytes) and a
 * draw costs one pow (or exp) instead of up to three.
 */

#ifndef CATSIM_COMMON_ZIPF_HPP
#define CATSIM_COMMON_ZIPF_HPP

#include <cstdint>
#include <vector>

#include "rng.hpp"

namespace catsim
{

/**
 * Samples k in [0, n) with P(k) proportional to 1/(k+1)^theta.
 */
class ZipfSampler
{
  public:
    /**
     * @param n     Number of items (> 0).
     * @param theta Skew parameter; 0 gives uniform, ~0.99 is the classic
     *              YCSB hot-set skew, larger is hotter.
     */
    ZipfSampler(std::uint64_t n, double theta);

    /** Draw one sample using the supplied RNG. */
    std::uint64_t sample(Xoshiro256StarStar &rng) const;

    std::uint64_t n() const { return n_; }
    double theta() const { return theta_; }

  private:
    double h(double x) const;
    double hInverse(double x) const;

    std::uint64_t n_;
    double theta_;
    double hImaxInv_;
    double hX0_;
    double s_;
    /** acceptBelow_[k - 1] = h(k + 0.5) - k^-theta, k = 1..n. */
    std::vector<double> acceptBelow_;
};

} // namespace catsim

#endif // CATSIM_COMMON_ZIPF_HPP
