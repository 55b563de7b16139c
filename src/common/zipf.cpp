#include "zipf.hpp"

#include <cmath>

#include "logging.hpp"

namespace catsim
{

ZipfSampler::ZipfSampler(std::uint64_t n, double theta)
    : n_(n), theta_(theta)
{
    if (n == 0)
        CATSIM_FATAL("ZipfSampler requires n > 0");
    if (theta < 0.0)
        CATSIM_FATAL("ZipfSampler requires theta >= 0, got ", theta);

    // Rejection-inversion bookkeeping (Hormann & Derflinger).
    hImaxInv_ = h(static_cast<double>(n_) + 0.5);
    hX0_ = h(1.5) - 1.0;
    s_ = 2.0 - hInverse(h(2.5) - std::pow(2.0, -theta_));
    // Each item's acceptance bound, evaluated once with the same
    // expression and arguments a per-draw evaluation would use, so a
    // draw accepts the same k bit for bit.
    if (theta_ != 0.0) {
        acceptBelow_.resize(n_);
        for (std::uint64_t k = 1; k <= n_; ++k) {
            const double kd = static_cast<double>(k);
            acceptBelow_[k - 1] = h(kd + 0.5) - std::pow(kd, -theta_);
        }
    }
}

double
ZipfSampler::h(double x) const
{
    // Integral of x^-theta; the theta==1 case uses log.
    if (theta_ == 1.0)
        return std::log(x);
    return (std::pow(x, 1.0 - theta_) - 1.0) / (1.0 - theta_);
}

double
ZipfSampler::hInverse(double x) const
{
    if (theta_ == 1.0)
        return std::exp(x);
    return std::pow(1.0 + x * (1.0 - theta_), 1.0 / (1.0 - theta_));
}

std::uint64_t
ZipfSampler::sample(Xoshiro256StarStar &rng) const
{
    if (theta_ == 0.0)
        return rng.nextBounded(n_);

    while (true) {
        const double u = hImaxInv_ + rng.nextDouble() * (hX0_ - hImaxInv_);
        const double x = hInverse(u);
        std::uint64_t k = static_cast<std::uint64_t>(x + 0.5);
        if (k < 1)
            k = 1;
        if (k > n_)
            k = n_;
        const double kd = static_cast<double>(k);
        if (kd - x <= s_ || u >= acceptBelow_[k - 1])
            return k - 1;
    }
}

} // namespace catsim
