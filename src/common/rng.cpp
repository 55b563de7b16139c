#include "rng.hpp"

#include <cmath>

namespace catsim
{

Xoshiro256StarStar::Xoshiro256StarStar(std::uint64_t seed)
{
    SplitMix64 sm(seed);
    for (auto &s : state_)
        s = sm.next();
}

double
Xoshiro256StarStar::nextGaussian()
{
    if (hasCachedGaussian_) {
        hasCachedGaussian_ = false;
        return cachedGaussian_;
    }
    double u1 = 0.0;
    do {
        u1 = nextDouble();
    } while (u1 <= 0.0);
    const double u2 = nextDouble();
    const double r = std::sqrt(-2.0 * std::log(u1));
    const double theta = 2.0 * M_PI * u2;
    cachedGaussian_ = r * std::sin(theta);
    hasCachedGaussian_ = true;
    return r * std::cos(theta);
}

} // namespace catsim
