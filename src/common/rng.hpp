/**
 * @file
 * Pseudo-random number generation.
 *
 * Two families are provided:
 *  - Xoshiro256StarStar: a fast, high-quality generator used to model the
 *    "true" PRNG that the paper assumes for PRA's reliability analysis
 *    (Srinivasan et al., VLSIC 2010) and to drive workload synthesis.
 *  - Lfsr (see lfsr.hpp): a cheap Fibonacci LFSR whose correlated output
 *    degrades PRA reliability, reproducing the paper's Monte-Carlo
 *    observation in Section III-A.
 */

#ifndef CATSIM_COMMON_RNG_HPP
#define CATSIM_COMMON_RNG_HPP

#include <array>
#include <cstdint>

namespace catsim
{

/**
 * SplitMix64 stepper, used for seeding and as a tiny standalone PRNG.
 */
class SplitMix64
{
  public:
    explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

    /** Advance and return the next 64-bit value. */
    std::uint64_t
    next()
    {
        std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

  private:
    std::uint64_t state_;
};

/**
 * xoshiro256** by Blackman & Vigna: the simulator's reference
 * high-quality PRNG.  Deterministic given a seed, so every experiment in
 * the repository is reproducible.
 */
class Xoshiro256StarStar
{
  public:
    using result_type = std::uint64_t;

    explicit Xoshiro256StarStar(std::uint64_t seed = 0x1234567895555555ULL);

    /** Next raw 64-bit value. */
    std::uint64_t
    next()
    {
        const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
        const std::uint64_t t = state_[1] << 17;

        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl(state_[3], 45);

        return result;
    }

    /** UniformRandomBitGenerator interface. */
    std::uint64_t operator()() { return next(); }
    static constexpr std::uint64_t min() { return 0; }
    static constexpr std::uint64_t max() { return ~0ULL; }

    /** Uniform double in [0, 1). */
    double
    nextDouble()
    {
        // 53 high-quality mantissa bits.
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Uniform integer in [0, bound) using Lemire's method. */
    std::uint64_t
    nextBounded(std::uint64_t bound)
    {
        if (bound == 0)
            return 0;
        // Lemire's nearly-divisionless bounded generation.
        __uint128_t m = static_cast<__uint128_t>(next()) * bound;
        auto lo = static_cast<std::uint64_t>(m);
        if (lo < bound) {
            const std::uint64_t threshold = (-bound) % bound;
            while (lo < threshold) {
                m = static_cast<__uint128_t>(next()) * bound;
                lo = static_cast<std::uint64_t>(m);
            }
        }
        return static_cast<std::uint64_t>(m >> 64);
    }

    /** Bernoulli trial with probability p. */
    bool nextBernoulli(double p) { return nextDouble() < p; }

    /** Standard normal via Box-Muller (cached second variate). */
    double nextGaussian();

  private:
    static std::uint64_t rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::array<std::uint64_t, 4> state_;
    bool hasCachedGaussian_ = false;
    double cachedGaussian_ = 0.0;
};

} // namespace catsim

#endif // CATSIM_COMMON_RNG_HPP
