/**
 * @file
 * Unit tests for the PRNG family (SplitMix64, xoshiro256**).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <set>

#include "common/rng.hpp"

namespace catsim
{

TEST(SplitMix64, DeterministicSequence)
{
    SplitMix64 a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(SplitMix64, DifferentSeedsDiffer)
{
    SplitMix64 a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next();
    EXPECT_EQ(same, 0);
}

TEST(Xoshiro, DeterministicGivenSeed)
{
    Xoshiro256StarStar a(7), b(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Xoshiro, DoubleRange)
{
    Xoshiro256StarStar rng(3);
    for (int i = 0; i < 100000; ++i) {
        const double d = rng.nextDouble();
        ASSERT_GE(d, 0.0);
        ASSERT_LT(d, 1.0);
    }
}

TEST(Xoshiro, DoubleMeanNearHalf)
{
    Xoshiro256StarStar rng(11);
    double sum = 0.0;
    const int n = 200000;
    for (int i = 0; i < n; ++i)
        sum += rng.nextDouble();
    EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Xoshiro, BoundedStaysInBound)
{
    Xoshiro256StarStar rng(5);
    for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 17ULL, 65536ULL}) {
        for (int i = 0; i < 10000; ++i)
            ASSERT_LT(rng.nextBounded(bound), bound);
    }
}

TEST(Xoshiro, BoundedZeroIsZero)
{
    Xoshiro256StarStar rng(5);
    EXPECT_EQ(rng.nextBounded(0), 0u);
}

TEST(Xoshiro, BoundedCoversAllValues)
{
    Xoshiro256StarStar rng(9);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 2000; ++i)
        seen.insert(rng.nextBounded(8));
    EXPECT_EQ(seen.size(), 8u);
}

TEST(Xoshiro, BoundedRoughlyUniform)
{
    Xoshiro256StarStar rng(13);
    const int buckets = 10;
    const int n = 100000;
    int counts[buckets] = {};
    for (int i = 0; i < n; ++i)
        ++counts[rng.nextBounded(buckets)];
    for (int b = 0; b < buckets; ++b)
        EXPECT_NEAR(counts[b], n / buckets, n / buckets * 0.1);
}

TEST(Xoshiro, GaussianMoments)
{
    Xoshiro256StarStar rng(17);
    double sum = 0.0, sq = 0.0;
    const int n = 200000;
    for (int i = 0; i < n; ++i) {
        const double g = rng.nextGaussian();
        sum += g;
        sq += g * g;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.02);
    EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(Xoshiro, RawSequencesMatchTheirPinnedValues)
{
    // The first draws of every inline member from seed 42; a bounded
    // family's trailing next() pins how many raw draws it consumed.
    Xoshiro256StarStar raw(42);
    for (const std::uint64_t v :
         {0x15780b2e0c2ec716ULL, 0x6104d9866d113a7eULL,
          0xae17533239e499a1ULL, 0xecb8ad4703b360a1ULL})
        EXPECT_EQ(raw.next(), v);

    Xoshiro256StarStar dbl(42);
    for (const double v :
         {0x1.5780b2e0c2ecp-4, 0x1.84136619b444ep-2,
          0x1.5c2ea66473c93p-1, 0x1.d9715a8e0766cp-1})
        EXPECT_EQ(dbl.nextDouble(), v);

    struct Pinned
    {
        std::uint64_t bound;
        std::uint64_t draws[6];
    };
    const Pinned pinned[] = {
        {1, {0, 0, 0, 0, 0, 0}},
        {2, {0, 0, 1, 1, 1, 1}},
        {8, {0, 3, 5, 7, 7, 6}},
        {1000, {83, 378, 680, 924, 991, 769}},
        {(1ULL << 33) + 1,
         {720377436, 3255415565, 5841528421, 7943051918, 8519530752,
          6612011618}},
    };
    for (const Pinned &p : pinned) {
        SCOPED_TRACE(p.bound);
        Xoshiro256StarStar rng(42);
        for (const std::uint64_t v : p.draws)
            EXPECT_EQ(rng.nextBounded(p.bound), v);
        EXPECT_EQ(rng.next(), 0xb82154855a65ddb2ULL);
    }
}

TEST(Xoshiro, BernoulliRate)
{
    Xoshiro256StarStar rng(19);
    const int n = 200000;
    int hits = 0;
    for (int i = 0; i < n; ++i)
        hits += rng.nextBernoulli(0.01);
    EXPECT_NEAR(hits / static_cast<double>(n), 0.01, 0.002);
}

} // namespace catsim
