/**
 * @file
 * Tests for the Zipf sampler that models DRAM row popularity skew.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.hpp"
#include "common/zipf.hpp"

namespace catsim
{

TEST(Zipf, SamplesWithinRange)
{
    Xoshiro256StarStar rng(1);
    ZipfSampler z(100, 0.99);
    for (int i = 0; i < 100000; ++i)
        ASSERT_LT(z.sample(rng), 100u);
}

TEST(Zipf, ThetaZeroIsUniform)
{
    Xoshiro256StarStar rng(2);
    ZipfSampler z(10, 0.0);
    const int n = 200000;
    std::vector<int> counts(10, 0);
    for (int i = 0; i < n; ++i)
        ++counts[z.sample(rng)];
    for (int c : counts)
        EXPECT_NEAR(c, n / 10, n / 10 * 0.1);
}

TEST(Zipf, HigherThetaConcentrates)
{
    Xoshiro256StarStar rng(3);
    auto topShare = [&rng](double theta) {
        ZipfSampler z(1000, theta);
        const int n = 100000;
        int top = 0;
        for (int i = 0; i < n; ++i)
            top += z.sample(rng) == 0;
        return static_cast<double>(top) / n;
    };
    const double s05 = topShare(0.5);
    const double s10 = topShare(1.0);
    const double s15 = topShare(1.5);
    EXPECT_LT(s05, s10);
    EXPECT_LT(s10, s15);
}

TEST(Zipf, MatchesAnalyticFrequencies)
{
    // For theta and n small enough, empirical frequencies should match
    // p(k) = (k+1)^-theta / H within a few percent.
    const double theta = 0.8;
    const std::uint64_t nItems = 50;
    double H = 0.0;
    for (std::uint64_t k = 1; k <= nItems; ++k)
        H += std::pow(static_cast<double>(k), -theta);

    Xoshiro256StarStar rng(4);
    ZipfSampler z(nItems, theta);
    const int n = 500000;
    std::vector<int> counts(nItems, 0);
    for (int i = 0; i < n; ++i)
        ++counts[z.sample(rng)];

    for (std::uint64_t k : {0ULL, 1ULL, 4ULL, 9ULL, 24ULL}) {
        const double expect =
            std::pow(static_cast<double>(k + 1), -theta) / H;
        const double got = counts[k] / static_cast<double>(n);
        EXPECT_NEAR(got, expect, expect * 0.08 + 0.001)
            << "rank " << k;
    }
}

TEST(Zipf, Theta1LogCase)
{
    Xoshiro256StarStar rng(5);
    ZipfSampler z(64, 1.0);
    const int n = 100000;
    int top = 0;
    for (int i = 0; i < n; ++i)
        top += z.sample(rng) == 0;
    // H(64) ~ 4.74 => top share ~ 0.21
    EXPECT_NEAR(top / static_cast<double>(n), 0.21, 0.03);
}

TEST(Zipf, SingleItem)
{
    Xoshiro256StarStar rng(6);
    ZipfSampler z(1, 1.2);
    for (int i = 0; i < 100; ++i)
        ASSERT_EQ(z.sample(rng), 0u);
}

TEST(Zipf, DrawsMatchTheirPinnedValues)
{
    // The first 24 draws from seed 7, then one raw draw that pins how
    // many the sampler consumed (its rejections included).  theta 1.0
    // takes the log/exp branch.
    struct Pinned
    {
        double theta;
        std::uint64_t n;
        std::uint64_t draws[24];
        std::uint64_t nextRaw;
    };
    // clang-format off
    const Pinned pinned[] = {
        {0.4, 1, {0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, 0xbfe66957e3f7c16aULL},
        {0.4, 12, {2, 7, 1, 0, 0, 0, 10, 10, 5, 9, 3, 1, 0, 0, 5, 3, 7, 4, 9, 9, 9, 2, 2, 7}, 0xbfe66957e3f7c16aULL},
        {0.4, 256, {37, 150, 14, 0, 0, 10, 231, 213, 110, 195, 72, 31, 3, 9, 96, 67, 158, 92, 194, 202, 188, 47, 43, 149}, 0xbfe66957e3f7c16aULL},
        {1.0, 1, {0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, 0xbfe66957e3f7c16aULL},
        {1.0, 12, {0, 4, 0, 0, 0, 0, 9, 8, 3, 7, 1, 0, 0, 0, 2, 1, 5, 2, 7, 7, 6, 1, 1, 4}, 0xbfe66957e3f7c16aULL},
        {1.0, 256, {2, 45, 0, 0, 0, 0, 176, 134, 20, 100, 8, 2, 0, 0, 15, 7, 52, 14, 97, 112, 89, 4, 3, 45}, 0xbfe66957e3f7c16aULL},
        {1.35, 1, {0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, 0xbfe66957e3f7c16aULL},
        {1.35, 12, {0, 3, 0, 0, 0, 0, 8, 6, 1, 5, 1, 0, 0, 0, 1, 3, 1, 5, 5, 4, 0, 0, 3, 0}, 0x20f6a843f0a2d560ULL},
        {1.35, 256, {0, 9, 0, 0, 0, 0, 87, 48, 4, 28, 0, 0, 0, 3, 1, 11, 3, 27, 34, 23, 1, 1, 9, 0}, 0x20f6a843f0a2d560ULL},
    };
    // clang-format on
    for (const Pinned &p : pinned) {
        SCOPED_TRACE(testing::Message() << "theta " << p.theta << " n "
                                        << p.n);
        Xoshiro256StarStar rng(7);
        ZipfSampler z(p.n, p.theta);
        for (const std::uint64_t v : p.draws)
            EXPECT_EQ(z.sample(rng), v);
        EXPECT_EQ(rng.next(), p.nextRaw);
    }
}

/** Property sweep: all samples in range for many (n, theta) combos. */
class ZipfParamTest
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, double>>
{
};

TEST_P(ZipfParamTest, InRange)
{
    const auto [n, theta] = GetParam();
    Xoshiro256StarStar rng(7);
    ZipfSampler z(n, theta);
    for (int i = 0; i < 20000; ++i)
        ASSERT_LT(z.sample(rng), n);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ZipfParamTest,
    ::testing::Combine(::testing::Values(2ULL, 16ULL, 64ULL, 65536ULL),
                       ::testing::Values(0.0, 0.5, 0.99, 1.0, 1.3)));

} // namespace catsim
