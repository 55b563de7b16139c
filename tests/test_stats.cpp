/**
 * @file
 * Tests for the statistics accumulators.
 */

#include <gtest/gtest.h>

#include "common/stats.hpp"

namespace catsim
{

TEST(RunningStat, Empty)
{
    RunningStat s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(RunningStat, KnownValues)
{
    RunningStat s;
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(v);
    EXPECT_EQ(s.count(), 8u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
    EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStat, SingleValue)
{
    RunningStat s;
    s.add(3.5);
    EXPECT_DOUBLE_EQ(s.mean(), 3.5);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
    EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(RunningStat, Reset)
{
    RunningStat s;
    s.add(1.0);
    s.add(2.0);
    s.reset();
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.sum(), 0.0);
}

TEST(Histogram, Bucketing)
{
    Histogram h(0.0, 10.0, 10);
    h.add(0.5);
    h.add(1.5);
    h.add(1.6);
    h.add(9.9);
    EXPECT_EQ(h.bucket(0), 1u);
    EXPECT_EQ(h.bucket(1), 2u);
    EXPECT_EQ(h.bucket(9), 1u);
    EXPECT_EQ(h.total(), 4u);
}

TEST(Histogram, OutOfRangeClamps)
{
    Histogram h(0.0, 10.0, 10);
    h.add(-5.0);
    h.add(100.0);
    EXPECT_EQ(h.bucket(0), 1u);
    EXPECT_EQ(h.bucket(9), 1u);
}

TEST(Histogram, BucketLow)
{
    Histogram h(0.0, 10.0, 10);
    EXPECT_DOUBLE_EQ(h.bucketLow(0), 0.0);
    EXPECT_DOUBLE_EQ(h.bucketLow(5), 5.0);
}

} // namespace catsim
