/**
 * @file
 * Tests for Static Counter Assignment (paper Section III-B).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.hpp"
#include "core/sca.hpp"

namespace catsim
{

TEST(Sca, NoRefreshBelowThreshold)
{
    Sca sca(65536, 128, 1024);
    for (int i = 0; i < 1023; ++i)
        ASSERT_FALSE(sca.onActivate(100).triggered());
}

TEST(Sca, RefreshesGroupPlusTwoNeighbors)
{
    Sca sca(65536, 128, 1024); // group size 512
    RefreshAction act;
    for (int i = 0; i < 1024; ++i)
        act = sca.onActivate(1000); // group 1: rows 512..1023
    ASSERT_TRUE(act.triggered());
    EXPECT_EQ(act.lo, 511u);
    EXPECT_EQ(act.hi, 1024u);
    EXPECT_EQ(act.rowCount, 512u + 2u);
}

TEST(Sca, EdgeGroupsClamp)
{
    Sca sca(65536, 128, 16);
    RefreshAction act;
    for (int i = 0; i < 16; ++i)
        act = sca.onActivate(0); // first group
    ASSERT_TRUE(act.triggered());
    EXPECT_EQ(act.lo, 0u);
    EXPECT_EQ(act.hi, 512u);
    EXPECT_EQ(act.rowCount, 513u);

    Sca sca2(65536, 128, 16);
    for (int i = 0; i < 16; ++i)
        act = sca2.onActivate(65535); // last group
    ASSERT_TRUE(act.triggered());
    EXPECT_EQ(act.lo, 65023u);
    EXPECT_EQ(act.hi, 65535u);
    EXPECT_EQ(act.rowCount, 513u);
}

TEST(Sca, CounterResetsAfterRefresh)
{
    Sca sca(65536, 64, 8);
    for (int i = 0; i < 8; ++i)
        sca.onActivate(0);
    EXPECT_EQ(sca.counterValue(0), 0u);
    // Needs the full threshold again.
    for (int i = 0; i < 7; ++i)
        ASSERT_FALSE(sca.onActivate(0).triggered());
    EXPECT_TRUE(sca.onActivate(0).triggered());
}

TEST(Sca, GroupsAreIndependent)
{
    Sca sca(65536, 64, 16); // group size 1024
    for (int i = 0; i < 15; ++i)
        sca.onActivate(0);
    for (int i = 0; i < 15; ++i)
        sca.onActivate(2048);
    EXPECT_EQ(sca.counterValue(0), 15u);
    EXPECT_EQ(sca.counterValue(2), 15u);
    EXPECT_EQ(sca.counterValue(1), 0u);
}

TEST(Sca, SharedCounterAggregatesGroupTraffic)
{
    // Two different rows in the same group share one counter - the
    // source of SCA's imprecision.
    Sca sca(65536, 64, 16);
    for (int i = 0; i < 8; ++i)
        ASSERT_FALSE(sca.onActivate(0).triggered());
    for (int i = 0; i < 7; ++i)
        ASSERT_FALSE(sca.onActivate(1023).triggered()); // same group 0
    EXPECT_TRUE(sca.onActivate(500).triggered())
        << "16th access anywhere in the group must trigger";
}

TEST(Sca, EpochResetsCounters)
{
    Sca sca(65536, 64, 16);
    for (int i = 0; i < 10; ++i)
        sca.onActivate(0);
    sca.onEpoch();
    EXPECT_EQ(sca.counterValue(0), 0u);
}

TEST(Sca, StatsAccumulate)
{
    Sca sca(65536, 64, 8);
    for (int i = 0; i < 16; ++i)
        sca.onActivate(0);
    const auto &st = sca.stats();
    EXPECT_EQ(st.activations, 16u);
    EXPECT_EQ(st.sramAccesses, 32u); // 2 per activation
    EXPECT_EQ(st.refreshEvents, 2u);
    EXPECT_EQ(st.victimRowsRefreshed, 2u * (1024u + 1u));
}

TEST(Sca, BatchMatchesPerRowActivations)
{
    // Hot rows in the first group (three of them) and the last push
    // those counters through T over and over, with the clamped victim
    // ranges at both bank edges, and the ragged chunks end anywhere,
    // refreshes mid-chunk included.
    constexpr std::uint32_t kT = 40;
    Sca perRow(65536, 64, kT);
    Sca batched(65536, 64, kT);
    Xoshiro256StarStar rng(21);
    const RowAddr hot[] = {0, 700, 1000, 65535};
    std::vector<RowAddr> rows;
    for (int i = 0; i < 60000; ++i)
        rows.push_back(rng.nextDouble() < 0.5
            ? hot[i % 4]
            : static_cast<RowAddr>(rng.nextBounded(65536)));
    for (const RowAddr r : rows)
        perRow.onActivate(r);
    std::size_t begin = 0;
    for (std::size_t chunk = 1; begin < rows.size(); chunk = chunk * 7 + 3) {
        const std::size_t n = std::min(chunk % 1013, rows.size() - begin);
        batched.onActivateBatch(rows.data() + begin, n);
        begin += n;
    }

    EXPECT_TRUE(perRow.stats() == batched.stats());
    EXPECT_EQ(batched.stats().activations, rows.size());
    EXPECT_GT(batched.stats().refreshEvents, 500u);
    for (std::uint32_t g = 0; g < 64; ++g)
        EXPECT_EQ(perRow.counterValue(g), batched.counterValue(g)) << g;
}

TEST(Sca, NumCounters)
{
    Sca sca(65536, 128, 1024);
    EXPECT_EQ(sca.numCounters(), 128u);
}

TEST(ScaDeath, RejectsNonDividingCounters)
{
    EXPECT_EXIT(Sca(65536, 100, 1024), ::testing::ExitedWithCode(1),
                "divide");
}

TEST(ScaDeath, RejectsNonPowerOfTwoGroups)
{
    EXPECT_EXIT(Sca(96, 2, 16), ::testing::ExitedWithCode(1),
                "power of two");
}

TEST(ScaDeath, RowOutOfRangePanics)
{
    Sca sca(65536, 64, 16);
    EXPECT_DEATH(sca.onActivate(65536), "row 65536 out of range");
    const std::vector<RowAddr> rows{1, 2, 70000};
    EXPECT_DEATH(sca.onActivateBatch(rows.data(), rows.size()),
                 "row 70000 out of range");
}

} // namespace catsim
