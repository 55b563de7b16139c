/**
 * @file
 * Tests for the physical row-adjacency models and the exact-victim
 * schemes' shared neighbor-refresh helper.
 */

#include <gtest/gtest.h>

#include <vector>

#include "core/adjacency.hpp"
#include "core/pra.hpp"

namespace catsim
{

class AdjacencyKinds
    : public ::testing::TestWithParam<RowAdjacency::Kind>
{
};

TEST_P(AdjacencyKinds, MappingIsBijective)
{
    RowAdjacency adj(GetParam(), 4096, 256, 11);
    std::vector<bool> seen(4096, false);
    for (RowAddr r = 0; r < 4096; ++r) {
        const RowAddr p = adj.logicalToPhysical(r);
        ASSERT_LT(p, 4096u);
        ASSERT_FALSE(seen[p]);
        seen[p] = true;
        ASSERT_EQ(adj.physicalToLogical(p), r);
    }
}

TEST_P(AdjacencyKinds, MappingStaysInBlock)
{
    const std::uint32_t bs = 256;
    RowAdjacency adj(GetParam(), 4096, bs, 11);
    for (RowAddr r = 0; r < 4096; ++r)
        ASSERT_EQ(adj.logicalToPhysical(r) / bs, r / bs);
}

TEST_P(AdjacencyKinds, VictimsAreCorrectPhysicalNeighbors)
{
    RowAdjacency adj(GetParam(), 4096, 256, 11);
    std::array<RowAddr, 4> v;
    for (RowAddr r = 0; r < 4096; r += 7) {
        const std::uint32_t n = adj.victimsWithin(r, 1, v);
        const RowAddr pos = adj.logicalToPhysical(r);
        ASSERT_EQ(n, (pos == 0 || pos == 4095) ? 1u : 2u);
        for (std::uint32_t i = 0; i < n; ++i) {
            const RowAddr vp = adj.logicalToPhysical(v[i]);
            ASSERT_TRUE(vp + 1 == pos || vp == pos + 1)
                << "victim not physically adjacent";
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, AdjacencyKinds,
    ::testing::Values(RowAdjacency::Kind::Direct,
                      RowAdjacency::Kind::BlockMirrored,
                      RowAdjacency::Kind::Scrambled));

TEST(Adjacency, DirectIsIdentity)
{
    RowAdjacency adj(RowAdjacency::Kind::Direct, 4096, 256);
    for (RowAddr r = 0; r < 4096; r += 13)
        EXPECT_EQ(adj.logicalToPhysical(r), r);
}

TEST(Adjacency, MirroredSeparatesLogicalNeighbors)
{
    // In the anti-parallel layout, logically adjacent rows 0 and 1 are
    // physically far apart - the classic rowhammer-defense pitfall.
    RowAdjacency adj(RowAdjacency::Kind::BlockMirrored, 4096, 256);
    const RowAddr p0 = adj.logicalToPhysical(0);
    const RowAddr p1 = adj.logicalToPhysical(1);
    EXPECT_GT(p1 > p0 ? p1 - p0 : p0 - p1, 1u);
}

TEST(Adjacency, NeighborRefreshHelperEdges)
{
    const auto lowEdge = neighborRefresh(0, 4096);
    EXPECT_EQ(lowEdge.rowCount, 1u);
    EXPECT_EQ(lowEdge.lo, 1u);
    const auto highEdge = neighborRefresh(4095, 4096);
    EXPECT_EQ(highEdge.rowCount, 1u);
    EXPECT_EQ(highEdge.hi, 4094u);
}

TEST(AdjacencyDeath, RejectsBadGeometry)
{
    EXPECT_EXIT(RowAdjacency(RowAdjacency::Kind::Direct, 4096, 300),
                ::testing::ExitedWithCode(1), "power-of-two");
}

} // namespace catsim
