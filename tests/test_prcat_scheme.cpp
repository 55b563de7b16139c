/**
 * @file
 * Tests for the PRCAT scheme (paper Section V-A), built through the
 * factory like every simulator does.
 */

#include <gtest/gtest.h>

#include "core/factory.hpp"
#include "core/tree_bundle.hpp"

namespace catsim
{

namespace
{

std::unique_ptr<MitigationScheme>
makePrcat(std::uint32_t num_counters, std::uint32_t max_levels,
          std::uint32_t threshold)
{
    SchemeConfig cfg;
    cfg.kind = SchemeKind::Prcat;
    cfg.numCounters = num_counters;
    cfg.maxLevels = max_levels;
    cfg.threshold = threshold;
    return makeScheme(cfg, 65536);
}

const CatTree &
treeOf(const MitigationScheme &s)
{
    return dynamic_cast<const TreeBundle &>(s).tree();
}

} // namespace

TEST(Prcat, EpochRebuildsTree)
{
    const auto prcat = makePrcat(64, 11, 32768);
    for (std::uint32_t i = 0; i < 30000; ++i)
        prcat->onActivate(42);
    ASSERT_GT(treeOf(*prcat).leafDepth(42), 5u);
    prcat->onEpoch();
    EXPECT_EQ(treeOf(*prcat).leafDepth(42), 5u)
        << "PRCAT must rebuild the balanced tree every epoch";
    EXPECT_EQ(prcat->stats().epochResets, 1u);
}

TEST(Prcat, RefreshActionMatchesTreeRange)
{
    const auto prcat = makePrcat(64, 11, 32768);
    RefreshAction act;
    for (std::uint32_t i = 0; i < 40000; ++i) {
        act = prcat->onActivate(12345);
        if (act.triggered())
            break;
    }
    ASSERT_TRUE(act.triggered());
    const auto [lo, hi] = treeOf(*prcat).leafRange(12345);
    EXPECT_EQ(act.lo, lo - 1);
    EXPECT_EQ(act.hi, hi + 1);
    EXPECT_EQ(act.rowCount, static_cast<Count>(hi - lo + 3));
}

TEST(Prcat, StatsTrackSramAndSplits)
{
    const auto prcat = makePrcat(64, 11, 32768);
    for (std::uint32_t i = 0; i < 10000; ++i)
        prcat->onActivate(42);
    const auto &st = prcat->stats();
    EXPECT_EQ(st.activations, 10000u);
    EXPECT_GE(st.sramAccesses, 2u * 10000u);
    EXPECT_GT(st.splits, 0u);
    EXPECT_EQ(st.merges, 0u) << "PRCAT never reconfigures";
}

TEST(Prcat, DeterministicReplay)
{
    const auto a = makePrcat(64, 11, 32768);
    const auto b = makePrcat(64, 11, 32768);
    for (std::uint32_t i = 0; i < 50000; ++i) {
        const RowAddr row = (i * 2654435761u) & 65535u;
        const auto ra = a->onActivate(row);
        const auto rb = b->onActivate(row);
        ASSERT_EQ(ra.triggered(), rb.triggered());
        ASSERT_EQ(ra.rowCount, rb.rowCount);
    }
}

TEST(Prcat, FactoryBuildsAnUnweightedTree)
{
    const auto prcat = makePrcat(128, 11, 16384);
    const CatTree::Params &p = treeOf(*prcat).params();
    EXPECT_EQ(p.numCounters, 128u);
    EXPECT_EQ(p.maxLevels, 11u);
    EXPECT_EQ(p.refreshThreshold, 16384u);
    EXPECT_FALSE(p.enableWeights);
}

TEST(Prcat, SmallConfigurations)
{
    // The smallest legal CAT: M=2, L=2.
    const auto p = makePrcat(2, 3, 4096);
    for (std::uint32_t i = 0; i < 20000; ++i)
        p->onActivate(i & 65535u);
    EXPECT_GT(p->stats().activations, 0u);
}

} // namespace catsim
