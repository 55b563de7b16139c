/**
 * @file
 * Tests for DRCAT's weight-driven reconfiguration (paper Section V-B).
 */

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/cat_tree.hpp"
#include "core/factory.hpp"
#include "core/split_thresholds.hpp"
#include "core/tree_bundle.hpp"

namespace catsim
{

namespace
{

CatTree::Params
weightedParams(RowAddr rows, std::uint32_t M, std::uint32_t L,
               std::uint32_t T)
{
    CatTree::Params p;
    p.numRows = rows;
    p.numCounters = M;
    p.maxLevels = L;
    p.refreshThreshold = T;
    p.splitThresholds = computeSplitThresholds(M, L, T);
    p.enableWeights = true;
    return p;
}

std::unique_ptr<MitigationScheme>
makeCat(SchemeKind kind, std::uint32_t num_counters,
        std::uint32_t max_levels, std::uint32_t threshold)
{
    SchemeConfig cfg;
    cfg.kind = kind;
    cfg.numCounters = num_counters;
    cfg.maxLevels = max_levels;
    cfg.threshold = threshold;
    return makeScheme(cfg, 65536);
}

/** Saturate the tree so every counter is active. */
void
saturate(CatTree &tree, RowAddr rows, std::uint64_t seed)
{
    Xoshiro256StarStar rng(seed);
    while (tree.activeCounters() < tree.params().numCounters) {
        for (int i = 0; i < 20000; ++i)
            tree.access(static_cast<RowAddr>(rng.nextBounded(rows)));
    }
}

} // namespace

TEST(Drcat, WeightsTrackRefreshes)
{
    CatTree tree(weightedParams(65536, 16, 9, 1024));
    saturate(tree, 65536, 1);
    // Hammer one row: its group refreshes and gains weight.
    std::uint32_t before = tree.leafWeight(7);
    for (int i = 0; i < 1200; ++i)
        tree.access(7);
    EXPECT_GE(tree.leafWeight(7), before);
    EXPECT_TRUE(tree.checkInvariants());
}

TEST(Drcat, ReconfigurationMovesCountersToHotRegion)
{
    CatTree tree(weightedParams(65536, 16, 9, 1024));
    saturate(tree, 65536, 2);
    const auto depthBefore = tree.leafDepth(100);
    // Sustained hammering on a cold-start region must eventually pull
    // counters over via merge+split (weight saturation).
    Count merges = 0;
    for (int i = 0; i < 30000; ++i) {
        const auto r = tree.access(100);
        merges += r.didReconfigure;
    }
    EXPECT_GT(merges, 0u);
    EXPECT_GT(tree.leafDepth(100), depthBefore);
    EXPECT_TRUE(tree.checkInvariants());
}

TEST(Drcat, ReconfigurationPreservesInvariants)
{
    CatTree tree(weightedParams(65536, 32, 10, 512));
    Xoshiro256StarStar rng(3);
    // Alternate hot spots to force repeated merges and splits.
    for (int phase = 0; phase < 6; ++phase) {
        const RowAddr hot =
            static_cast<RowAddr>(rng.nextBounded(65536));
        for (int i = 0; i < 40000; ++i) {
            const RowAddr row = rng.nextDouble() < 0.8
                ? hot
                : static_cast<RowAddr>(rng.nextBounded(65536));
            tree.access(row);
        }
        std::string why;
        ASSERT_TRUE(tree.checkInvariants(&why))
            << "phase " << phase << ": " << why;
    }
    EXPECT_GT(tree.totalMerges(), 0u);
}

TEST(Drcat, NewlySplitCountersGetWeightOne)
{
    CatTree tree(weightedParams(65536, 16, 9, 1024));
    saturate(tree, 65536, 4);
    // Trigger a reconfiguration and inspect the hot leaf's weight.
    bool reconfigured = false;
    for (int i = 0; i < 30000 && !reconfigured; ++i)
        reconfigured = tree.access(100).didReconfigure;
    ASSERT_TRUE(reconfigured);
    EXPECT_EQ(tree.leafWeight(100), 1u);
}

TEST(Drcat, SchemeAdaptsAcrossEpochs)
{
    // DRCAT keeps its learned shape across epochs; PRCAT rebuilds.
    const auto drcat = makeCat(SchemeKind::Drcat, 64, 11, 32768);
    for (std::uint32_t i = 0; i < 40000; ++i)
        drcat->onActivate(42);
    const auto &tree = dynamic_cast<const TreeBundle &>(*drcat).tree();
    const auto depth = tree.leafDepth(42);
    ASSERT_GT(depth, 5u);
    drcat->onEpoch();
    EXPECT_EQ(tree.leafDepth(42), depth) << "shape must survive epochs";
    EXPECT_EQ(tree.counterValue(42), 0u) << "counts must reset";
}

TEST(Drcat, NoWorseThanPrcatOnStablePattern)
{
    // With a stable hot set, DRCAT's retained tree keeps the hot rows
    // in minimal groups across epochs, so it refreshes no more rows
    // than PRCAT, which re-learns the same shape every epoch.
    const std::uint32_t T = 2048;
    const auto drcat = makeCat(SchemeKind::Drcat, 16, 9, T);
    const auto prcat = makeCat(SchemeKind::Prcat, 16, 9, T);

    auto hammer = [&](MitigationScheme &s, std::uint64_t seed, int n) {
        Xoshiro256StarStar local(seed);
        for (int i = 0; i < n; ++i) {
            const RowAddr row = local.nextDouble() < 0.7
                ? 30000 + static_cast<RowAddr>(local.nextBounded(4))
                : static_cast<RowAddr>(local.nextBounded(65536));
            s.onActivate(row);
        }
    };

    for (int epoch = 0; epoch < 8; ++epoch) {
        hammer(*drcat, 100 + epoch, 60000);
        hammer(*prcat, 100 + epoch, 60000);
        drcat->onEpoch();
        prcat->onEpoch();
    }
    EXPECT_LE(drcat->stats().victimRowsRefreshed,
              prcat->stats().victimRowsRefreshed * 11 / 10);
}

TEST(Drcat, MergeNeverRisesAbovePresplitLevel)
{
    // The lambda-level balanced prefix is a floor for merges: no leaf
    // may end up shallower than the pre-split depth.
    CatTree tree(weightedParams(65536, 16, 9, 512));
    Xoshiro256StarStar rng(7);
    for (int phase = 0; phase < 10; ++phase) {
        const RowAddr hot =
            static_cast<RowAddr>(rng.nextBounded(65536));
        for (int i = 0; i < 30000; ++i) {
            const RowAddr row = rng.nextDouble() < 0.8
                ? hot
                : static_cast<RowAddr>(rng.nextBounded(65536));
            tree.access(row);
        }
    }
    ASSERT_GT(tree.totalMerges(), 0u);
    for (RowAddr r = 0; r < 65536; r += 512)
        EXPECT_GE(tree.leafDepth(r), 3u); // log2(16) - 1
}

TEST(Drcat, FactoryBuildsAWeightedTree)
{
    const auto drcat = makeCat(SchemeKind::Drcat, 64, 11, 32768);
    const CatTree::Params &p =
        dynamic_cast<const TreeBundle &>(*drcat).tree().params();
    EXPECT_EQ(p.numCounters, 64u);
    EXPECT_EQ(p.maxLevels, 11u);
    EXPECT_EQ(p.refreshThreshold, 32768u);
    EXPECT_TRUE(p.enableWeights);
}

} // namespace catsim
