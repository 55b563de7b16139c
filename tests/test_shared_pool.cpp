/**
 * @file
 * Tests for the rank-shared CAT counter pool (src/core/shared_pool.*)
 * and its integration with CatTree, the factory's per-rank grouping,
 * and the replay engine's interleaved contention.
 */

#include <gtest/gtest.h>

#include <memory>

#include "common/rng.hpp"
#include "core/factory.hpp"
#include "core/shared_pool.hpp"
#include "core/split_thresholds.hpp"
#include "core/tree_bundle.hpp"
#include "sim/activation_sim.hpp"

namespace catsim
{

namespace
{

CatTree::Params
pooledParams(SharedCounterPool *pool, std::uint32_t per_bank,
             std::uint32_t T = 2048)
{
    CatTree::Params p;
    p.numRows = 65536;
    p.numCounters = pool->capacity();
    p.presplitCounters = per_bank;
    p.maxLevels = 11;
    p.refreshThreshold = T;
    p.splitThresholds = computeSplitThresholds(per_bank, 11, T);
    p.sharedPool = pool;
    return p;
}

} // namespace

TEST(SharedCounterPool, Accounting)
{
    SharedCounterPool pool(4);
    EXPECT_EQ(pool.capacity(), 4u);
    EXPECT_EQ(pool.available(), 4u);
    EXPECT_TRUE(pool.tryAcquire());
    EXPECT_TRUE(pool.tryAcquire());
    EXPECT_EQ(pool.inUse(), 2u);
    pool.release(1);
    EXPECT_EQ(pool.inUse(), 1u);
    EXPECT_EQ(pool.peakInUse(), 2u);
    EXPECT_TRUE(pool.tryAcquire());
    EXPECT_TRUE(pool.tryAcquire());
    EXPECT_TRUE(pool.tryAcquire());
    EXPECT_FALSE(pool.tryAcquire()) << "capacity must bound acquires";
    EXPECT_EQ(pool.acquires(), 5u);
}

TEST(SharedCounterPoolDeath, RejectsZeroCapacityAndOverRelease)
{
    EXPECT_EXIT(SharedCounterPool(0), ::testing::ExitedWithCode(1),
                "non-zero");
    SharedCounterPool pool(2);
    ASSERT_TRUE(pool.tryAcquire());
    EXPECT_DEATH(pool.release(2), "more counters");
}

TEST(SharedPoolTree, InitialTreesChargeThePool)
{
    SharedCounterPool pool(2 * 64);
    CatTree a(pooledParams(&pool, 64));
    EXPECT_EQ(pool.inUse(), 32u); // P = 64/2 initial leaves
    {
        CatTree b(pooledParams(&pool, 64));
        EXPECT_EQ(pool.inUse(), 64u);
    }
    // Destruction releases bank b's counters back to the rank.
    EXPECT_EQ(pool.inUse(), 32u);
    std::string why;
    EXPECT_TRUE(a.checkInvariants(&why)) << why;
}

TEST(SharedPoolTree, GrowthIsGatedByPoolNotLocalCapacity)
{
    // Two trees, pool sized so only 8 counters of headroom exist
    // beyond the initial shapes (2 x P = 16 charged at reset): growth
    // must stop at the pool limit, and the starved tree must fall
    // back to refreshing at T (the "no free counter" branch of
    // Algorithm 1), never crash.
    SharedCounterPool pool(2 * 8 + 8);
    CatTree hot(pooledParams(&pool, 16));
    CatTree cold(pooledParams(&pool, 16));
    ASSERT_EQ(pool.available(), 8u);

    Xoshiro256StarStar rng(5);
    for (int i = 0; i < 300000; ++i)
        hot.access(static_cast<RowAddr>(rng.nextBounded(256)));
    // The hot tree grabbed the whole headroom...
    EXPECT_EQ(pool.available(), 0u);
    EXPECT_EQ(hot.activeCounters(), 8u + 8u); // P + headroom
    // ...and the cold tree can only refresh, not split.
    const std::uint32_t before = cold.activeCounters();
    for (int i = 0; i < 100000; ++i)
        cold.access(42);
    EXPECT_EQ(cold.activeCounters(), before);
    std::string why;
    EXPECT_TRUE(hot.checkInvariants(&why)) << why;
    EXPECT_TRUE(cold.checkInvariants(&why)) << why;

    // Resetting the hot tree returns its growth to the rank and
    // re-enables the cold one.
    hot.reset();
    EXPECT_EQ(pool.inUse(), 2u * 8u);
    for (int i = 0; i < 100000; ++i)
        cold.access(42);
    EXPECT_GT(cold.activeCounters(), before);
}

TEST(SharedPoolTree, PooledAccessPaysArbitrationSramAccess)
{
    // Identical trees, one private, one pooled: the pooled walk costs
    // exactly one extra SRAM access per activation (rank bank-select),
    // plus one per split (shared free-list update).
    SharedCounterPool pool(64);
    CatTree pooled(pooledParams(&pool, 64));
    CatTree::Params priv = pooledParams(&pool, 64);
    priv.numCounters = 64;
    priv.presplitCounters = 0;
    priv.sharedPool = nullptr;
    CatTree privTree(priv);

    Xoshiro256StarStar rng(11);
    for (int i = 0; i < 50000; ++i) {
        const auto row = static_cast<RowAddr>(rng.nextBounded(65536));
        const auto a = pooled.access(row);
        const auto b = privTree.access(row);
        ASSERT_EQ(a.didSplit, b.didSplit) << "access " << i;
        ASSERT_EQ(a.refreshed, b.refreshed) << "access " << i;
        ASSERT_EQ(a.sramAccesses,
                  b.sramAccesses + 1u + (a.didSplit ? 1u : 0u))
            << "access " << i;
    }
}

TEST(SharedPoolTree, DrcatMergeOnAFullPoolKeepsFastPathThresholds)
{
    // A sibling holds part of the pool, so once it is drained the
    // tree's local free lists are still non-empty and no canGrow_ flip
    // re-derives every fast-path threshold: a DRCAT merge must move the
    // kept counter's thr_ to its new depth itself.  A migrating hot
    // spot keeps reconfiguring the tree.
    SharedCounterPool pool(2 * 16 + 8);
    CatTree::Params p = pooledParams(&pool, 16, 512);
    p.enableWeights = true;
    CatTree tree(p);
    const CatTree sibling(p);
    Xoshiro256StarStar rng(11);
    Count merges = 0;
    RowAddr hot = 0;
    for (int i = 0; i < 400000; ++i) {
        if (i % 20000 == 0)
            hot = static_cast<RowAddr>(rng.nextBounded(65536));
        const RowAddr row = rng.nextDouble() < 0.8
            ? hot
            : static_cast<RowAddr>(rng.nextBounded(65536));
        if (tree.access(row).didReconfigure) {
            ++merges;
            std::string why;
            ASSERT_TRUE(tree.checkInvariants(&why)) << why;
        }
    }
    EXPECT_EQ(pool.available(), 0u);
    EXPECT_GT(merges, 0u);
}

TEST(SharedPoolTree, PrcatEpochResetReturnsCountersToTheRank)
{
    auto pool = std::make_shared<SharedCounterPool>(8 * 64);
    TreeBundle scheme(65536, 64, 11, 2048, false, {}, pool);
    for (int i = 0; i < 200000; ++i)
        scheme.onActivate(static_cast<RowAddr>(i % 512));
    EXPECT_GT(pool->inUse(), 32u) << "hammering must grow the tree";
    scheme.onEpoch(); // full reset: back to the pre-split charge
    EXPECT_EQ(pool->inUse(), 32u);
    EXPECT_EQ(scheme.sharedPool(), pool.get());
    EXPECT_EQ(scheme.tree().params().presplitCounters, 64u);
    EXPECT_EQ(scheme.tree().params().numCounters, 8u * 64u)
        << "a pooled tree may grow into the whole rank's budget";
}

TEST(SharedPoolFactory, GroupsConsecutiveBanksPerPool)
{
    SchemeConfig cfg;
    cfg.kind = SchemeKind::Drcat;
    cfg.numCounters = 16;
    cfg.maxLevels = 11;
    cfg.threshold = 2048;
    cfg.banksPerPool = 4;
    auto schemes = makeBankSchemes(cfg, 65536, 10);
    ASSERT_EQ(schemes.size(), 10u);
    std::vector<const SharedCounterPool *> pools;
    for (const auto &s : schemes)
        pools.push_back(
            dynamic_cast<const TreeBundle &>(*s).sharedPool());
    // Banks 0-3 share, 4-7 share, 8-9 form a short tail group.
    for (int b = 1; b < 4; ++b)
        EXPECT_EQ(pools[b], pools[0]);
    for (int b = 5; b < 8; ++b)
        EXPECT_EQ(pools[b], pools[4]);
    EXPECT_NE(pools[4], pools[0]);
    EXPECT_NE(pools[8], pools[4]);
    EXPECT_EQ(pools[9], pools[8]);
    EXPECT_EQ(pools[0]->capacity(), 4u * 16u);
    EXPECT_EQ(pools[8]->capacity(), 2u * 16u) << "tail group keeps "
                                                 "the per-bank budget";
    const CatTree::Params &p =
        dynamic_cast<const TreeBundle &>(*schemes[0]).tree().params();
    EXPECT_TRUE(p.enableWeights);
    EXPECT_EQ(p.presplitCounters, 16u);
    EXPECT_EQ(p.numCounters, 4u * 16u);
}

TEST(SharedPoolReplay, InterleavedContentionIsFairAcrossBanks)
{
    // Two banks hammer identical streams against a shared pool with
    // room for only one bank's worth of growth.  The round-robin
    // interleave must split the headroom between them instead of
    // letting bank 0 drain the pool before bank 1 runs.
    SchemeConfig cfg;
    cfg.kind = SchemeKind::Drcat;
    cfg.numCounters = 16;
    cfg.maxLevels = 11;
    cfg.threshold = 2048;
    cfg.banksPerPool = 2;

    std::vector<std::vector<RowAddr>> streams(2);
    Xoshiro256StarStar rng(3);
    for (int i = 0; i < 200000; ++i) {
        const auto row = static_cast<RowAddr>(rng.nextBounded(512));
        streams[0].push_back(row);
        streams[1].push_back(row);
    }
    const ReplayResult res = replayActivations(streams, cfg, 65536);
    EXPECT_EQ(res.banks, 2u);
    EXPECT_EQ(res.stats.activations, 400000u);

    // Identical per-bank demand, shared budget at iso-storage: each
    // bank must end up growing like a private M=16 bank.  Sequential
    // bank-by-bank replay instead gives bank 0 the whole headroom and
    // starves bank 1 into huge-group refreshes (this is the
    // regression the interleave fixes).
    SchemeConfig lone = cfg;
    lone.banksPerPool = 0;
    std::vector<std::vector<RowAddr>> soloStream(1, streams[0]);
    const ReplayResult solo =
        replayActivations(soloStream, lone, 65536);
    EXPECT_GE(res.stats.splits, 3 * solo.stats.splits / 2)
        << "shared growth collapsed onto one bank";
    EXPECT_LT(res.stats.victimRowsRefreshed,
              4 * solo.stats.victimRowsRefreshed)
        << "a starved bank is refreshing giant groups";
}

TEST(SharedPoolReplay, PooledReplayIsDeterministic)
{
    SchemeConfig cfg;
    cfg.kind = SchemeKind::Prcat;
    cfg.numCounters = 16;
    cfg.maxLevels = 11;
    cfg.threshold = 2048;
    cfg.banksPerPool = 4;

    std::vector<std::vector<RowAddr>> streams(4);
    Xoshiro256StarStar rng(17);
    for (int i = 0; i < 100000; ++i)
        for (auto &s : streams)
            s.push_back(static_cast<RowAddr>(rng.nextBounded(4096)));
    streams[2].push_back(kEpochMarker);

    const ReplayResult a = replayActivations(streams, cfg, 65536);
    const ReplayResult b = replayActivations(streams, cfg, 65536);
    EXPECT_EQ(a.stats.activations, b.stats.activations);
    EXPECT_EQ(a.stats.refreshEvents, b.stats.refreshEvents);
    EXPECT_EQ(a.stats.victimRowsRefreshed,
              b.stats.victimRowsRefreshed);
    EXPECT_EQ(a.stats.splits, b.stats.splits);
    EXPECT_EQ(a.stats.sramAccesses, b.stats.sramAccesses);
}

} // namespace catsim
