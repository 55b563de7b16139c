/**
 * @file
 * Differential suite for the structure-of-arrays TreeBundle
 * (src/core/tree_bundle.*).
 *
 * The bundle's fast path must be BIT-IDENTICAL to the flattened
 * CatTree it mirrors and, transitively, to the frozen ReferenceCatTree
 * oracle: same per-access refresh decisions, same SRAM charges, same
 * split/merge/epoch counts, for adversarial streams, refresh storms,
 * epoch resets, non-power-of-two M, and rank-pooled groups with tail
 * banks.  Replay-level tests additionally pin that bundleWidth is a
 * pure execution-layout knob - every width produces the same
 * ReplayResult, including for non-CAT schemes where it is a no-op.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/bit.hpp"
#include "common/rng.hpp"
#include "core/drcat.hpp"
#include "core/factory.hpp"
#include "core/prcat.hpp"
#include "oracles/reference_cat_tree.hpp"
#include "core/shared_pool.hpp"
#include "core/tree_bundle.hpp"
#include "sim/activation_sim.hpp"

namespace catsim
{

namespace
{

/**
 * A stream that actually exercises the tree: a few hammered hot rows
 * (drives splits all the way down, then refreshes), a hot 2^12-row
 * neighborhood (drives mid-depth structure), and a uniform background
 * (keeps shallow counters warm).  Weighted DRCAT runs see enough
 * repeat refreshes to saturate weights and reconfigure.
 */
std::vector<RowAddr>
adversarialStream(std::size_t n, RowAddr num_rows, std::uint64_t seed)
{
    Xoshiro256StarStar rng(seed);
    std::vector<RowAddr> rows;
    rows.reserve(n);
    const RowAddr hot[4] = {5, num_rows / 3, num_rows / 2,
                            num_rows - 2};
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t pick = rng.nextBounded(100);
        if (pick < 55)
            rows.push_back(hot[rng.nextBounded(4)]);
        else if (pick < 85)
            rows.push_back(static_cast<RowAddr>(
                (num_rows / 4) + rng.nextBounded(1u << 12)));
        else
            rows.push_back(
                static_cast<RowAddr>(rng.nextBounded(num_rows)));
    }
    return rows;
}

void
expectSameStats(const SchemeStats &a, const SchemeStats &b)
{
    EXPECT_EQ(a.activations, b.activations);
    EXPECT_EQ(a.refreshEvents, b.refreshEvents);
    EXPECT_EQ(a.victimRowsRefreshed, b.victimRowsRefreshed);
    EXPECT_EQ(a.sramAccesses, b.sramAccesses);
    EXPECT_EQ(a.splits, b.splits);
    EXPECT_EQ(a.merges, b.merges);
    EXPECT_EQ(a.epochResets, b.epochResets);
}

struct DiffCase
{
    std::uint32_t numCounters;
    std::uint32_t threshold;
    bool weights;
    std::size_t accesses;
    std::size_t epochEvery; //!< 0 = no epochs
};

/**
 * Drive one bundle lane and a standalone scheme (and, for
 * power-of-two M, the frozen reference tree) through the same stream,
 * comparing every single refresh action.
 */
void
runLaneDiff(const DiffCase &c)
{
    constexpr RowAddr kRows = 65536;
    constexpr std::uint32_t kLevels = 11;

    TreeBundle bundle(kRows, c.numCounters, kLevels, c.threshold,
                      c.weights, {}, nullptr, 1);
    std::unique_ptr<MitigationScheme> lone;
    if (c.weights)
        lone = std::make_unique<Drcat>(kRows, c.numCounters, kLevels,
                                       c.threshold);
    else
        lone = std::make_unique<Prcat>(kRows, c.numCounters, kLevels,
                                       c.threshold);

    const bool pow2 = isPow2(c.numCounters);
    std::unique_ptr<ReferenceCatTree> ref;
    if (pow2)
        ref = std::make_unique<ReferenceCatTree>(makeCatTreeParams(
            kRows, c.numCounters, kLevels, c.threshold, c.weights, {},
            nullptr));

    const auto rows =
        adversarialStream(c.accesses, kRows, 0x5eed0000 + c.numCounters);
    for (std::size_t i = 0; i < rows.size(); ++i) {
        if (c.epochEvery && i && i % c.epochEvery == 0) {
            bundle.onEpoch(0);
            lone->onEpoch();
            if (ref) {
                if (c.weights)
                    ref->resetCountsOnly();
                else
                    ref->reset();
            }
        }
        const RefreshAction ba = bundle.onActivate(0, rows[i]);
        const RefreshAction sa = lone->onActivate(rows[i]);
        ASSERT_EQ(ba.rowCount, sa.rowCount) << "access " << i;
        ASSERT_EQ(ba.lo, sa.lo) << "access " << i;
        ASSERT_EQ(ba.hi, sa.hi) << "access " << i;
        if (ref) {
            const auto rr = ref->access(rows[i]);
            ASSERT_EQ(ba.rowCount, rr.refreshed ? rr.rowsRefreshed : 0)
                << "access " << i;
            if (rr.refreshed) {
                ASSERT_EQ(ba.lo, rr.lo) << "access " << i;
                ASSERT_EQ(ba.hi, rr.hi) << "access " << i;
            }
        }
    }

    expectSameStats(bundle.laneStats(0), lone->stats());

    std::string why;
    EXPECT_TRUE(bundle.tree(0).checkInvariants(&why)) << why;
    if (ref) {
        EXPECT_EQ(bundle.tree(0).totalSplits(), ref->totalSplits());
        EXPECT_EQ(bundle.tree(0).totalMerges(), ref->totalMerges());
        EXPECT_EQ(bundle.tree(0).activeCounters(),
                  ref->activeCounters());
    }
}

} // namespace

TEST(TreeBundleDiff, Pow2MatchesTreeAndReferencePrcat)
{
    runLaneDiff({64, 1024, false, 200000, 0});
}

TEST(TreeBundleDiff, Pow2MatchesTreeAndReferenceDrcat)
{
    runLaneDiff({64, 1024, true, 200000, 0});
}

TEST(TreeBundleDiff, EpochResetsStayIdentical)
{
    runLaneDiff({64, 512, false, 150000, 20000});
    runLaneDiff({64, 512, true, 150000, 20000});
}

TEST(TreeBundleDiff, RefreshStormSmallThreshold)
{
    // T small enough that refreshes (and DRCAT reconfigurations)
    // dominate: the slow path runs constantly and must stay exact.
    runLaneDiff({128, 64, true, 120000, 15000});
    runLaneDiff({128, 64, false, 120000, 15000});
}

TEST(TreeBundleDiff, NonPow2Counters)
{
    for (const std::uint32_t m : {31u, 33u, 65u}) {
        runLaneDiff({m, 512, false, 120000, 25000});
        runLaneDiff({m, 512, true, 120000, 25000});
    }
}

TEST(TreeBundleLanes, BatchAndLanesMatchPerCallAccess)
{
    // Three ways to deliver the same per-lane streams - one call per
    // activation, one batch per lane, one ragged multi-lane lockstep
    // call - must produce identical per-lane stats and tree shapes.
    constexpr RowAddr kRows = 65536;
    constexpr std::uint32_t kLanes = 8;

    std::vector<std::vector<RowAddr>> streams;
    for (std::uint32_t l = 0; l < kLanes; ++l)
        streams.push_back(
            adversarialStream(40000 + 7777 * l, kRows, 99 + l));

    TreeBundle perCall(kRows, 48, 11, 256, true, {}, nullptr, kLanes);
    TreeBundle perBatch(kRows, 48, 11, 256, true, {}, nullptr, kLanes);
    TreeBundle lockstep(kRows, 48, 11, 256, true, {}, nullptr, kLanes);

    for (std::uint32_t l = 0; l < kLanes; ++l)
        for (const RowAddr r : streams[l])
            perCall.onActivate(l, r);
    std::vector<TreeBundle::LaneBatch> batches;
    for (std::uint32_t l = 0; l < kLanes; ++l) {
        perBatch.onActivateBatch(l, streams[l].data(),
                                 streams[l].size());
        batches.push_back({l, streams[l].data(), streams[l].size()});
    }
    lockstep.onActivateLanes(batches.data(), batches.size());

    for (std::uint32_t l = 0; l < kLanes; ++l) {
        expectSameStats(perCall.laneStats(l), perBatch.laneStats(l));
        expectSameStats(perCall.laneStats(l), lockstep.laneStats(l));
        EXPECT_EQ(perCall.tree(l).activeCounters(),
                  lockstep.tree(l).activeCounters());
        std::string why;
        EXPECT_TRUE(lockstep.tree(l).checkInvariants(&why)) << why;
    }
}

TEST(TreeBundlePooled, RankPooledGroupMatchesStandaloneSchemes)
{
    // A 4-bank rank pool with contended growth, driven round-robin:
    // the bundle-backed group and a standalone pooled Prcat group must
    // agree on every refresh action (pool arbitration order included).
    constexpr RowAddr kRows = 65536;
    constexpr std::uint32_t kBanks = 4;
    constexpr std::uint32_t kPerBank = 16;

    for (const bool weights : {false, true}) {
        auto pool = std::make_shared<SharedCounterPool>(kPerBank
                                                        * kBanks);
        TreeBundle bundle(kRows, kPerBank, 11, 512, weights, {}, pool,
                          kBanks);

        auto lonePool =
            std::make_shared<SharedCounterPool>(kPerBank * kBanks);
        std::vector<std::unique_ptr<MitigationScheme>> lone;
        for (std::uint32_t b = 0; b < kBanks; ++b) {
            if (weights)
                lone.push_back(std::make_unique<Drcat>(
                    kRows, kPerBank, 11, 512,
                    std::vector<std::uint32_t>{}, lonePool));
            else
                lone.push_back(std::make_unique<Prcat>(
                    kRows, kPerBank, 11, 512,
                    std::vector<std::uint32_t>{}, lonePool));
        }

        std::vector<std::vector<RowAddr>> streams;
        for (std::uint32_t b = 0; b < kBanks; ++b)
            streams.push_back(
                adversarialStream(120000, kRows, 1234 + b));

        for (std::size_t i = 0; i < streams[0].size(); ++i) {
            for (std::uint32_t b = 0; b < kBanks; ++b) {
                if (i && i % 30000 == 0) {
                    bundle.onEpoch(b);
                    lone[b]->onEpoch();
                }
                const RefreshAction ba =
                    bundle.onActivate(b, streams[b][i]);
                const RefreshAction sa =
                    lone[b]->onActivate(streams[b][i]);
                ASSERT_EQ(ba.rowCount, sa.rowCount)
                    << "bank " << b << " access " << i;
                ASSERT_EQ(ba.lo, sa.lo)
                    << "bank " << b << " access " << i;
                ASSERT_EQ(ba.hi, sa.hi)
                    << "bank " << b << " access " << i;
            }
        }
        for (std::uint32_t b = 0; b < kBanks; ++b) {
            expectSameStats(bundle.laneStats(b), lone[b]->stats());
            std::string why;
            EXPECT_TRUE(bundle.tree(b).checkInvariants(&why)) << why;
        }
        EXPECT_EQ(bundle.sharedPool()->peakInUse(),
                  lonePool->peakInUse());
        EXPECT_EQ(bundle.sharedPool()->acquires(),
                  lonePool->acquires());
    }
}

TEST(TreeBundleFactory, BundleWidthIsPureLayoutInReplay)
{
    // Replay the same recorded streams at several bundle widths (1 =
    // standalone trees) and require identical ReplayResults - the
    // whole point of the knob.  Includes a pooled config with a tail
    // group (10 banks, pool groups of 4).
    constexpr RowAddr kRows = 65536;
    constexpr std::uint32_t kBanks = 10;

    std::vector<std::vector<RowAddr>> streams;
    for (std::uint32_t b = 0; b < kBanks; ++b) {
        auto s = adversarialStream(60000, kRows, 777 + b);
        s.insert(s.begin() + 20000, kEpochMarker);
        s.insert(s.begin() + 45000, kEpochMarker);
        streams.push_back(std::move(s));
    }

    for (const bool pooled : {false, true}) {
        for (const auto kind : {SchemeKind::Prcat, SchemeKind::Drcat}) {
            SchemeConfig cfg;
            cfg.kind = kind;
            cfg.numCounters = 16;
            cfg.threshold = 512;
            cfg.banksPerPool = pooled ? 4 : 0;

            cfg.bundleWidth = 1;
            const ReplayResult base =
                replayActivations(streams, cfg, kRows);
            for (const std::uint32_t width : {0u, 3u, 16u}) {
                if (pooled && width != 0)
                    continue; // pooled widths are pinned to the group
                cfg.bundleWidth = width;
                const ReplayResult r =
                    replayActivations(streams, cfg, kRows);
                expectSameStats(r.stats, base.stats);
                EXPECT_EQ(r.epochs, base.epochs);
            }
        }
    }
}

TEST(TreeBundleFactory, WidthIsNoOpForNonCatSchemes)
{
    // bundleWidth must be ignored (not rejected, not acted on) for
    // SCA/PRA/CounterCache - here across all four eviction policies.
    constexpr RowAddr kRows = 65536;
    std::vector<std::vector<RowAddr>> streams;
    for (std::uint32_t b = 0; b < 4; ++b)
        streams.push_back(adversarialStream(30000, kRows, 42 + b));

    for (const auto policy :
         {EvictionPolicyKind::Legacy, EvictionPolicyKind::Lru,
          EvictionPolicyKind::Lfu, EvictionPolicyKind::Random}) {
        SchemeConfig cfg;
        cfg.kind = SchemeKind::CounterCache;
        cfg.numCounters = 128;
        cfg.threshold = 512;
        cfg.evictionPolicy = policy;

        cfg.bundleWidth = 1;
        const ReplayResult base = replayActivations(streams, cfg, kRows);
        cfg.bundleWidth = 0;
        const ReplayResult r = replayActivations(streams, cfg, kRows);
        expectSameStats(r.stats, base.stats);
    }
}

TEST(TreeBundleFactory, PooledWidthMismatchIsFatal)
{
    SchemeConfig cfg;
    cfg.kind = SchemeKind::Drcat;
    cfg.numCounters = 16;
    cfg.banksPerPool = 4;
    cfg.bundleWidth = 8;
    EXPECT_EXIT(makeBankSchemes(cfg, 65536, 16),
                ::testing::ExitedWithCode(1), "bundleWidth");
}

TEST(TreeBundleFactory, BundleBackedSchemesExposeTheirBundle)
{
    SchemeConfig cfg;
    cfg.kind = SchemeKind::Drcat;
    cfg.numCounters = 16;
    cfg.threshold = 512;
    cfg.bundleWidth = 4;
    auto schemes = makeBankSchemes(cfg, 65536, 10);
    ASSERT_EQ(schemes.size(), 10u);

    // Groups of 4, 4, 2: lanes number within each bundle (a
    // standalone scheme would throw std::bad_cast here).
    const auto lane = [&](std::size_t b) -> const BundledCatScheme & {
        return dynamic_cast<const BundledCatScheme &>(*schemes[b]);
    };
    const TreeBundle *b0 = &lane(0).bundle();
    EXPECT_EQ(lane(0).lane(), 0u);
    EXPECT_EQ(&lane(3).bundle(), b0);
    EXPECT_EQ(lane(3).lane(), 3u);
    EXPECT_NE(&lane(4).bundle(), b0);
    EXPECT_EQ(lane(4).lane(), 0u);
    EXPECT_EQ(lane(8).bundle().lanes(), 2u);
    EXPECT_EQ(schemes[0]->name(), "DRCAT_16");
    EXPECT_GT(b0->arenaBytes(), 0u);

    // Standalone schemes are not bundle-backed.
    cfg.bundleWidth = 1;
    auto lone = makeBankSchemes(cfg, 65536, 2);
    EXPECT_EQ(dynamic_cast<const BundledCatScheme *>(lone[0].get()),
              nullptr);
}

} // namespace catsim
