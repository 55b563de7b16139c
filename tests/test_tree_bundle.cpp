/**
 * @file
 * Differential suite for the PRCAT/DRCAT scheme, TreeBundle
 * (src/core/tree_bundle.*).
 *
 * Every bank must be BIT-IDENTICAL to a bare CatTree built from the
 * same parameters and, transitively, to the frozen ReferenceCatTree
 * oracle: same per-access refresh decisions, same SRAM charges, same
 * split/merge/epoch counts, for adversarial streams, refresh storms,
 * epoch resets, non-power-of-two M, leaf maps from 2^6 to 2^15
 * entries through the batch loop, and rank-pooled banks that contend
 * for one SharedCounterPool.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "common/bit.hpp"
#include "common/rng.hpp"
#include "core/factory.hpp"
#include "oracles/reference_cat_tree.hpp"
#include "core/shared_pool.hpp"
#include "core/tree_bundle.hpp"

namespace catsim
{

namespace
{

constexpr RowAddr kRows = 65536;

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

/**
 * A hot spot that moves every @p phase accesses over uniform
 * background: each move leaves cold deep leaves behind and a new
 * region refreshing, which is what drives DRCAT's merges.
 */
std::vector<RowAddr>
migratingStream(std::size_t n, std::size_t phase, std::uint64_t seed)
{
    Xoshiro256StarStar rng(seed);
    std::vector<RowAddr> rows;
    rows.reserve(n);
    RowAddr hot = 0;
    for (std::size_t i = 0; i < n; ++i) {
        if (i % phase == 0)
            hot = static_cast<RowAddr>(rng.nextBounded(kRows));
        rows.push_back(rng.nextDouble() < 0.8
                           ? hot
                           : static_cast<RowAddr>(rng.nextBounded(kRows)));
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

::testing::AssertionResult
sameAction(const RefreshAction &a, const RefreshAction &b)
{
    if (a.rowCount == b.rowCount && a.lo == b.lo && a.hi == b.hi)
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << a.rowCount << " rows [" << a.lo << ", " << a.hi << "] vs "
           << b.rowCount << " rows [" << b.lo << ", " << b.hi << "]";
}

/**
 * A bare CatTree plus the SchemeStats the scheme layer derives from
 * its AccessResults: the authority every bank must match.
 */
struct BareCat
{
    explicit BareCat(CatTree::Params p) : tree(std::move(p)) {}

    RefreshAction
    access(RowAddr row)
    {
        ++stats.activations;
        const auto r = tree.access(row);
        stats.sramAccesses += r.sramAccesses;
        stats.splits += r.didSplit;
        stats.merges += r.didReconfigure;
        if (!r.refreshed)
            return {};
        ++stats.refreshEvents;
        stats.victimRowsRefreshed += r.rowsRefreshed;
        RefreshAction act;
        act.lo = r.lo;
        act.hi = r.hi;
        act.rowCount = r.rowsRefreshed;
        return act;
    }

    /** PRCAT rebuilds, DRCAT zeroes the counts only. */
    void
    epoch()
    {
        if (tree.params().enableWeights)
            tree.resetCountsOnly();
        else
            tree.reset();
        ++stats.epochResets;
    }

    CatTree tree;
    SchemeStats stats;
};

SchemeConfig
catConfig(bool weights, std::uint32_t num_counters,
          std::uint32_t threshold, std::uint32_t levels = 11)
{
    SchemeConfig cfg;
    cfg.kind = weights ? SchemeKind::Drcat : SchemeKind::Prcat;
    cfg.numCounters = num_counters;
    cfg.maxLevels = levels;
    cfg.threshold = threshold;
    return cfg;
}

TreeBundle &
asCat(MitigationScheme &s)
{
    return dynamic_cast<TreeBundle &>(s);
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
 * Drive the factory's scheme, a bare tree and (for power-of-two M)
 * the frozen reference tree through the same stream, comparing every
 * single refresh action.
 */
void
runSchemeDiff(const DiffCase &c)
{
    constexpr std::uint32_t kLevels = 11;
    const auto scheme = makeScheme(
        catConfig(c.weights, c.numCounters, c.threshold, kLevels), kRows);
    BareCat bare(makeCatTreeParams(kRows, c.numCounters, kLevels,
                                   c.threshold, c.weights, {}, nullptr));

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
            scheme->onEpoch();
            bare.epoch();
            if (ref) {
                if (c.weights)
                    ref->resetCountsOnly();
                else
                    ref->reset();
            }
        }
        const RefreshAction sa = scheme->onActivate(rows[i]);
        ASSERT_TRUE(sameAction(sa, bare.access(rows[i]))) << "access " << i;
        if (ref) {
            const auto rr = ref->access(rows[i]);
            ASSERT_EQ(sa.rowCount, rr.refreshed ? rr.rowsRefreshed : 0)
                << "access " << i;
            if (rr.refreshed) {
                ASSERT_EQ(sa.lo, rr.lo) << "access " << i;
                ASSERT_EQ(sa.hi, rr.hi) << "access " << i;
            }
        }
    }

    expectSameStats(scheme->stats(), bare.stats);

    const CatTree &tree = asCat(*scheme).tree();
    std::string why;
    EXPECT_TRUE(tree.checkInvariants(&why)) << why;
    if (ref) {
        EXPECT_EQ(tree.totalSplits(), ref->totalSplits());
        EXPECT_EQ(tree.totalMerges(), ref->totalMerges());
        EXPECT_EQ(tree.activeCounters(), ref->activeCounters());
    }
}

/** Deliver rows[begin, end) as ragged onActivateBatch chunks (sizes
 *  0 and 1 included). */
void
feedRagged(MitigationScheme &s, const std::vector<RowAddr> &rows,
           std::size_t begin, std::size_t end)
{
    std::size_t chunk = 1;
    while (begin < end) {
        const std::size_t n = std::min(chunk % 4099, end - begin);
        s.onActivateBatch(rows.data() + begin, n);
        begin += n;
        chunk = chunk * 13 + 7;
    }
}

} // namespace

TEST(TreeBundleDiff, Pow2MatchesTreeAndReferencePrcat)
{
    runSchemeDiff({64, 1024, false, 200000, 0});
}

TEST(TreeBundleDiff, Pow2MatchesTreeAndReferenceDrcat)
{
    runSchemeDiff({64, 1024, true, 200000, 0});
}

TEST(TreeBundleDiff, EpochResetsStayIdentical)
{
    runSchemeDiff({64, 512, false, 150000, 20000});
    runSchemeDiff({64, 512, true, 150000, 20000});
}

TEST(TreeBundleDiff, RefreshStormSmallThreshold)
{
    // T small enough that refreshes (and DRCAT reconfigurations)
    // dominate: the slow path runs constantly and must stay exact.
    runSchemeDiff({128, 64, true, 120000, 15000});
    runSchemeDiff({128, 64, false, 120000, 15000});
}

TEST(TreeBundleDiff, NonPow2Counters)
{
    for (const std::uint32_t m : {31u, 33u, 65u}) {
        runSchemeDiff({m, 512, false, 120000, 25000});
        runSchemeDiff({m, 512, true, 120000, 25000});
    }
}

TEST(TreeBundleBatch, BatchMatchesPerCallAccess)
{
    // One call per activation, one batch per bank, and ragged batches
    // must produce identical per-bank stats and tree shapes (non-pow2
    // M, refresh-heavy DRCAT, uneven stream lengths).
    constexpr std::uint32_t kBanks = 8;
    const SchemeConfig cfg = catConfig(true, 48, 256);
    const auto perCall = makeBankSchemes(cfg, kRows, kBanks);
    const auto perBatch = makeBankSchemes(cfg, kRows, kBanks);
    const auto ragged = makeBankSchemes(cfg, kRows, kBanks);

    for (std::uint32_t b = 0; b < kBanks; ++b) {
        const auto rows = adversarialStream(40000 + 7777 * b, kRows, 99 + b);
        for (const RowAddr r : rows)
            perCall[b]->onActivate(r);
        perBatch[b]->onActivateBatch(rows.data(), rows.size());
        feedRagged(*ragged[b], rows, 0, rows.size());

        expectSameStats(perCall[b]->stats(), perBatch[b]->stats());
        expectSameStats(perCall[b]->stats(), ragged[b]->stats());
        EXPECT_EQ(asCat(*perCall[b]).tree().activeCounters(),
                  asCat(*ragged[b]).tree().activeCounters());
        std::string why;
        EXPECT_TRUE(asCat(*ragged[b]).tree().checkInvariants(&why)) << why;
    }
}

/**
 * The batch loop over trees of L = 7 to 16 levels:
 * leaf maps of 2^6 to 2^15 entries, from a map whose blocks are 1024
 * rows to one whose blocks are two rows, with PRCAT's per-epoch
 * rebuilds and DRCAT's merges rewriting them.
 */
class TreeBundleDepth
    : public ::testing::TestWithParam<std::tuple<bool, std::uint32_t>>
{
};

TEST_P(TreeBundleDepth, BatchMatchesPerCallAndBareTree)
{
    const auto [weights, levels] = GetParam();
    constexpr std::uint32_t kT = 256;
    constexpr std::size_t kEpoch = 30000;
    const SchemeConfig cfg = catConfig(weights, 64, kT, levels);
    const auto perCall = makeScheme(cfg, kRows);
    const auto batched = makeScheme(cfg, kRows);
    BareCat bare(makeCatTreeParams(kRows, 64, levels, kT, weights, {},
                                   nullptr));

    const auto rows = migratingStream(180000, 20000, 31 + levels);
    for (std::size_t begin = 0; begin < rows.size(); begin += kEpoch) {
        if (begin) {
            perCall->onEpoch();
            batched->onEpoch();
            bare.epoch();
        }
        const std::size_t end = std::min(begin + kEpoch, rows.size());
        for (std::size_t i = begin; i < end; ++i)
            ASSERT_TRUE(sameAction(perCall->onActivate(rows[i]),
                                   bare.access(rows[i])))
                << "access " << i;
        feedRagged(*batched, rows, begin, end);
    }

    expectSameStats(perCall->stats(), bare.stats);
    expectSameStats(batched->stats(), bare.stats);
    const CatTree &tree = asCat(*batched).tree();
    EXPECT_EQ(tree.activeCounters(), bare.tree.activeCounters());
    EXPECT_EQ(tree.maxLeafDepth(), bare.tree.maxLeafDepth());
    std::string why;
    EXPECT_TRUE(tree.checkInvariants(&why)) << why;
    EXPECT_GT(bare.stats.splits, 0u);
    EXPECT_GT(bare.stats.refreshEvents, 0u);
    // At L = 7 a full tree has every leaf at the deepest level, so no
    // hot leaf can be subdivided and DRCAT never reconfigures.
    if (weights && levels > 7) {
        EXPECT_GT(bare.stats.merges, 0u) << "the stream must reconfigure";
    }
}

INSTANTIATE_TEST_SUITE_P(
    EveryLevelCount, TreeBundleDepth,
    ::testing::Combine(::testing::Bool(),
                       ::testing::Values(7u, 9u, 11u, 13u, 16u)),
    [](const auto &info) {
        return std::string(std::get<0>(info.param) ? "Drcat" : "Prcat")
               + "_L" + std::to_string(std::get<1>(info.param));
    });

namespace
{

/**
 * A 4-bank rank pool with contended growth against four bare trees
 * sharing one SharedCounterPool.  Banks take turns of @p quantum
 * activations in bank order (a turn is one onActivateBatch when
 * quantum > 1); both sides must agree on every refresh action, pool
 * arbitration order included, and the streams must drain the pool,
 * where the kernel's fast-path thresholds sit below the live rule.
 */
void
runPooledDiff(bool weights, std::size_t quantum)
{
    constexpr std::uint32_t kBanks = 4;
    constexpr std::uint32_t kPerBank = 16;
    constexpr std::size_t kLen = 120000;
    SchemeConfig cfg = catConfig(weights, kPerBank, 512);
    cfg.banksPerPool = kBanks;
    const auto banks = makeBankSchemes(cfg, kRows, kBanks);

    // Declared before the trees: they release into it on destruction.
    const auto barePool =
        std::make_shared<SharedCounterPool>(kPerBank * kBanks);
    std::vector<std::unique_ptr<BareCat>> bare;
    for (std::uint32_t b = 0; b < kBanks; ++b)
        bare.push_back(std::make_unique<BareCat>(makeCatTreeParams(
            kRows, kPerBank, 11, 512, weights, {}, barePool.get())));

    std::vector<std::vector<RowAddr>> streams;
    for (std::uint32_t b = 0; b < kBanks; ++b)
        streams.push_back(adversarialStream(kLen, kRows, 1234 + b));

    for (std::size_t i = 0; i < kLen; i += quantum) {
        for (std::uint32_t b = 0; b < kBanks; ++b) {
            if (i && i % 30000 < quantum) {
                banks[b]->onEpoch();
                bare[b]->epoch();
            }
            const RowAddr *rows = streams[b].data() + i;
            const std::size_t n = std::min(quantum, kLen - i);
            if (quantum > 1)
                banks[b]->onActivateBatch(rows, n);
            for (std::size_t k = 0; k < n; ++k) {
                const RefreshAction ba = bare[b]->access(rows[k]);
                if (quantum == 1) {
                    ASSERT_TRUE(sameAction(banks[b]->onActivate(rows[k]), ba))
                        << "bank " << b << " access " << i + k;
                }
            }
        }
    }
    for (std::uint32_t b = 0; b < kBanks; ++b) {
        expectSameStats(banks[b]->stats(), bare[b]->stats);
        std::string why;
        EXPECT_TRUE(asCat(*banks[b]).tree().checkInvariants(&why)) << why;
    }
    const SharedCounterPool *pool = asCat(*banks[0]).sharedPool();
    EXPECT_EQ(pool->peakInUse(), barePool->peakInUse());
    EXPECT_EQ(pool->peakInUse(), pool->capacity()) << "pool must drain";
    EXPECT_EQ(pool->acquires(), barePool->acquires());
}

} // namespace

TEST(TreeBundleDeath, RowOutOfRangePanics)
{
    // The bad row follows good ones, so the batch loop meets it
    // mid-chunk on its fast path.
    const auto batched = makeScheme(catConfig(true, 64, 1024), kRows);
    std::vector<RowAddr> rows(40, 7);
    rows[21] = kRows;
    EXPECT_DEATH(batched->onActivateBatch(rows.data(), rows.size()),
                 "row 65536 out of range");
    const auto s = makeScheme(catConfig(false, 64, 1024), kRows);
    EXPECT_DEATH(s->onActivate(kRows + 5), "row 65541 out of range");
}

TEST(TreeBundlePooled, RankPooledGroupMatchesBareTreesOnOnePool)
{
    // Per-call turns, then batch turns through the pooled banks'
    // kernel: a ragged 37-row tail, 64 rows, and kPoolQuantum.
    for (const std::size_t quantum : {1u, 37u, 64u, 1024u}) {
        runPooledDiff(false, quantum);
        runPooledDiff(true, quantum);
    }
}

} // namespace catsim
