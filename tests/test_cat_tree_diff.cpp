/**
 * @file
 * Differential tests: the flattened `CatTree` must be bit-identical to
 * the frozen pointer-chasing `ReferenceCatTree` (the pre-flattening
 * implementation kept as an oracle in tests/oracles/reference_cat_tree.*).
 *
 * Every paper figure is a function of per-access observables (refresh
 * ranges, split/merge events, sramAccesses), so equality is asserted
 * per access, not just on aggregates, across random traffic, hammer
 * attacks, phase-shifting hot sets, epoch resets, and weight-driven
 * reconfiguration churn.
 */

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/cat_tree.hpp"
#include "oracles/reference_cat_tree.hpp"
#include "core/split_thresholds.hpp"

namespace catsim
{

namespace
{

CatTree::Params
makeParams(RowAddr rows, std::uint32_t M, std::uint32_t L,
           std::uint32_t T, bool weights)
{
    CatTree::Params p;
    p.numRows = rows;
    p.numCounters = M;
    p.maxLevels = L;
    p.refreshThreshold = T;
    p.splitThresholds = computeSplitThresholds(M, L, T);
    p.enableWeights = weights;
    return p;
}

/** Assert every AccessResult field matches; returns false on first
 *  mismatch so callers can abort the stream with context. */
::testing::AssertionResult
sameResult(const CatTree::AccessResult &a,
           const CatTree::AccessResult &b)
{
    if (a.refreshed != b.refreshed)
        return ::testing::AssertionFailure() << "refreshed differs";
    if (a.lo != b.lo || a.hi != b.hi)
        return ::testing::AssertionFailure()
               << "range [" << a.lo << "," << a.hi << "] vs ["
               << b.lo << "," << b.hi << "]";
    if (a.rowsRefreshed != b.rowsRefreshed)
        return ::testing::AssertionFailure() << "rowsRefreshed "
               << a.rowsRefreshed << " vs " << b.rowsRefreshed;
    if (a.sramAccesses != b.sramAccesses)
        return ::testing::AssertionFailure() << "sramAccesses "
               << a.sramAccesses << " vs " << b.sramAccesses;
    if (a.didSplit != b.didSplit)
        return ::testing::AssertionFailure() << "didSplit differs";
    if (a.didReconfigure != b.didReconfigure)
        return ::testing::AssertionFailure()
               << "didReconfigure differs";
    if (a.leafDepth != b.leafDepth)
        return ::testing::AssertionFailure() << "leafDepth "
               << a.leafDepth << " vs " << b.leafDepth;
    return ::testing::AssertionSuccess();
}

/** Compare all non-mutating probes on a sample of rows. */
void
compareProbes(const CatTree &fast, const ReferenceCatTree &ref,
              RowAddr rows)
{
    ASSERT_EQ(fast.activeCounters(), ref.activeCounters());
    ASSERT_EQ(fast.totalSplits(), ref.totalSplits());
    ASSERT_EQ(fast.totalMerges(), ref.totalMerges());
    ASSERT_EQ(fast.maxLeafDepth(), ref.maxLeafDepth());
    for (RowAddr r = 0; r < rows; r += rows / 64) {
        ASSERT_EQ(fast.leafDepth(r), ref.leafDepth(r)) << "row " << r;
        ASSERT_EQ(fast.counterValue(r), ref.counterValue(r))
            << "row " << r;
        ASSERT_EQ(fast.leafRange(r), ref.leafRange(r)) << "row " << r;
        ASSERT_EQ(fast.leafWeight(r), ref.leafWeight(r))
            << "row " << r;
    }
    std::string why;
    ASSERT_TRUE(fast.checkInvariants(&why)) << why;
    ASSERT_TRUE(ref.checkInvariants(&why)) << why;
}

/** Drive both trees with one row stream, asserting per access. */
void
runDifferential(CatTree &fast, ReferenceCatTree &ref,
                const std::vector<RowAddr> &stream, RowAddr rows,
                int probe_every = 20000)
{
    int sinceProbe = 0;
    for (std::size_t i = 0; i < stream.size(); ++i) {
        const auto a = fast.access(stream[i]);
        const auto b = ref.access(stream[i]);
        ASSERT_TRUE(sameResult(a, b))
            << "access " << i << " row " << stream[i];
        if (++sinceProbe >= probe_every) {
            sinceProbe = 0;
            compareProbes(fast, ref, rows);
            if (::testing::Test::HasFatalFailure())
                return;
        }
    }
    compareProbes(fast, ref, rows);
}

/** Mixed adversarial stream: hammer pairs, phase-shifting hot sets,
 *  uniform background - the patterns the paper's attacks use. */
std::vector<RowAddr>
adversarialStream(RowAddr rows, std::uint64_t seed, std::size_t n)
{
    std::vector<RowAddr> s;
    s.reserve(n);
    Xoshiro256StarStar rng(seed);
    RowAddr hot = static_cast<RowAddr>(rng.nextBounded(rows));
    for (std::size_t i = 0; i < n; ++i) {
        if (i % (n / 8) == 0) // shift the hot set periodically
            hot = static_cast<RowAddr>(rng.nextBounded(rows));
        const double u = rng.nextDouble();
        if (u < 0.45)
            s.push_back(hot);
        else if (u < 0.6) // double-sided pair around the hot row
            s.push_back(hot + 2 < rows ? hot + 2 : hot);
        else if (u < 0.8)
            s.push_back(static_cast<RowAddr>(rng.nextBounded(64)));
        else
            s.push_back(static_cast<RowAddr>(rng.nextBounded(rows)));
    }
    return s;
}

} // namespace

/** Grid over (M, extra levels, T, weights) like the property test. */
class CatTreeDiff
    : public ::testing::TestWithParam<
          std::tuple<std::uint32_t, std::uint32_t, std::uint32_t, bool>>
{
};

TEST_P(CatTreeDiff, BitIdenticalOnAdversarialStreams)
{
    const auto [M, extraLevels, T, weights] = GetParam();
    std::uint32_t m = 0;
    for (std::uint32_t v = M; v > 1; v >>= 1)
        ++m;
    const std::uint32_t L = m + extraLevels;
    const RowAddr rows = 65536;
    if ((1u << (L - 1)) > rows)
        GTEST_SKIP();

    const auto params = makeParams(rows, M, L, T, weights);
    CatTree fast(params);
    ReferenceCatTree ref(params);
    runDifferential(fast, ref,
                    adversarialStream(rows, M * 1009 + L, 150000),
                    rows);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, CatTreeDiff,
    ::testing::Combine(::testing::Values(2u, 4u, 64u, 128u),
                       ::testing::Values(2u, 5u),
                       ::testing::Values(1024u, 32768u),
                       ::testing::Bool()));

TEST(CatTreeDiffPow2, GeneralizationKeepsPow2BitIdentical)
{
    // The non-power-of-two M generalization (uneven pre-split,
    // jump-table pre-sizing, pool hooks) must leave every power-of-two
    // configuration with the default schedule byte-for-byte on the
    // frozen oracle's path - the reference tree never learned about
    // any of it.
    const RowAddr rows = 65536;
    for (std::uint32_t M : {4u, 32u, 64u}) {
        for (bool weights : {false, true}) {
            const auto params = makeParams(rows, M, 11, 4096, weights);
            CatTree fast(params);
            ReferenceCatTree ref(params);
            runDifferential(fast, ref,
                            adversarialStream(rows, 77 + M, 120000),
                            rows);
            if (::testing::Test::HasFatalFailure())
                return;
        }
    }
}

TEST(CatTreeDiffEpochs, ResetAndResetCountsOnlyStayIdentical)
{
    // Interleave PRCAT-style full resets and DRCAT-style count-only
    // resets with traffic; the learned shape and the lazy weight decay
    // must survive both exactly.
    const auto params = makeParams(65536, 32, 10, 2048, true);
    CatTree fast(params);
    ReferenceCatTree ref(params);
    Xoshiro256StarStar rng(11);
    for (int epoch = 0; epoch < 12; ++epoch) {
        runDifferential(fast, ref,
                        adversarialStream(65536, 500 + epoch, 30000),
                        65536, 10000);
        if (HasFatalFailure())
            return;
        if (epoch % 3 == 2) {
            fast.reset();
            ref.reset();
        } else {
            fast.resetCountsOnly();
            ref.resetCountsOnly();
        }
    }
    compareProbes(fast, ref, 65536);
}

TEST(CatTreeDiffWeights, LazyDecayExactUnderRefreshStorms)
{
    // Tiny threshold + many counters: thousands of refreshes, so the
    // reference decrements every weight O(M) times while the flat tree
    // only advances its ordinal.  Every materialized weight must still
    // match, including after long cold periods (ordinal far beyond any
    // stamp).
    const auto params = makeParams(65536, 128, 12, 512, true);
    CatTree fast(params);
    ReferenceCatTree ref(params);
    Xoshiro256StarStar rng(13);
    std::vector<RowAddr> storm;
    storm.reserve(400000);
    for (int burst = 0; burst < 40; ++burst) {
        const RowAddr hot =
            static_cast<RowAddr>(rng.nextBounded(65536));
        for (int i = 0; i < 9000; ++i)
            storm.push_back(rng.nextDouble() < 0.85
                ? hot
                : static_cast<RowAddr>(rng.nextBounded(65536)));
        for (int i = 0; i < 1000; ++i) // cold tail: pure decay
            storm.push_back(
                static_cast<RowAddr>(rng.nextBounded(65536)));
    }
    runDifferential(fast, ref, storm, 65536, 25000);
    EXPECT_GT(fast.totalMerges(), 0u)
        << "storm must actually exercise reconfiguration";
    // Weight probes on every group, not just the sampled rows.
    for (RowAddr r = 0; r < 65536; r += 512)
        EXPECT_EQ(fast.leafWeight(r), ref.leafWeight(r)) << r;
}

TEST(CatTreeDiffChurn, InvariantsAndDepthAfterReconfigurationChurn)
{
    // Rotate hot spots so merges and splits fight each other; after
    // every phase the flat tree's structural indexes (jump table,
    // stored depths, candidate bitset) must still validate and the
    // deepest leaf must match the oracle.
    const auto params = makeParams(65536, 16, 9, 512, true);
    CatTree fast(params);
    ReferenceCatTree ref(params);
    Xoshiro256StarStar rng(17);
    for (int phase = 0; phase < 14; ++phase) {
        const RowAddr hot =
            static_cast<RowAddr>(rng.nextBounded(65536));
        std::vector<RowAddr> stream;
        stream.reserve(25000);
        for (int i = 0; i < 25000; ++i)
            stream.push_back(rng.nextDouble() < 0.8
                ? hot
                : static_cast<RowAddr>(rng.nextBounded(65536)));
        runDifferential(fast, ref, stream, 65536, 12500);
        if (HasFatalFailure())
            return;
        std::string why;
        ASSERT_TRUE(fast.checkInvariants(&why))
            << "phase " << phase << ": " << why;
        ASSERT_EQ(fast.maxLeafDepth(), ref.maxLeafDepth())
            << "phase " << phase;
    }
    EXPECT_GT(fast.totalMerges(), 4u);
}

} // namespace catsim
