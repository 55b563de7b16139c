/**
 * @file
 * Property tests for the Misra-Gries frequent-item mitigation: the
 * classic count-underestimate bound against an exact-count oracle, the
 * no-false-negative-above-threshold guarantee on seeded-random and
 * adversarial streams (sized and undersized tables), behavior across
 * epoch resets, and onActivate/onActivateBatch stats identity.
 *
 * `MisraGriesDiff.*` holds the indexed table to the frozen scanning
 * oracle (`ReferenceMisraGries`, tests/oracles/) activation by
 * activation, at table sizes on both sides of every 64-entry bitmap
 * word edge.
 */

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "common/rng.hpp"
#include "core/misra_gries.hpp"
#include "oracles/reference_misra_gries.hpp"
#include "sim/activation_source.hpp"

namespace catsim
{

namespace
{

constexpr RowAddr kRows = 65536;

/** A threshold far above any bound the streams below can reach. */
constexpr std::uint32_t kNeverTrigger = 1000000000;

/**
 * Feed @p acts activations of @p mg while asserting the no-false-
 * negative guarantee against an exact oracle: no row's true activation
 * count since the last refresh triggered by that row ever reaches past
 * the threshold.
 */
void
assertNoFalseNegative(MisraGries &mg, const std::vector<RowAddr> &acts,
                      std::uint32_t threshold,
                      std::map<RowAddr, std::uint64_t> &since)
{
    for (const RowAddr row : acts) {
        ++since[row];
        const RefreshAction act = mg.onActivate(row);
        ASSERT_LE(since[row], threshold)
            << "row " << row << " hammered past the threshold "
            << "without a refresh";
        if (act.triggered())
            since[row] = 0;
    }
}

} // namespace

TEST(MisraGries, EntryCount)
{
    MisraGries mg(kRows, 8, 32768);
    EXPECT_EQ(mg.numEntries(), 8u);
}

TEST(MisraGries, RefreshesNeighborsOfTriggeringRow)
{
    MisraGries mg(kRows, 4, 2);
    EXPECT_FALSE(mg.onActivate(100).triggered());
    const RefreshAction act = mg.onActivate(100);
    ASSERT_TRUE(act.triggered());
    EXPECT_EQ(act.lo, 99u);
    EXPECT_EQ(act.hi, 101u);
    EXPECT_EQ(act.rowCount, 2u) << "aggressor itself not refreshed";
    EXPECT_EQ(mg.stats().refreshEvents, 1u);
    EXPECT_EQ(mg.stats().victimRowsRefreshed, 2u);

    // Edge rows have a single victim.
    MisraGries edge(kRows, 4, 2);
    edge.onActivate(0);
    const RefreshAction low = edge.onActivate(0);
    ASSERT_TRUE(low.triggered());
    EXPECT_EQ(low.rowCount, 1u);
    EXPECT_EQ(low.lo, 1u);
}

TEST(MisraGries, UnderestimateBoundAgainstExactOracle)
{
    // k = 8 entries against a 64-row working set: evictions and
    // decrements happen constantly.  The sketch must never OVER-count,
    // and its underestimate is bounded by the global spill counter,
    // itself at most N/(k+1) after N activations.
    constexpr std::uint32_t kEntries = 8;
    MisraGries mg(kRows, kEntries, kNeverTrigger);
    std::map<RowAddr, std::uint64_t> truth;
    Xoshiro256StarStar rng(99);
    std::uint64_t n = 0;
    for (int i = 0; i < 50000; ++i) {
        const auto row = static_cast<RowAddr>(rng.nextBounded(64));
        ++truth[row];
        mg.onActivate(row);
        ++n;
        if (i % 1000 != 0)
            continue;
        ASSERT_LE(mg.decrements() * (kEntries + 1), n)
            << "spill counter above N/(k+1) after " << n << " acts";
        for (const auto &[r, trueCount] : truth) {
            const std::uint64_t tracked = mg.trackedCount(r);
            ASSERT_LE(tracked, trueCount)
                << "sketch over-counted row " << r;
            ASSERT_LE(trueCount - tracked, mg.decrements())
                << "underestimate of row " << r
                << " exceeds the spill total";
        }
    }
}

TEST(MisraGries, AdversarialRoundRobinMeetsTightBound)
{
    // Round robin over k+1 rows is the classic worst case: every
    // (k+1)-th activation misses a full table and decrements, so the
    // spill counter tracks N/(k+1) exactly and the (k+1)-th row's
    // underestimate equals the bound.
    constexpr std::uint32_t kEntries = 4;
    MisraGries mg(kRows, kEntries, kNeverTrigger);
    constexpr std::uint64_t kCycles = 1000;
    for (std::uint64_t c = 0; c < kCycles; ++c)
        for (RowAddr row = 0; row <= kEntries; ++row)
            mg.onActivate(row);
    EXPECT_EQ(mg.decrements(), kCycles);
    EXPECT_EQ(mg.trackedCount(kEntries), 0u)
        << "the overflowing row is never retained";
    // true(k) - tracked(k) == kCycles - 0 == decrements: bound tight.
}

TEST(MisraGries, NoFalseNegativeWithGrapheneSizedTable)
{
    // Sized per Graphene: entries + 1 = 129 > 60000 acts / T=500, so
    // the spill counter stays below T and the conservative miss path
    // never fires - yet an embedded heavy hitter (30% of the stream)
    // must still be refreshed every <= T of its own activations.
    constexpr std::uint32_t kThreshold = 500;
    MisraGries mg(8192, 128, kThreshold);
    std::vector<RowAddr> acts;
    Xoshiro256StarStar rng(7);
    for (int i = 0; i < 60000; ++i) {
        acts.push_back(rng.nextDouble() < 0.3
                           ? RowAddr(4000)
                           : static_cast<RowAddr>(
                                 rng.nextBounded(8000)));
    }
    std::map<RowAddr, std::uint64_t> since;
    assertNoFalseNegative(mg, acts, kThreshold, since);
    EXPECT_LT(mg.decrements(), kThreshold)
        << "a Graphene-sized table must never hit the "
           "conservative miss path";
    // ~18000 heavy-hitter acts at T=500 demand dozens of refreshes.
    EXPECT_GE(mg.stats().refreshEvents, 30u);
}

TEST(MisraGries, NoFalseNegativeWhenUndersized)
{
    // 4 entries against 40 round-robin rows plus a heavy hitter: the
    // spill counter blows through T, and the scheme must degrade to
    // conservative refreshes instead of losing the guarantee.
    constexpr std::uint32_t kThreshold = 50;
    MisraGries mg(kRows, 4, kThreshold);
    std::vector<RowAddr> acts;
    for (int i = 0; i < 20000; ++i) {
        acts.push_back(static_cast<RowAddr>(i % 40));
        if (i % 3 == 0)
            acts.push_back(777);
    }
    std::map<RowAddr, std::uint64_t> since;
    assertNoFalseNegative(mg, acts, kThreshold, since);
    EXPECT_GE(mg.decrements(), kThreshold)
        << "this stream is supposed to exercise the undersized path";
}

TEST(MisraGries, EpochResetClearsSketchAndKeepsGuarantee)
{
    constexpr std::uint32_t kThreshold = 60;
    MisraGries mg(kRows, 6, kThreshold);
    std::vector<RowAddr> acts;
    Xoshiro256StarStar rng(21);
    for (int i = 0; i < 5000; ++i)
        acts.push_back(static_cast<RowAddr>(rng.nextBounded(30)));

    for (int epoch = 0; epoch < 3; ++epoch) {
        // Retention refresh clears true disturbance too, so the
        // oracle restarts with the sketch.
        std::map<RowAddr, std::uint64_t> since;
        assertNoFalseNegative(mg, acts, kThreshold, since);
        mg.onEpoch();
        EXPECT_EQ(mg.decrements(), 0u);
        for (RowAddr row = 0; row < 30; ++row)
            EXPECT_EQ(mg.trackedCount(row), 0u);
    }
    EXPECT_EQ(mg.stats().epochResets, 3u);
}

TEST(MisraGries, BatchMatchesPerActivationStats)
{
    MisraGries single(kRows, 16, 64);
    MisraGries batched(kRows, 16, 64);
    std::vector<RowAddr> acts;
    Xoshiro256StarStar rng(5);
    for (int i = 0; i < 20000; ++i)
        acts.push_back(static_cast<RowAddr>(rng.nextBounded(256)));

    for (const RowAddr row : acts)
        single.onActivate(row);
    for (std::size_t i = 0; i < acts.size(); i += 777) {
        const std::size_t n = std::min<std::size_t>(777,
                                                    acts.size() - i);
        batched.onActivateBatch(acts.data() + i, n);
    }

    const SchemeStats &a = single.stats();
    const SchemeStats &b = batched.stats();
    EXPECT_EQ(a.activations, b.activations);
    EXPECT_EQ(a.refreshEvents, b.refreshEvents);
    EXPECT_EQ(a.victimRowsRefreshed, b.victimRowsRefreshed);
    EXPECT_EQ(a.sramAccesses, b.sramAccesses);
    EXPECT_EQ(a.epochResets, b.epochResets);
    EXPECT_EQ(single.decrements(), batched.decrements());
    for (RowAddr row = 0; row < 256; ++row)
        ASSERT_EQ(single.trackedCount(row), batched.trackedCount(row))
            << "row " << row;
}

namespace
{

/** Table sizes on both sides of each free-bitmap word edge. */
constexpr std::uint32_t kDiffSizes[] = {1, 63, 64, 65, 130};

/**
 * Step the indexed table and the frozen scanning oracle through
 * @p acts (a kEpochMarker entry resets both) and require identical
 * refresh actions, spill counts and tracked counts after every
 * activation, and identical stats at the end.
 */
void
expectMatchesReference(std::uint32_t entries, std::uint32_t threshold,
                       const std::vector<RowAddr> &acts)
{
    MisraGries mg(kRows, entries, threshold);
    ReferenceMisraGries ref(kRows, entries, threshold);
    for (std::size_t i = 0; i < acts.size(); ++i) {
        const RowAddr row = acts[i];
        if (row == kEpochMarker) {
            mg.onEpoch();
            ref.onEpoch();
            continue;
        }
        const RefreshAction got = mg.onActivate(row);
        const RefreshAction want = ref.onActivate(row);
        ASSERT_EQ(got.rowCount, want.rowCount)
            << "k=" << entries << " act " << i << " row " << row;
        ASSERT_EQ(got.lo, want.lo) << "k=" << entries << " act " << i;
        ASSERT_EQ(got.hi, want.hi) << "k=" << entries << " act " << i;
        ASSERT_EQ(mg.decrements(), ref.decrements())
            << "k=" << entries << " act " << i;
        ASSERT_EQ(mg.trackedCount(row), ref.trackedCount(row))
            << "k=" << entries << " act " << i << " row " << row;
    }
    for (const auto field : SchemeStats::kFields)
        EXPECT_EQ(mg.stats().*field, ref.stats().*field) << "k=" << entries;
}

/**
 * Uniform filler over the bank with 8 aggressors (four double-sided
 * pairs, two of them at the bank edges) taking half the activations:
 * the shape of a closed-loop hammer bank.
 */
std::vector<RowAddr>
hammerStream(std::size_t n, std::uint64_t seed)
{
    constexpr RowAddr kPairs[] = {1, 9000, 30001, kRows - 4};
    Xoshiro256StarStar rng(seed);
    std::vector<RowAddr> acts;
    acts.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        const bool hammer = rng.nextDouble() < 0.5;
        const std::uint64_t r = rng.nextBounded(hammer ? 8 : kRows);
        const std::uint64_t row = hammer ? kPairs[r / 2] + 2 * (r % 2) : r;
        acts.push_back(static_cast<RowAddr>(row));
    }
    return acts;
}

} // namespace

TEST(MisraGriesDiff, HammerShapeAtClosedLoopSize)
{
    // k = 512 and the scaled T = 655 of the closed-loop cells; the
    // smaller tables spill past T and refresh on every miss.
    const auto acts = hammerStream(100000, 42);
    ASSERT_NO_FATAL_FAILURE(expectMatchesReference(512, 655, acts));
    for (const std::uint32_t k : kDiffSizes)
        ASSERT_NO_FATAL_FAILURE(expectMatchesReference(k, 655, acts));
}

TEST(MisraGriesDiff, CloudMixStream)
{
    CloudMixParams p;
    p.numRows = kRows;
    p.tenants = 4;
    p.hotRowsPerTenant = 64;
    p.actsPerEpoch = 20000;
    p.epochs = 3;
    p.phaseEvery = 7000;
    p.seed = 11;
    CloudMixSource source(p);
    std::vector<RowAddr> acts;
    for (;;) {
        const RowAddr *rows = nullptr;
        std::size_t count = 0;
        const SourceChunk chunk = source.next(&rows, &count);
        if (chunk == SourceChunk::End)
            break;
        if (chunk == SourceChunk::Epoch)
            acts.push_back(kEpochMarker);
        else
            acts.insert(acts.end(), rows, rows + count);
    }
    for (const std::uint32_t k : kDiffSizes)
        ASSERT_NO_FATAL_FAILURE(expectMatchesReference(k, 200, acts));
}

TEST(MisraGriesDiff, RoundRobinOverOneMoreRowThanEntries)
{
    for (const std::uint32_t k : kDiffSizes) {
        std::vector<RowAddr> acts;
        for (int c = 0; c < 600; ++c)
            for (RowAddr row = 0; row <= k; ++row)
                acts.push_back(500 + row);
        ASSERT_NO_FATAL_FAILURE(expectMatchesReference(k, 300, acts));
    }
}

TEST(MisraGriesDiff, UndersizedTablePastThreshold)
{
    // Bursts of 2 or 3 activations per row over a working set four
    // times the table.  Near T an entry whose burst ends on a refresh
    // is left free; bursts of the other length refill it, so the table
    // keeps filling and the spill total passes T.
    constexpr std::uint32_t kThreshold = 50;
    for (const std::uint32_t k : kDiffSizes) {
        std::vector<RowAddr> acts;
        for (std::uint32_t i = 0; i < 16000; ++i) {
            const auto row = static_cast<RowAddr>(i % (4 * k + 3));
            acts.insert(acts.end(), 2 + i % 2, row);
        }
        ASSERT_NO_FATAL_FAILURE(expectMatchesReference(k, kThreshold, acts));
        ReferenceMisraGries ref(kRows, k, kThreshold);
        for (const RowAddr row : acts)
            ref.onActivate(row);
        EXPECT_GE(ref.decrements(), kThreshold)
            << "k=" << k << " never reached the undersized path";
    }
}

TEST(MisraGriesDiff, EpochResetsMidStream)
{
    Xoshiro256StarStar rng(21);
    std::vector<RowAddr> acts;
    for (int i = 0; i < 30000; ++i) {
        if (i % 777 == 776)
            acts.push_back(kEpochMarker);
        acts.push_back(static_cast<RowAddr>(rng.nextBounded(400)));
    }
    for (const std::uint32_t k : kDiffSizes)
        ASSERT_NO_FATAL_FAILURE(expectMatchesReference(k, 60, acts));
}

TEST(MisraGriesDiff, InstallPicksLowestFreeEntry)
{
    // Two entries, T = 4.  A and B take slots 0 and 1; the first spill
    // frees both, X evicts A from slot 0 and is refreshed (its
    // baseline moves to 1).  The second spill frees X's slot 0 and B's
    // slot 1 again.  D takes the lower slot and evicts X, so X's next
    // miss reinstalls it with the full spill total as its bound and it
    // refreshes on its 2nd activation.  Had D taken slot 1 (as a
    // rotating cursor past X's install would), X would still be
    // tracked with baseline 1 and refresh one activation later.
    constexpr RowAddr A = 100, B = 200, C = 300, D = 400, X = 500;
    const std::vector<RowAddr> acts = {A, B, C, X, X, X, X, B, C, D, X, X, X};
    const std::vector<std::size_t> refreshAt = {5, 11};
    MisraGries mg(kRows, 2, 4);
    std::vector<std::size_t> fired;
    for (std::size_t i = 0; i < acts.size(); ++i)
        if (mg.onActivate(acts[i]).triggered())
            fired.push_back(i);
    EXPECT_EQ(fired, refreshAt);
    EXPECT_EQ(mg.decrements(), 2u);
    ASSERT_NO_FATAL_FAILURE(expectMatchesReference(2, 4, acts));
}

TEST(MisraGriesDeath, RejectsBadConfig)
{
    EXPECT_EXIT(MisraGries(0, 8, 32768), ::testing::ExitedWithCode(1),
                "at least one row");
    EXPECT_EXIT(MisraGries(kRows, 0, 32768),
                ::testing::ExitedWithCode(1), "at least one entry");
    EXPECT_EXIT(MisraGries(kRows, 8, 1), ::testing::ExitedWithCode(1),
                "threshold");
}

TEST(MisraGriesDeath, RowOutOfRangePanics)
{
    // slotOf_ has one entry per row; the row past the last one must
    // stop the run instead of reading past the index.
    MisraGries mg(kRows, 8, 32768);
    mg.onActivate(kRows - 1);
    EXPECT_DEATH(mg.onActivate(kRows), "row 65536 out of range");
    const std::vector<RowAddr> rows{3, kRows + 9};
    EXPECT_DEATH(mg.onActivateBatch(rows.data(), rows.size()),
                 "row 65545 out of range");
}

} // namespace catsim
