/**
 * @file
 * Property tests for the DDR5 RFM-style scheme: an RFM refresh is
 * issued within the configured activation budget on every bank under
 * random, burst, and many-sided streams; refresh accounting is
 * identical through onActivate and onActivateBatch; victims follow the
 * physical-adjacency model.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"
#include "core/factory.hpp"
#include "core/rfm.hpp"
#include "sim/activation_sim.hpp"

namespace catsim
{

namespace
{

constexpr RowAddr kRows = 65536;

/** Random, burst, and round-robin many-sided activation streams. */
std::vector<std::vector<RowAddr>>
streamCorpus(std::size_t acts)
{
    std::vector<std::vector<RowAddr>> corpus(3);
    Xoshiro256StarStar rng(17);
    for (std::size_t i = 0; i < acts; ++i) {
        corpus[0].push_back(
            static_cast<RowAddr>(rng.nextBounded(kRows)));
        corpus[1].push_back(4242); // single-row burst
        corpus[2].push_back(
            static_cast<RowAddr>(1000 + 2 * (i % 8))); // many-sided
    }
    return corpus;
}

} // namespace

TEST(Rfm, Budget)
{
    Rfm rfm(kRows, 64);
    EXPECT_EQ(rfm.budget(), 64u);
}

TEST(Rfm, RefreshWithinBudgetOnEveryStream)
{
    constexpr std::uint32_t kBudget = 64;
    constexpr std::size_t kActs = 6400;
    for (const auto &stream : streamCorpus(kActs)) {
        Rfm rfm(kRows, kBudget);
        std::uint64_t sinceRefresh = 0;
        for (const RowAddr row : stream) {
            ++sinceRefresh;
            if (rfm.onActivate(row).triggered())
                sinceRefresh = 0;
            ASSERT_LE(sinceRefresh, kBudget)
                << "RFM exceeded its activation budget";
        }
        // The cadence is exact, not just bounded.
        EXPECT_EQ(rfm.stats().refreshEvents, kActs / kBudget);
        EXPECT_EQ(rfm.stats().activations, kActs);
    }
}

TEST(Rfm, BurstRefreshesTheSampledRowsVictims)
{
    Rfm rfm(kRows, 4);
    for (int i = 0; i < 3; ++i)
        EXPECT_FALSE(rfm.onActivate(500).triggered());
    const RefreshAction act = rfm.onActivate(500);
    ASSERT_TRUE(act.triggered());
    EXPECT_EQ(act.lo, 499u);
    EXPECT_EQ(act.hi, 501u);
    EXPECT_EQ(act.rowCount, 2u) << "aggressor itself not refreshed";
    EXPECT_EQ(rfm.stats().victimRowsRefreshed, 2u);
}

TEST(Rfm, AdjacencyModelSelectsPhysicalVictims)
{
    const RowAdjacency adj(RowAdjacency::Kind::BlockMirrored, kRows);
    Rfm rfm(kRows, 1);
    rfm.setAdjacency(&adj);
    const RefreshAction act = rfm.onActivate(1000);
    ASSERT_TRUE(act.triggered());
    std::array<RowAddr, 2> victims{};
    ASSERT_EQ(adj.victims(1000, victims), 2u);
    EXPECT_EQ(act.lo, std::min(victims[0], victims[1]));
    EXPECT_EQ(act.hi, std::max(victims[0], victims[1]));
}

TEST(Rfm, EpochResetsRollingCounter)
{
    constexpr std::uint32_t kBudget = 64;
    Rfm rfm(kRows, kBudget);
    for (std::uint32_t i = 0; i < kBudget - 1; ++i)
        EXPECT_FALSE(rfm.onActivate(i).triggered());
    rfm.onEpoch();
    // The rolling window restarted: a full budget is available again.
    for (std::uint32_t i = 0; i < kBudget - 1; ++i)
        EXPECT_FALSE(rfm.onActivate(i).triggered());
    EXPECT_TRUE(rfm.onActivate(9).triggered());
    EXPECT_EQ(rfm.stats().epochResets, 1u);
}

TEST(Rfm, BatchMatchesPerActivationStats)
{
    Rfm single(kRows, 32);
    Rfm batched(kRows, 32);
    std::vector<RowAddr> acts;
    Xoshiro256StarStar rng(3);
    for (int i = 0; i < 10000; ++i)
        acts.push_back(static_cast<RowAddr>(rng.nextBounded(kRows)));

    for (const RowAddr row : acts)
        single.onActivate(row);
    for (std::size_t i = 0; i < acts.size(); i += 513) {
        const std::size_t n = std::min<std::size_t>(513,
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
}

TEST(Rfm, EveryBankRefreshesWithinBudgetUnderReplay)
{
    // Four banks with different stream lengths through the factory +
    // replay stack: each bank's scheme must issue exactly
    // epochs * floor(actsPerEpoch / budget) refreshes - the rolling
    // counter resets at every retention epoch.
    constexpr std::uint32_t kBudget = 32;
    SchemeConfig cfg;
    cfg.kind = SchemeKind::Rfm;
    cfg.rfmBudget = kBudget;

    const std::uint64_t actsPerBank[4] = {2000, 3300, 4096, 700};
    std::vector<std::unique_ptr<ActivationSource>> sources;
    std::uint64_t wantRefreshes = 0;
    std::uint64_t wantActs = 0;
    for (std::uint32_t b = 0; b < 4; ++b) {
        AttackSourceParams p;
        p.numRows = kRows;
        p.targets = {RowAddr(100 + b)};
        p.actsPerEpoch = actsPerBank[b];
        p.epochs = 2;
        p.seed = 50 + b;
        sources.push_back(std::make_unique<SyntheticAttackSource>(p));
        wantRefreshes += 2 * (actsPerBank[b] / kBudget);
        wantActs += 2 * actsPerBank[b];
    }
    const ReplayResult result = replaySources(sources, cfg, kRows);
    EXPECT_EQ(result.banks, 4u);
    EXPECT_EQ(result.stats.activations, wantActs);
    EXPECT_EQ(result.stats.refreshEvents, wantRefreshes);
}

TEST(RfmDeath, RejectsZeroBudget)
{
    EXPECT_EXIT(Rfm(kRows, 0), ::testing::ExitedWithCode(1), "budget");
}

} // namespace catsim
