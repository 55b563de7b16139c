/**
 * @file
 * Tests for the kernel-attack generator (paper Section VIII-D).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "trace/attack.hpp"

namespace catsim
{

namespace
{

struct Env
{
    Env()
        : geometry(DramGeometry::dualCore2Ch()),
          mapper(geometry, MappingPolicy::RowRankBankChanCol)
    {
    }

    DramGeometry geometry;
    AddressMapper mapper;
};

} // namespace

TEST(Attack, ModeFractions)
{
    EXPECT_DOUBLE_EQ(attackTargetFraction(AttackMode::Heavy), 0.75);
    EXPECT_DOUBLE_EQ(attackTargetFraction(AttackMode::Medium), 0.50);
    EXPECT_DOUBLE_EQ(attackTargetFraction(AttackMode::Light), 0.25);
    EXPECT_STREQ(attackModeName(AttackMode::Heavy), "Heavy");
}

TEST(Attack, FourTargetsPerBankSixtyFourTotal)
{
    // Paper: "4 rows per bank and a total of 64 target rows for 16
    // banks with dual-core/2-channels configuration".
    Env env;
    AttackWorkload atk(findWorkload("comm2"), env.geometry, env.mapper,
                       AttackMode::Medium, 1, 42, 1000);
    std::size_t total = 0;
    for (std::uint32_t b = 0; b < env.geometry.totalBanks(); ++b) {
        EXPECT_EQ(atk.targets(b).size(), 4u);
        total += atk.targets(b).size();
    }
    EXPECT_EQ(total, 64u);
}

TEST(Attack, TargetsAreDistinctRows)
{
    Env env;
    AttackWorkload atk(findWorkload("comm2"), env.geometry, env.mapper,
                       AttackMode::Heavy, 3, 42, 1000);
    for (std::uint32_t b = 0; b < env.geometry.totalBanks(); ++b) {
        std::set<RowAddr> rows(atk.targets(b).begin(),
                               atk.targets(b).end());
        EXPECT_EQ(rows.size(), 4u);
    }
}

TEST(Attack, GaussianCollisionsAreRedrawnDistinct)
{
    // Regression: Gaussian placement used to sort-and-bump duplicates,
    // which could silently shrink the effective targets-per-bank.  A
    // tiny bank with many targets makes collisions near-certain
    // (sigma = rows/64 = 1, 16 targets in 64 rows), so every kernel
    // must still come back with all-distinct target sets.
    DramGeometry tiny;
    tiny.channels = 1;
    tiny.ranksPerChannel = 1;
    tiny.banksPerRank = 2;
    tiny.rowsPerBank = 64;
    const std::uint32_t perBank = 16;
    for (std::uint64_t kernel = 1; kernel <= 12; ++kernel) {
        std::vector<std::vector<RowAddr>> targets(tiny.totalBanks());
        for (auto &t : targets)
            t.resize(perBank);
        GaussianKernel().pickTargets(targets, tiny, kernel);
        for (std::uint32_t b = 0; b < tiny.totalBanks(); ++b) {
            std::set<RowAddr> rows(targets[b].begin(),
                                   targets[b].end());
            EXPECT_EQ(rows.size(), perBank)
                << "kernel " << kernel << " bank " << b;
            for (RowAddr r : rows)
                EXPECT_LT(r, tiny.rowsPerBank);
        }
    }
}

TEST(Attack, GaussianKernelMatchesLegacyPlacementWhenNoCollision)
{
    // The strategy extraction must not move the paper kernels: at the
    // shipped geometries no kernel collides, so targets are exactly
    // the historical draws (center via nextBounded, offsets via
    // nextGaussian, sorted).
    Env env;
    std::vector<std::vector<RowAddr>> targets(
        env.geometry.totalBanks());
    for (auto &t : targets)
        t.resize(4);
    GaussianKernel().pickTargets(targets, env.geometry, 1);

    Xoshiro256StarStar krng(1 * 0x9E3779B9ULL + 7);
    const double sigma = env.geometry.rowsPerBank / 64.0;
    for (std::uint32_t b = 0; b < env.geometry.totalBanks(); ++b) {
        const std::uint64_t center =
            krng.nextBounded(env.geometry.rowsPerBank);
        std::vector<RowAddr> expect(4);
        for (auto &row : expect) {
            const double offset = krng.nextGaussian() * sigma;
            std::int64_t r = static_cast<std::int64_t>(center)
                             + static_cast<std::int64_t>(offset);
            const auto n =
                static_cast<std::int64_t>(env.geometry.rowsPerBank);
            r = ((r % n) + n) % n;
            row = static_cast<RowAddr>(r);
        }
        std::sort(expect.begin(), expect.end());
        EXPECT_EQ(targets[b], expect) << "bank " << b;
    }
}

TEST(Attack, MultiBankKernelSynchronizesTargetsAcrossBanks)
{
    Env env;
    AttackWorkload atk(findWorkload("comm2"), env.geometry, env.mapper,
                       AttackMode::Heavy, 5, 42, 1000, 4,
                       AttackKernelKind::MultiBank);
    const std::vector<RowAddr> &first = atk.targets(0);
    std::set<RowAddr> distinct(first.begin(), first.end());
    EXPECT_EQ(distinct.size(), 4u);
    for (std::uint32_t b = 1; b < env.geometry.totalBanks(); ++b)
        EXPECT_EQ(atk.targets(b), first) << "bank " << b;
}

TEST(Attack, KernelKindParse)
{
    EXPECT_EQ(parseAttackKernelKind("gaussian"),
              AttackKernelKind::Gaussian);
    EXPECT_EQ(parseAttackKernelKind("MultiBank"),
              AttackKernelKind::MultiBank);
}

TEST(Attack, DifferentKernelsPickDifferentTargets)
{
    Env env;
    AttackWorkload k1(findWorkload("comm2"), env.geometry, env.mapper,
                      AttackMode::Heavy, 1, 42, 100);
    AttackWorkload k2(findWorkload("comm2"), env.geometry, env.mapper,
                      AttackMode::Heavy, 2, 42, 100);
    EXPECT_NE(k1.targets(0), k2.targets(0));
}

class AttackMixTest : public ::testing::TestWithParam<AttackMode>
{
};

TEST_P(AttackMixTest, TargetShareMatchesMode)
{
    Env env;
    const AttackMode mode = GetParam();
    AttackWorkload atk(findWorkload("comm2"), env.geometry, env.mapper,
                       mode, 5, 7, 100000);
    // Collect target sets per bank for classification.
    std::vector<std::set<RowAddr>> targetSets(env.geometry.totalBanks());
    for (std::uint32_t b = 0; b < env.geometry.totalBanks(); ++b)
        targetSets[b] = {atk.targets(b).begin(), atk.targets(b).end()};

    TraceRecord r;
    Count onTarget = 0, total = 0;
    while (atk.next(r)) {
        const MappedAddr m = env.mapper.map(r.addr);
        const auto flat = m.bankId().flat(env.geometry);
        onTarget += targetSets[flat].count(m.row) != 0;
        ++total;
    }
    const double share =
        static_cast<double>(onTarget) / static_cast<double>(total);
    EXPECT_NEAR(share, attackTargetFraction(mode), 0.02);
}

INSTANTIATE_TEST_SUITE_P(Modes, AttackMixTest,
                         ::testing::Values(AttackMode::Heavy,
                                           AttackMode::Medium,
                                           AttackMode::Light));

TEST(Attack, DeterministicGivenSeeds)
{
    Env env;
    AttackWorkload a(findWorkload("comm2"), env.geometry, env.mapper,
                     AttackMode::Medium, 1, 42, 5000);
    AttackWorkload b(findWorkload("comm2"), env.geometry, env.mapper,
                     AttackMode::Medium, 1, 42, 5000);
    std::vector<Addr> first;
    TraceRecord r;
    while (a.next(r))
        first.push_back(r.addr);
    EXPECT_EQ(first.size(), 5000u);
    std::size_t i = 0;
    while (b.next(r)) {
        ASSERT_LT(i, first.size());
        ASSERT_EQ(r.addr, first[i++]);
    }
    EXPECT_EQ(i, first.size());
}

TEST(Attack, TargetRowsGetHammered)
{
    Env env;
    AttackWorkload atk(findWorkload("comm2"), env.geometry, env.mapper,
                       AttackMode::Heavy, 9, 11, 200000);
    std::map<RowAddr, Count> counts;
    TraceRecord r;
    while (atk.next(r)) {
        const MappedAddr m = env.mapper.map(r.addr);
        if (m.bankId().flat(env.geometry) == 0)
            ++counts[m.row];
    }
    // Each of bank 0's four targets should be far hotter than the
    // average benign row.
    for (const RowAddr t : atk.targets(0))
        EXPECT_GT(counts[t], 500u) << "target row " << t;
}

} // namespace catsim
