/**
 * @file
 * Geometry and differential tests for the modern attack kernels: the
 * shared distinct-row placement helper, straddling-pair structure of
 * the many-sided and half-double kernels, blast-radius flow through
 * RowAdjacency::victimsWithin, and placement invariance under
 * CATSIM_JOBS.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <set>
#include <vector>

#include "core/adjacency.hpp"
#include "trace/attack_kernel.hpp"

namespace catsim
{

namespace
{

// Placement must be a pure function of (geometry, seed); scrub the
// parallelism knobs so the tests below prove it against a clean slate.
const bool kEnvScrubbed = [] {
    ::unsetenv("CATSIM_JOBS");
    return true;
}();

struct EnvVarGuard
{
    explicit EnvVarGuard(const char *name) : name_(name) {}
    ~EnvVarGuard() { ::unsetenv(name_); }
    const char *name_;
};

/**
 * Greedy straddle matching: repeatedly pair the smallest unmatched
 * aggressor x with x + 2*gap.  Returns the number of pairs matched;
 * asserts every matched pair's midpoint (the victim) is NOT itself an
 * aggressor.  The smallest unmatched row must be a pair's low
 * aggressor (its partner would otherwise be smaller and matched
 * already), so greedy matching recovers the placement's structure.
 */
std::size_t
countStraddlePairs(const std::vector<RowAddr> &rows, RowAddr gap)
{
    std::set<RowAddr> all(rows.begin(), rows.end());
    std::set<RowAddr> unmatched = all;
    std::size_t pairs = 0;
    while (!unmatched.empty()) {
        const RowAddr x = *unmatched.begin();
        unmatched.erase(unmatched.begin());
        const auto partner = unmatched.find(x + 2 * gap);
        if (partner == unmatched.end())
            continue; // lone aggressor (odd targets-per-bank)
        unmatched.erase(partner);
        EXPECT_EQ(all.count(x + gap), 0u)
            << "victim " << x + gap << " is itself an aggressor";
        ++pairs;
    }
    return pairs;
}

std::vector<std::vector<RowAddr>>
placeTargets(AttackKernelKind kind, std::uint64_t seed,
             std::uint32_t targets_per_bank)
{
    const DramGeometry geom = DramGeometry::dualCore2Ch();
    std::vector<std::vector<RowAddr>> targets(
        geom.totalBanks(), std::vector<RowAddr>(targets_per_bank));
    makeAttackKernel(kind)->pickTargets(targets, geom, seed);
    return targets;
}

} // namespace

TEST(PickDistinctRow, AcceptsFirstAcceptableDraw)
{
    int calls = 0;
    const auto draw = [&]() -> RowAddr { return ++calls, 5; };
    EXPECT_EQ(pickDistinctRow(100, draw,
                              [](RowAddr) { return true; }),
              5u);
    EXPECT_EQ(calls, 1);
}

TEST(PickDistinctRow, RedrawsOnCollision)
{
    std::vector<RowAddr> sequence{7, 7, 12};
    std::size_t i = 0;
    const auto draw = [&]() { return sequence[i++]; };
    EXPECT_EQ(pickDistinctRow(100, draw,
                              [](RowAddr r) { return r != 7; }),
              12u);
    EXPECT_EQ(i, 3u);
}

TEST(PickDistinctRow, FallsBackToWrappingLinearProbe)
{
    // The draw never produces an acceptable row: after 64 attempts the
    // helper probes linearly (wrapping) from the last candidate.
    int calls = 0;
    const auto draw = [&]() -> RowAddr { return ++calls, 3; };
    EXPECT_EQ(pickDistinctRow(4, draw,
                              [](RowAddr r) { return r == 1; }),
              1u);
    EXPECT_EQ(calls, 64);
}

TEST(AttackKernel, ManySidedPairsStraddleVictims)
{
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
        const auto targets =
            placeTargets(AttackKernelKind::ManySided, seed, 8);
        for (const auto &rows : targets) {
            ASSERT_EQ(rows.size(), 8u);
            const std::set<RowAddr> distinct(rows.begin(), rows.end());
            ASSERT_EQ(distinct.size(), 8u) << "duplicate aggressors";
            EXPECT_TRUE(std::is_sorted(rows.begin(), rows.end()));
            for (const RowAddr r : rows)
                ASSERT_LT(r, 65536u);
            EXPECT_EQ(countStraddlePairs(rows, 1), 4u)
                << "seed " << seed;
        }
    }
}

TEST(AttackKernel, HalfDoublePairsAtPhysicalDistanceTwo)
{
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
        const auto targets =
            placeTargets(AttackKernelKind::HalfDouble, seed, 8);
        for (const auto &rows : targets) {
            const std::set<RowAddr> distinct(rows.begin(), rows.end());
            ASSERT_EQ(distinct.size(), 8u);
            EXPECT_EQ(countStraddlePairs(rows, 2), 4u)
                << "seed " << seed;
        }
    }
}

TEST(AttackKernel, OddTargetCountTopsUpWithLoneAggressor)
{
    const auto targets =
        placeTargets(AttackKernelKind::ManySided, 3, 5);
    for (const auto &rows : targets) {
        const std::set<RowAddr> distinct(rows.begin(), rows.end());
        ASSERT_EQ(distinct.size(), 5u);
        EXPECT_EQ(countStraddlePairs(rows, 1), 2u);
    }
}

TEST(AttackKernel, BlastRadiusTwoFlowsThroughAdjacency)
{
    // Every half-double aggressor pair (x, x+4) squeezes the victim
    // x+2 at physical distance 2: the victim must appear in the
    // aggressor's radius-2 neighborhood, which is how the disturbance
    // accounting sees half-double pressure.
    const RowAdjacency adj(RowAdjacency::Kind::Direct, 65536);
    const auto targets =
        placeTargets(AttackKernelKind::HalfDouble, 1, 8);
    for (const auto &rows : targets) {
        const std::set<RowAddr> all(rows.begin(), rows.end());
        for (const RowAddr x : rows) {
            if (!all.count(x + 4))
                continue;
            std::array<RowAddr, 4> blast{};
            const std::uint32_t n = adj.victimsWithin(x, 2, blast);
            EXPECT_TRUE(std::find(blast.begin(), blast.begin() + n,
                                  x + 2)
                        != blast.begin() + n)
                << "victim " << x + 2 << " outside blast radius of "
                << x;
        }
    }
}

TEST(AttackKernel, PlacementIgnoresJobsEnv)
{
    const auto reference =
        placeTargets(AttackKernelKind::ManySided, 5, 8);
    const auto referenceHd =
        placeTargets(AttackKernelKind::HalfDouble, 5, 8);
    EnvVarGuard jobs("CATSIM_JOBS");
    for (const char *j : {"1", "7"}) {
        ::setenv("CATSIM_JOBS", j, 1);
        EXPECT_EQ(placeTargets(AttackKernelKind::ManySided, 5, 8),
                  reference)
            << "jobs=" << j;
        EXPECT_EQ(placeTargets(AttackKernelKind::HalfDouble, 5, 8),
                  referenceHd)
            << "jobs=" << j;
    }
}

TEST(AttackKernel, TinyBankCollisionStress)
{
    // 8 targets in a 64-row bank with sigma 1: nearly every Gaussian
    // draw collides, forcing the shared helper's redraw and probe
    // paths while the straddle feasibility guard still admits the
    // placement (9*4 + 2*gap + 8 < 64).
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
        for (const RowAddr gap : {RowAddr(1), RowAddr(2)}) {
            std::vector<RowAddr> rows(8);
            Xoshiro256StarStar rng(seed);
            drawStraddlePairs(rows, rng, 32, 1.0, 64, gap);
            const std::set<RowAddr> distinct(rows.begin(), rows.end());
            ASSERT_EQ(distinct.size(), 8u)
                << "seed " << seed << " gap " << gap;
            for (const RowAddr r : rows)
                ASSERT_LT(r, 64u);
            EXPECT_EQ(countStraddlePairs(rows, gap), 4u);
        }
    }
}

TEST(AttackKernel, ParseAndNameRoundTrip)
{
    EXPECT_EQ(parseAttackKernelKind("manysided"),
              AttackKernelKind::ManySided);
    EXPECT_EQ(parseAttackKernelKind("many-sided"),
              AttackKernelKind::ManySided);
    EXPECT_EQ(parseAttackKernelKind("HalfDouble"),
              AttackKernelKind::HalfDouble);
    EXPECT_EQ(parseAttackKernelKind("half-double"),
              AttackKernelKind::HalfDouble);
    EXPECT_STREQ(attackKernelKindName(AttackKernelKind::ManySided),
                 "ManySided");
    EXPECT_STREQ(attackKernelKindName(AttackKernelKind::HalfDouble),
                 "HalfDouble");
}

TEST(Adjacency, VictimsWithinDirectModel)
{
    const RowAdjacency adj(RowAdjacency::Kind::Direct, 65536);
    std::array<RowAddr, 4> out{};
    // Nearest ring first.
    ASSERT_EQ(adj.victimsWithin(100, 1, out), 2u);
    EXPECT_EQ(out[0], 99u);
    EXPECT_EQ(out[1], 101u);
    ASSERT_EQ(adj.victimsWithin(100, 2, out), 4u);
    EXPECT_EQ(out[0], 99u);
    EXPECT_EQ(out[1], 101u);
    EXPECT_EQ(out[2], 98u);
    EXPECT_EQ(out[3], 102u);
    // Edges clip.
    ASSERT_EQ(adj.victimsWithin(0, 2, out), 2u);
    EXPECT_EQ(out[0], 1u);
    EXPECT_EQ(out[1], 2u);
    ASSERT_EQ(adj.victimsWithin(1, 2, out), 3u);
    ASSERT_EQ(adj.victimsWithin(65535, 2, out), 2u);
}

TEST(Adjacency, VictimsWithinRespectsRemapping)
{
    for (const auto kind : {RowAdjacency::Kind::BlockMirrored,
                            RowAdjacency::Kind::Scrambled}) {
        const RowAdjacency adj(kind, 65536);
        for (const RowAddr row : {RowAddr(0), RowAddr(513),
                                  RowAddr(4095), RowAddr(65535)}) {
            std::array<RowAddr, 4> out{};
            const std::uint32_t n = adj.victimsWithin(row, 2, out);
            const RowAddr pos = adj.logicalToPhysical(row);
            std::set<RowAddr> got(out.begin(), out.begin() + n);
            std::set<RowAddr> want;
            for (RowAddr d = 1; d <= 2; ++d) {
                if (pos >= d)
                    want.insert(adj.physicalToLogical(pos - d));
                if (pos + d < 65536)
                    want.insert(adj.physicalToLogical(pos + d));
            }
            EXPECT_EQ(got, want) << "row " << row;
        }
    }
}

TEST(AttackKernelDeath, InfeasibleStraddlePlacementIsFatal)
{
    std::vector<RowAddr> rows(8);
    Xoshiro256StarStar rng(1);
    EXPECT_EXIT(drawStraddlePairs(rows, rng, 8, 1.0, 16, 2),
                ::testing::ExitedWithCode(1), "cannot place");
    EXPECT_EXIT(drawStraddlePairs(rows, rng, 8, 1.0, 65536, 0),
                ::testing::ExitedWithCode(1), "cannot place");
}

TEST(AdjacencyDeath, VictimsWithinRejectsBadRadius)
{
    const RowAdjacency adj(RowAdjacency::Kind::Direct, 65536);
    std::array<RowAddr, 4> out{};
    EXPECT_EXIT(adj.victimsWithin(5, 0, out),
                ::testing::ExitedWithCode(1), "radius");
    EXPECT_EXIT(adj.victimsWithin(5, 3, out),
                ::testing::ExitedWithCode(1), "radius");
}

} // namespace catsim
