/**
 * @file
 * Tests for the synthetic workload generators (paper Section VI).
 */

#include <gtest/gtest.h>

#include <map>

#include "trace/workloads.hpp"

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

TEST(Workloads, SuiteHasEighteenAcrossFourSuites)
{
    const auto &suite = workloadSuite();
    EXPECT_EQ(suite.size(), 18u);
    std::map<std::string, int> bySuite;
    for (const auto &w : suite)
        ++bySuite[w.suite];
    EXPECT_EQ(bySuite["COMM"], 5);
    EXPECT_EQ(bySuite["PARSEC"], 7);
    EXPECT_EQ(bySuite["SPEC"], 4);
    EXPECT_EQ(bySuite["BIO"], 2);
}

TEST(Workloads, FindByName)
{
    EXPECT_EQ(findWorkload("black").suite, "PARSEC");
    EXPECT_EQ(findWorkload("libq").suite, "SPEC");
}

TEST(WorkloadsDeath, UnknownName)
{
    EXPECT_EXIT(findWorkload("nope"), ::testing::ExitedWithCode(1),
                "unknown workload");
}

TEST(Workloads, DeterministicGivenSeed)
{
    Env env;
    const auto &p = findWorkload("comm1");
    SyntheticWorkload a(p, env.geometry, env.mapper, 5, 10000);
    SyntheticWorkload b(p, env.geometry, env.mapper, 5, 10000);
    TraceRecord ra, rb;
    while (a.next(ra)) {
        ASSERT_TRUE(b.next(rb));
        ASSERT_EQ(ra.addr, rb.addr);
        ASSERT_EQ(ra.gap, rb.gap);
        ASSERT_EQ(ra.isWrite, rb.isWrite);
    }
    EXPECT_FALSE(b.next(rb));
}

TEST(Workloads, RespectsLength)
{
    Env env;
    SyntheticWorkload w(findWorkload("swapt"), env.geometry, env.mapper,
                        1, 1234);
    TraceRecord r;
    std::size_t n = 0;
    while (w.next(r))
        ++n;
    EXPECT_EQ(n, 1234u);
}

TEST(Workloads, ReadRatioApproximate)
{
    Env env;
    const auto &p = findWorkload("libq"); // 0.95 reads
    SyntheticWorkload w(p, env.geometry, env.mapper, 3, 50000);
    TraceRecord r;
    int reads = 0, total = 0;
    while (w.next(r)) {
        reads += !r.isWrite;
        ++total;
    }
    EXPECT_NEAR(reads / static_cast<double>(total), 0.95, 0.02);
}

TEST(Workloads, HotSetDominatesForSkewedProfiles)
{
    // blackscholes (Fig 3): a small set of rows dominates the bank's
    // accesses.
    Env env;
    const auto &p = findWorkload("black");
    SyntheticWorkload w(p, env.geometry, env.mapper, 7, 200000);
    TraceRecord r;
    std::map<RowAddr, Count> rowCounts;
    while (w.next(r))
        ++rowCounts[env.mapper.map(r.addr).row];
    // Top-32 rows must account for more than 40 % of all accesses.
    std::vector<Count> counts;
    for (const auto &[row, c] : rowCounts)
        counts.push_back(c);
    std::sort(counts.rbegin(), counts.rend());
    Count top = 0, total = 0;
    for (std::size_t i = 0; i < counts.size(); ++i) {
        if (i < 32)
            top += counts[i];
        total += counts[i];
    }
    EXPECT_GT(static_cast<double>(top) / static_cast<double>(total),
              0.4);
}

TEST(Workloads, StreamingProfileIsFlat)
{
    Env env;
    const auto &p = findWorkload("libq"); // low skew
    SyntheticWorkload w(p, env.geometry, env.mapper, 7, 200000);
    TraceRecord r;
    std::map<RowAddr, Count> rowCounts;
    Count total = 0;
    while (w.next(r)) {
        ++rowCounts[env.mapper.map(r.addr).row];
        ++total;
    }
    Count maxC = 0;
    for (const auto &[row, c] : rowCounts)
        maxC = std::max(maxC, c);
    // No single row may dominate a streaming workload.
    EXPECT_LT(static_cast<double>(maxC) / static_cast<double>(total),
              0.05);
}

TEST(Workloads, MeanGapTracksProfile)
{
    Env env;
    const auto &p = findWorkload("mum");
    SyntheticWorkload w(p, env.geometry, env.mapper, 11, 100000);
    TraceRecord r;
    double sum = 0;
    Count n = 0;
    while (w.next(r)) {
        sum += r.gap;
        ++n;
    }
    // Truncation of the exponential tail and integer rounding shave a
    // little off the mean.
    EXPECT_NEAR(sum / static_cast<double>(n), p.meanGap,
                p.meanGap * 0.1);
}

TEST(Workloads, PhaseRelocatesHotSet)
{
    Env env;
    WorkloadProfile p = findWorkload("comm1");
    p.phaseEvery = 20000;
    p.hotFraction = 0.9;
    SyntheticWorkload w(p, env.geometry, env.mapper, 13, 60000);
    TraceRecord r;
    std::map<RowAddr, Count> phase0, phase2;
    std::size_t i = 0;
    while (w.next(r)) {
        const RowAddr row = env.mapper.map(r.addr).row;
        if (i < 20000)
            ++phase0[row];
        else if (i >= 40000)
            ++phase2[row];
        ++i;
    }
    // The dominant rows of phase 0 must fade by phase 2.
    RowAddr top0 = 0;
    Count best = 0;
    for (const auto &[row, c] : phase0) {
        if (c > best) {
            best = c;
            top0 = row;
        }
    }
    EXPECT_LT(phase2[top0], best / 4)
        << "hot row must cool down after the phase change";
}

TEST(Workloads, ScatterRowIsBijective)
{
    std::vector<bool> seen(4096, false);
    for (std::uint64_t i = 0; i < 4096; ++i) {
        const RowAddr r = SyntheticWorkload::scatterRow(i, 4096);
        ASSERT_LT(r, 4096u);
        ASSERT_FALSE(seen[r]) << "collision at " << i;
        seen[r] = true;
    }
}

} // namespace catsim
