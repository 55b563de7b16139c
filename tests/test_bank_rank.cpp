/**
 * @file
 * Tests for per-bank and per-rank DRAM timing state machines.
 */

#include <gtest/gtest.h>

#include "dram/bank.hpp"
#include "dram/rank.hpp"

namespace catsim
{

TEST(Bank, ActToActRespectsTrc)
{
    const DramTiming t;
    Bank bank(t);
    EXPECT_EQ(bank.earliestActivate(100), 100u);
    bank.access(100, false);
    EXPECT_EQ(bank.earliestActivate(100), 100u + t.tRC);
    EXPECT_EQ(bank.earliestActivate(200), 200u);
}

TEST(Bank, ReadLatency)
{
    const DramTiming t;
    Bank bank(t);
    const Cycle done = bank.access(0, false);
    EXPECT_EQ(done, t.tRCD + t.tCAS + t.tBURST);
}

TEST(Bank, WriteExtendsBusyWindow)
{
    const DramTiming t;
    Bank bank(t);
    bank.access(0, true);
    // Write recovery pushes the next ACT past tRC.
    const Cycle writeBusy =
        t.tRCD + t.tCAS + t.tBURST + t.tWR + t.tRP;
    EXPECT_EQ(bank.earliestActivate(0), std::max<Cycle>(t.tRC,
                                                        writeBusy));
}

TEST(Bank, VictimRefreshBlocksForTrcPerRow)
{
    const DramTiming t;
    Bank bank(t);
    const Cycle freeAt = bank.victimRefresh(1000, 10);
    EXPECT_EQ(freeAt, 1000u + 10u * t.tRC);
    EXPECT_EQ(bank.earliestActivate(1000), freeAt);
    EXPECT_EQ(bank.victimRowsRefreshed(), 10u);
    EXPECT_EQ(bank.victimRefreshEvents(), 1u);
}

TEST(Bank, VictimRefreshWaitsForBusyBank)
{
    const DramTiming t;
    Bank bank(t);
    bank.access(100, false);
    const Cycle freeAt = bank.victimRefresh(100, 2);
    EXPECT_EQ(freeAt, 100u + t.tRC + 2u * t.tRC);
}

TEST(Bank, TracksActivations)
{
    const DramTiming t;
    Bank bank(t);
    Cycle c = 0;
    for (int i = 0; i < 5; ++i) {
        c = bank.earliestActivate(c);
        bank.access(c, false);
    }
    EXPECT_EQ(bank.activations(), 5u);
}

TEST(Rank, TrrdSpacing)
{
    const DramTiming t;
    Rank rank(t);
    rank.recordActivate(100);
    EXPECT_EQ(rank.earliestActivate(100), 100u + t.tRRD);
    EXPECT_EQ(rank.earliestActivate(200), 200u);
}

TEST(Rank, FourActivateWindow)
{
    const DramTiming t;
    Rank rank(t);
    // Four back-to-back ACTs at tRRD spacing.
    Cycle c = 0;
    for (int i = 0; i < 4; ++i) {
        c = rank.earliestActivate(c);
        rank.recordActivate(c);
    }
    // The fifth ACT must wait for the first + tFAW.
    const Cycle fifth = rank.earliestActivate(c);
    EXPECT_GE(fifth, 0u + t.tFAW);
}

TEST(Rank, AutoRefreshSchedule)
{
    const DramTiming t;
    Rank rank(t);
    EXPECT_EQ(rank.autoRefreshDue(0), 0u);
    EXPECT_EQ(rank.autoRefreshDue(t.tREFI - 1), 0u);
    const Cycle end = rank.autoRefreshDue(t.tREFI);
    EXPECT_EQ(end, t.tREFI + t.tRFC);
    // Next one is a full tREFI later.
    EXPECT_EQ(rank.autoRefreshDue(t.tREFI), 0u);
    EXPECT_EQ(rank.autoRefreshDue(2 * t.tREFI), 2 * t.tREFI + t.tRFC);
    EXPECT_EQ(rank.autoRefreshes(), 2u);
}

TEST(Timing, IntervalCycles)
{
    const DramTiming t;
    // 64 ms at 1.25 ns per cycle = 51.2 M cycles.
    EXPECT_EQ(t.refreshIntervalCycles(), 51200000u);
    EXPECT_DOUBLE_EQ(t.cyclesToNs(8), 10.0);
}

} // namespace catsim
