/**
 * @file
 * Tests for the aggregate DRAM device model.
 */

#include <gtest/gtest.h>

#include "dram/dram_system.hpp"

namespace catsim
{

namespace
{

DramSystem
makeSystem()
{
    return DramSystem(DramGeometry::dualCore2Ch(), DramTiming{});
}

} // namespace

TEST(DramSystem, IndependentBanksDoNotBlock)
{
    DramSystem d = makeSystem();
    const BankId b0{0, 0, 0}, b1{0, 0, 1};
    d.issue(b0, false, 0);
    // A different bank only pays rank tRRD, not tRC.
    EXPECT_LE(d.issue(b1, false, 0).issued, d.timing().tRRD);
}

TEST(DramSystem, SameBankSerializedByTrc)
{
    DramSystem d = makeSystem();
    const BankId b{0, 0, 0};
    const Cycle t0 = d.issue(b, false, 0).issued;
    const Cycle t1 = d.issue(b, false, 0).issued;
    EXPECT_GE(t1, t0 + d.timing().tRC);
}

TEST(DramSystem, ChannelsAreIndependent)
{
    DramSystem d = makeSystem();
    const BankId c0{0, 0, 0}, c1{1, 0, 0};
    d.issue(c0, false, 0);
    EXPECT_EQ(d.issue(c1, false, 0).issued, 0u);
}

TEST(DramSystem, DataBusSerializesBursts)
{
    DramSystem d = makeSystem();
    // Two different banks on one channel: the second burst must wait
    // for the first one's data bus slot.
    const BankId b0{0, 0, 0}, b1{0, 0, 1};
    const Cycle done0 = d.issue(b0, false, 0).ready;
    const Cycle done1 = d.issue(b1, false, 0).ready;
    EXPECT_GE(done1, done0 + d.timing().tBURST);
}

TEST(DramSystem, VictimRefreshDelaysLaterAccess)
{
    DramSystem d = makeSystem();
    const BankId b{0, 0, 0};
    const Cycle freeAt = d.victimRefresh(b, 100, 0);
    EXPECT_EQ(freeAt, 100u * d.timing().tRC);
    EXPECT_GE(d.issue(b, false, 0).issued, freeAt);
    EXPECT_EQ(d.totalVictimRowsRefreshed(), 100u);
}

TEST(DramSystem, AutoRefreshBlocksWholeRank)
{
    DramSystem d = makeSystem();
    const auto &t = d.timing();
    const BankId b0{0, 0, 0}, b7{0, 0, 7};
    // Issue just after the first tREFI boundary: the rank is
    // mid-refresh and every bank must wait until tREFI + tRFC.
    const Cycle probe = t.tREFI + 1;
    EXPECT_GE(d.issue(b0, false, probe).issued, t.tREFI + t.tRFC);
    // Bank 7 is probed without an ACT of its own, so neither tRRD nor
    // the data bus behind bank 0's ACT can stand in for the refresh.
    EXPECT_GE(d.bank(b7).earliestActivate(probe), t.tREFI + t.tRFC);
}

TEST(DramSystem, ActivationCounting)
{
    DramSystem d = makeSystem();
    const BankId b{0, 0, 3};
    Cycle now = 0;
    for (int i = 0; i < 10; ++i)
        now = d.issue(b, i % 2 == 0, now).issued;
    EXPECT_EQ(d.totalActivations(), 10u);
    EXPECT_EQ(d.bank(b).activations(), 10u);
}

} // namespace catsim
