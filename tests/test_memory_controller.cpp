/**
 * @file
 * Tests for the memory controller (queues, drains, mitigation hook).
 */

#include <gtest/gtest.h>

#include "controller/memory_controller.hpp"

namespace catsim
{

namespace
{

struct Fixture
{
    Fixture(SchemeKind kind = SchemeKind::None,
            std::uint32_t threshold = 32768)
        : geometry(DramGeometry::dualCore2Ch()),
          dram(geometry, timing),
          mapper(geometry, MappingPolicy::RowRankBankChanCol)
    {
        SchemeConfig cfg;
        cfg.kind = kind;
        cfg.numCounters = 64;
        cfg.maxLevels = 11;
        cfg.threshold = threshold;
        mc = std::make_unique<MemoryController>(dram, mapper, cfg);
    }

    Addr
    addrFor(std::uint32_t ch, std::uint32_t bank, RowAddr row,
            std::uint32_t col = 0) const
    {
        MappedAddr m;
        m.channel = ch;
        m.rank = 0;
        m.bank = bank;
        m.row = row;
        m.col = col;
        return mapper.compose(m);
    }

    DramGeometry geometry;
    DramTiming timing;
    DramSystem dram;
    AddressMapper mapper;
    std::unique_ptr<MemoryController> mc;
};

} // namespace

TEST(MemoryController, ReadCompletes)
{
    Fixture f;
    MemRequest req;
    req.addr = f.addrFor(0, 0, 100);
    req.arrival = 0;
    const Cycle done = f.mc->submitRead(req);
    EXPECT_EQ(done,
              f.timing.tRCD + f.timing.tCAS + f.timing.tBURST);
    EXPECT_EQ(f.mc->stats().reads, 1u);
}

TEST(MemoryController, WritesArePosted)
{
    Fixture f;
    MemRequest req;
    req.addr = f.addrFor(0, 0, 100);
    req.isWrite = true;
    req.arrival = 5;
    EXPECT_EQ(f.mc->submitWrite(req), 5u);
    EXPECT_EQ(f.mc->stats().writes, 1u);
    // Not yet issued to DRAM.
    EXPECT_EQ(f.dram.totalActivations(), 0u);
    f.mc->drainAllWrites(10);
    EXPECT_EQ(f.dram.totalActivations(), 1u);
}

TEST(MemoryController, WriteQueueDrainsAtCapacity)
{
    Fixture f;
    for (std::size_t i = 0;
         i <= MemoryController::kWriteQueueCapacity; ++i) {
        MemRequest req;
        req.addr = f.addrFor(0, i % 8, static_cast<RowAddr>(i));
        req.isWrite = true;
        req.arrival = i;
        f.mc->submitWrite(req);
    }
    EXPECT_GE(f.mc->stats().writeDrains, 1u);
    EXPECT_GT(f.dram.totalActivations(), 0u);
}

TEST(MemoryController, SchemeSeesActivations)
{
    Fixture f(SchemeKind::Sca);
    for (int i = 0; i < 10; ++i) {
        MemRequest req;
        req.addr = f.addrFor(0, 0, 42);
        req.arrival = i * 100;
        f.mc->submitRead(req);
    }
    const SchemeStats st = f.mc->combinedSchemeStats();
    EXPECT_EQ(st.activations, 10u);
}

TEST(MemoryController, RefreshTriggerBlocksBank)
{
    // Tiny threshold so a handful of reads triggers a victim refresh.
    Fixture f(SchemeKind::Sca, 512);
    Cycle prevDone = 0;
    bool sawJump = false;
    for (int i = 0; i < 600; ++i) {
        MemRequest req;
        req.addr = f.addrFor(0, 0, 42);
        req.arrival = prevDone;
        const Cycle done = f.mc->submitRead(req);
        if (i > 0 && done > prevDone + 100 * f.timing.tRC)
            sawJump = true;
        prevDone = done;
    }
    EXPECT_GE(f.mc->stats().victimRefreshEvents, 1u);
    EXPECT_TRUE(sawJump)
        << "victim refresh must visibly delay subsequent reads";
    EXPECT_GT(f.dram.totalVictimRowsRefreshed(), 0u);
}

TEST(MemoryController, ObserverSeesStream)
{
    Fixture f(SchemeKind::None);
    std::vector<std::pair<std::uint32_t, RowAddr>> seen;
    f.mc->setActivationObserver(
        [&seen](std::uint32_t bank, RowAddr row) {
            seen.emplace_back(bank, row);
        });
    MemRequest req;
    req.addr = f.addrFor(1, 3, 77);
    req.arrival = 0;
    f.mc->submitRead(req);
    ASSERT_EQ(seen.size(), 1u);
    EXPECT_EQ(seen[0].second, 77u);
    EXPECT_EQ(seen[0].first, (BankId{1, 0, 3}.flat(f.geometry)));
}

TEST(MemoryController, EpochForwardsToSchemes)
{
    Fixture f(SchemeKind::Prcat);
    MemRequest req;
    req.addr = f.addrFor(0, 0, 42);
    req.arrival = 0;
    f.mc->submitRead(req);
    f.mc->onEpoch();
    const SchemeStats st = f.mc->combinedSchemeStats();
    EXPECT_EQ(st.epochResets, f.geometry.totalBanks());
}

TEST(MemoryController, NoSchemeMeansNoRefreshes)
{
    Fixture f(SchemeKind::None, 16);
    for (int i = 0; i < 1000; ++i) {
        MemRequest req;
        req.addr = f.addrFor(0, 0, 42);
        req.arrival = i * 50;
        f.mc->submitRead(req);
    }
    EXPECT_EQ(f.mc->stats().victimRefreshEvents, 0u);
    EXPECT_EQ(f.dram.totalVictimRowsRefreshed(), 0u);
}

} // namespace catsim
