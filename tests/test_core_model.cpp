/**
 * @file
 * Tests for the ROB core model driving traces into the controller.
 */

#include <gtest/gtest.h>

#include "sim/core_model.hpp"

namespace catsim
{

namespace
{

struct Fixture
{
    Fixture()
        : geometry(DramGeometry::dualCore2Ch()),
          dram(geometry, timing),
          mapper(geometry, MappingPolicy::RowRankBankChanCol)
    {
        SchemeConfig none;
        none.kind = SchemeKind::None;
        mc = std::make_unique<MemoryController>(dram, mapper, none);
    }

    Addr
    addrFor(RowAddr row, std::uint32_t col = 0,
            std::uint32_t channel = 0) const
    {
        MappedAddr m;
        m.channel = channel;
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

TEST(CoreModel, RetiresComputeGapAtFullWidth)
{
    Fixture f;
    auto trace = std::make_unique<VectorTrace>();
    // 800 instructions then one write: 800 / (2 retire x 4 mult) = 100
    // bus cycles of compute.
    trace->push({800, true, f.addrFor(5)});
    CoreParams params;
    CoreModel core(0, params, std::move(trace), *f.mc);
    ASSERT_TRUE(core.step());
    EXPECT_NEAR(core.time(), 100.0, 1.0);
    EXPECT_FALSE(core.step());
    EXPECT_TRUE(core.done());
}

TEST(CoreModel, ReadsOverlapUpToMlp)
{
    Fixture f;
    auto trace = std::make_unique<VectorTrace>();
    const int n = 6;
    for (int i = 0; i < n; ++i)
        trace->push({0, false, f.addrFor(static_cast<RowAddr>(i),
                                         static_cast<std::uint32_t>(i))});
    CoreParams params;
    params.mlp = 2;
    CoreModel core(0, params, std::move(trace), *f.mc);
    while (core.step()) {
    }
    core.drain();
    // With MLP 2 the six reads cannot all pipeline; the core's clock
    // must exceed a single read's latency but stay below fully serial
    // execution.
    const double single = f.timing.tRCD + f.timing.tCAS
                          + f.timing.tBURST;
    EXPECT_GT(core.time(), single);
    EXPECT_LT(core.time(), n * f.timing.tRC);
    EXPECT_EQ(core.memOps(), static_cast<Count>(n));
}

TEST(CoreModel, StallsOnTiedCompletionsAtPinnedTimes)
{
    // Reads alternate over the two channels at gap 0, so each pair
    // issues together on independent channels and completes on the
    // same cycle: every stall with MLP 2 finds two equal completions,
    // waits for one and issues the next read, and the other retires
    // on the following step.
    Fixture f;
    auto trace = std::make_unique<VectorTrace>();
    for (std::uint32_t i = 0; i < 10; ++i)
        trace->push({0, false, f.addrFor(i, 0, i % 2)});
    CoreParams params;
    params.mlp = 2;
    CoreModel core(0, params, std::move(trace), *f.mc);
    for (const double t :
         {0.0, 0.0, 26.0, 26.0, 65.0, 65.0, 104.0, 104.0, 143.0, 143.0}) {
        ASSERT_TRUE(core.step());
        EXPECT_EQ(core.time(), t) << "after read " << core.memOps();
    }
    EXPECT_FALSE(core.step());
    core.drain();
    EXPECT_EQ(core.time(), 182.0);
}

TEST(CoreModel, DrainWaitsForOutstandingReads)
{
    Fixture f;
    auto trace = std::make_unique<VectorTrace>();
    trace->push({0, false, f.addrFor(9)});
    CoreParams params;
    CoreModel core(0, params, std::move(trace), *f.mc);
    ASSERT_TRUE(core.step());
    const double before = core.time();
    core.drain();
    EXPECT_GT(core.time(), before)
        << "drain must advance past the read completion";
}

TEST(CoreModel, CountsInstructions)
{
    Fixture f;
    auto trace = std::make_unique<VectorTrace>();
    trace->push({10, true, f.addrFor(1)});
    trace->push({20, true, f.addrFor(2)});
    CoreParams params;
    CoreModel core(0, params, std::move(trace), *f.mc);
    while (core.step()) {
    }
    // gaps + the memory ops themselves
    EXPECT_EQ(core.instructionsRetired(), 10u + 20u + 2u);
    EXPECT_EQ(core.memOps(), 2u);
}

TEST(CoreModel, PostedWritesDrainThroughTheController)
{
    Fixture f;
    auto trace = std::make_unique<VectorTrace>();
    // Far more writes than the 64-entry queue holds.
    for (int i = 0; i < 300; ++i)
        trace->push({0, true, f.addrFor(7)});
    CoreParams params;
    CoreModel core(0, params, std::move(trace), *f.mc);
    while (core.step()) {
    }
    core.drain();
    // Watermark drains must have fired, and a final flush accounts for
    // every write.
    EXPECT_GE(f.mc->stats().writeDrains, 1u);
    f.mc->drainAllWrites(static_cast<Cycle>(core.time()));
    EXPECT_EQ(f.dram.totalActivations(), 300u);
}

} // namespace catsim
