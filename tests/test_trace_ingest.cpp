/**
 * @file
 * Tests for external trace-file ingestion: the DRAMSim-style dialect,
 * malformed-input rejection, and the AddressMapper bank-stream
 * mapping that feeds the replay engine.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>

#include "trace/trace_ingest.hpp"

namespace catsim
{

namespace
{

std::string
writeTemp(const std::string &name, const std::string &content)
{
    const std::string path = ::testing::TempDir() + "/" + name;
    std::ofstream os(path);
    os << content;
    return path;
}

} // namespace

TEST(TraceFormat, Parse)
{
    EXPECT_EQ(parseTraceFormat("native"), TraceFormat::Native);
    EXPECT_EQ(parseTraceFormat("DRAMSim"), TraceFormat::DramSim);
}

TEST(TraceFormatDeath, UnknownName)
{
    EXPECT_EXIT(parseTraceFormat("usimm"),
                ::testing::ExitedWithCode(1), "unknown trace format");
}

TEST(DramSimTrace, CyclesBecomeGaps)
{
    const std::string path = writeTemp("dramsim_ok.trc",
                                       "# comment\n"
                                       "0x12340 READ 5\n"
                                       "0x55500 WRITE 25\n"
                                       "; another comment style\n"
                                       "0x12340 P_MEM_RD 25\n"
                                       "0xFF000 W 30\n");
    const VectorTrace t = readDramSimTrace(path);
    ASSERT_EQ(t.size(), 4u);
    const auto &r = t.records();
    EXPECT_EQ(r[0].gap, 5u); // lead-in gap = first cycle
    EXPECT_EQ(r[0].addr, 0x12340u);
    EXPECT_FALSE(r[0].isWrite);
    EXPECT_EQ(r[1].gap, 20u);
    EXPECT_TRUE(r[1].isWrite);
    EXPECT_EQ(r[2].gap, 0u); // same cycle: back-to-back
    EXPECT_FALSE(r[2].isWrite);
    EXPECT_EQ(r[3].gap, 5u);
    EXPECT_TRUE(r[3].isWrite);
    std::remove(path.c_str());
}

TEST(DramSimTrace, ReadTraceFileAsDispatch)
{
    const std::string path =
        writeTemp("dramsim_dispatch.trc", "0x40 READ 1\n");
    const VectorTrace t =
        readTraceFileAs(path, TraceFormat::DramSim);
    ASSERT_EQ(t.size(), 1u);
    EXPECT_EQ(t.records()[0].addr, 0x40u);
    std::remove(path.c_str());
}

TEST(DramSimTraceDeath, TruncatedLine)
{
    const std::string path = writeTemp("dramsim_trunc.trc",
                                       "0x12340 READ 5\n"
                                       "0x55500 WRITE\n");
    EXPECT_EXIT(readDramSimTrace(path), ::testing::ExitedWithCode(1),
                "bad DRAMSim trace line 2");
    std::remove(path.c_str());
}

TEST(DramSimTraceDeath, BadOp)
{
    const std::string path =
        writeTemp("dramsim_badop.trc", "0x12340 FETCH 5\n");
    EXPECT_EXIT(readDramSimTrace(path), ::testing::ExitedWithCode(1),
                "bad op 'FETCH'");
    std::remove(path.c_str());
}

TEST(DramSimTraceDeath, BadAddress)
{
    const std::string path =
        writeTemp("dramsim_badaddr.trc", "zzz READ 5\n");
    EXPECT_EXIT(readDramSimTrace(path), ::testing::ExitedWithCode(1),
                "bad address");
    std::remove(path.c_str());
}

TEST(DramSimTraceDeath, PartiallyNumericAddressRejected)
{
    // std::stoull alone would truncate "0x123junk" to 0x123 and
    // silently replay against the wrong rows.
    const std::string path =
        writeTemp("dramsim_partaddr.trc", "0x123junk READ 5\n");
    EXPECT_EXIT(readDramSimTrace(path), ::testing::ExitedWithCode(1),
                "bad address");
    std::remove(path.c_str());
}

TEST(ParseTraceAddr, StrictWholeToken)
{
    Addr a = 0;
    EXPECT_TRUE(parseTraceAddr("0x1F0", &a));
    EXPECT_EQ(a, 0x1F0u);
    EXPECT_TRUE(parseTraceAddr("64", &a));
    EXPECT_EQ(a, 64u);
    EXPECT_FALSE(parseTraceAddr("0x123junk", &a));
    EXPECT_FALSE(parseTraceAddr("0xZZ", &a));
    EXPECT_FALSE(parseTraceAddr("zzz", &a));
    EXPECT_FALSE(parseTraceAddr("", &a));
    // stoull would wrap these instead of failing.
    EXPECT_FALSE(parseTraceAddr("-5", &a));
    EXPECT_FALSE(parseTraceAddr("+5", &a));
}

TEST(DramSimTraceDeath, NonMonotonicCycles)
{
    const std::string path = writeTemp("dramsim_mono.trc",
                                       "0x100 READ 50\n"
                                       "0x200 READ 10\n");
    EXPECT_EXIT(readDramSimTrace(path), ::testing::ExitedWithCode(1),
                "non-monotonic cycle");
    std::remove(path.c_str());
}

TEST(DramSimTraceDeath, MissingFile)
{
    EXPECT_EXIT(readDramSimTrace("/nonexistent/x.trc"),
                ::testing::ExitedWithCode(1), "cannot open");
}

TEST(TraceBankStreams, MapsRecordsThroughAddressMapper)
{
    const DramGeometry geom = DramGeometry::dualCore2Ch();
    const AddressMapper mapper(geom,
                               MappingPolicy::RowRankBankChanCol);

    // Compose known coordinates, ingest, and expect them back in the
    // right per-bank streams.
    MappedAddr a;
    a.channel = 1;
    a.rank = 0;
    a.bank = 3;
    a.row = 1234;
    a.col = 7;
    MappedAddr b = a;
    b.row = 999;
    MappedAddr c;
    c.channel = 0;
    c.rank = 0;
    c.bank = 0;
    c.row = 42;

    VectorTrace trace;
    trace.push({0, false, mapper.compose(a)});
    trace.push({3, true, mapper.compose(c)});
    trace.push({5, false, mapper.compose(b)});

    const auto streams = traceBankStreams(trace, mapper, geom);
    ASSERT_EQ(streams.size(), geom.totalBanks());

    const std::uint32_t flatA = a.bankId().flat(geom);
    const std::uint32_t flatC = c.bankId().flat(geom);
    ASSERT_EQ(streams[flatA].size(), 2u);
    EXPECT_EQ(streams[flatA][0], 1234u);
    EXPECT_EQ(streams[flatA][1], 999u);
    ASSERT_EQ(streams[flatC].size(), 1u);
    EXPECT_EQ(streams[flatC][0], 42u);
}

TEST(TraceBankStreams, EpochMarkersEveryN)
{
    const DramGeometry geom = DramGeometry::dualCore2Ch();
    const AddressMapper mapper(geom,
                               MappingPolicy::RowRankBankChanCol);

    VectorTrace trace;
    MappedAddr m;
    for (std::uint32_t i = 0; i < 10; ++i) {
        m.row = i;
        trace.push({0, false, mapper.compose(m)});
    }

    const auto streams = traceBankStreams(trace, mapper, geom, 4);
    // 10 records -> markers after records 4 and 8, in EVERY stream.
    for (const auto &s : streams) {
        const auto markers = static_cast<std::size_t>(
            std::count(s.begin(), s.end(), kEpochMarker));
        EXPECT_EQ(markers, 2u);
    }
    // Bank 0 got all ten rows plus two markers.
    const std::uint32_t flat = m.bankId().flat(geom);
    EXPECT_EQ(streams[flat].size(), 12u);
}

} // namespace catsim
