/**
 * @file
 * Tests for trace records, streams and file I/O.
 */

#include <gtest/gtest.h>

#include <cstdio>

#include "trace/trace.hpp"

namespace catsim
{

TEST(VectorTrace, PushAndIterate)
{
    VectorTrace t;
    t.push({10, false, 0x1000});
    t.push({0, true, 0x2000});
    TraceRecord r;
    ASSERT_TRUE(t.next(r));
    EXPECT_EQ(r.gap, 10u);
    EXPECT_FALSE(r.isWrite);
    ASSERT_TRUE(t.next(r));
    EXPECT_TRUE(r.isWrite);
    EXPECT_EQ(r.addr, 0x2000u);
    EXPECT_FALSE(t.next(r));
}

TEST(TraceFile, RoundTrip)
{
    const std::string path = ::testing::TempDir() + "/catsim_trace.txt";
    VectorTrace t;
    t.push({10, false, 0x12340});
    t.push({0, true, 0xABCDE0});
    t.push({999, false, 0x40});
    EXPECT_EQ(writeTraceFile(path, t), 3u);

    VectorTrace back = readTraceFile(path);
    ASSERT_EQ(back.size(), 3u);
    const auto &recs = back.records();
    EXPECT_EQ(recs[0].gap, 10u);
    EXPECT_EQ(recs[0].addr, 0x12340u);
    EXPECT_FALSE(recs[0].isWrite);
    EXPECT_TRUE(recs[1].isWrite);
    EXPECT_EQ(recs[2].gap, 999u);
    std::remove(path.c_str());
}

TEST(TraceFile, RoundTripIsExactOverRandomRecords)
{
    // write -> read -> write -> read must reproduce every field
    // exactly, including extreme gaps and high address bits.
    const std::string p1 = ::testing::TempDir() + "/catsim_rt1.txt";
    const std::string p2 = ::testing::TempDir() + "/catsim_rt2.txt";
    VectorTrace t;
    std::uint64_t x = 0x9E3779B97F4A7C15ULL;
    for (int i = 0; i < 500; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        TraceRecord r;
        r.gap = static_cast<std::uint32_t>(x);
        r.isWrite = (x >> 32) & 1;
        r.addr = x ^ (x << 1);
        t.push(r);
    }
    ASSERT_EQ(writeTraceFile(p1, t), 500u);
    VectorTrace once = readTraceFile(p1);
    ASSERT_EQ(writeTraceFile(p2, once), 500u);
    const VectorTrace twice = readTraceFile(p2);
    ASSERT_EQ(twice.size(), t.size());
    for (std::size_t i = 0; i < t.size(); ++i) {
        EXPECT_EQ(twice.records()[i].gap, t.records()[i].gap) << i;
        EXPECT_EQ(twice.records()[i].isWrite, t.records()[i].isWrite)
            << i;
        EXPECT_EQ(twice.records()[i].addr, t.records()[i].addr) << i;
    }
    std::remove(p1.c_str());
    std::remove(p2.c_str());
}

TEST(TraceFileDeath, MissingFile)
{
    EXPECT_EXIT(readTraceFile("/nonexistent/trace.txt"),
                ::testing::ExitedWithCode(1), "cannot open");
}

TEST(TraceFileDeath, TruncatedRecordRejected)
{
    const std::string path = ::testing::TempDir() + "/catsim_trunc.txt";
    {
        std::ofstream os(path);
        os << "10 R 0x100\n"
           << "12 W\n"; // interrupted mid-record
    }
    EXPECT_EXIT(readTraceFile(path), ::testing::ExitedWithCode(1),
                "bad trace line 2");
    std::remove(path.c_str());
}

TEST(TraceFileDeath, CorruptOpRejected)
{
    const std::string path = ::testing::TempDir() + "/catsim_badop.txt";
    {
        std::ofstream os(path);
        os << "10 X 0x100\n";
    }
    EXPECT_EXIT(readTraceFile(path), ::testing::ExitedWithCode(1),
                "bad op 'X'");
    std::remove(path.c_str());
}

TEST(TraceFileDeath, PartiallyNumericAddressRejected)
{
    const std::string path = ::testing::TempDir() + "/catsim_padr.txt";
    {
        std::ofstream os(path);
        os << "10 R 0x100junk\n";
    }
    EXPECT_EXIT(readTraceFile(path), ::testing::ExitedWithCode(1),
                "bad address");
    std::remove(path.c_str());
}

TEST(TraceFileDeath, GarbageLineRejected)
{
    const std::string path = ::testing::TempDir() + "/catsim_garb.txt";
    {
        std::ofstream os(path);
        os << "not a trace at all\n";
    }
    EXPECT_EXIT(readTraceFile(path), ::testing::ExitedWithCode(1),
                "bad trace line 1");
    std::remove(path.c_str());
}

} // namespace catsim
