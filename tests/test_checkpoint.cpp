/**
 * @file
 * Tests for the crash-safe run journal (sim/checkpoint) and its
 * integration with the sweep engine and Monte-Carlo campaigns: a
 * journal killed at ANY byte offset must resume to byte-identical
 * results, corrupt records must never be served, and keep-going mode
 * must record failures without poisoning the rest of the grid.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/fault_injection.hpp"
#include "reliability/montecarlo.hpp"
#include "sim/checkpoint.hpp"
#include "sim/sweep.hpp"

namespace catsim
{

namespace
{

// Checkpointing, keep-going, job count, and fail-points must come from
// the tests themselves, not the invoking environment.
const bool kEnvScrubbed = [] {
    ::unsetenv("CATSIM_BASELINE_CACHE");
    ::unsetenv("CATSIM_JOBS");
    ::unsetenv("CATSIM_CHECKPOINT");
    ::unsetenv("CATSIM_SWEEP_KEEP_GOING");
    fault::installFailpoints("");
    return true;
}();

constexpr double kTestScale = 0.02;

struct FailpointGuard
{
    ~FailpointGuard() { fault::installFailpoints(""); }
};

std::filesystem::path
freshDir(const std::string &name)
{
    const auto dir =
        std::filesystem::temp_directory_path() / ("catsim_" + name);
    std::filesystem::remove_all(dir);
    return dir;
}

std::string
readFile(const std::filesystem::path &path)
{
    std::ifstream in(path, std::ios::binary);
    std::string s((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
    return s;
}

void
writeFile(const std::filesystem::path &path, const std::string &bytes)
{
    std::filesystem::create_directories(path.parent_path());
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size()));
}

/** A small metric grid: cells distinguished purely by tag. */
std::vector<SweepCell>
tagGrid(std::size_t n)
{
    std::vector<SweepCell> cells(n);
    for (std::size_t i = 0; i < n; ++i) {
        cells[i].workload.name = "comm1";
        cells[i].tag = i;
    }
    return cells;
}

/** Cheap deterministic metric: irrational in the tag, ignores the
 *  runner, so resume equality is a strict bit-pattern check. */
double
tagMetric(const SweepCell &c)
{
    return std::sqrt(static_cast<double>(c.tag) + 2.0) * 0.125
           + static_cast<double>(c.tag);
}

void
expectSameEval(const EvalResult &a, const EvalResult &b, std::size_t i)
{
    EXPECT_EQ(a.cmrpo, b.cmrpo) << "cell " << i;
    EXPECT_EQ(a.baselineSeconds, b.baselineSeconds) << "cell " << i;
    EXPECT_EQ(a.power.dynamic, b.power.dynamic) << "cell " << i;
    EXPECT_EQ(a.power.statik, b.power.statik) << "cell " << i;
    EXPECT_EQ(a.power.refresh, b.power.refresh) << "cell " << i;
    EXPECT_EQ(a.stats, b.stats) << "cell " << i;
}

std::string
toHex(const std::string &bytes)
{
    static const char digits[] = "0123456789abcdef";
    std::string hex;
    for (unsigned char c : bytes) {
        hex += digits[c >> 4];
        hex += digits[c & 15];
    }
    return hex;
}

/** SchemeStats whose fields, in declaration order, count up from
 *  @p first - a swapped or dropped field shows as a wrong value. */
SchemeStats
pinnedStats(Count first)
{
    SchemeStats s;
    s.activations = first;
    s.refreshEvents = first + 1;
    s.victimRowsRefreshed = first + 2;
    s.sramAccesses = first + 3;
    s.prngBits = first + 4;
    s.splits = first + 5;
    s.merges = first + 6;
    s.epochResets = first + 7;
    s.counterDramReads = first + 8;
    s.counterDramWrites = first + 9;
    return s;
}

/** An EvalResult journal blob: cmrpo, power dynamic/static/refresh,
 *  baselineSeconds, then pinnedStats(101). */
std::string
pinnedEvalBlob()
{
    BlobWriter w;
    for (double v : {1.5, 2.5, 3.5, 4.5, 5.5})
        w.putDouble(v);
    for (std::uint64_t v = 101; v <= 110; ++v)
        w.putU64(v);
    return w.str();
}

/** HeaderAndRecordBytesArePinned's journal file, as hex. */
const char *const kPinnedJournalHex =
    "314a4d495354414301000000000000000a0000000000000070696e6e65642d72"
    "756ea7a07d6907000000000000007800000000000000636d72706f2330000000"
    "000000f83f00000000000004400000000000000c400000000000001240000000"
    "0000001640650000000000000066000000000000006700000000000000680000"
    "000000000069000000000000006a000000000000006b000000000000006c0000"
    "00000000006d000000000000006e00000000000000ba58b784";

} // namespace

TEST(CheckpointBlob, RoundTripIsBitExact)
{
    BlobWriter w;
    w.putU64(0);
    w.putU64(~0ULL);
    w.putDouble(-0.0);
    w.putDouble(5e-324); // smallest denormal
    w.putDouble(0.1);    // not exactly representable
    const std::string blob = w.str();
    EXPECT_EQ(blob.size(), 2 * 8 + 3 * 8);

    BlobReader r(blob);
    std::uint64_t a = 1, b = 1;
    double x = 0, y = 0, z = 0;
    ASSERT_TRUE(r.getU64(&a) && r.getU64(&b) && r.getDouble(&x)
                && r.getDouble(&y) && r.getDouble(&z));
    EXPECT_TRUE(r.atEnd());
    EXPECT_EQ(a, 0u);
    EXPECT_EQ(b, ~0ULL);
    EXPECT_TRUE(std::signbit(x) && x == 0.0);
    EXPECT_EQ(y, 5e-324);
    EXPECT_EQ(z, 0.1);
    // Reads past the end fail instead of fabricating data.
    EXPECT_FALSE(r.getU64(&a));
}

TEST(CheckpointJournalTest, RoundTripAcrossReopen)
{
    const auto dir = freshDir("ckpt_roundtrip");
    {
        CheckpointJournal j(dir.string(), "run-key");
        EXPECT_EQ(j.replayedRecords(), 0u);
        j.append("cell0", "blob zero");
        j.append("cell1", std::string("\x00\x01\xFF", 3));
        j.append("cell2", "");
    }
    CheckpointJournal j(dir.string(), "run-key");
    EXPECT_EQ(j.replayedRecords(), 3u);
    std::string blob;
    ASSERT_TRUE(j.lookup("cell0", &blob));
    EXPECT_EQ(blob, "blob zero");
    ASSERT_TRUE(j.lookup("cell1", &blob));
    EXPECT_EQ(blob, std::string("\x00\x01\xFF", 3));
    ASSERT_TRUE(j.lookup("cell2", &blob));
    EXPECT_EQ(blob, "");
    EXPECT_FALSE(j.lookup("cell3", &blob));
    std::filesystem::remove_all(dir);
}

TEST(CheckpointJournalTest, DistinctRunKeysUseDistinctFiles)
{
    EXPECT_NE(checkpointFileName("grid A"), checkpointFileName("grid B"));
    EXPECT_EQ(checkpointFileName("grid A"), checkpointFileName("grid A"));
}

/**
 * The journal layout is an on-disk contract: a run killed under one
 * binary must resume under the next.  Pins the header and record
 * framing and the file name; PinnedEvalResultRecordResumes below pins
 * the blob layout the sweep runner decodes.
 */
TEST(CheckpointJournalTest, HeaderAndRecordBytesArePinned)
{
    const auto dir = freshDir("ckpt_pinned");
    {
        CheckpointJournal j(dir.string(), "pinned-run");
        j.append("cmrpo#0", pinnedEvalBlob());
    }
    EXPECT_EQ(checkpointFileName("pinned-run"), "run-b2effe8bd4967c05.catj");
    EXPECT_EQ(toHex(readFile(dir / checkpointFileName("pinned-run"))),
              kPinnedJournalHex);
    std::filesystem::remove_all(dir);
}

TEST(CheckpointJournalTest, HeaderMismatchStartsFresh)
{
    const auto dir = freshDir("ckpt_header");
    const auto path =
        std::filesystem::path(dir) / checkpointFileName("run-key");
    writeFile(path, "this is not a journal header at all............");

    CheckpointJournal j(dir.string(), "run-key");
    EXPECT_EQ(j.replayedRecords(), 0u);
    j.append("cell0", "fresh");
    CheckpointJournal k(dir.string(), "run-key");
    EXPECT_EQ(k.replayedRecords(), 1u);
    std::filesystem::remove_all(dir);
}

/**
 * THE crash-safety property: truncate the journal at every byte
 * offset (every possible SIGKILL point of the append stream), reopen,
 * and require that (a) every record the replay serves is byte-equal to
 * what was appended - never a torn or corrupt blob - and (b) after
 * re-appending whatever is missing, the journal is whole again.
 */
TEST(CheckpointJournalTest, TruncationAtEveryOffsetIsSafe)
{
    const auto dir = freshDir("ckpt_trunc");
    const std::vector<std::pair<std::string, std::string>> records = {
        {"cell0", "first blob"},
        {"cell1", std::string(40, 'x')},
        {"cell2", ""},
        {"cell3", "tail blob with some length to it"},
    };
    {
        CheckpointJournal j(dir.string(), "trunc-key");
        for (const auto &[k, v] : records)
            j.append(k, v);
    }
    const auto path =
        std::filesystem::path(dir) / checkpointFileName("trunc-key");
    const std::string full = readFile(path);
    ASSERT_GT(full.size(), 0u);

    for (std::size_t len = 0; len < full.size(); ++len) {
        const auto d = freshDir("ckpt_trunc_case");
        writeFile(std::filesystem::path(d)
                      / checkpointFileName("trunc-key"),
                  full.substr(0, len));
        {
            CheckpointJournal j(d.string(), "trunc-key");
            EXPECT_LE(j.replayedRecords(), records.size());
            std::string blob;
            for (const auto &[k, v] : records) {
                if (j.lookup(k, &blob))
                    EXPECT_EQ(blob, v)
                        << "corrupt blob served for " << k
                        << " at truncation " << len;
                else
                    j.append(k, v); // the resume path re-runs it
            }
        }
        CheckpointJournal j(d.string(), "trunc-key");
        EXPECT_EQ(j.replayedRecords(), records.size())
            << "journal not whole after resume at truncation " << len;
        std::string blob;
        for (const auto &[k, v] : records) {
            ASSERT_TRUE(j.lookup(k, &blob)) << k;
            EXPECT_EQ(blob, v) << k;
        }
        std::filesystem::remove_all(d);
    }
    std::filesystem::remove_all(dir);
}

/** Bit flips anywhere in the file must never surface a wrong blob. */
TEST(CheckpointJournalTest, BitFlipsNeverServeCorruptRecords)
{
    const auto dir = freshDir("ckpt_flip");
    const std::vector<std::pair<std::string, std::string>> records = {
        {"cell0", "first blob"},
        {"cell1", std::string(24, 'y')},
        {"cell2", "third"},
    };
    {
        CheckpointJournal j(dir.string(), "flip-key");
        for (const auto &[k, v] : records)
            j.append(k, v);
    }
    const auto path =
        std::filesystem::path(dir) / checkpointFileName("flip-key");
    const std::string full = readFile(path);

    for (std::size_t pos = 0; pos < full.size(); pos += 3) {
        std::string mutated = full;
        mutated[pos] = static_cast<char>(mutated[pos] ^ 0x40);
        const auto d = freshDir("ckpt_flip_case");
        writeFile(std::filesystem::path(d)
                      / checkpointFileName("flip-key"),
                  mutated);
        CheckpointJournal j(d.string(), "flip-key");
        std::string blob;
        for (const auto &[k, v] : records) {
            if (j.lookup(k, &blob)) {
                EXPECT_EQ(blob, v)
                    << "bit flip at " << pos << " served corrupt " << k;
            }
        }
        std::filesystem::remove_all(d);
    }
    std::filesystem::remove_all(dir);
}

TEST(CheckpointSweep, ResumeSkipsJournaledCells)
{
    const auto dir = freshDir("ckpt_sweep_resume");
    const auto cells = tagGrid(5);
    std::atomic<int> evals{0};
    const auto fn = [&evals](ExperimentRunner &, const SweepCell &c) {
        evals.fetch_add(1);
        return tagMetric(c);
    };

    SweepRunner first(kTestScale, 2);
    first.setCheckpointDir(dir.string());
    const auto expected = first.runMetric(cells, fn);
    EXPECT_EQ(evals.load(), 5);
    EXPECT_EQ(first.lastResumedCells(), 0u);

    evals.store(0);
    SweepRunner second(kTestScale, 2);
    second.setCheckpointDir(dir.string());
    const auto got = second.runMetric(cells, fn);
    EXPECT_EQ(evals.load(), 0) << "journaled cells must not re-run";
    EXPECT_EQ(second.lastResumedCells(), 5u);
    ASSERT_EQ(got.size(), expected.size());
    for (std::size_t i = 0; i < got.size(); ++i)
        EXPECT_EQ(got[i], expected[i]) << "cell " << i;
    std::filesystem::remove_all(dir);
}

TEST(CheckpointSweep, RepeatedGridsGetSeparateJournals)
{
    const auto dir = freshDir("ckpt_sweep_seq");
    const auto cells = tagGrid(3);
    // One bench process often runs the same grid through runMetric
    // twice with DIFFERENT callbacks; the per-kind sequence number
    // must keep their journals apart.
    const auto fnA = [](ExperimentRunner &, const SweepCell &c) {
        return tagMetric(c);
    };
    const auto fnB = [](ExperimentRunner &, const SweepCell &c) {
        return -tagMetric(c);
    };

    SweepRunner first(kTestScale, 1);
    first.setCheckpointDir(dir.string());
    const auto a1 = first.runMetric(cells, fnA);
    const auto b1 = first.runMetric(cells, fnB);

    SweepRunner second(kTestScale, 1);
    second.setCheckpointDir(dir.string());
    const auto a2 = second.runMetric(cells, fnA);
    EXPECT_EQ(second.lastResumedCells(), 3u);
    const auto b2 = second.runMetric(cells, fnB);
    EXPECT_EQ(second.lastResumedCells(), 3u);
    EXPECT_EQ(a1, a2);
    EXPECT_EQ(b1, b2);
    EXPECT_NE(a2, b2) << "the two calls must not share one journal";
    std::filesystem::remove_all(dir);
}

/**
 * Kill the metric sweep's journal at every byte offset and resume at
 * two different job counts; every resumed grid must be byte-identical
 * to the uninterrupted reference.
 */
TEST(CheckpointSweep, KilledJournalResumesByteIdenticalAtAnyJobs)
{
    const auto dir = freshDir("ckpt_sweep_kill");
    const auto cells = tagGrid(4);
    const auto fn = [](ExperimentRunner &, const SweepCell &c) {
        return tagMetric(c);
    };

    SweepRunner ref(kTestScale, 1);
    const auto expected = ref.runMetric(cells, fn);

    SweepRunner writer(kTestScale, 1);
    writer.setCheckpointDir(dir.string());
    writer.runMetric(cells, fn);
    // The journal file is the only file in the directory.
    std::filesystem::path path;
    for (const auto &e : std::filesystem::directory_iterator(dir))
        path = e.path();
    ASSERT_FALSE(path.empty());
    const std::string full = readFile(path);

    for (std::size_t len = 0; len < full.size(); len += 5) {
        for (std::size_t jobs : {std::size_t(1), std::size_t(4)}) {
            const auto d = freshDir("ckpt_sweep_kill_case");
            writeFile(std::filesystem::path(d) / path.filename(),
                      full.substr(0, len));
            SweepRunner resumed(kTestScale, jobs);
            resumed.setCheckpointDir(d.string());
            const auto got = resumed.runMetric(cells, fn);
            ASSERT_EQ(got.size(), expected.size());
            for (std::size_t i = 0; i < got.size(); ++i)
                EXPECT_EQ(got[i], expected[i])
                    << "cell " << i << " truncation " << len << " jobs "
                    << jobs;
            std::filesystem::remove_all(d);
        }
    }
    std::filesystem::remove_all(dir);
}

namespace
{

/** Cell prefixes ("kind#i") of the records in @p dir's one journal
 *  file, in append order. */
std::vector<std::string>
journaledCells(const std::filesystem::path &dir)
{
    std::filesystem::path path;
    for (const auto &e : std::filesystem::directory_iterator(dir))
        path = e.path();
    const std::string image = readFile(path);
    BlobReader r(image);
    std::uint64_t word = 0, keyLen = 0, blobLen = 0;
    std::uint32_t crc = 0;
    std::string_view key, blob;
    r.getU64(&word); // magic
    r.getU64(&word); // version
    r.getU64(&keyLen);
    r.getBytes(keyLen, &key); // run key
    r.getU32(&crc);
    std::vector<std::string> cells;
    while (r.getU64(&keyLen) && r.getU64(&blobLen)) {
        r.getBytes(keyLen, &key);
        r.getBytes(blobLen, &blob);
        r.getU32(&crc);
        cells.emplace_back(key.substr(0, key.find('|')));
    }
    return cells;
}

/**
 * End-to-end: a serial CMRPO grid over @p workloads x {DRCAT, SCA,
 * PRA}, workload-major, killed by a fail-point at its third cell,
 * resumes to bit-identical EvalResults (the EvalResult codec path).
 * @p journaled names the two cells handed out before the kill.
 */
void
expectCmrpoKillAndResume(const std::string &name,
                         const std::vector<const char *> &workloads,
                         const std::vector<std::string> &journaled)
{
    FailpointGuard guard;
    const auto dir = freshDir(name);
    std::vector<SweepCell> cells;
    for (const char *workload : workloads) {
        for (SchemeKind kind :
             {SchemeKind::Drcat, SchemeKind::Sca, SchemeKind::Pra}) {
            SweepCell c;
            c.workload.name = workload;
            c.scheme.kind = kind;
            c.scheme.numCounters = 64;
            c.scheme.maxLevels = 11;
            c.scheme.threshold = 32768;
            c.scheme.praProbability = 0.002;
            cells.push_back(c);
        }
    }

    SweepRunner ref(kTestScale, 1);
    const auto expected = ref.runCmrpo(cells);

    // Serial run dies evaluating the third cell handed out; the first
    // two are already journaled.
    SweepRunner victim(kTestScale, 1);
    victim.setCheckpointDir(dir.string());
    fault::installFailpoints("sweep_cell@3");
    EXPECT_THROW(victim.runCmrpo(cells), std::runtime_error);
    fault::installFailpoints("");
    EXPECT_EQ(journaledCells(dir), journaled);

    SweepRunner resumed(kTestScale, 1);
    resumed.setCheckpointDir(dir.string());
    const auto got = resumed.runCmrpo(cells);
    EXPECT_EQ(resumed.lastResumedCells(), 2u);
    ASSERT_EQ(got.size(), expected.size());
    for (std::size_t i = 0; i < got.size(); ++i)
        expectSameEval(got[i], expected[i], i);

    // Fully journaled now: a third run resumes everything and never
    // computes a baseline.
    SweepRunner third(kTestScale, 1);
    third.setCheckpointDir(dir.string());
    const auto again = third.runCmrpo(cells);
    EXPECT_EQ(third.lastResumedCells(), cells.size());
    EXPECT_EQ(third.runner().baselineComputeCount(), 0u);
    ASSERT_EQ(again.size(), expected.size());
    for (std::size_t i = 0; i < again.size(); ++i)
        expectSameEval(again[i], expected[i], i);
    std::filesystem::remove_all(dir);
}

} // namespace

/** One baseline: cells are handed out in index order. */
TEST(CheckpointSweep, CmrpoKillAndResumeBitIdentical)
{
    expectCmrpoKillAndResume("ckpt_sweep_cmrpo", {"comm1"},
                             {"cmrpo#0", "cmrpo#1"});
}

/** Two baselines: each one's first cell (0, 3) is handed out before
 *  any second cell, so cell 1 is the one the fail-point kills. */
TEST(CheckpointSweep, CmrpoKillAndResumeUnderHandOutOrder)
{
    expectCmrpoKillAndResume("ckpt_sweep_cmrpo_order", {"comm1", "swapt"},
                             {"cmrpo#0", "cmrpo#3"});
}

namespace
{

/**
 * {DRCAT, SCA, PRA} x {Static, CloudMix}, scheme-major: cell 2s + a.
 * Both attacks are open loop, so a serial run hands out two groups,
 * Static's cells {0, 2, 4} and then CloudMix's {1, 3, 5}.
 */
std::vector<AdaptiveCell>
adaptiveGroupGrid()
{
    std::vector<AdaptiveCell> cells;
    for (SchemeKind kind :
         {SchemeKind::Drcat, SchemeKind::Sca, SchemeKind::Pra}) {
        for (AttackerKind attacker :
             {AttackerKind::Static, AttackerKind::CloudMix}) {
            AdaptiveCell c;
            c.attack.attacker = attacker;
            c.attack.epochs = 1;
            c.scheme.kind = kind;
            c.scheme.numCounters = 64;
            c.scheme.maxLevels = 11;
            c.scheme.threshold = 32768;
            c.scheme.praProbability = 0.002;
            cells.push_back(c);
        }
    }
    return cells;
}

} // namespace

/**
 * A fail-point kills a serial adaptive grid inside its second group;
 * the journal holds exactly the cells that finished, and a resume
 * recomputes only the missing ones, as one group.
 */
TEST(CheckpointSweep, AdaptiveKillAndResumeMidGroup)
{
    FailpointGuard guard;
    const auto dir = freshDir("ckpt_adaptive_group");
    const auto cells = adaptiveGroupGrid();

    SweepRunner ref(kTestScale, 1);
    const auto expected = ref.runAdaptive(cells);
    EXPECT_EQ(ref.runner().stimulusPasses(), 2u);

    // Hits go out group-major: cells 0, 2, 4, then 1, 3, 5.  The
    // fifth kills cell 3, between its two group-mates.
    SweepRunner victim(kTestScale, 1);
    victim.setCheckpointDir(dir.string());
    fault::installFailpoints("sweep_cell@5");
    try {
        victim.runAdaptive(cells);
        FAIL() << "expected fail-fast throw";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("cell 3"), std::string::npos)
            << e.what();
    }
    fault::installFailpoints("");
    EXPECT_EQ(journaledCells(dir),
              (std::vector<std::string>{"adaptive#0", "adaptive#2",
                                        "adaptive#4", "adaptive#1"}));

    SweepRunner resumed(kTestScale, 1);
    resumed.setCheckpointDir(dir.string());
    const auto got = resumed.runAdaptive(cells);
    EXPECT_EQ(resumed.lastResumedCells(), 4u);
    EXPECT_EQ(resumed.runner().stimulusPasses(), 1u)
        << "cells 3 and 5 share one fleet";
    ASSERT_EQ(got.size(), expected.size());
    for (std::size_t i = 0; i < got.size(); ++i)
        expectSameEval(got[i], expected[i], i);

    SweepRunner third(kTestScale, 1);
    third.setCheckpointDir(dir.string());
    const auto again = third.runAdaptive(cells);
    EXPECT_EQ(third.lastResumedCells(), cells.size());
    EXPECT_EQ(third.runner().stimulusPasses(), 0u);
    ASSERT_EQ(again.size(), expected.size());
    for (std::size_t i = 0; i < again.size(); ++i)
        expectSameEval(again[i], expected[i], i);
    std::filesystem::remove_all(dir);
}

/**
 * Keep-going inside a group: the cell whose fail-point hits fire is
 * retried once on its own and then reported under its grid index,
 * while its group-mates finish and are journaled.
 */
TEST(CheckpointSweep, AdaptiveKeepGoingRetriesGroupCellAlone)
{
    FailpointGuard guard;
    const auto dir = freshDir("ckpt_adaptive_keepgoing");
    const auto cells = adaptiveGroupGrid();
    SweepRunner ref(kTestScale, 1);
    const auto expected = ref.runAdaptive(cells);

    // Hit 2 is cell 2's shared attempt, hit 3 its lone retry.
    SweepRunner runner(kTestScale, 1);
    runner.setCheckpointDir(dir.string());
    runner.setKeepGoing(true);
    fault::installFailpoints("sweep_cell@2,sweep_cell@3");
    const auto got = runner.runAdaptive(cells);
    fault::installFailpoints("");
    ASSERT_EQ(runner.lastErrors().size(), 1u);
    EXPECT_EQ(runner.lastErrors()[0].index, 2u);
    EXPECT_EQ(runner.lastErrors()[0].attempts, 2);
    EXPECT_EQ(runner.runner().stimulusPasses(), 2u)
        << "the lone retry fails before it builds a fleet";
    EXPECT_TRUE(std::isnan(got[2].cmrpo));
    for (std::size_t i : {0, 1, 3, 4, 5})
        expectSameEval(got[i], expected[i], i);
    EXPECT_EQ(journaledCells(dir),
              (std::vector<std::string>{"adaptive#0", "adaptive#4",
                                        "adaptive#1", "adaptive#3",
                                        "adaptive#5"}));

    // A transient failure costs the one retry and nothing else.
    SweepRunner transient(kTestScale, 1);
    transient.setKeepGoing(true);
    fault::installFailpoints("sweep_cell@2");
    const auto healed = transient.runAdaptive(cells);
    EXPECT_TRUE(transient.lastErrors().empty());
    EXPECT_EQ(transient.runner().stimulusPasses(), 3u)
        << "two groups and the lone retry";
    for (std::size_t i = 0; i < cells.size(); ++i)
        expectSameEval(healed[i], expected[i], i);
    std::filesystem::remove_all(dir);
}

/** A journal holding pinnedEvalBlob() under the sweep's run and cell
 *  keys resumes to exactly those values, field by field. */
TEST(CheckpointSweep, PinnedEvalResultRecordResumes)
{
    const auto dir = freshDir("ckpt_pinned_eval");
    SweepCell cell;
    cell.workload.name = "comm1";
    cell.scheme.kind = SchemeKind::Sca;
    const std::string key = "cmrpo#0|" + cell.system().format() + "|tag=0";
    std::ostringstream runKey;
    runKey << "cmrpo|seq=0|scale=" << std::hexfloat << kTestScale
           << "|cells=1|" << key;
    CheckpointJournal(dir.string(), runKey.str())
        .append(key, pinnedEvalBlob());

    SweepRunner runner(kTestScale, 1);
    runner.setCheckpointDir(dir.string());
    const auto got = runner.runCmrpo({cell});
    EXPECT_EQ(runner.lastResumedCells(), 1u);
    EXPECT_EQ(runner.runner().baselineComputeCount(), 0u);
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0].cmrpo, 1.5);
    EXPECT_EQ(got[0].power.dynamic, 2.5);
    EXPECT_EQ(got[0].power.statik, 3.5);
    EXPECT_EQ(got[0].power.refresh, 4.5);
    EXPECT_EQ(got[0].baselineSeconds, 5.5);
    EXPECT_EQ(got[0].stats, pinnedStats(101));
    std::filesystem::remove_all(dir);
}

TEST(CheckpointSweep, KeepGoingRecordsErrorAndCompletesGrid)
{
    const auto cells = tagGrid(5);
    SweepRunner runner(kTestScale, 2);
    runner.setKeepGoing(true);
    const auto results = runner.runMetric(
        cells, [](ExperimentRunner &, const SweepCell &c) {
            if (c.tag == 2)
                throw std::runtime_error("cell is cursed");
            return tagMetric(c);
        });
    ASSERT_EQ(results.size(), 5u);
    EXPECT_TRUE(std::isnan(results[2]));
    for (std::size_t i : {std::size_t(0), std::size_t(1), std::size_t(3),
                          std::size_t(4)})
        EXPECT_EQ(results[i], tagMetric(cells[i])) << "cell " << i;

    ASSERT_EQ(runner.lastErrors().size(), 1u);
    const CellError &err = runner.lastErrors()[0];
    EXPECT_EQ(err.index, 2u);
    EXPECT_EQ(err.attempts, 2);
    EXPECT_NE(err.message.find("cursed"), std::string::npos);
    EXPECT_FALSE(err.label.empty());
}

TEST(CheckpointSweep, KeepGoingRetriesTransientFailureOnce)
{
    const auto cells = tagGrid(4);
    std::atomic<int> firstAttempt{0};
    SweepRunner runner(kTestScale, 1);
    runner.setKeepGoing(true);
    const auto results = runner.runMetric(
        cells,
        [&firstAttempt](ExperimentRunner &, const SweepCell &c) {
            if (c.tag == 1 && firstAttempt.fetch_add(1) == 0)
                throw std::runtime_error("transient");
            return tagMetric(c);
        });
    EXPECT_TRUE(runner.lastErrors().empty());
    for (std::size_t i = 0; i < cells.size(); ++i)
        EXPECT_EQ(results[i], tagMetric(cells[i])) << "cell " << i;
    EXPECT_EQ(firstAttempt.load(), 2) << "exactly one retry";
}

TEST(CheckpointSweep, KeepGoingFailedCellsRerunOnResume)
{
    const auto dir = freshDir("ckpt_keepgoing");
    const auto cells = tagGrid(4);
    std::atomic<bool> healed{false};
    std::atomic<int> evals{0};
    const auto fn = [&](ExperimentRunner &, const SweepCell &c) {
        evals.fetch_add(1);
        if (c.tag == 1 && !healed.load())
            throw std::runtime_error("persistent failure");
        return tagMetric(c);
    };

    SweepRunner first(kTestScale, 1);
    first.setCheckpointDir(dir.string());
    first.setKeepGoing(true);
    const auto partial = first.runMetric(cells, fn);
    EXPECT_TRUE(std::isnan(partial[1]));
    ASSERT_EQ(first.lastErrors().size(), 1u);

    // The failed cell was NOT journaled; resume re-runs exactly it.
    healed.store(true);
    evals.store(0);
    SweepRunner second(kTestScale, 1);
    second.setCheckpointDir(dir.string());
    second.setKeepGoing(true);
    const auto full = second.runMetric(cells, fn);
    EXPECT_EQ(second.lastResumedCells(), 3u);
    EXPECT_EQ(evals.load(), 1);
    EXPECT_TRUE(second.lastErrors().empty());
    for (std::size_t i = 0; i < cells.size(); ++i)
        EXPECT_EQ(full[i], tagMetric(cells[i])) << "cell " << i;
    std::filesystem::remove_all(dir);
}

TEST(CheckpointSweep, FailFastNamesTheFailingCell)
{
    const auto cells = tagGrid(4);
    SweepRunner runner(kTestScale, 1);
    try {
        runner.runMetric(cells,
                         [](ExperimentRunner &, const SweepCell &c) {
                             if (c.tag == 2)
                                 throw std::runtime_error("boom");
                             return tagMetric(c);
                         });
        FAIL() << "expected fail-fast throw";
    } catch (const std::runtime_error &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("cell 2"), std::string::npos) << what;
        EXPECT_NE(what.find("boom"), std::string::npos) << what;
    }
}

/**
 * Fail-fast after a resume must name the failing cell by its grid
 * index, not by its position among the cells left to run.
 */
TEST(CheckpointSweep, FailFastAfterResumeNamesTheGridCell)
{
    const auto dir = freshDir("ckpt_failfast_resume");
    const auto cells = tagGrid(4);
    const auto fn = [](ExperimentRunner &, const SweepCell &c) {
        if (c.tag == 3)
            throw std::runtime_error("boom");
        return tagMetric(c);
    };

    // Keep-going journals cells 0-2; cell 3 fails and is not journaled.
    SweepRunner first(kTestScale, 1);
    first.setCheckpointDir(dir.string());
    first.setKeepGoing(true);
    first.runMetric(cells, fn);
    ASSERT_EQ(first.lastErrors().size(), 1u);

    SweepRunner second(kTestScale, 1);
    second.setCheckpointDir(dir.string());
    try {
        second.runMetric(cells, fn);
        FAIL() << "expected fail-fast throw";
    } catch (const std::runtime_error &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("cell 3"), std::string::npos) << what;
        EXPECT_EQ(what.find("cell 0"), std::string::npos) << what;
        EXPECT_NE(what.find("boom"), std::string::npos) << what;
    }
    EXPECT_EQ(second.lastResumedCells(), 3u);
    std::filesystem::remove_all(dir);
}

TEST(CheckpointMc, CampaignResumesAfterTornAppend)
{
    FailpointGuard guard;
    const auto dir = freshDir("ckpt_mc");
    McCampaignSpec spec;
    spec.prng = McCampaignSpec::Prng::True;
    spec.seed = 99;
    spec.threshold = 512;
    spec.p = 0.01;
    spec.windows = 800;
    spec.windowsPerBatch = 256; // 4 batches (last one short)

    const McResult expected = praWindowFailuresResumable(spec, nullptr);

    // The append of batch #2 tears mid-record and the "process" dies.
    {
        CheckpointJournal j(dir.string(), "mc-test");
        fault::installFailpoints("checkpoint_append_torn@2");
        EXPECT_THROW(praWindowFailuresResumable(spec, &j),
                     FaultInjected);
        fault::installFailpoints("");
    }

    // Resume: the torn record is dropped, batch 0 is served from the
    // journal, and the total matches the uninterrupted run exactly.
    CheckpointJournal j(dir.string(), "mc-test");
    EXPECT_EQ(j.replayedRecords(), 1u);
    const McResult got = praWindowFailuresResumable(spec, &j);
    EXPECT_EQ(got.failedWindows, expected.failedWindows);
    EXPECT_EQ(got.windows, expected.windows);
    EXPECT_EQ(got.windowFailureProb, expected.windowFailureProb);

    // And a fully-journaled rerun still agrees.
    CheckpointJournal k(dir.string(), "mc-test");
    EXPECT_EQ(k.replayedRecords(), 4u);
    const McResult again = praWindowFailuresResumable(spec, &k);
    EXPECT_EQ(again.failedWindows, expected.failedWindows);
    std::filesystem::remove_all(dir);
}

TEST(CheckpointMc, LfsrCampaignIsDeterministic)
{
    McCampaignSpec spec;
    spec.prng = McCampaignSpec::Prng::Lfsr;
    spec.lfsrWidth = 8;
    spec.seed = 0xAB;
    spec.threshold = 512;
    spec.p = 0.01;
    spec.windows = 512;
    spec.windowsPerBatch = 128;
    const McResult a = praWindowFailuresResumable(spec, nullptr);
    const McResult b = praWindowFailuresResumable(spec, nullptr);
    EXPECT_EQ(a.failedWindows, b.failedWindows);
    EXPECT_EQ(a.windowFailureProb, b.windowFailureProb);
}

} // namespace catsim
