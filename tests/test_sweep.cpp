/**
 * @file
 * Tests for the parallel sweep engine: serial/parallel equivalence,
 * baseline dedup under contention, the hand-out order, and the on-disk
 * baseline cache.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <string>
#include <vector>

#include "sim/baseline_io.hpp"
#include "sim/sweep.hpp"

namespace catsim
{

namespace
{

// The runner reads CATSIM_BASELINE_CACHE at construction; these tests
// count baseline computations and disk loads, so an inherited cache
// dir (or jobs override) must not leak in from the environment.
const bool kEnvScrubbed = [] {
    ::unsetenv("CATSIM_BASELINE_CACHE");
    ::unsetenv("CATSIM_JOBS");
    ::unsetenv("CATSIM_CHECKPOINT");
    ::unsetenv("CATSIM_SWEEP_KEEP_GOING");
    return true;
}();

constexpr double kTestScale = 0.02;

/** SweepDiskCache.FileBytesArePinned's cache file, as hex. */
const char *const kPinnedBaselineHex =
    "31424d495354414302000000000000000a00000000000000302f636f6d6d312f"
    "3432000000000000d03fe903000000000000000000000000d83fea0300000000"
    "0000eb03000000000000ec03000000000000ed03000000000000ee0300000000"
    "0000ef03000000000000f003000000000000d107000000000000d20700000000"
    "0000d307000000000000d407000000000000d507000000000000d60700000000"
    "0000d707000000000000d807000000000000d907000000000000da0700000000"
    "0000f103000000000000f2030000000000000200000000000000040000000000"
    "00000500000006000000ffffffff0700000001000000000000000900000060c5"
    "68d9";

std::vector<SweepCell>
smallGrid()
{
    std::vector<SweepCell> cells;
    for (const char *name : {"comm1", "swapt"}) {
        for (SchemeKind kind : {SchemeKind::Drcat, SchemeKind::Sca,
                                SchemeKind::Pra}) {
            SweepCell c;
            c.workload.name = name;
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

void
expectBitIdentical(const EvalResult &a, const EvalResult &b,
                   std::size_t i)
{
    EXPECT_EQ(a.cmrpo, b.cmrpo) << "cell " << i;
    EXPECT_EQ(a.baselineSeconds, b.baselineSeconds) << "cell " << i;
    EXPECT_EQ(a.power.dynamic, b.power.dynamic) << "cell " << i;
    EXPECT_EQ(a.power.statik, b.power.statik) << "cell " << i;
    EXPECT_EQ(a.power.refresh, b.power.refresh) << "cell " << i;
    EXPECT_EQ(a.stats, b.stats) << "cell " << i;
}

/** Fresh scratch dir under the test temp root. */
std::filesystem::path
freshCacheDir(const std::string &name)
{
    const auto dir =
        std::filesystem::temp_directory_path() / ("catsim_" + name);
    std::filesystem::remove_all(dir);
    return dir;
}

} // namespace

TEST(Sweep, ParallelMatchesSerialBitForBit)
{
    const auto cells = smallGrid();

    SweepRunner serial(kTestScale, 1);
    const auto expected = serial.runCmrpo(cells);

    SweepRunner parallel4(kTestScale, 4);
    const auto got = parallel4.runCmrpo(cells);

    ASSERT_EQ(expected.size(), got.size());
    for (std::size_t i = 0; i < expected.size(); ++i)
        expectBitIdentical(expected[i], got[i], i);
}

TEST(Sweep, EtoParallelMatchesSerial)
{
    std::vector<SweepCell> cells = smallGrid();
    cells.resize(3); // ETO cells run full timing sims; keep it small

    SweepRunner serial(kTestScale, 1);
    SweepRunner parallel4(kTestScale, 4);
    const auto expected = serial.runEto(cells);
    const auto got = parallel4.runEto(cells);

    ASSERT_EQ(expected.size(), got.size());
    for (std::size_t i = 0; i < expected.size(); ++i)
        EXPECT_EQ(expected[i], got[i]) << "cell " << i;
}

TEST(Sweep, RunMetricParallelMatchesSerial)
{
    // Custom per-cell metrics (the ablation bench's path) must come
    // back cell-indexed and identical at any job count; the tag field
    // must reach the callback.
    std::vector<SweepCell> cells;
    for (const char *name : {"comm1", "swapt"}) {
        for (std::uint64_t tag = 0; tag < 3; ++tag) {
            SweepCell c;
            c.workload.name = name;
            c.tag = tag;
            cells.push_back(c);
        }
    }
    const auto metric = [](ExperimentRunner &runner,
                           const SweepCell &cell) {
        const auto &base =
            runner.baseline(cell.preset, cell.workload);
        // Deterministic function of the baseline and the tag.
        return static_cast<double>(base.totalActivations)
               * static_cast<double>(cell.tag + 1);
    };

    SweepRunner serial(kTestScale, 1);
    SweepRunner parallel4(kTestScale, 4);
    const auto expected = serial.runMetric(cells, metric);
    const auto got = parallel4.runMetric(cells, metric);

    ASSERT_EQ(expected.size(), got.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(expected[i], got[i]) << "cell " << i;
        EXPECT_GT(expected[i], 0.0) << "cell " << i;
    }
    // Tags scale the metric, so cells sharing a workload must differ.
    EXPECT_EQ(expected[1], 2.0 * expected[0]);
    EXPECT_EQ(expected[2], 3.0 * expected[0]);
}

TEST(Sweep, AdaptiveParallelMatchesSerialWithoutBaselines)
{
    // Closed-loop cells must be pure functions of their spec: same
    // results at any job count, and no recorded baseline is ever
    // computed (the whole point of the closed-loop path).
    std::vector<AdaptiveCell> cells;
    for (AttackerKind a : {AttackerKind::Static,
                           AttackerKind::MultiBank,
                           AttackerKind::RefreshAware}) {
        for (SchemeKind kind : {SchemeKind::Drcat,
                                SchemeKind::CounterCache}) {
            AdaptiveCell c;
            c.attack.attacker = a;
            c.attack.kernel = 2;
            c.attack.epochs = 1;
            c.scheme.kind = kind;
            c.scheme.numCounters =
                kind == SchemeKind::CounterCache ? 2048 : 64;
            c.scheme.maxLevels = 11;
            c.scheme.threshold = 32768;
            cells.push_back(c);
        }
    }

    SweepRunner serial(kTestScale, 1);
    const auto expected = serial.runAdaptive(cells);
    EXPECT_EQ(serial.runner().baselineComputeCount(), 0u);

    SweepRunner parallel4(kTestScale, 4);
    const auto got = parallel4.runAdaptive(cells);
    EXPECT_EQ(parallel4.runner().baselineComputeCount(), 0u);

    ASSERT_EQ(expected.size(), got.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
        expectBitIdentical(expected[i], got[i], i);
        EXPECT_GT(got[i].cmrpo, 0.0) << "cell " << i;
    }
}

namespace
{

SchemeConfig
adaptiveScheme(SchemeKind kind, std::uint32_t counters,
               std::uint32_t banks_per_pool = 0)
{
    SchemeConfig cfg;
    cfg.kind = kind;
    cfg.numCounters = counters;
    cfg.maxLevels = 11;
    cfg.threshold = 32768;
    cfg.praProbability = 0.002;
    cfg.banksPerPool = banks_per_pool;
    return cfg;
}

AdaptiveCell
adaptiveCell(AttackerKind attacker, const SchemeConfig &scheme)
{
    AdaptiveCell c;
    c.attack.attacker = attacker;
    c.attack.epochs = 1;
    if (attacker == AttackerKind::ManySided
        || attacker == AttackerKind::HalfDouble)
        c.attack.targetsPerBank = 8;
    c.scheme = scheme;
    return c;
}

/** perfbench's closed_loop grid at one epoch. */
struct ClosedLoopGrid
{
    /** {MG, CC, PRCAT, DRCAT, PRA, RFM} x {Static, RefreshAware,
     *  ManySided, HalfDouble, CloudMix}, scheme-major. */
    std::vector<AdaptiveCell> cmrpo;
    /** {Static, RefreshAware} x {PRCAT, DRCAT, PRA}. */
    std::vector<AdaptiveCell> eto;
};

ClosedLoopGrid
closedLoopGrid()
{
    const SchemeConfig schemes[] = {
        adaptiveScheme(SchemeKind::MisraGries, 512),
        adaptiveScheme(SchemeKind::CounterCache, 2048),
        adaptiveScheme(SchemeKind::Prcat, 64),
        adaptiveScheme(SchemeKind::Drcat, 64),
        adaptiveScheme(SchemeKind::Pra, 0),
        adaptiveScheme(SchemeKind::Rfm, 0),
    };
    const AttackerKind attackers[] = {
        AttackerKind::Static, AttackerKind::RefreshAware,
        AttackerKind::ManySided, AttackerKind::HalfDouble,
        AttackerKind::CloudMix};
    ClosedLoopGrid grid;
    for (const SchemeConfig &cfg : schemes)
        for (const AttackerKind attacker : attackers)
            grid.cmrpo.push_back(adaptiveCell(attacker, cfg));
    for (const std::size_t a : {0, 1})
        for (const std::size_t s : {2, 3, 4})
            grid.eto.push_back(adaptiveCell(attackers[a], schemes[s]));
    return grid;
}

} // namespace

TEST(Sweep, AdaptiveGroupsShareStimulusAtAnyJobs)
{
    // Cells of one open-loop attack share one fleet, and cells of one
    // attack share one unmitigated ETO leg.  Per cell, the grid would
    // build 30 + 2 x 6 = 42 fleets; grouped it builds 18.
    const ClosedLoopGrid grid = closedLoopGrid();

    SweepRunner serial(kTestScale, 1);
    const auto cmrpo = serial.runAdaptive(grid.cmrpo);
    // 4 open-loop attacks + 6 RefreshAware cells.
    EXPECT_EQ(serial.runner().stimulusPasses(), 10u);
    const auto etos = serial.runAdaptiveEto(grid.eto);
    // + 2 unmitigated legs + 6 mitigated legs.
    EXPECT_EQ(serial.runner().stimulusPasses(), 18u);

    // Four workers cap a task at ceil(6 / 4) = 2 ETO cells, so each
    // attack's three ETO cells take two tasks and two unmitigated legs.
    SweepRunner parallel4(kTestScale, 4);
    const auto cmrpo4 = parallel4.runAdaptive(grid.cmrpo);
    EXPECT_EQ(parallel4.runner().stimulusPasses(), 10u);
    const auto etos4 = parallel4.runAdaptiveEto(grid.eto);
    EXPECT_EQ(parallel4.runner().stimulusPasses(), 20u);

    // The per-cell path, through the per-cell callback.
    SweepRunner perCell(kTestScale, 4);
    std::vector<EvalResult> alone(grid.cmrpo.size());
    perCell.runAdaptiveMetric(
        grid.cmrpo, [&](ExperimentRunner &r, const AdaptiveCell &c) {
            const auto i = static_cast<std::size_t>(&c - grid.cmrpo.data());
            alone[i] = r.evalAdaptive(c.preset, c.attack, c.scheme);
            return alone[i].cmrpo;
        });
    EXPECT_EQ(perCell.runner().stimulusPasses(), 30u);
    const auto etosAlone = perCell.runAdaptiveMetric(
        grid.eto, [](ExperimentRunner &r, const AdaptiveCell &c) {
            return r.evalAdaptiveEto(c.preset, c.attack, c.scheme);
        });
    EXPECT_EQ(perCell.runner().stimulusPasses(), 42u);

    ASSERT_EQ(cmrpo.size(), grid.cmrpo.size());
    ASSERT_EQ(cmrpo4.size(), grid.cmrpo.size());
    for (std::size_t i = 0; i < cmrpo.size(); ++i) {
        expectBitIdentical(cmrpo[i], cmrpo4[i], i);
        expectBitIdentical(cmrpo[i], alone[i], i);
        EXPECT_GT(cmrpo[i].stats.activations, 0u) << "cell " << i;
    }
    EXPECT_EQ(etos, etos4);
    EXPECT_EQ(etos, etosAlone);
}

TEST(Sweep, AdaptiveGroupsSplitByPoolGrouping)
{
    // Private and rank-pooled schemes cannot share one replay pass, so
    // one open-loop attack takes one fleet per pool grouping.
    const std::vector<AdaptiveCell> cells = {
        adaptiveCell(AttackerKind::Static,
                     adaptiveScheme(SchemeKind::Drcat, 64)),
        adaptiveCell(AttackerKind::Static,
                     adaptiveScheme(SchemeKind::Drcat, 64, 4)),
        adaptiveCell(AttackerKind::Static,
                     adaptiveScheme(SchemeKind::Sca, 64)),
        adaptiveCell(AttackerKind::Static,
                     adaptiveScheme(SchemeKind::Prcat, 64, 4)),
    };
    SweepRunner sweep(kTestScale, 1);
    const auto got = sweep.runAdaptive(cells);
    EXPECT_EQ(sweep.runner().stimulusPasses(), 2u);
    ExperimentRunner direct(kTestScale);
    for (std::size_t i = 0; i < cells.size(); ++i)
        expectBitIdentical(got[i],
                           direct.evalAdaptive(cells[i].preset,
                                               cells[i].attack,
                                               cells[i].scheme),
                           i);
}

TEST(Sweep, BaselineComputedOnceUnderContention)
{
    // Eight cells hammer the same (preset, workload) concurrently;
    // the shared-future cache must run the baseline exactly once.
    std::vector<SweepCell> cells;
    for (std::uint32_t m : {16u, 32u, 64u, 128u, 256u, 512u, 1024u,
                            2048u}) {
        SweepCell c;
        c.workload.name = "comm1";
        c.scheme.kind = SchemeKind::Sca;
        c.scheme.numCounters = m;
        cells.push_back(c);
    }
    SweepRunner sweep(kTestScale, 8);
    const auto results = sweep.runCmrpo(cells);
    EXPECT_EQ(sweep.runner().baselineComputeCount(), 1u);
    EXPECT_EQ(results.size(), cells.size());
    for (const auto &r : results)
        EXPECT_GT(r.cmrpo, 0.0);
}

TEST(Sweep, HandsOutOneCellPerBaselineFirst)
{
    // Workload-major grid, 3 workloads x 3 tags: the first cell of
    // each baseline runs before any second cell, the rest in index
    // order.  The metric never touches a baseline, so this is instant.
    std::vector<SweepCell> cells;
    for (const char *name : {"comm1", "swapt", "black"}) {
        for (int k = 0; k < 3; ++k) {
            SweepCell c;
            c.workload.name = name;
            c.tag = cells.size(); // the grid index
            cells.push_back(c);
        }
    }
    std::vector<std::uint64_t> order;
    const auto record = [&order](ExperimentRunner &, const SweepCell &cell) {
        order.push_back(cell.tag);
        return 0.0;
    };
    SweepRunner sweep(kTestScale, 1);
    sweep.runMetric(cells, record);
    EXPECT_EQ(order, (std::vector<std::uint64_t>{0, 3, 6, 1, 2, 4, 5, 7, 8}));
}

TEST(Sweep, DistinctBaselinesStartTogether)
{
    // Workload-major 2 x 2 grid on two workers: each call records its
    // workload, then waits for a second call to start, so the first
    // two records are the two cells handed out first.  Handing out two
    // cells of one workload would park a worker on its baseline.
    std::vector<SweepCell> cells;
    for (const char *name : {"comm1", "swapt"}) {
        for (std::uint64_t tag = 0; tag < 2; ++tag) {
            SweepCell c;
            c.workload.name = name;
            c.tag = tag;
            cells.push_back(c);
        }
    }
    std::mutex mutex;
    std::condition_variable started;
    std::vector<std::string> workloads;
    const auto fn = [&](ExperimentRunner &, const SweepCell &cell) {
        std::unique_lock<std::mutex> lock(mutex);
        workloads.push_back(cell.workload.name);
        started.notify_all();
        // Bounded, so a runner that serialises fails instead of hanging.
        started.wait_for(lock, std::chrono::seconds(30),
                         [&workloads] { return workloads.size() >= 2; });
        return 0.0;
    };
    SweepRunner sweep(kTestScale, 2);
    sweep.runMetric(cells, fn);
    ASSERT_EQ(workloads.size(), cells.size());
    EXPECT_NE(workloads[0], workloads[1]);
}

TEST(Sweep, ResultsIndexedByCellNotCompletionOrder)
{
    // Uneven per-cell work (PRA replays are cheap, DRCAT heavier):
    // results must still line up with their cells.
    const auto cells = smallGrid();
    SweepRunner sweep(kTestScale, 4);
    const auto results = sweep.runCmrpo(cells);
    ExperimentRunner direct(kTestScale);
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const auto r = direct.evalCmrpo(cells[i].preset,
                                        cells[i].workload,
                                        cells[i].scheme);
        EXPECT_EQ(results[i].cmrpo, r.cmrpo) << "cell " << i;
    }
}

TEST(SweepDiskCache, RoundTrip)
{
    const auto dir = freshCacheDir("sweep_cache_roundtrip");
    const auto cells = smallGrid();

    SweepRunner first(kTestScale, 2);
    first.runner().setBaselineCacheDir(dir.string());
    const auto expected = first.runCmrpo(cells);
    EXPECT_EQ(first.runner().baselineComputeCount(), 2u);
    EXPECT_EQ(first.runner().baselineDiskLoads(), 0u);

    // A fresh runner over the same dir must load, not recompute,
    // and produce bit-identical results.
    SweepRunner second(kTestScale, 2);
    second.runner().setBaselineCacheDir(dir.string());
    const auto got = second.runCmrpo(cells);
    EXPECT_EQ(second.runner().baselineComputeCount(), 0u);
    EXPECT_EQ(second.runner().baselineDiskLoads(), 2u);
    ASSERT_EQ(expected.size(), got.size());
    for (std::size_t i = 0; i < expected.size(); ++i)
        expectBitIdentical(expected[i], got[i], i);

    std::filesystem::remove_all(dir);
}

TEST(SweepDiskCache, CorruptFileRecomputed)
{
    const auto dir = freshCacheDir("sweep_cache_corrupt");

    WorkloadSpec w;
    w.name = "comm1";
    ExperimentRunner first(kTestScale);
    first.setBaselineCacheDir(dir.string());
    const auto &base = first.baseline(SystemPreset::DualCore2Ch, w);
    EXPECT_GT(base.totalActivations, 0u);

    const std::string path =
        first.baselineCachePath(SystemPreset::DualCore2Ch, w);
    ASSERT_FALSE(path.empty());
    ASSERT_TRUE(std::filesystem::exists(path));
    {
        std::ofstream os(path, std::ios::binary | std::ios::trunc);
        os << "not a baseline";
    }

    ExperimentRunner second(kTestScale);
    second.setBaselineCacheDir(dir.string());
    const auto &again = second.baseline(SystemPreset::DualCore2Ch, w);
    EXPECT_EQ(second.baselineDiskLoads(), 0u);
    EXPECT_EQ(second.baselineComputeCount(), 1u);
    EXPECT_EQ(again.totalActivations, base.totalActivations);
    EXPECT_EQ(again.execCycles, base.execCycles);

    std::filesystem::remove_all(dir);
}

TEST(SweepDiskCache, ScaleMismatchMissesCache)
{
    const auto dir = freshCacheDir("sweep_cache_scale");

    WorkloadSpec w;
    w.name = "comm1";
    ExperimentRunner first(kTestScale);
    first.setBaselineCacheDir(dir.string());
    first.baseline(SystemPreset::DualCore2Ch, w);

    ExperimentRunner other(0.03);
    other.setBaselineCacheDir(dir.string());
    other.baseline(SystemPreset::DualCore2Ch, w);
    EXPECT_EQ(other.baselineDiskLoads(), 0u)
        << "a different scale must not reuse cached streams";
    EXPECT_EQ(other.baselineComputeCount(), 1u);

    std::filesystem::remove_all(dir);
}

/**
 * The cache file layout is an on-disk contract: files written by an
 * older binary must keep loading.  kPinnedBaselineHex is the file for
 * this TimingResult (2 banks, every counter distinct), so a codec change
 * that moves, drops or resizes a field fails here.
 */
TEST(SweepDiskCache, FileBytesArePinned)
{
    TimingResult t;
    t.execCycles = 1001;
    t.execSeconds = 0.375;
    t.epochs = 1002;
    t.controller.reads = 1003;
    t.controller.writes = 1004;
    t.controller.writeDrains = 1005;
    t.controller.victimRefreshEvents = 1006;
    t.controller.victimRowsRefreshed = 1007;
    t.controller.lastCompletion = 1008;
    t.scheme.activations = 2001;
    t.scheme.refreshEvents = 2002;
    t.scheme.victimRowsRefreshed = 2003;
    t.scheme.sramAccesses = 2004;
    t.scheme.prngBits = 2005;
    t.scheme.splits = 2006;
    t.scheme.merges = 2007;
    t.scheme.epochResets = 2008;
    t.scheme.counterDramReads = 2009;
    t.scheme.counterDramWrites = 2010;
    t.totalActivations = 1009;
    t.victimRowsRefreshed = 1010;
    t.bankStreams = {{5, 6, kEpochMarker, 7}, {9}};

    const auto dir = freshCacheDir("sweep_cache_pinned");
    const std::string path = (dir / "pinned.catb").string();
    ASSERT_TRUE(saveBaseline(path, "0/comm1/42", 0.25, t));
    std::ifstream in(path, std::ios::binary);
    const std::string bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    std::string hex;
    for (unsigned char c : bytes) {
        static const char digits[] = "0123456789abcdef";
        hex += digits[c >> 4];
        hex += digits[c & 15];
    }
    EXPECT_EQ(hex, kPinnedBaselineHex);

    TimingResult back;
    ASSERT_TRUE(loadBaseline(path, "0/comm1/42", 0.25, &back));
    EXPECT_EQ(back.execCycles, t.execCycles);
    EXPECT_EQ(back.execSeconds, t.execSeconds);
    EXPECT_EQ(back.epochs, t.epochs);
    EXPECT_EQ(back.controller.reads, t.controller.reads);
    EXPECT_EQ(back.controller.writes, t.controller.writes);
    EXPECT_EQ(back.controller.writeDrains, t.controller.writeDrains);
    EXPECT_EQ(back.controller.victimRefreshEvents,
              t.controller.victimRefreshEvents);
    EXPECT_EQ(back.controller.victimRowsRefreshed,
              t.controller.victimRowsRefreshed);
    EXPECT_EQ(back.controller.lastCompletion, t.controller.lastCompletion);
    EXPECT_EQ(back.scheme, t.scheme);
    EXPECT_EQ(back.totalActivations, t.totalActivations);
    EXPECT_EQ(back.victimRowsRefreshed, t.victimRowsRefreshed);
    EXPECT_EQ(back.bankStreams, t.bankStreams);
    std::filesystem::remove_all(dir);
}

TEST(SweepDiskCache, FileNameEncodesKeyAndScale)
{
    const auto a = baselineCacheFileName("0/comm1/42", 0.02);
    const auto b = baselineCacheFileName("0/comm2/42", 0.02);
    const auto c = baselineCacheFileName("0/comm1/42", 0.05);
    EXPECT_NE(a, b);
    EXPECT_NE(a, c);
    EXPECT_EQ(a, baselineCacheFileName("0/comm1/42", 0.02));
    EXPECT_EQ(a.find('/'), std::string::npos)
        << "file name must be path-safe, got " << a;
}

} // namespace catsim
