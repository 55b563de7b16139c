/**
 * @file
 * Property and determinism tests for the timing front ends.
 *
 * Two layers:
 *  - seeded random system grids (core counts, workload gap profiles,
 *    scheme kinds, epoch scales, recording on/off) asserting runTiming
 *    equals the frozen reference loop and repeats itself exactly;
 *  - CATSIM_JOBS invariance of SweepRunner grids built on the timing
 *    front ends (closed-loop adaptive cells and stimulus-path ETO
 *    cells).
 *
 * The order rules of the stimulus loop (an idle fleet never starts,
 * the run ends with the last source, a boundary beats a same-time
 * ACT) are pinned in test_timing_closed_loop.cpp.
 *
 * The big grids live in the SlowPropertyGrid suite, which CMake
 * registers as a separate ctest entry labeled "slow" (run with
 * `ctest -L slow`; the default run and the sanitizer CI use -LE slow).
 */

#include <gtest/gtest.h>

#include <random>

#include "oracles/reference_timing_sim.hpp"
#include "sim/sweep.hpp"
#include "sim/timing_sim.hpp"
#include "trace/workloads.hpp"

namespace catsim
{

namespace
{

std::vector<std::string>
workloadNames()
{
    return {"comm1", "comm2", "comm3", "comm4", "comm5"};
}

/** One seeded random system configuration. */
TimingConfig
randomSystem(std::mt19937_64 &rng, std::string *workload_out)
{
    const SchemeKind kinds[] = {SchemeKind::None, SchemeKind::Sca,
                                SchemeKind::Pra, SchemeKind::Prcat,
                                SchemeKind::Drcat,
                                SchemeKind::CounterCache};
    const auto pick = [&rng](std::uint64_t n) {
        return static_cast<std::size_t>(rng() % n);
    };

    TimingConfig sys;
    sys.geometry = DramGeometry::dualCore2Ch();
    sys.numCores = static_cast<std::uint32_t>(1 + pick(4));
    sys.scheme.kind = kinds[pick(6)];
    sys.scheme.numCounters = (pick(2) == 0) ? 64 : 128;
    sys.scheme.maxLevels = 11;
    sys.scheme.threshold =
        static_cast<std::uint32_t>(512u << pick(3)); // 512/1024/2048
    if (sys.scheme.kind == SchemeKind::Pra)
        sys.scheme.praProbability =
            1.0 / static_cast<double>(sys.scheme.threshold);
    sys.recordActivations = pick(2) == 0;
    const double epochScales[] = {0.001, 0.002, 0.004};
    sys.epochScale = epochScales[pick(3)];
    // Vary the core's memory-level parallelism and retire rate so the
    // inter-request gap distribution (not just the workload's) moves.
    sys.core.mlp = (pick(2) == 0) ? 8 : 16;
    sys.core.retireWidth = static_cast<std::uint32_t>(1 + pick(3));

    const auto &names = workloadNames();
    *workload_out = names[pick(names.size())];
    return sys;
}

StreamFactory
workloadFactory(const TimingConfig &sys, const AddressMapper &mapper,
                std::uint64_t records, const std::string &name)
{
    const WorkloadProfile profile = findWorkload(name);
    const DramGeometry geometry = sys.geometry;
    return [profile, geometry, &mapper,
            records](CoreId core) -> std::unique_ptr<TraceStream> {
        return std::make_unique<SyntheticWorkload>(
            profile, geometry, mapper, core + 1, records);
    };
}

/** Strict equality of everything a TimingResult carries. */
void
expectIdentical(const TimingResult &a, const TimingResult &b)
{
    EXPECT_EQ(a.execCycles, b.execCycles);
    EXPECT_EQ(a.execSeconds, b.execSeconds);
    EXPECT_EQ(a.epochs, b.epochs);
    EXPECT_EQ(a.totalActivations, b.totalActivations);
    EXPECT_EQ(a.victimRowsRefreshed, b.victimRowsRefreshed);
    EXPECT_EQ(a.controller.reads, b.controller.reads);
    EXPECT_EQ(a.controller.writes, b.controller.writes);
    EXPECT_EQ(a.controller.writeDrains, b.controller.writeDrains);
    EXPECT_EQ(a.controller.lastCompletion, b.controller.lastCompletion);
    EXPECT_EQ(a.scheme.refreshEvents, b.scheme.refreshEvents);
    EXPECT_EQ(a.scheme.splits, b.scheme.splits);
    EXPECT_EQ(a.scheme.merges, b.scheme.merges);
    ASSERT_EQ(a.bankStreams.size(), b.bankStreams.size());
    for (std::size_t i = 0; i < a.bankStreams.size(); ++i)
        EXPECT_EQ(a.bankStreams[i], b.bankStreams[i]);
}

void
checkRandomGrid(std::uint64_t seed, int configs, std::uint64_t records)
{
    std::mt19937_64 rng(seed);
    for (int i = 0; i < configs; ++i) {
        std::string workload;
        const TimingConfig sys = randomSystem(rng, &workload);
        SCOPED_TRACE(testing::Message()
                     << "config " << i << " workload " << workload
                     << " scheme "
                     << static_cast<int>(sys.scheme.kind) << " cores "
                     << sys.numCores);
        AddressMapper mapper(sys.geometry, sys.mapping);
        const auto factory =
            workloadFactory(sys, mapper, records, workload);

        const TimingResult ref = referenceRunTiming(sys, factory);
        const TimingResult once = runTiming(sys, factory);
        const TimingResult twice = runTiming(sys, factory);
        expectIdentical(once, ref);   // scan loop == frozen oracle
        expectIdentical(once, twice); // scan loop repeats itself
    }
}

AdaptiveCell
adaptiveCell(AttackerKind attacker, SchemeKind kind)
{
    AdaptiveCell c;
    c.preset = SystemPreset::DualCore2Ch;
    c.attack.attacker = attacker;
    c.attack.mode = AttackMode::Medium;
    c.attack.kernel = 1;
    c.scheme.kind = kind;
    c.scheme.numCounters = 64;
    c.scheme.maxLevels = 11;
    c.scheme.threshold = 32768;
    if (kind == SchemeKind::Pra)
        c.scheme.praProbability = 2.0 / 32768.0;
    return c;
}

} // namespace

/** Fast seeded grid: a handful of random systems every ctest run. */
TEST(PropertyGrid, RandomSystemsMatchReferenceAndRepeat)
{
    checkRandomGrid(/*seed=*/1234, /*configs=*/5, /*records=*/15000);
}

/** Jobs invariance of the closed-loop grids the fig14 bench runs. */
TEST(PropertyGrid, AdaptiveSweepInvariantAcrossJobCounts)
{
    const std::vector<AdaptiveCell> cells = {
        adaptiveCell(AttackerKind::Static, SchemeKind::Drcat),
        adaptiveCell(AttackerKind::RefreshAware, SchemeKind::Drcat),
        adaptiveCell(AttackerKind::RefreshAware, SchemeKind::Prcat),
        adaptiveCell(AttackerKind::MultiBank, SchemeKind::CounterCache),
    };
    const double scale = 0.02;
    SweepRunner serial(scale, 1);
    SweepRunner wide(scale, 4);
    const auto a = serial.runAdaptive(cells);
    const auto b = wide.runAdaptive(cells);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].cmrpo, b[i].cmrpo) << "cell " << i;
        EXPECT_EQ(a[i].stats.refreshEvents, b[i].stats.refreshEvents);
    }
}

/** Large seeded grid - registered separately with ctest label "slow". */
TEST(SlowPropertyGrid, RandomSystemsMatchReferenceAndRepeat)
{
    checkRandomGrid(/*seed=*/98765, /*configs=*/16, /*records=*/50000);
}

/** Stimulus-path ETO cells repeat exactly at any job count. */
TEST(SlowPropertyGrid, AdaptiveEtoInvariantAcrossJobCounts)
{
    const std::vector<AdaptiveCell> cells = {
        adaptiveCell(AttackerKind::Static, SchemeKind::CounterCache),
        adaptiveCell(AttackerKind::RefreshAware, SchemeKind::Drcat),
    };
    const double scale = 0.02;
    SweepRunner serial(scale, 1);
    SweepRunner wide(scale, 8);
    const auto a = serial.runAdaptiveEto(cells);
    const auto b = wide.runAdaptiveEto(cells);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(a[i], b[i]) << "cell " << i;
    // And the whole grid repeats bit-for-bit on a fresh runner.
    SweepRunner again(scale, 3);
    const auto c = again.runAdaptiveEto(cells);
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(a[i], c[i]) << "cell " << i;
}

} // namespace catsim
