/**
 * @file
 * Differential suite: the production timing front ends must reproduce
 * the frozen historical simulator (oracles/reference_timing_sim.hpp)
 * bit for bit - every TimingResult field, including the recorded
 * per-bank activation streams and the per-bank scheme statistics.
 * runTiming is checked across the scheme matrices of the shipped
 * figure benches, multi-core streams, epoch scales, and recording
 * on/off; runTimingOnSources across open- and closed-loop attacker
 * fleets.  The oracle carries its own frozen core window, posted-write
 * queue and DRAM issue logic, so this is the timing front end's
 * ReferenceCatTree for every layer from the loop down to the banks:
 * any change to which core steps next, when an epoch boundary fires,
 * when a read completes or where an ACT issues shows up here first.
 */

#include <gtest/gtest.h>

#include "oracles/reference_timing_sim.hpp"
#include "sim/experiment.hpp"
#include "sim/timing_sim.hpp"
#include "trace/attack.hpp"
#include "trace/workloads.hpp"

namespace catsim
{

namespace
{

TimingConfig
smallSystem(SchemeKind kind)
{
    TimingConfig sys;
    sys.geometry = DramGeometry::dualCore2Ch();
    sys.numCores = 2;
    sys.scheme.kind = kind;
    sys.scheme.numCounters = 64;
    sys.scheme.maxLevels = 11;
    sys.scheme.threshold = 2048;
    sys.recordActivations = true;
    sys.epochScale = 0.002; // ~102 K cycles per epoch: fast tests
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

StreamFactory
attackFactory(const TimingConfig &sys, const AddressMapper &mapper,
              std::uint64_t records, AttackMode mode,
              AttackKernelKind kind = AttackKernelKind::Gaussian)
{
    const WorkloadProfile profile = findWorkload("comm2");
    const DramGeometry geometry = sys.geometry;
    return [profile, geometry, &mapper, mode, kind,
            records](CoreId core) -> std::unique_ptr<TraceStream> {
        return std::make_unique<AttackWorkload>(
            profile, geometry, mapper, mode, 1, core + 1, records, 4,
            kind);
    };
}

void
expectSchemeStatsEqual(const SchemeStats &a, const SchemeStats &b)
{
    EXPECT_EQ(a.activations, b.activations);
    EXPECT_EQ(a.refreshEvents, b.refreshEvents);
    EXPECT_EQ(a.victimRowsRefreshed, b.victimRowsRefreshed);
    EXPECT_EQ(a.sramAccesses, b.sramAccesses);
    EXPECT_EQ(a.prngBits, b.prngBits);
    EXPECT_EQ(a.splits, b.splits);
    EXPECT_EQ(a.merges, b.merges);
    EXPECT_EQ(a.epochResets, b.epochResets);
    EXPECT_EQ(a.counterDramReads, b.counterDramReads);
    EXPECT_EQ(a.counterDramWrites, b.counterDramWrites);
}

/** Full-result bit-identity: every field, every stream element. */
void
expectIdentical(const TimingResult &actual, const TimingResult &ref)
{
    EXPECT_EQ(actual.execCycles, ref.execCycles);
    EXPECT_EQ(actual.execSeconds, ref.execSeconds); // exact, no tolerance
    EXPECT_EQ(actual.epochs, ref.epochs);
    EXPECT_EQ(actual.totalActivations, ref.totalActivations);
    EXPECT_EQ(actual.victimRowsRefreshed, ref.victimRowsRefreshed);

    EXPECT_EQ(actual.controller.reads, ref.controller.reads);
    EXPECT_EQ(actual.controller.writes, ref.controller.writes);
    EXPECT_EQ(actual.controller.writeDrains, ref.controller.writeDrains);
    EXPECT_EQ(actual.controller.victimRefreshEvents,
              ref.controller.victimRefreshEvents);
    EXPECT_EQ(actual.controller.victimRowsRefreshed,
              ref.controller.victimRowsRefreshed);
    EXPECT_EQ(actual.controller.lastCompletion,
              ref.controller.lastCompletion);

    expectSchemeStatsEqual(actual.scheme, ref.scheme);

    ASSERT_EQ(actual.bankStreams.size(), ref.bankStreams.size());
    for (std::size_t b = 0; b < actual.bankStreams.size(); ++b)
        EXPECT_EQ(actual.bankStreams[b], ref.bankStreams[b])
            << "bank " << b << " stream diverged";
}

void
runDiff(const TimingConfig &sys, std::uint64_t records,
        const std::string &workload)
{
    AddressMapper mapper(sys.geometry, sys.mapping);
    const auto factory = workloadFactory(sys, mapper, records, workload);
    expectIdentical(runTiming(sys, factory),
                    referenceRunTiming(sys, factory));
}

} // namespace

/** The fig09 scheme matrix: PRA / SCA-64 / SCA-128 / PRCAT / DRCAT. */
TEST(TimingDiff, Fig09SchemeMatrix)
{
    struct Cell
    {
        SchemeKind kind;
        std::uint32_t counters;
    };
    const Cell cellsMatrix[] = {
        {SchemeKind::Pra, 0},      {SchemeKind::Sca, 64},
        {SchemeKind::Sca, 128},    {SchemeKind::Prcat, 64},
        {SchemeKind::Drcat, 64},
    };
    for (const Cell &cell : cellsMatrix) {
        TimingConfig sys = smallSystem(cell.kind);
        sys.scheme.numCounters = cell.counters;
        if (cell.kind == SchemeKind::Pra)
            sys.scheme.praProbability = 1.0 / 2048.0;
        SCOPED_TRACE(static_cast<int>(cell.kind));
        runDiff(sys, 40000, "comm1");
    }
}

/** Fig09's second threshold column (T = 16384 in paper terms). */
TEST(TimingDiff, ThresholdVariants)
{
    for (const std::uint32_t threshold : {2048u, 1024u}) {
        TimingConfig sys = smallSystem(SchemeKind::Drcat);
        sys.scheme.threshold = threshold;
        SCOPED_TRACE(threshold);
        runDiff(sys, 40000, "comm3");
    }
}

/** Workload diversity: distinct profiles drive distinct interleaves. */
TEST(TimingDiff, WorkloadSpread)
{
    for (const char *name : {"comm2", "comm4", "comm5"}) {
        TimingConfig sys = smallSystem(SchemeKind::Prcat);
        SCOPED_TRACE(name);
        runDiff(sys, 30000, name);
    }
}

/** The fig13 attack matrix: Heavy/Medium/Light x SCA/PRCAT/DRCAT. */
TEST(TimingDiff, Fig13AttackMatrix)
{
    const AttackMode modes[] = {AttackMode::Heavy, AttackMode::Medium,
                                AttackMode::Light};
    const SchemeKind kinds[] = {SchemeKind::Sca, SchemeKind::Prcat,
                                SchemeKind::Drcat};
    for (const AttackMode mode : modes) {
        for (const SchemeKind kind : kinds) {
            TimingConfig sys = smallSystem(kind);
            sys.scheme.threshold = 1024; // triggers within short runs
            AddressMapper mapper(sys.geometry, sys.mapping);
            const auto factory =
                attackFactory(sys, mapper, 30000, mode);
            SCOPED_TRACE(attackModeName(mode));
            expectIdentical(runTiming(sys, factory),
                            referenceRunTiming(sys, factory));
        }
    }
}

/** MultiBank placement synchronizes refresh bursts across banks. */
TEST(TimingDiff, MultiBankAttackKernel)
{
    TimingConfig sys = smallSystem(SchemeKind::Drcat);
    sys.scheme.threshold = 1024;
    AddressMapper mapper(sys.geometry, sys.mapping);
    const auto factory =
        attackFactory(sys, mapper, 30000, AttackMode::Medium,
                      AttackKernelKind::MultiBank);
    expectIdentical(runTiming(sys, factory),
                    referenceRunTiming(sys, factory));
}

/** Core-count sweep: tie-breaks among 1, 2, and 4 same-time cores. */
TEST(TimingDiff, CoreCounts)
{
    for (const std::uint32_t cores : {1u, 2u, 4u}) {
        TimingConfig sys = smallSystem(SchemeKind::Sca);
        sys.numCores = cores;
        SCOPED_TRACE(cores);
        runDiff(sys, 25000, "comm1");
    }
}

/**
 * Epoch-scale sweep, including the marker-placement regression: with
 * recording on, runTiming must put every kEpochMarker at exactly the
 * same stream offset as the reference at any scaled epoch length (the
 * stream equality in expectIdentical checks positions, not counts).
 */
TEST(TimingDiff, EpochScalesAndMarkerPlacement)
{
    for (const double scaleValue : {0.0005, 0.002, 0.01}) {
        TimingConfig sys = smallSystem(SchemeKind::Prcat);
        sys.epochScale = scaleValue;
        SCOPED_TRACE(scaleValue);
        runDiff(sys, 50000, "comm1");
    }
}

/** Recording off exercises the no-observer path on both sides. */
TEST(TimingDiff, RecordingOff)
{
    for (const SchemeKind kind :
         {SchemeKind::None, SchemeKind::Drcat}) {
        TimingConfig sys = smallSystem(kind);
        sys.recordActivations = false;
        SCOPED_TRACE(static_cast<int>(kind));
        runDiff(sys, 40000, "comm2");
    }
}

/** Baseline (no scheme) with recording: the experiment-cache shape. */
TEST(TimingDiff, BaselineRecordedStreams)
{
    TimingConfig sys = smallSystem(SchemeKind::None);
    runDiff(sys, 60000, "comm1");
}

/**
 * The closed-loop ETO legs: runTimingOnSources over Static and
 * RefreshAware Medium fleets against PRCAT_64, DRCAT_64 and PRA at
 * scale 0.02 (scaled threshold), recording on, each side on a fresh
 * fleet from ExperimentRunner::adaptiveSources, the one the ETO legs
 * run.  Victim refreshes block banks and the refresh-aware sources
 * re-aim on every RefreshAction, so the write path aside, every layer
 * of the request path runs here.
 */
TEST(TimingDiff, StimulusFleetsMatchTheFrozenLoop)
{
    constexpr double kScaleValue = 0.02;
    const ExperimentRunner runner(kScaleValue);
    for (const AttackerKind attacker :
         {AttackerKind::Static, AttackerKind::RefreshAware}) {
        AdaptiveAttackSpec attack; // Medium, kernel 1, two epochs
        attack.attacker = attacker;
        for (const SchemeKind kind :
             {SchemeKind::Prcat, SchemeKind::Drcat, SchemeKind::Pra}) {
            TimingConfig sys = makeSystem(SystemPreset::DualCore2Ch);
            sys.scheme.kind = kind;
            sys.scheme.numCounters = 64;
            sys.scheme.maxLevels = 11;
            sys.scheme.threshold = runner.scaledThreshold(32768);
            sys.recordActivations = true;
            sys.epochScale = kScaleValue;
            SCOPED_TRACE(std::string(attackerKindName(attacker)) + " "
                         + std::to_string(static_cast<int>(kind)));
            const TimingResult actual = runTimingOnSources(
                sys, runner.adaptiveSources(sys, attack));
            const TimingResult ref = referenceRunTimingOnSources(
                sys, runner.adaptiveSources(sys, attack));
            EXPECT_GT(ref.controller.victimRefreshEvents, 0u);
            expectIdentical(actual, ref);
        }
    }
}

} // namespace catsim
