/**
 * @file
 * Closed-loop coverage of the stimulus timing path
 * (runTimingOnSources): the RefreshAwareAttackerSource must observe
 * RefreshActions delivered mid-flight by the memory controller and
 * re-aim, extracting strictly more disturbance from the tree schemes
 * than the blind kernel - the timing-path mirror of the activation-path
 * assertions in test_activation_source.cpp - while exact per-row
 * counting (CounterCache) stays flat, and the extra victim refreshes
 * must surface as execution-time overhead (ETO).
 *
 * The TimingPinned cases freeze whole TimingResults of the stimulus
 * front end (values recorded before its loop was rewritten), together
 * with the order rules they depend on: an all-idle fleet never
 * starts, the run ends with the last source (at its last round's
 * clock when nothing outlasts it), and an epoch boundary fires before
 * an ACT issued at the same cycle.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <sstream>
#include <utility>

#include "sim/experiment.hpp"
#include "sim/timing_sim.hpp"

namespace catsim
{

namespace
{

TimingConfig
stimulusSystem(SchemeKind kind)
{
    TimingConfig sys;
    sys.geometry = DramGeometry::dualCore2Ch();
    sys.scheme.kind = kind;
    sys.scheme.numCounters = 64;
    sys.scheme.maxLevels = 11;
    sys.scheme.threshold = 1024;
    if (kind == SchemeKind::CounterCache)
        sys.scheme.numCounters = 2048;
    sys.epochScale = 0.01; // ~512 K bus cycles per epoch
    return sys;
}

/** One identically seeded attacker per bank, open or closed loop. */
std::vector<std::unique_ptr<ActivationSource>>
makeFleet(const TimingConfig &sys, bool refresh_aware,
          std::uint64_t acts_per_epoch = 20000,
          std::uint64_t epochs = 1)
{
    std::vector<std::unique_ptr<ActivationSource>> fleet;
    const std::uint32_t banks = sys.geometry.totalBanks();
    fleet.reserve(banks);
    for (std::uint32_t b = 0; b < banks; ++b) {
        AttackSourceParams p;
        p.numRows = sys.geometry.rowsPerBank;
        p.targets = {100, 900, 1700, 2500};
        p.targetFraction = 0.5;
        p.actsPerEpoch = acts_per_epoch;
        p.epochs = epochs;
        p.seed = 77ULL * (b + 1);
        if (refresh_aware)
            fleet.push_back(
                std::make_unique<RefreshAwareAttackerSource>(p));
        else
            fleet.push_back(
                std::make_unique<SyntheticAttackSource>(p));
    }
    return fleet;
}

Count
fleetRotations(
    const std::vector<std::unique_ptr<ActivationSource>> &fleet)
{
    Count total = 0;
    for (const auto &src : fleet) {
        if (const auto *aware =
                dynamic_cast<const RefreshAwareAttackerSource *>(
                    src.get()))
            total += aware->rotations();
    }
    return total;
}

AdaptiveAttackSpec
attackSpec(AttackerKind attacker)
{
    AdaptiveAttackSpec spec;
    spec.attacker = attacker;
    spec.mode = AttackMode::Medium;
    spec.kernel = 1;
    return spec;
}

SchemeConfig
paperScheme(SchemeKind kind)
{
    SchemeConfig cfg;
    cfg.kind = kind;
    cfg.numCounters = (kind == SchemeKind::CounterCache) ? 2048 : 64;
    cfg.maxLevels = 11;
    cfg.threshold = 32768;
    return cfg;
}

/** FNV-1a over every bank's length and rows, in flat bank order. */
std::uint64_t
streamDigest(const std::vector<std::vector<RowAddr>> &streams)
{
    std::uint64_t h = 14695981039346656037ULL;
    const auto mix = [&h](std::uint64_t v) {
        h ^= v;
        h *= 1099511628211ULL;
    };
    for (const auto &s : streams) {
        mix(s.size());
        for (const RowAddr r : s)
            mix(r);
    }
    return h;
}

/**
 * Everything a TimingResult carries, flattened: execCycles, epochs,
 * totalActivations, victimRowsRefreshed, the six ControllerStats
 * fields, SchemeStats in kFields order, and the stream digest.
 */
std::vector<std::uint64_t>
pinnedFields(const TimingResult &r)
{
    std::vector<std::uint64_t> v = {
        r.execCycles,
        r.epochs,
        r.totalActivations,
        r.victimRowsRefreshed,
        r.controller.reads,
        r.controller.writes,
        r.controller.writeDrains,
        r.controller.victimRefreshEvents,
        r.controller.victimRowsRefreshed,
        r.controller.lastCompletion,
    };
    for (const auto field : SchemeStats::kFields)
        v.push_back(r.scheme.*field);
    v.push_back(streamDigest(r.bankStreams));
    return v;
}

/** A case as a kPinnedTiming table row (digest in hex). */
std::string
pinnedRow(const std::string &name, const TimingResult &r)
{
    const auto v = pinnedFields(r);
    std::ostringstream os;
    os << "{\"" << name << "\", {";
    for (std::size_t i = 0; i + 1 < v.size(); ++i)
        os << v[i] << ", ";
    os << "0x" << std::hex << v.back() << "}},";
    return os.str();
}

/** Every bank idle: nothing issues, so nothing may fire. */
TimingResult
allIdleRun()
{
    TimingConfig sys = stimulusSystem(SchemeKind::Drcat);
    sys.recordActivations = true;
    std::vector<std::unique_ptr<ActivationSource>> fleet(
        sys.geometry.totalBanks());
    return runTimingOnSources(sys, fleet);
}

/** Longest source of unevenRun(): 2 epochs of 1500 + 700 * 15 acts. */
constexpr std::uint64_t kUnevenLongest = 2 * (1500 + 700 * 15);

/**
 * Refresh-aware PRCAT fleet with banks 1 and 7 idle and every source
 * a different length (each with a mid-stream Epoch chunk), over short
 * epochs so several boundaries fire before the last source ends.
 */
TimingResult
unevenRun()
{
    TimingConfig sys = stimulusSystem(SchemeKind::Prcat);
    sys.scheme.threshold = 256; // triggers, so the attackers re-aim
    sys.recordActivations = true;
    sys.epochScale = 0.002; // 102400 bus cycles per epoch
    std::vector<std::unique_ptr<ActivationSource>> fleet;
    for (std::uint32_t b = 0; b < sys.geometry.totalBanks(); ++b) {
        AttackSourceParams p;
        p.numRows = sys.geometry.rowsPerBank;
        p.targets = {300 + 50 * b, 2000, 3100 + 7 * b};
        p.targetFraction = 0.6;
        p.actsPerEpoch = 1500 + 700 * b;
        p.epochs = 2;
        p.seed = 31ULL * (b + 1);
        fleet.push_back(
            (b == 1 || b == 7)
                ? nullptr
                : std::make_unique<RefreshAwareAttackerSource>(p));
    }
    return runTimingOnSources(sys, fleet);
}

/** Epoch length of tRCMultipleRun(): exactly 2000 ACT rounds. */
TimingConfig
tRCMultipleSystem()
{
    TimingConfig sys = stimulusSystem(SchemeKind::Prcat);
    sys.scheme.threshold = 256; // triggers, so the epoch resets matter
    sys.recordActivations = true;
    sys.epochScale =
        2000.0 * sys.timing.tRC
        / static_cast<double>(sys.timing.refreshIntervalCycles());
    return sys;
}

/** Static PRCAT fleet whose boundaries land on ACT issue cycles. */
TimingResult
tRCMultipleRun()
{
    const TimingConfig sys = tRCMultipleSystem();
    return runTimingOnSources(sys, makeFleet(sys, false, 5000));
}

/**
 * One bank on an otherwise idle DRAM, no scheme, and a source short
 * enough to end before the first auto-refresh: nothing delays an ACT.
 */
TimingResult
loneBankRun()
{
    TimingConfig sys = stimulusSystem(SchemeKind::None);
    sys.recordActivations = true;
    auto fleet = makeFleet(sys, false, 100);
    for (std::size_t b = 0; b < fleet.size(); ++b) {
        if (b != 5)
            fleet[b].reset();
    }
    return runTimingOnSources(sys, fleet);
}

/** Static DRCAT fleet whose refreshes trigger and block banks. */
TimingResult
drcatBlockingRun()
{
    TimingConfig sys = stimulusSystem(SchemeKind::Drcat);
    sys.recordActivations = true;
    return runTimingOnSources(sys, makeFleet(sys, false, 20000, 2));
}

/** One pinned stimulus run: pinnedFields() of its TimingResult. */
struct PinnedTiming
{
    const char *name;
    std::vector<std::uint64_t> fields;
};

// clang-format off
const PinnedTiming kPinnedTiming[] = {
    {"all idle DRCAT", {0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0x88201fb960ff6465}},
    {"uneven refresh-aware PRCAT", {1878954, 9, 198800, 29033, 198800, 0, 0, 437, 29033, 1878954, 198800, 437, 29033, 818652, 0, 2456, 0, 144, 0, 0, 0xe2731becba9d5352}},
    {"tRC-multiple epoch PRCAT", {363081, 2, 80000, 6798, 80000, 0, 0, 103, 6798, 363081, 80000, 103, 6798, 310316, 0, 1186, 0, 32, 0, 0, 0x8f09cd1288245d4e}},
    {"lone bank", {3900, 0, 100, 0, 100, 0, 0, 0, 0, 3887, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xaaa66c17867901e7}},
    {"blocking DRCAT", {2155970, 3, 640000, 12672, 640000, 0, 0, 192, 12672, 2155970, 640000, 192, 12672, 2976928, 0, 512, 0, 48, 0, 0, 0x62e60423eb1606d3}},
};
// clang-format on

} // namespace

TEST(TimingPinned, StimulusRunsMatchTheirPinnedValues)
{
    // Any change to the stimulus loop's order - which bank issues
    // first, when a boundary fires, when the run ends - moves a
    // counter or the stream digest here; the rows print in table form.
    const std::pair<std::string, TimingResult> cases[] = {
        {"all idle DRCAT", allIdleRun()},
        {"uneven refresh-aware PRCAT", unevenRun()},
        {"tRC-multiple epoch PRCAT", tRCMultipleRun()},
        {"lone bank", loneBankRun()},
        {"blocking DRCAT", drcatBlockingRun()},
    };
    EXPECT_EQ(std::size(cases), std::size(kPinnedTiming));
    for (const auto &[name, result] : cases) {
        const auto *pinned = std::find_if(
            std::begin(kPinnedTiming), std::end(kPinnedTiming),
            [&name = name](const PinnedTiming &p) { return name == p.name; });
        const bool same = pinned != std::end(kPinnedTiming)
                          && pinnedFields(result) == pinned->fields;
        EXPECT_TRUE(same) << "actual: " << pinnedRow(name, result);
    }
}

TEST(TimingPinned, AllIdleFleetNeverStarts)
{
    const TimingResult res = allIdleRun();
    EXPECT_EQ(res.execCycles, 0u);
    EXPECT_EQ(res.epochs, 0u);
    EXPECT_EQ(res.totalActivations, 0u);
}

TEST(TimingPinned, RunEndsWithTheLastSource)
{
    // The longest source issues rounds 0 .. longest-1 and returns End
    // in round `longest` (39 cycles per tRC round, 102400-cycle
    // epochs); no boundary after that round may fire.
    const TimingResult res = unevenRun();
    const double lastRound = static_cast<double>(kUnevenLongest) * 39.0;
    EXPECT_EQ(res.epochs, static_cast<Count>(lastRound / 102400.0));
    EXPECT_GE(res.execCycles, static_cast<Cycle>(lastRound));
}

TEST(TimingPinned, LoneBankEndsAtItsLastRoundClock)
{
    // 100 ACTs fill rounds 0 .. 99 and the source ends in round 100,
    // whose clock is later than the last read's completion.
    const TimingResult res = loneBankRun();
    EXPECT_EQ(res.execCycles, 100u * 39u);
    EXPECT_LT(res.controller.lastCompletion, res.execCycles);
}

TEST(TimingPinned, EpochBoundaryBeatsTheSameTimeAct)
{
    const TimingConfig sys = tRCMultipleSystem();
    ASSERT_EQ(static_cast<double>(sys.timing.refreshIntervalCycles())
                  * sys.epochScale,
              78000.0);
    // Boundaries at 78000 and 156000 coincide with rounds 2000 and
    // 4000; each marker lands before that round's ACT.
    const TimingResult res = tRCMultipleRun();
    EXPECT_EQ(res.epochs, 2u);
    for (const auto &stream : res.bankStreams) {
        ASSERT_EQ(stream.size(), 5002u);
        EXPECT_EQ(stream[2000], kEpochMarker);
        EXPECT_EQ(stream[4001], kEpochMarker);
    }
}

TEST(TimingClosedLoop, BaselineFleetRunsToCompletion)
{
    TimingConfig sys = stimulusSystem(SchemeKind::None);
    const auto fleet = makeFleet(sys, false, 5000);
    const TimingResult res = runTimingOnSources(sys, fleet);
    // Every bank delivered its full stream through the controller.
    EXPECT_EQ(res.totalActivations,
              5000ull * sys.geometry.totalBanks());
    EXPECT_EQ(res.controller.reads, res.totalActivations);
    EXPECT_GT(res.execCycles, 0u);
    EXPECT_EQ(res.victimRowsRefreshed, 0u);
}

TEST(TimingClosedLoop, NullSlotsLeaveBanksIdle)
{
    TimingConfig sys = stimulusSystem(SchemeKind::None);
    auto fleet = makeFleet(sys, false, 5000);
    fleet[1].reset();
    fleet[7].reset();
    const TimingResult res = runTimingOnSources(sys, fleet);
    EXPECT_EQ(res.totalActivations,
              5000ull * (sys.geometry.totalBanks() - 2));
}

TEST(TimingClosedLoop, RecordsStreamsWithEpochMarkers)
{
    TimingConfig sys = stimulusSystem(SchemeKind::None);
    sys.recordActivations = true;
    const auto fleet = makeFleet(sys, false, 30000);
    const TimingResult res = runTimingOnSources(sys, fleet);
    EXPECT_GT(res.epochs, 0u);
    ASSERT_EQ(res.bankStreams.size(), sys.geometry.totalBanks());
    Count rows = 0;
    Count markers = 0;
    for (const RowAddr r : res.bankStreams[0]) {
        rows += r != kEpochMarker;
        markers += r == kEpochMarker;
    }
    EXPECT_EQ(rows, 30000u);
    EXPECT_EQ(markers, res.epochs);
}

TEST(TimingClosedLoop, MitigationBlocksTheHammeredBank)
{
    TimingConfig base = stimulusSystem(SchemeKind::None);
    const TimingResult b =
        runTimingOnSources(base, makeFleet(base, false));

    TimingConfig mit = stimulusSystem(SchemeKind::Drcat);
    const TimingResult m =
        runTimingOnSources(mit, makeFleet(mit, false));

    EXPECT_GT(m.victimRowsRefreshed, 0u);
    EXPECT_GT(m.execCycles, b.execCycles);
    EXPECT_EQ(m.totalActivations, b.totalActivations);
}

TEST(TimingClosedLoop, RefreshAwareReAimsOnTimingPath)
{
    for (const SchemeKind kind :
         {SchemeKind::Prcat, SchemeKind::Drcat}) {
        SCOPED_TRACE(static_cast<int>(kind));
        TimingConfig sys = stimulusSystem(kind);

        const auto openFleet = makeFleet(sys, false);
        const TimingResult statics =
            runTimingOnSources(sys, openFleet);

        const auto closedFleet = makeFleet(sys, true);
        const TimingResult adaptive =
            runTimingOnSources(sys, closedFleet);

        // The attacker really saw the defense: observed refreshes on
        // the timing path drove aggressor rotations.
        EXPECT_GT(fleetRotations(closedFleet), 0u);
        // Same activation budget, strictly more extracted refreshes -
        // each re-aim lands in a coarse tree region whose whole span
        // is refreshed at the next trigger.
        EXPECT_EQ(adaptive.totalActivations, statics.totalActivations);
        EXPECT_GT(adaptive.victimRowsRefreshed,
                  statics.victimRowsRefreshed);
        // And the extra blocking is visible on the clock.
        EXPECT_GT(adaptive.execCycles, statics.execCycles);
    }
}

TEST(TimingClosedLoop, ExactCountingStaysFlatUnderReAiming)
{
    TimingConfig sys = stimulusSystem(SchemeKind::CounterCache);

    const TimingResult statics =
        runTimingOnSources(sys, makeFleet(sys, false));
    const TimingResult adaptive =
        runTimingOnSources(sys, makeFleet(sys, true));

    // Exact per-row counting cannot be gamed by moving aggressors:
    // every rotation restarts the new row's count from zero, so the
    // adaptive attacker extracts no more refresh work than the blind
    // one (two victim rows per trigger either way).
    EXPECT_EQ(adaptive.totalActivations, statics.totalActivations);
    EXPECT_LE(adaptive.victimRowsRefreshed,
              statics.victimRowsRefreshed);
}

TEST(TimingClosedLoop, AdaptiveEtoOrdersAttackersAndSchemes)
{
    ExperimentRunner runner(0.02);

    const double drcatStatic = runner.evalAdaptiveEto(
        SystemPreset::DualCore2Ch, attackSpec(AttackerKind::Static),
        paperScheme(SchemeKind::Drcat));
    const double drcatAware = runner.evalAdaptiveEto(
        SystemPreset::DualCore2Ch,
        attackSpec(AttackerKind::RefreshAware),
        paperScheme(SchemeKind::Drcat));
    const double ccStatic = runner.evalAdaptiveEto(
        SystemPreset::DualCore2Ch, attackSpec(AttackerKind::Static),
        paperScheme(SchemeKind::CounterCache));
    const double ccAware = runner.evalAdaptiveEto(
        SystemPreset::DualCore2Ch,
        attackSpec(AttackerKind::RefreshAware),
        paperScheme(SchemeKind::CounterCache));

    // Mitigation under a saturating hammer costs time at all.
    EXPECT_GT(drcatStatic, 0.0);
    // Re-aiming multiplies the tree scheme's overhead...
    EXPECT_GT(drcatAware, 2.0 * drcatStatic);
    // ...but leaves exact counting essentially untouched.
    EXPECT_LT(ccAware, 1.5 * ccStatic);
    EXPECT_LT(ccAware, drcatAware);
}

} // namespace catsim
