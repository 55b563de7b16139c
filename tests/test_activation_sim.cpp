/**
 * @file
 * Tests for the activation-replay simulator.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "core/tree_bundle.hpp"
#include "core/sca.hpp"
#include "sim/activation_sim.hpp"
#include "trace/workloads.hpp"

namespace catsim
{

namespace
{

TimingResult
recordedBaseline(std::uint64_t records)
{
    TimingConfig sys;
    sys.geometry = DramGeometry::dualCore2Ch();
    sys.numCores = 2;
    sys.scheme.kind = SchemeKind::None;
    sys.recordActivations = true;
    sys.epochScale = 0.002;
    static AddressMapper mapper(sys.geometry, sys.mapping);
    const WorkloadProfile profile = findWorkload("comm1");
    const DramGeometry geometry = sys.geometry;
    return runTiming(sys, [profile, geometry, records](CoreId core) {
        return std::unique_ptr<TraceStream>(
            std::make_unique<SyntheticWorkload>(profile, geometry,
                                                mapper, core + 1,
                                                records));
    });
}

} // namespace

TEST(ActivationSim, ReplayMatchesInlineScheme)
{
    // Replaying the recorded baseline stream through SCA must produce
    // exactly the same refresh behaviour as running SCA inline in the
    // timing simulation (schemes are pure functions of the stream).
    const auto base = recordedBaseline(120000);

    SchemeConfig cfg;
    cfg.kind = SchemeKind::Sca;
    cfg.numCounters = 64;
    cfg.threshold = 512;
    const auto replay = replayActivations(
        base.bankStreams, cfg, DramGeometry::dualCore2Ch().rowsPerBank);

    TimingConfig sys;
    sys.geometry = DramGeometry::dualCore2Ch();
    sys.numCores = 2;
    sys.scheme = cfg;
    sys.epochScale = 0.002;
    AddressMapper mapper(sys.geometry, sys.mapping);
    const WorkloadProfile profile = findWorkload("comm1");
    const DramGeometry geometry = sys.geometry;
    const auto inline_ =
        runTiming(sys, [&](CoreId core) -> std::unique_ptr<TraceStream> {
            return std::make_unique<SyntheticWorkload>(
                profile, geometry, mapper, core + 1, 120000);
        });

    EXPECT_EQ(replay.stats.activations, inline_.scheme.activations);
    // Timing feedback from refreshes slightly shifts epoch boundaries,
    // so allow a small relative slack on refresh totals.
    const double a =
        static_cast<double>(replay.stats.victimRowsRefreshed);
    const double b =
        static_cast<double>(inline_.scheme.victimRowsRefreshed);
    EXPECT_NEAR(a, b, 0.05 * std::max(a, b) + 1000.0);
}

TEST(ActivationSim, EpochMarkersDriveResets)
{
    std::vector<std::vector<RowAddr>> streams(1);
    // 600 activations of row 0, an epoch marker, then 600 more: with
    // T=1024 no refresh may trigger because the epoch resets counts.
    for (int i = 0; i < 600; ++i)
        streams[0].push_back(0);
    streams[0].push_back(kEpochMarker);
    for (int i = 0; i < 600; ++i)
        streams[0].push_back(0);

    SchemeConfig cfg;
    cfg.kind = SchemeKind::Sca;
    cfg.numCounters = 64;
    cfg.threshold = 1024;
    const auto res = replayActivations(streams, cfg, 65536);
    EXPECT_EQ(res.stats.refreshEvents, 0u);
    EXPECT_EQ(res.epochs, 1u);

    // Without the marker the same 1200 accesses must trigger.
    std::vector<std::vector<RowAddr>> noMarker(1);
    for (int i = 0; i < 1200; ++i)
        noMarker[0].push_back(0);
    const auto res2 = replayActivations(noMarker, cfg, 65536);
    EXPECT_EQ(res2.stats.refreshEvents, 1u);
}

TEST(ActivationSim, PerBankSchemesAreIndependent)
{
    std::vector<std::vector<RowAddr>> streams(2);
    for (int i = 0; i < 1100; ++i)
        streams[0].push_back(5);
    for (int i = 0; i < 100; ++i)
        streams[1].push_back(5);

    SchemeConfig cfg;
    cfg.kind = SchemeKind::Sca;
    cfg.numCounters = 64;
    cfg.threshold = 1024;
    const auto res = replayActivations(streams, cfg, 65536);
    EXPECT_EQ(res.stats.refreshEvents, 1u)
        << "only the hammered bank may refresh";
    EXPECT_EQ(res.banks, 2u);
}

namespace
{

bool
sameStats(const SchemeStats &a, const SchemeStats &b)
{
    return a.activations == b.activations
           && a.refreshEvents == b.refreshEvents
           && a.victimRowsRefreshed == b.victimRowsRefreshed
           && a.sramAccesses == b.sramAccesses
           && a.prngBits == b.prngBits && a.splits == b.splits
           && a.merges == b.merges && a.epochResets == b.epochResets
           && a.counterDramReads == b.counterDramReads
           && a.counterDramWrites == b.counterDramWrites;
}

std::vector<RowAddr>
mixedRows(std::size_t n, std::uint64_t seed)
{
    std::vector<RowAddr> rows;
    rows.reserve(n);
    Xoshiro256StarStar rng(seed);
    for (std::size_t i = 0; i < n; ++i)
        rows.push_back(rng.nextDouble() < 0.6
            ? static_cast<RowAddr>(rng.nextBounded(8))
            : static_cast<RowAddr>(rng.nextBounded(65536)));
    return rows;
}

} // namespace

TEST(ActivationSim, BatchMatchesPerCallForCatOverride)
{
    // PRCAT/DRCAT override onActivateBatch; driving the same rows in
    // arbitrary chunk sizes must leave stats identical to per-call.
    const auto rows = mixedRows(120000, 21);
    SchemeConfig cfg;
    cfg.kind = SchemeKind::Drcat;
    cfg.threshold = 1024;
    const auto perCall = makeScheme(cfg, 65536);
    const auto batched = makeScheme(cfg, 65536);
    for (const RowAddr r : rows)
        perCall->onActivate(r);
    std::size_t begin = 0;
    std::size_t chunk = 1;
    while (begin < rows.size()) { // ragged chunks incl. size 0 and 1
        const std::size_t n =
            std::min(chunk % 7001, rows.size() - begin);
        batched->onActivateBatch(rows.data() + begin, n);
        begin += n;
        chunk = chunk * 13 + 7;
    }
    EXPECT_TRUE(sameStats(perCall->stats(), batched->stats()));
    const auto treeOf = [](const MitigationScheme &s) -> const CatTree & {
        return dynamic_cast<const TreeBundle &>(s).tree();
    };
    EXPECT_EQ(treeOf(*perCall).maxLeafDepth(),
              treeOf(*batched).maxLeafDepth());
}

TEST(ActivationSim, BatchMatchesPerCallForDefaultImplementation)
{
    // Schemes without an override go through the base-class loop.
    const auto rows = mixedRows(50000, 22);
    Sca perCall(65536, 64, 1024);
    Sca batched(65536, 64, 1024);
    for (const RowAddr r : rows)
        perCall.onActivate(r);
    batched.onActivateBatch(rows.data(), rows.size());
    EXPECT_TRUE(sameStats(perCall.stats(), batched.stats()));
}

TEST(ActivationSim, BatchedReplayMatchesPerActivationReplay)
{
    // The chunked replayActivations must equal a hand-rolled per-row
    // replay over marker-laced streams, including edge layouts
    // (leading/trailing/adjacent markers, empty stream).
    std::vector<std::vector<RowAddr>> streams(4);
    streams[0] = mixedRows(40000, 23);
    for (std::size_t i = 5000; i < streams[0].size(); i += 5000)
        streams[0][i] = kEpochMarker;
    streams[1].push_back(kEpochMarker); // leading + adjacent markers
    streams[1].push_back(kEpochMarker);
    for (int i = 0; i < 3000; ++i)
        streams[1].push_back(7);
    streams[2] = mixedRows(2000, 24);
    streams[2].push_back(kEpochMarker); // trailing marker
    // streams[3] stays empty.

    for (const SchemeKind kind :
         {SchemeKind::Drcat, SchemeKind::Prcat, SchemeKind::Sca}) {
        SchemeConfig cfg;
        cfg.kind = kind;
        cfg.numCounters = 64;
        cfg.maxLevels = 11;
        cfg.threshold = 1024;
        const auto batched = replayActivations(streams, cfg, 65536);

        ReplayResult manual;
        manual.banks = streams.size();
        std::uint32_t bankIdx = 0;
        for (const auto &stream : streams) {
            SchemeConfig bankCfg = cfg;
            bankCfg.seed = cfg.seed * 1000003ULL + bankIdx;
            auto scheme = makeScheme(bankCfg, 65536);
            Count epochs = 0;
            for (const RowAddr row : stream) {
                if (row == kEpochMarker) {
                    scheme->onEpoch();
                    ++epochs;
                    continue;
                }
                scheme->onActivate(row);
            }
            if (bankIdx == 0)
                manual.epochs = epochs;
            const SchemeStats &st = scheme->stats();
            manual.stats.activations += st.activations;
            manual.stats.refreshEvents += st.refreshEvents;
            manual.stats.victimRowsRefreshed += st.victimRowsRefreshed;
            manual.stats.sramAccesses += st.sramAccesses;
            manual.stats.splits += st.splits;
            manual.stats.merges += st.merges;
            manual.stats.epochResets += st.epochResets;
            ++bankIdx;
        }
        EXPECT_TRUE(sameStats(batched.stats, manual.stats))
            << "scheme kind " << static_cast<int>(kind);
        EXPECT_EQ(batched.epochs, manual.epochs);
        EXPECT_EQ(batched.banks, manual.banks);
    }
}

TEST(ActivationSim, DrcatReplayKeepsInvariantStats)
{
    const auto base = recordedBaseline(80000);
    SchemeConfig cfg;
    cfg.kind = SchemeKind::Drcat;
    cfg.numCounters = 64;
    cfg.maxLevels = 11;
    cfg.threshold = 1024;
    const auto res = replayActivations(base.bankStreams, cfg, 65536);
    EXPECT_EQ(res.stats.activations, base.totalActivations);
    EXPECT_GT(res.stats.sramAccesses, 2 * res.stats.activations - 1);
}

namespace
{

/**
 * Marker-laced recorded streams for the pinned cases: each bank
 * hammers its own 16-row hot set over uniform filler, with an epoch
 * marker every 6000 activations.
 */
std::vector<std::vector<RowAddr>>
pinnedStreams(std::uint32_t banks)
{
    std::vector<std::vector<RowAddr>> streams(banks);
    for (std::uint32_t b = 0; b < banks; ++b) {
        Xoshiro256StarStar rng(900 + b);
        const RowAddr hot = 1000 + 4099 * b;
        for (std::size_t i = 0; i < 20000; ++i) {
            if (i > 0 && i % 6000 == 0)
                streams[b].push_back(kEpochMarker);
            streams[b].push_back(
                rng.nextDouble() < 0.7
                    ? hot + static_cast<RowAddr>(rng.nextBounded(16))
                    : static_cast<RowAddr>(rng.nextBounded(65536)));
        }
    }
    return streams;
}

SchemeConfig
pinnedConfig(SchemeKind kind, std::uint32_t banks_per_pool = 0)
{
    SchemeConfig cfg;
    cfg.kind = kind;
    const bool cat = kind == SchemeKind::Prcat || kind == SchemeKind::Drcat;
    cfg.numCounters = cat ? 16 : 64;
    cfg.threshold = 256;
    cfg.banksPerPool = banks_per_pool;
    return cfg;
}

std::vector<std::unique_ptr<ActivationSource>>
recordedSources(const std::vector<std::vector<RowAddr>> &streams)
{
    std::vector<std::unique_ptr<ActivationSource>> sources;
    for (const auto &s : streams)
        sources.push_back(std::make_unique<RecordedStreamSource>(s));
    return sources;
}

/** Every pinned replay case, in table order. */
std::vector<std::pair<std::string, ReplayResult>>
pinnedReplays()
{
    constexpr RowAddr kRows = 65536;
    std::vector<std::pair<std::string, ReplayResult>> out;
    const auto streams10 = pinnedStreams(10);

    // Rank-pooled CAT over groups of 4, 4 and 2 banks.
    for (const auto kind : {SchemeKind::Prcat, SchemeKind::Drcat}) {
        const SchemeConfig cfg = pinnedConfig(kind, 4);
        out.emplace_back(cfg.label(),
                         replayActivations(streams10, cfg, kRows));
    }

    // Idle banks: bank 0 on a private config, and banks 0 and 5
    // inside pool groups.
    {
        auto sources = recordedSources(streams10);
        sources[0].reset();
        sources[7].reset();
        const SchemeConfig cfg = pinnedConfig(SchemeKind::Drcat);
        out.emplace_back("idle 0,7 " + cfg.label(),
                         replaySources(sources, cfg, kRows));
    }
    {
        auto sources = recordedSources(streams10);
        sources[0].reset();
        sources[5].reset();
        const SchemeConfig cfg = pinnedConfig(SchemeKind::Prcat, 4);
        out.emplace_back("idle 0,5 " + cfg.label(),
                         replaySources(sources, cfg, kRows));
    }

    // Closed-loop attackers contending for shared pools (groups of 4
    // and 2 banks).
    {
        std::vector<std::unique_ptr<ActivationSource>> sources;
        for (std::uint32_t b = 0; b < 6; ++b) {
            AttackSourceParams p;
            p.numRows = kRows;
            p.targets = {500 + 300 * b, 502 + 300 * b, 9000 + 77 * b};
            p.targetFraction = 0.6;
            p.actsPerEpoch = 5000;
            p.epochs = 3;
            p.seed = 7 + b;
            sources.push_back(
                std::make_unique<RefreshAwareAttackerSource>(p));
        }
        const SchemeConfig cfg = pinnedConfig(SchemeKind::Drcat, 4);
        out.emplace_back("refresh-aware " + cfg.label(),
                         replaySources(sources, cfg, kRows));
    }

    // Every private kind once.
    const auto streams4 = pinnedStreams(4);
    for (const auto kind :
         {SchemeKind::Sca, SchemeKind::Pra, SchemeKind::CounterCache,
          SchemeKind::MisraGries, SchemeKind::Rfm, SchemeKind::Prcat,
          SchemeKind::Drcat}) {
        const SchemeConfig cfg = pinnedConfig(kind);
        out.emplace_back(cfg.label(),
                         replayActivations(streams4, cfg, kRows));
    }
    return out;
}

/** A case as a kPinned table row. */
std::string
pinnedRow(const std::string &name, const ReplayResult &r)
{
    std::ostringstream os;
    os << "{\"" << name << "\", {";
    const char *sep = "";
    for (const auto field : SchemeStats::kFields) {
        os << sep << r.stats.*field;
        sep = ", ";
    }
    os << "}, " << r.epochs << "},";
    return os.str();
}

/** One pinned replay: the full SchemeStats (in kFields order) plus
 *  the epoch count. */
struct PinnedReplay
{
    const char *name;
    SchemeStats stats;
    Count epochs;
};

// clang-format off
const PinnedReplay kPinned[] = {
    {"PRCAT_16_rank4", {200000, 531, 502821, 1392685, 0, 476, 0, 30, 0, 0}, 3},
    {"DRCAT_16_rank4", {200000, 538, 1673716, 1174890, 0, 80, 0, 30, 0, 0}, 3},
    {"idle 0,7 DRCAT_16", {160000, 421, 60361, 1066936, 0, 64, 2, 24, 0, 0}, 0},
    {"idle 0,5 PRCAT_16_rank4", {160000, 423, 232270, 1172593, 0, 462, 0, 24, 0, 0}, 0},
    {"refresh-aware DRCAT_16_rank4", {90000, 272, 1819296, 324438, 0, 48, 0, 18, 0, 0}, 3},
    {"SCA_64", {80000, 212, 217459, 160000, 0, 0, 0, 0, 0, 0}, 3},
    {"PRA_0.002", {80000, 142, 284, 0, 720000, 0, 0, 0, 0, 0}, 3},
    {"CC_64", {80000, 129, 258, 160000, 0, 0, 0, 0, 24204, 23948}, 3},
    {"MG_64", {80000, 129, 258, 190592, 0, 0, 0, 12, 0, 0}, 3},
    {"RFM_64", {80000, 1240, 2480, 160000, 0, 0, 0, 12, 0, 0}, 3},
    {"PRCAT_16", {80000, 211, 15782, 549833, 0, 128, 0, 12, 0, 0}, 3},
    {"DRCAT_16", {80000, 210, 14756, 556145, 0, 32, 0, 12, 0, 0}, 3},
};
// clang-format on

/** Logs every scheme call the replay loop makes. */
class RecordingScheme : public MitigationScheme
{
  public:
    RecordingScheme() : MitigationScheme(65536) {}

    /** Orders a refresh of rowCount == row, so feedback is traceable. */
    RefreshAction
    onActivate(RowAddr row) override
    {
        calls.push_back("act(" + std::to_string(row) + ")");
        RefreshAction act;
        act.rowCount = row;
        return act;
    }

    void
    onActivateBatch(const RowAddr *rows, std::size_t count) override
    {
        calls.push_back("batch(" + std::to_string(count) + ")");
        played.insert(played.end(), rows, rows + count);
    }

    void onEpoch() override { calls.push_back("epoch"); }

    /** The calls since the last take(), then cleared. */
    std::vector<std::string>
    take()
    {
        return std::exchange(calls, {});
    }

    std::vector<std::string> calls;
    std::vector<RowAddr> played;
};

/** A recorded stream that asks for per-activation feedback. */
class FeedbackSource : public RecordedStreamSource
{
  public:
    using RecordedStreamSource::RecordedStreamSource;

    bool closedLoop() const override { return true; }

    void
    onRefreshAction(RowAddr row, const RefreshAction &act) override
    {
        feedback.emplace_back(row, act.rowCount);
    }

    std::vector<std::pair<RowAddr, Count>> feedback;
};

using Calls = std::vector<std::string>;

} // namespace

TEST(ReplayLane, StepsWithinBudgetAndEpochsCostNothing)
{
    const std::vector<RowAddr> stream = {1, 2, 3, kEpochMarker, 4, 5};
    RecordedStreamSource source(stream);
    RecordingScheme scheme;
    ReplayLane lane(source, {&scheme});

    EXPECT_TRUE(lane.step(2));
    EXPECT_EQ(scheme.take(), (Calls{"batch(2)"}));
    EXPECT_TRUE(lane.step(2));
    EXPECT_EQ(scheme.take(), (Calls{"batch(1)", "epoch", "batch(1)"}));
    EXPECT_FALSE(lane.step(2));
    EXPECT_EQ(scheme.take(), (Calls{"batch(1)"}));
    EXPECT_EQ(scheme.played, (std::vector<RowAddr>{1, 2, 3, 4, 5}));
    EXPECT_EQ(lane.epochs(), 1u);

    // An ended lane stays ended and touches nothing.
    EXPECT_FALSE(lane.step(2));
    EXPECT_TRUE(scheme.take().empty());
}

TEST(ReplayLane, ClosedLoopSourceGetsOneRefreshActionPerActivation)
{
    const std::vector<RowAddr> stream = {1, 2, 3, kEpochMarker, 4, 5};
    for (const std::size_t budget :
         {std::size_t{2}, ReplayLane::kWholeStream}) {
        FeedbackSource source(stream);
        RecordingScheme scheme;
        ReplayLane lane(source, {&scheme});
        while (lane.step(budget)) {
        }
        EXPECT_EQ(scheme.take(),
                  (Calls{"act(1)", "act(2)", "act(3)", "epoch", "act(4)",
                         "act(5)"}))
            << "budget " << budget;
        const std::vector<std::pair<RowAddr, Count>> expected = {
            {1, 1}, {2, 2}, {3, 3}, {4, 4}, {5, 5}};
        EXPECT_EQ(source.feedback, expected) << "budget " << budget;
    }
}

TEST(ReplayLane, SharedLaneGivesEverySchemeItsSoloCalls)
{
    // Two schemes on one open-loop lane each get exactly the calls a
    // lane of their own makes, epochs included.
    const std::vector<RowAddr> stream = {kEpochMarker, 1, 2, 3,
                                         kEpochMarker, kEpochMarker, 4, 5};
    RecordedStreamSource soloSource(stream);
    RecordingScheme solo;
    ReplayLane soloLane(soloSource, {&solo});
    RecordedStreamSource sharedSource(stream);
    RecordingScheme first;
    RecordingScheme second;
    ReplayLane sharedLane(sharedSource, {&first, &second});
    for (bool live = true; live;) {
        live = soloLane.step(2);
        EXPECT_EQ(sharedLane.step(2), live);
        const Calls calls = solo.take();
        EXPECT_EQ(first.take(), calls);
        EXPECT_EQ(second.take(), calls);
    }
    EXPECT_EQ(first.played, solo.played);
    EXPECT_EQ(second.played, solo.played);
    EXPECT_EQ(sharedLane.epochs(), soloLane.epochs());
    EXPECT_EQ(sharedLane.epochs(), 3u);
}

namespace
{

/**
 * pinnedStreams with empty segments: every bank opens with an epoch
 * marker, doubles one marker and ends on one, and bank 1 holds no
 * activation at all.
 */
std::vector<std::vector<RowAddr>>
streamsWithEmptySegments(std::uint32_t banks)
{
    auto streams = pinnedStreams(banks);
    for (auto &s : streams) {
        s.insert(s.begin(), kEpochMarker);
        s.insert(s.begin() + static_cast<std::ptrdiff_t>(s.size() / 2),
                 {kEpochMarker, kEpochMarker});
        s.push_back(kEpochMarker);
    }
    streams[1] = {kEpochMarker, kEpochMarker};
    return streams;
}

/** replaySources of @p configs in one pass against one pass each. */
void
expectSharedPassMatchesSoloPasses(const std::vector<SchemeConfig> &configs)
{
    constexpr RowAddr kRows = 65536;
    const auto streams = streamsWithEmptySegments(10);
    auto sources = recordedSources(streams);
    sources[6].reset(); // an idle bank inside a pool group
    const auto shared = replaySources(sources, configs, kRows);
    ASSERT_EQ(shared.size(), configs.size());
    for (std::size_t k = 0; k < configs.size(); ++k) {
        auto soloSources = recordedSources(streams);
        soloSources[6].reset();
        const ReplayResult solo =
            replaySources(soloSources, configs[k], kRows);
        EXPECT_EQ(shared[k].stats, solo.stats) << configs[k].label();
        EXPECT_EQ(shared[k].epochs, solo.epochs) << configs[k].label();
        EXPECT_EQ(shared[k].banks, solo.banks) << configs[k].label();
        EXPECT_GT(solo.stats.activations, 0u) << configs[k].label();
    }
    EXPECT_EQ(shared.front().epochs, 7u); // 3 pinned + 4 inserted
}

} // namespace

TEST(ReplayShared, PrivateConfigsMatchTheirSoloReplays)
{
    // Every private kind, one of them listed twice.
    std::vector<SchemeConfig> configs;
    for (const auto kind :
         {SchemeKind::Drcat, SchemeKind::Sca, SchemeKind::Pra,
          SchemeKind::CounterCache, SchemeKind::MisraGries,
          SchemeKind::Rfm, SchemeKind::Prcat, SchemeKind::Drcat})
        configs.push_back(pinnedConfig(kind));
    expectSharedPassMatchesSoloPasses(configs);
}

TEST(ReplayShared, RankPooledConfigsMatchTheirSoloReplays)
{
    // Pools of 8 over 10 banks: a full group and a tail of 2.
    SchemeConfig wide = pinnedConfig(SchemeKind::Prcat, 8);
    wide.numCounters = 32;
    expectSharedPassMatchesSoloPasses(
        {pinnedConfig(SchemeKind::Prcat, 8),
         pinnedConfig(SchemeKind::Drcat, 8), wide,
         pinnedConfig(SchemeKind::Prcat, 8)});
}

TEST(ReplayPinned, ResultsMatchTheirPinnedValues)
{
    // Replay orders the benchmark grids never reach: rank pools with a
    // short tail group, idle banks (including bank 0, which owns the
    // epoch count), closed-loop sources sharing a pool, and every
    // private kind.  Any change to the replay loop
    // that moves a counter fails here; the rows print in table form.
    const auto cases = pinnedReplays();
    EXPECT_EQ(cases.size(), std::size(kPinned));
    for (const auto &[name, result] : cases) {
        const auto *pinned = std::find_if(
            std::begin(kPinned), std::end(kPinned),
            [&name = name](const PinnedReplay &p) { return name == p.name; });
        const bool same = pinned != std::end(kPinned)
                          && result.stats == pinned->stats
                          && result.epochs == pinned->epochs;
        EXPECT_TRUE(same) << "actual: " << pinnedRow(name, result);
    }
}

TEST(ReplayDeathTest, ClosedLoopSourceTakesOneScheme)
{
    const std::vector<RowAddr> stream = {1, 2, 3};
    FeedbackSource source(stream);
    RecordingScheme first;
    RecordingScheme second;
    EXPECT_EXIT(ReplayLane(source, {&first, &second}),
                ::testing::ExitedWithCode(1), "reacts to one scheme");

    std::vector<std::unique_ptr<ActivationSource>> sources;
    AttackSourceParams p;
    p.targets = {500, 502};
    p.actsPerEpoch = 1000;
    sources.push_back(std::make_unique<RefreshAwareAttackerSource>(p));
    const SchemeConfig cfg = pinnedConfig(SchemeKind::Drcat);
    EXPECT_EXIT(replaySources(sources, std::vector<SchemeConfig>{cfg, cfg},
                              65536),
                ::testing::ExitedWithCode(1), "reacts to one scheme");
}

TEST(ReplayDeathTest, MixedPoolGroupingsAreFatal)
{
    const auto streams = pinnedStreams(4);
    const auto sources = recordedSources(streams);
    EXPECT_EXIT(replaySources(sources,
                              std::vector<SchemeConfig>{
                                  pinnedConfig(SchemeKind::Prcat, 4),
                                  pinnedConfig(SchemeKind::Prcat)},
                              65536),
                ::testing::ExitedWithCode(1), "one pool grouping");
}

TEST(ReplayDeathTest, LiveSourceWithoutSchemeIsFatal)
{
    const std::vector<RowAddr> stream = {1, 2, 3};
    std::vector<std::unique_ptr<ActivationSource>> sources;
    sources.push_back(std::make_unique<RecordedStreamSource>(stream));
    SchemeConfig cfg;
    cfg.kind = SchemeKind::None;
    EXPECT_EXIT(replaySources(sources, cfg, 65536),
                ::testing::ExitedWithCode(1), "replay needs a real scheme");
}

} // namespace catsim
