/**
 * @file
 * Tests for the pluggable activation sources and the replaySources
 * engine: recorded-stream equivalence with the historical replay
 * loop, synthetic generator determinism, the closed-loop
 * refresh-aware attacker's feedback behaviour, and the disturbance
 * ledger's reset rules and pass-through.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "sim/activation_sim.hpp"
#include "sim/activation_source.hpp"

namespace catsim
{

namespace
{

constexpr RowAddr kRows = 4096;

SchemeConfig
drcatConfig()
{
    SchemeConfig cfg;
    cfg.kind = SchemeKind::Drcat;
    cfg.numCounters = 32;
    cfg.maxLevels = 8;
    cfg.threshold = 512;
    return cfg;
}

/** Drain a source into (rows, epoch positions) for inspection. */
struct Drained
{
    std::vector<RowAddr> rows;
    std::vector<std::size_t> epochAfter; //!< row count at each epoch
};

Drained
drain(ActivationSource &src)
{
    Drained d;
    for (;;) {
        const RowAddr *rows = nullptr;
        std::size_t n = 0;
        const SourceChunk c = src.next(&rows, &n);
        if (c == SourceChunk::End)
            break;
        if (c == SourceChunk::Epoch) {
            d.epochAfter.push_back(d.rows.size());
            continue;
        }
        d.rows.insert(d.rows.end(), rows, rows + n);
    }
    return d;
}

/** A stream's marker-delimited segments as (offset, length), the way
 *  a replay that scans the rows for markers cuts them. */
using Segments = std::vector<std::pair<std::size_t, std::size_t>>;

Segments
scannedSegments(const std::vector<RowAddr> &stream)
{
    Segments segs;
    std::size_t begin = 0;
    for (;;) {
        const auto from = stream.begin() + static_cast<std::ptrdiff_t>(begin);
        const auto at = std::find(from, stream.end(), kEpochMarker);
        const auto end = static_cast<std::size_t>(at - stream.begin());
        segs.emplace_back(begin, end - begin);
        if (end == stream.size())
            return segs;
        begin = end + 1;
    }
}

/** The segments @p src hands out over @p stream; fails the test
 *  unless exactly one Epoch separates each two and End follows the
 *  last. */
Segments
sourceSegments(RecordedStreamSource &src,
               const std::vector<RowAddr> &stream)
{
    Segments segs;
    for (;;) {
        const RowAddr *rows = nullptr;
        std::size_t n = 0;
        EXPECT_EQ(src.next(&rows, &n), SourceChunk::Rows);
        segs.emplace_back(static_cast<std::size_t>(rows - stream.data()),
                          n);
        const SourceChunk after = src.next(&rows, &n);
        if (after == SourceChunk::End)
            return segs;
        EXPECT_EQ(after, SourceChunk::Epoch);
        if (segs.size() > stream.size())
            return segs; // runaway source
    }
}

void
expectStatsEqual(const SchemeStats &a, const SchemeStats &b)
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

} // namespace

TEST(RecordedStreamSource, ReproducesMarkerDelimitedChunks)
{
    std::vector<RowAddr> stream{1, 2, 3, kEpochMarker, 4,
                                kEpochMarker, kEpochMarker, 5};
    RecordedStreamSource src(stream);

    const RowAddr *rows = nullptr;
    std::size_t n = 0;
    ASSERT_EQ(src.next(&rows, &n), SourceChunk::Rows);
    EXPECT_EQ(n, 3u);
    EXPECT_EQ(rows[0], 1u);
    ASSERT_EQ(src.next(&rows, &n), SourceChunk::Epoch);
    ASSERT_EQ(src.next(&rows, &n), SourceChunk::Rows);
    EXPECT_EQ(n, 1u);
    EXPECT_EQ(rows[0], 4u);
    ASSERT_EQ(src.next(&rows, &n), SourceChunk::Epoch);
    ASSERT_EQ(src.next(&rows, &n), SourceChunk::Rows);
    EXPECT_EQ(n, 0u); // empty segment between adjacent markers
    ASSERT_EQ(src.next(&rows, &n), SourceChunk::Epoch);
    ASSERT_EQ(src.next(&rows, &n), SourceChunk::Rows);
    EXPECT_EQ(n, 1u);
    EXPECT_EQ(rows[0], 5u);
    ASSERT_EQ(src.next(&rows, &n), SourceChunk::End);
    ASSERT_EQ(src.next(&rows, &n), SourceChunk::End);
}

TEST(RecordedStreamSource, GivenMarkersCutTheSegmentsAScanCuts)
{
    const std::vector<std::vector<RowAddr>> streams{
        {},
        {1, 2, 3},
        {kEpochMarker, 1, 2},
        {1, 2, kEpochMarker},
        {1, kEpochMarker, kEpochMarker, 2},
        {kEpochMarker},
        {kEpochMarker, kEpochMarker},
        {kEpochMarker, 5, kEpochMarker, kEpochMarker, 6, 7, kEpochMarker},
    };
    EXPECT_EQ(epochMarkerPositions(streams.back()),
              (std::vector<std::size_t>{0, 2, 3, 6}));
    for (std::size_t i = 0; i < streams.size(); ++i) {
        const std::vector<RowAddr> &stream = streams[i];
        const Segments expected = scannedSegments(stream);
        RecordedStreamSource given(stream, epochMarkerPositions(stream));
        EXPECT_EQ(sourceSegments(given, stream), expected) << "stream " << i;
        RecordedStreamSource found(stream);
        EXPECT_EQ(sourceSegments(found, stream), expected) << "stream " << i;
    }
}

TEST(ReplaySources, BitIdenticalToReplayActivations)
{
    // Adversarial-ish streams: hammer pairs, scattered rows, empty
    // streams, marker edge cases.
    std::vector<std::vector<RowAddr>> streams(4);
    Xoshiro256StarStar rng(7);
    for (std::uint64_t i = 0; i < 20000; ++i) {
        streams[0].push_back(
            static_cast<RowAddr>(rng.nextBounded(kRows)));
        streams[1].push_back(i % 2 ? 100 : 102);
        if (i % 5000 == 4999) {
            streams[0].push_back(kEpochMarker);
            streams[1].push_back(kEpochMarker);
        }
    }
    streams[2] = {kEpochMarker};
    // streams[3] stays empty.

    const SchemeConfig cfg = drcatConfig();
    const ReplayResult direct = replayActivations(streams, cfg, kRows);

    std::vector<std::unique_ptr<ActivationSource>> sources;
    for (const auto &s : streams)
        sources.push_back(std::make_unique<RecordedStreamSource>(s));
    const ReplayResult viaSources = replaySources(sources, cfg, kRows);

    EXPECT_EQ(direct.banks, viaSources.banks);
    EXPECT_EQ(direct.epochs, viaSources.epochs);
    expectStatsEqual(direct.stats, viaSources.stats);
}

TEST(SyntheticAttackSource, DeterministicEpochsAndMix)
{
    AttackSourceParams p;
    p.numRows = kRows;
    p.targets = {100, 200, 300, 400};
    p.targetFraction = 0.5;
    p.actsPerEpoch = 10000;
    p.epochs = 3;
    p.seed = 11;

    SyntheticAttackSource a(p);
    SyntheticAttackSource b(p);
    const Drained da = drain(a);
    const Drained db = drain(b);

    EXPECT_EQ(da.rows, db.rows);
    EXPECT_EQ(da.rows.size(), 30000u);
    ASSERT_EQ(da.epochAfter.size(), 3u);
    EXPECT_EQ(da.epochAfter[0], 10000u);
    EXPECT_EQ(da.epochAfter[2], 30000u);

    // The target mix must match the configured fraction.
    std::size_t onTarget = 0;
    for (RowAddr r : da.rows)
        onTarget += (r == 100 || r == 200 || r == 300 || r == 400);
    const double share =
        static_cast<double>(onTarget) / static_cast<double>(
            da.rows.size());
    EXPECT_NEAR(share, 0.5, 0.02);
}

TEST(RefreshAwareAttackerSource, RotatesOnObservedRefresh)
{
    AttackSourceParams p;
    p.numRows = kRows;
    p.targets = {100, 200};
    p.targetFraction = 1.0; // pure hammer, deterministic order
    p.actsPerEpoch = 100;
    p.epochs = 1;
    p.seed = 3;

    RefreshAwareAttackerSource src(p);
    const RowAddr *rows = nullptr;
    std::size_t n = 0;

    ASSERT_EQ(src.next(&rows, &n), SourceChunk::Rows);
    ASSERT_EQ(n, 1u);
    EXPECT_EQ(rows[0], 100u);

    // No refresh triggered: aggressors stay put.
    src.onRefreshAction(rows[0], RefreshAction{});
    EXPECT_EQ(src.rotations(), 0u);
    EXPECT_EQ(src.aggressors()[0], 100u);

    ASSERT_EQ(src.next(&rows, &n), SourceChunk::Rows);
    EXPECT_EQ(rows[0], 200u);
    // Defense refreshes victims around row 200: the attacker must
    // re-aim that aggressor somewhere else.
    RefreshAction act;
    act.rowCount = 2;
    act.lo = 199;
    act.hi = 201;
    src.onRefreshAction(rows[0], act);
    EXPECT_EQ(src.rotations(), 1u);
    EXPECT_EQ(src.aggressors()[0], 100u);
    EXPECT_NE(src.aggressors()[1], 200u);

    // The rotated aggressor is hammered at its new location.
    ASSERT_EQ(src.next(&rows, &n), SourceChunk::Rows);
    EXPECT_EQ(rows[0], 100u);
    ASSERT_EQ(src.next(&rows, &n), SourceChunk::Rows);
    EXPECT_EQ(rows[0], src.aggressors()[1]);
}

TEST(RefreshAwareAttackerSource, ClosedLoopBeatsStaticOnTreeSchemes)
{
    // Against a CAT tree, re-aiming after every observed refresh must
    // force strictly more victim-row refreshes than blind hammering:
    // each rotation lands in a coarse (unsplit) region whose whole
    // span is refreshed at the next trigger.
    AttackSourceParams p;
    p.numRows = kRows;
    p.targets = {100, 900, 1700, 2500};
    p.targetFraction = 0.5;
    p.actsPerEpoch = 50000;
    p.epochs = 2;
    p.seed = 21;

    const SchemeConfig cfg = drcatConfig();

    std::vector<std::unique_ptr<ActivationSource>> openLoop;
    openLoop.push_back(std::make_unique<SyntheticAttackSource>(p));
    const ReplayResult statics = replaySources(openLoop, cfg, kRows);

    std::vector<std::unique_ptr<ActivationSource>> closedLoop;
    closedLoop.push_back(
        std::make_unique<RefreshAwareAttackerSource>(p));
    auto *attacker = static_cast<RefreshAwareAttackerSource *>(
        closedLoop[0].get());
    const ReplayResult adaptive = replaySources(closedLoop, cfg, kRows);

    EXPECT_GT(attacker->rotations(), 0u);
    EXPECT_EQ(statics.stats.activations, adaptive.stats.activations);
    EXPECT_GT(adaptive.stats.victimRowsRefreshed,
              statics.stats.victimRowsRefreshed);
}

namespace
{

/** A triggered refresh of rows [lo, hi]. */
RefreshAction
refreshOf(RowAddr lo, RowAddr hi)
{
    RefreshAction act;
    act.lo = lo;
    act.hi = hi;
    act.rowCount = hi - lo + 1;
    return act;
}

/** Play @p stream through a ledger the way a replay lane does,
 *  answering activation i with act(i); the ledger's maximum. */
std::uint32_t
playLedger(const std::vector<RowAddr> &stream,
           const std::function<RefreshAction(std::size_t)> &act)
{
    DisturbanceLedger ledger(std::make_unique<RecordedStreamSource>(stream),
                             kRows);
    std::size_t i = 0;
    for (;;) {
        const RowAddr *rows = nullptr;
        std::size_t n = 0;
        const SourceChunk c = ledger.next(&rows, &n);
        if (c == SourceChunk::End)
            return ledger.maxReached();
        for (std::size_t k = 0; c == SourceChunk::Rows && k < n; ++k)
            ledger.onRefreshAction(rows[k], act(i++));
    }
}

/** The maximum after 7 activations of @p row, the 4th answered by a
 *  refresh of [lo, hi]. */
std::uint32_t
maxAfterRefresh(RowAddr row, RowAddr lo, RowAddr hi)
{
    return playLedger(std::vector<RowAddr>(7, row), [&](std::size_t i) {
        return i == 3 ? refreshOf(lo, hi) : RefreshAction{};
    });
}

} // namespace

TEST(DisturbanceLedger, RestartsARowOnceEveryVictimIsRefreshed)
{
    EXPECT_EQ(maxAfterRefresh(10, 9, 11), 4u);
    EXPECT_EQ(maxAfterRefresh(10, 9, 10), 7u) << "victim 11 not covered";
    EXPECT_EQ(maxAfterRefresh(10, 10, 11), 7u) << "victim 9 not covered";
    // A bank-edge row has one victim.
    EXPECT_EQ(maxAfterRefresh(0, 1, 1), 4u);
    EXPECT_EQ(maxAfterRefresh(kRows - 1, kRows - 2, kRows - 2), 4u);
}

TEST(DisturbanceLedger, EpochRestartsEveryRow)
{
    EXPECT_EQ(playLedger({5, 5, 5, kEpochMarker, 5, 5},
                         [](std::size_t) { return RefreshAction{}; }),
              3u);
}

TEST(DisturbanceLedger, ReplayThroughTheLedgerIsUnchanged)
{
    // The ledger passes its source's stream through and, for a
    // closed-loop source, every RefreshAction back: the replay's
    // scheme stats are those of the bare source.
    AttackSourceParams p;
    p.numRows = kRows;
    p.targets = {100, 900, 1700, 2500};
    p.targetFraction = 0.5;
    p.actsPerEpoch = 20000;
    p.epochs = 2;
    p.seed = 21;
    const SchemeConfig cfg = drcatConfig();
    for (const bool closed : {false, true}) {
        const auto make = [&]() -> std::unique_ptr<ActivationSource> {
            if (closed)
                return std::make_unique<RefreshAwareAttackerSource>(p);
            return std::make_unique<SyntheticAttackSource>(p);
        };
        std::vector<std::unique_ptr<ActivationSource>> bare;
        bare.push_back(make());
        std::vector<std::unique_ptr<ActivationSource>> wrapped;
        wrapped.push_back(std::make_unique<DisturbanceLedger>(make(), kRows));
        const ReplayResult a = replaySources(bare, cfg, kRows);
        const ReplayResult b = replaySources(wrapped, cfg, kRows);
        expectStatsEqual(a.stats, b.stats);
        EXPECT_EQ(a.epochs, b.epochs) << closed;
        EXPECT_GT(a.stats.refreshEvents, 0u) << closed;
        const auto &ledger =
            static_cast<const DisturbanceLedger &>(*wrapped[0]);
        EXPECT_GT(ledger.maxReached(), 0u) << closed;
    }
}

} // namespace catsim
