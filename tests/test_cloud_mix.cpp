/**
 * @file
 * Determinism tests for the benign multi-tenant cloud-mix generator:
 * stream determinism, epoch cadence, deterministic phase changes, and
 * bit-identical repeated replay through replaySources - including
 * through the Misra-Gries and RFM schemes.
 */

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "sim/activation_sim.hpp"

namespace catsim
{

namespace
{

constexpr RowAddr kRows = 65536;
constexpr std::uint32_t kBanks = 16;

CloudMixParams
mixParams(std::uint64_t seed)
{
    CloudMixParams p;
    p.numRows = kRows;
    p.tenants = 4;
    p.hotRowsPerTenant = 64;
    p.zipfTheta = 0.99;
    p.actsPerEpoch = 20000;
    p.epochs = 2;
    p.phaseEvery = 3000; // not a multiple of the chunk size
    p.seed = seed;
    return p;
}

/** Drain a source; returns all rows and counts epoch markers. */
std::vector<RowAddr>
drain(CloudMixSource &source, std::uint64_t *epochs = nullptr)
{
    std::vector<RowAddr> all;
    if (epochs)
        *epochs = 0;
    for (;;) {
        const RowAddr *rows = nullptr;
        std::size_t count = 0;
        const SourceChunk chunk = source.next(&rows, &count);
        if (chunk == SourceChunk::End)
            return all;
        if (chunk == SourceChunk::Epoch) {
            if (epochs)
                ++*epochs;
            continue;
        }
        all.insert(all.end(), rows, rows + count);
    }
}

/** Bank @p bank's cloud-mix source, seeded from the bank alone. */
std::unique_ptr<ActivationSource>
makeCloudSource(std::uint32_t bank)
{
    CloudMixParams p = mixParams(1000 + bank);
    // Uneven streams: banks 0, 1, 8 and 9 run 5x the activations.
    p.actsPerEpoch = (bank % 8 < 2) ? 20000 : 4000;
    return std::make_unique<CloudMixSource>(p);
}

ReplayResult
cloudRun(const SchemeConfig &cfg)
{
    std::vector<std::unique_ptr<ActivationSource>> sources;
    for (std::uint32_t b = 0; b < kBanks; ++b)
        sources.push_back(makeCloudSource(b));
    return replaySources(sources, cfg, kRows);
}

/** The scheme configs the corpus cares about, new baselines included. */
std::vector<SchemeConfig>
schemeMatrix()
{
    std::vector<SchemeConfig> configs(3);
    configs[0].kind = SchemeKind::Prcat;
    configs[0].numCounters = 16;
    configs[0].maxLevels = 11;
    configs[0].threshold = 2048;
    configs[1].kind = SchemeKind::MisraGries;
    configs[1].numCounters = 64;
    configs[1].threshold = 2048;
    configs[2].kind = SchemeKind::Rfm;
    configs[2].rfmBudget = 64;
    return configs;
}

} // namespace

TEST(CloudMix, StreamIsDeterministic)
{
    CloudMixSource a(mixParams(7));
    CloudMixSource b(mixParams(7));
    std::uint64_t epochsA = 0, epochsB = 0;
    EXPECT_EQ(drain(a, &epochsA), drain(b, &epochsB));
    EXPECT_EQ(epochsA, epochsB);
}

TEST(CloudMix, EpochCadenceAndLength)
{
    CloudMixSource source(mixParams(7));
    std::uint64_t epochs = 0;
    const std::vector<RowAddr> all = drain(source, &epochs);
    EXPECT_EQ(all.size(), 40000u) << "2 epochs x 20000 acts";
    EXPECT_EQ(epochs, 2u);
    for (const RowAddr row : all)
        ASSERT_LT(row, kRows);
}

TEST(CloudMix, PhaseChangesMoveHotSets)
{
    // Bases are a pure hash of (seed, phase, tenant): deterministic,
    // and different across phases for this seed.
    CloudMixParams p = mixParams(11);
    CloudMixSource source(p);
    std::vector<RowAddr> basesPhase0;
    for (std::uint32_t t = 0; t < p.tenants; ++t)
        basesPhase0.push_back(source.tenantBase(t));

    // Drive past the first phase boundary (phaseEvery = 3000 acts).
    const RowAddr *rows = nullptr;
    std::size_t count = 0;
    std::uint64_t produced = 0;
    while (produced < p.phaseEvery) {
        ASSERT_EQ(source.next(&rows, &count), SourceChunk::Rows);
        produced += count;
        // Chunks never straddle a phase boundary.
        ASSERT_LE(produced, p.phaseEvery);
    }
    std::vector<RowAddr> basesPhase1;
    for (std::uint32_t t = 0; t < p.tenants; ++t)
        basesPhase1.push_back(source.tenantBase(t));
    EXPECT_NE(basesPhase0, basesPhase1) << "hot sets never moved";

    // A second source driven to the same point lands on the same
    // bases - relocation does not depend on chunking history.
    CloudMixSource replayed(p);
    std::uint64_t replayedActs = 0;
    while (replayedActs < p.phaseEvery) {
        ASSERT_EQ(replayed.next(&rows, &count), SourceChunk::Rows);
        replayedActs += count;
    }
    for (std::uint32_t t = 0; t < p.tenants; ++t)
        EXPECT_EQ(replayed.tenantBase(t), basesPhase1[t]);
}

TEST(CloudMix, PhasesProduceDistinctWorkingSets)
{
    CloudMixParams p = mixParams(13);
    p.hotRowsPerTenant = 8; // tight hot sets, clear separation
    CloudMixSource source(p);
    std::vector<RowAddr> all = drain(source);
    const auto phaseLen = static_cast<std::ptrdiff_t>(p.phaseEvery);
    const std::set<RowAddr> phase0(all.begin(),
                                   all.begin() + phaseLen);
    const std::set<RowAddr> phase1(all.begin() + phaseLen,
                                   all.begin() + 2 * phaseLen);
    EXPECT_NE(phase0, phase1)
        << "phase change left every hot row in place";
}

TEST(CloudMix, ReplayIsDeterministicForEveryScheme)
{
    // Fresh sources and schemes each run: the replay is a pure
    // function of the sources' seeds and the scheme config.
    for (const SchemeConfig &cfg : schemeMatrix()) {
        const ReplayResult first = cloudRun(cfg);
        EXPECT_EQ(first.banks, kBanks);
        EXPECT_EQ(first.epochs, 2u);
        EXPECT_EQ(first.stats.activations, 4u * 2 * 20000 + 12u * 2 * 4000)
            << "scheme " << static_cast<int>(cfg.kind);
        EXPECT_EQ(cloudRun(cfg), first)
            << "scheme " << static_cast<int>(cfg.kind);
    }
}

TEST(CloudMixDeath, RejectsBadParams)
{
    CloudMixParams zeroTenants = mixParams(1);
    zeroTenants.tenants = 0;
    EXPECT_EXIT(CloudMixSource{zeroTenants},
                ::testing::ExitedWithCode(1), "tenant");
    CloudMixParams hugeSet = mixParams(1);
    hugeSet.hotRowsPerTenant = kRows + 1;
    EXPECT_EXIT(CloudMixSource{hugeSet}, ::testing::ExitedWithCode(1),
                "does not fit");
    CloudMixParams noActs = mixParams(1);
    noActs.actsPerEpoch = 0;
    EXPECT_EXIT(CloudMixSource{noActs}, ::testing::ExitedWithCode(1),
                "actsPerEpoch");
}

} // namespace catsim
