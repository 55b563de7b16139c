/**
 * @file
 * Tests for the fleet-scale shard layer (sim/shard): plan alignment,
 * shard-count and job-count bit-identity against the unsharded replay,
 * checkpoint resume, and keep-going degradation under injected shard
 * faults.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>

#include "common/fault_injection.hpp"
#include "sim/shard.hpp"

namespace catsim
{

namespace
{

// Shard count, job count, checkpointing, keep-going and fail-points
// must come from the tests themselves, not the invoking environment.
const bool kEnvScrubbed = [] {
    ::unsetenv("CATSIM_JOBS");
    ::unsetenv("CATSIM_SHARDS");
    ::unsetenv("CATSIM_CHECKPOINT");
    ::unsetenv("CATSIM_SWEEP_KEEP_GOING");
    fault::installFailpoints("");
    return true;
}();

struct FailpointGuard
{
    ~FailpointGuard() { fault::installFailpoints(""); }
};

struct EnvVarGuard
{
    explicit EnvVarGuard(const char *name) : name_(name) {}
    ~EnvVarGuard() { ::unsetenv(name_); }
    const char *name_;
};

std::filesystem::path
freshDir(const std::string &name)
{
    const auto dir =
        std::filesystem::temp_directory_path() / ("catsim_" + name);
    std::filesystem::remove_all(dir);
    return dir;
}

constexpr RowAddr kRows = 65536;
constexpr std::uint32_t kBanks = 16;

SchemeConfig
prcatConfig()
{
    SchemeConfig cfg;
    cfg.kind = SchemeKind::Prcat;
    cfg.numCounters = 16;
    cfg.maxLevels = 11;
    cfg.threshold = 2048;
    return cfg;
}

/**
 * Deterministic per-global-bank source: every shard count builds the
 * same source for the same bank.  Banks where bank % 8 < 2 run "hot"
 * (10x the activations) - the attacked-bank skew the dynamic shard
 * hand-out exists for.
 */
std::unique_ptr<ActivationSource>
makeSkewedSource(std::uint32_t bank)
{
    AttackSourceParams p;
    p.numRows = kRows;
    p.targets = {RowAddr(100 + bank), RowAddr(500 + bank)};
    p.actsPerEpoch = (bank % 8 < 2) ? 20000 : 2000;
    p.epochs = 2;
    p.seed = 1000 + bank;
    return std::make_unique<SyntheticAttackSource>(p);
}

/** Unsharded oracle: all banks through one replaySources call. */
ReplayResult
unshardedRun(const SchemeConfig &cfg)
{
    std::vector<std::unique_ptr<ActivationSource>> sources;
    for (std::uint32_t b = 0; b < kBanks; ++b)
        sources.push_back(makeSkewedSource(b));
    return replaySources(sources, cfg, kRows);
}

} // namespace

TEST(ShardPlan, CoversAllBanksContiguously)
{
    const ShardPlan plan = ShardPlan::make(64, 4);
    ASSERT_EQ(plan.numShards(), 4u);
    std::uint32_t next = 0;
    for (const ShardRange &r : plan.shards()) {
        EXPECT_EQ(r.firstBank, next);
        EXPECT_GT(r.numBanks, 0u);
        next += r.numBanks;
    }
    EXPECT_EQ(next, 64u);
    EXPECT_EQ(plan.spec(), "banks=64/shards=4");
}

TEST(ShardPlan, BoundariesAlignToPoolGroups)
{
    // 10 groups of 8 banks over 3 shards: every boundary must sit on a
    // multiple of 8, and shard sizes must balance to within one group.
    const ShardPlan plan = ShardPlan::make(80, 3, 8);
    ASSERT_EQ(plan.numShards(), 3u);
    std::uint32_t next = 0;
    for (const ShardRange &r : plan.shards()) {
        EXPECT_EQ(r.firstBank % 8, 0u);
        EXPECT_EQ(r.firstBank, next);
        EXPECT_GE(r.numBanks, 16u);
        EXPECT_LE(r.numBanks, 32u);
        next += r.numBanks;
    }
    EXPECT_EQ(next, 80u);
}

TEST(ShardPlan, ClampsShardCountToGroups)
{
    // Only 2 pool groups exist; asking for 16 shards yields 2.
    const ShardPlan plan = ShardPlan::make(8, 16, 4);
    EXPECT_EQ(plan.numShards(), 2u);
    // And a short tail group still gets covered.
    const ShardPlan tail = ShardPlan::make(10, 3, 4);
    std::uint32_t covered = 0;
    for (const ShardRange &r : tail.shards())
        covered += r.numBanks;
    EXPECT_EQ(covered, 10u);
}

TEST(Shard, RunMatchesUnshardedAtEveryShardCount)
{
    const SchemeConfig cfg = prcatConfig();
    const ReplayResult oracle = unshardedRun(cfg);
    for (std::uint32_t shards : {1u, 2u, 4u, 8u}) {
        ShardedSim sim(cfg, kRows, ShardPlan::make(kBanks, shards), 4);
        const FleetResult fleet = sim.run(makeSkewedSource, "t");
        EXPECT_EQ(fleet.total, oracle) << "shards=" << shards;
        EXPECT_TRUE(fleet.errors.empty());
    }
}

TEST(Shard, RunMatchesAcrossJobCounts)
{
    const SchemeConfig cfg = prcatConfig();
    ShardedSim serial(cfg, kRows, ShardPlan::make(kBanks, 4), 1);
    ShardedSim parallel(cfg, kRows, ShardPlan::make(kBanks, 4), 8);
    const FleetResult a = serial.run(makeSkewedSource, "t");
    const FleetResult b = parallel.run(makeSkewedSource, "t");
    EXPECT_EQ(a.total, b.total) << "jobs 1 vs 8";
    for (std::size_t i = 0; i < a.perShard.size(); ++i)
        EXPECT_EQ(a.perShard[i], b.perShard[i]) << "shard " << i;
}

TEST(Shard, PooledConfigShardsAlongPoolGroups)
{
    SchemeConfig cfg = prcatConfig();
    cfg.banksPerPool = 8;
    const ReplayResult oracle = unshardedRun(cfg);
    // 16 banks / 8-bank pools: 2 groups, so at most 2 shards - and the
    // plan must place the boundary exactly between the pools.
    ShardedSim sim(cfg, kRows,
                   ShardPlan::make(kBanks, 2, cfg.banksPerPool), 2);
    ASSERT_EQ(sim.plan().shards()[1].firstBank, 8u);
    const FleetResult fleet = sim.run(makeSkewedSource, "t");
    EXPECT_EQ(fleet.total, oracle) << "pooled shards=2";
}

TEST(ShardDeath, MisalignedPoolShardIsFatal)
{
    SchemeConfig cfg = prcatConfig();
    cfg.banksPerPool = 8;
    EXPECT_EXIT(makeBankSchemes(cfg, kRows, 8, 4),
                ::testing::ExitedWithCode(1), "splits a banksPerPool");
}

TEST(Shard, FleetCheckpointResumesByteIdentically)
{
    const auto dir = freshDir("fleet_ckpt");
    EnvVarGuard env("CATSIM_CHECKPOINT");
    ::setenv("CATSIM_CHECKPOINT", dir.c_str(), 1);

    const SchemeConfig cfg = prcatConfig();
    ShardedSim first(cfg, kRows, ShardPlan::make(kBanks, 4), 2);
    const FleetResult cold = first.run(makeSkewedSource, "ckpt");
    EXPECT_EQ(cold.resumedShards, 0u);

    // A fresh ShardedSim (same params, same tag) replays every shard
    // from the journal - no simulation work, identical bytes.
    ShardedSim second(cfg, kRows, ShardPlan::make(kBanks, 4), 2);
    const FleetResult warm = second.run(makeSkewedSource, "ckpt");
    EXPECT_EQ(warm.resumedShards, 4u);
    EXPECT_EQ(warm.total, cold.total) << "resumed fleet";
    for (std::size_t i = 0; i < cold.perShard.size(); ++i)
        EXPECT_EQ(warm.perShard[i], cold.perShard[i])
            << "resumed shard " << i;
    std::filesystem::remove_all(dir);
}

TEST(Shard, PartialJournalRerunsOnlyMissingShards)
{
    const auto dir = freshDir("fleet_partial");
    EnvVarGuard env("CATSIM_CHECKPOINT");
    EnvVarGuard keep("CATSIM_SWEEP_KEEP_GOING");
    ::setenv("CATSIM_CHECKPOINT", dir.c_str(), 1);
    const SchemeConfig cfg = prcatConfig();
    const ReplayResult oracle = unshardedRun(cfg);

    // Kill shard 0 permanently (both attempts) with jobs=1 so the
    // armed hits deterministically belong to the first pending shard.
    // Failed shards are never journaled.
    {
        FailpointGuard fp;
        ::setenv("CATSIM_SWEEP_KEEP_GOING", "1", 1);
        fault::installFailpoints("shard_task@1,shard_task@2");
        ShardedSim crashy(cfg, kRows, ShardPlan::make(kBanks, 4), 1);
        const FleetResult broken = crashy.run(makeSkewedSource, "part");
        ASSERT_EQ(broken.errors.size(), 1u);
        EXPECT_EQ(broken.errors[0].index, 0u);
        EXPECT_EQ(broken.errors[0].attempts, 2);
        EXPECT_LT(broken.total.banks, kBanks);
    }
    ::unsetenv("CATSIM_SWEEP_KEEP_GOING");

    // The re-run resumes the 3 journaled shards and computes only the
    // missing one; the merged fleet matches the unsharded oracle.
    ShardedSim resumed(cfg, kRows, ShardPlan::make(kBanks, 4), 1);
    const FleetResult fixed = resumed.run(makeSkewedSource, "part");
    EXPECT_EQ(fixed.resumedShards, 3u);
    EXPECT_EQ(fixed.total, oracle) << "healed fleet";
    std::filesystem::remove_all(dir);
}

TEST(Shard, KeepGoingRetriesTransientShardFaultOnce)
{
    FailpointGuard fp;
    EnvVarGuard keep("CATSIM_SWEEP_KEEP_GOING");
    ::setenv("CATSIM_SWEEP_KEEP_GOING", "1", 1);
    // Only the FIRST shard_task hit is armed: attempt 1 throws,
    // attempt 2 succeeds, so the fleet completes with no errors.
    fault::installFailpoints("shard_task@1");
    const SchemeConfig cfg = prcatConfig();
    ShardedSim sim(cfg, kRows, ShardPlan::make(kBanks, 4), 1);
    const FleetResult fleet = sim.run(makeSkewedSource, "t");
    EXPECT_TRUE(fleet.errors.empty());
    EXPECT_EQ(fleet.total, unshardedRun(cfg)) << "after retry";
}

TEST(Shard, FailFastNamesTheFailingShard)
{
    FailpointGuard fp;
    fault::installFailpoints("shard_task@1");
    const SchemeConfig cfg = prcatConfig();
    ShardedSim sim(cfg, kRows, ShardPlan::make(kBanks, 4), 1);
    try {
        sim.run(makeSkewedSource, "t");
        FAIL() << "expected rethrow";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("shard 0"),
                  std::string::npos)
            << e.what();
    }
}

TEST(Shard, DefaultShardsHonoursEnv)
{
    EnvVarGuard env("CATSIM_SHARDS");
    ::unsetenv("CATSIM_SHARDS");
    EXPECT_EQ(defaultShards(), 1u);
    ::setenv("CATSIM_SHARDS", "8", 1);
    EXPECT_EQ(defaultShards(), 8u);
    for (const char *bad : {"0", "-3", "x", ""}) {
        ::setenv("CATSIM_SHARDS", bad, 1);
        EXPECT_EQ(defaultShards(), 1u) << "input: " << bad;
    }
}

} // namespace catsim
