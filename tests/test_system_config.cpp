/**
 * @file
 * The unified SystemConfig surface: parse defaults, legacy aliases,
 * and the parse(format()) round-trip that makes a printed config line
 * a reproduction recipe.
 */

#include <gtest/gtest.h>

#include "sim/sweep.hpp"
#include "sim/system_config.hpp"

using namespace catsim;

namespace
{

/** Round-trip through format() and compare every field. */
void
expectRoundTrip(const SystemConfig &sys)
{
    const std::string line = sys.format();
    const SystemConfig back = SystemConfig::parse(line);
    EXPECT_EQ(back.format(), line) << line;
    EXPECT_EQ(back.preset, sys.preset);
    EXPECT_EQ(back.workload.name, sys.workload.name);
    EXPECT_EQ(back.workload.seed, sys.workload.seed);
    EXPECT_EQ(back.workload.isAttack, sys.workload.isAttack);
    if (sys.workload.isAttack) {
        EXPECT_EQ(back.workload.attackMode, sys.workload.attackMode);
        EXPECT_EQ(back.workload.attackKernel,
                  sys.workload.attackKernel);
        EXPECT_EQ(back.workload.attackKernelKind,
                  sys.workload.attackKernelKind);
    }
    EXPECT_EQ(back.scheme.kind, sys.scheme.kind);
    EXPECT_EQ(back.scheme.numCounters, sys.scheme.numCounters);
    EXPECT_EQ(back.scheme.maxLevels, sys.scheme.maxLevels);
    EXPECT_EQ(back.scheme.threshold, sys.scheme.threshold);
    EXPECT_EQ(back.scheme.praProbability, sys.scheme.praProbability);
    EXPECT_EQ(back.scheme.cacheWays, sys.scheme.cacheWays);
    EXPECT_EQ(back.scheme.rfmBudget, sys.scheme.rfmBudget);
    EXPECT_EQ(back.scheme.seed, sys.scheme.seed);
    EXPECT_EQ(back.scheme.lfsrPrng, sys.scheme.lfsrPrng);
    EXPECT_EQ(back.scheme.evictionPolicy, sys.scheme.evictionPolicy);
    EXPECT_EQ(back.scheme.banksPerPool, sys.scheme.banksPerPool);
    EXPECT_EQ(back.label(), sys.label());
}

} // namespace

TEST(SystemConfigParse, EmptyKeepsPaperDefaults)
{
    const SystemConfig sys = SystemConfig::parse("");
    EXPECT_EQ(sys.preset, SystemPreset::DualCore2Ch);
    EXPECT_EQ(sys.workload.name, "black");
    EXPECT_EQ(sys.workload.seed, 42u);
    EXPECT_FALSE(sys.workload.isAttack);
    EXPECT_EQ(sys.scheme.kind, SchemeKind::Drcat);
    EXPECT_EQ(sys.scheme.numCounters, 64u);
    EXPECT_EQ(sys.scheme.maxLevels, 11u);
    EXPECT_EQ(sys.scheme.threshold, 32768u);
    EXPECT_EQ(sys.scheme.evictionPolicy, EvictionPolicyKind::Lru);
    EXPECT_EQ(sys.scheme.banksPerPool, 0u);
    EXPECT_EQ(sys.label(), "DRCAT_64@black/dual2ch");
}

TEST(SystemConfigParse, LegacySimulateFlagsAreAliases)
{
    const SystemConfig legacy = SystemConfig::parse(
        "scheme=cc eviction=lru bankspool=8 kernelkind=multibank "
        "attack=medium");
    const SystemConfig canonical = SystemConfig::parse(
        "scheme=cc policy=lru pool=8 kind=multibank attack=medium");
    EXPECT_EQ(legacy.format(), canonical.format());
    EXPECT_EQ(legacy.scheme.evictionPolicy, EvictionPolicyKind::Lru);
    EXPECT_EQ(legacy.scheme.banksPerPool, 8u);
    EXPECT_EQ(legacy.workload.attackKernelKind,
              AttackKernelKind::MultiBank);
}

TEST(SystemConfigParse, CanonicalKeysWinOverAliases)
{
    const SystemConfig sys =
        SystemConfig::parse("policy=lfu eviction=lru pool=4 bankspool=8");
    EXPECT_EQ(sys.scheme.evictionPolicy, EvictionPolicyKind::Lfu);
    EXPECT_EQ(sys.scheme.banksPerPool, 4u);
}

TEST(SystemConfigFormat, DefaultsAreOmitted)
{
    EXPECT_EQ(SystemConfig().format(),
              "system=dual2ch scheme=drcat");
    SystemConfig sys;
    sys.workload.name = "black"; // parse()'s default, omitted too
    EXPECT_EQ(sys.format(), "system=dual2ch scheme=drcat");
}

TEST(SystemConfigFormat, RoundTripsAcrossTheDesignSpace)
{
    expectRoundTrip(SystemConfig::parse(""));
    {
        // fig13-style attack cell on a quad system.
        SystemConfig sys;
        sys.preset = SystemPreset::QuadCore4Ch;
        sys.workload.name = "comm2";
        sys.workload.isAttack = true;
        sys.workload.attackMode = AttackMode::Heavy;
        sys.workload.attackKernel = 7;
        sys.workload.seed = 9;
        sys.scheme.kind = SchemeKind::Prcat;
        sys.scheme.numCounters = 128;
        sys.scheme.threshold = 16384;
        expectRoundTrip(sys);
    }
    {
        // fig15-style extension cell: rank-pooled DRCAT.
        SystemConfig sys;
        sys.workload.name = "mum";
        sys.scheme.kind = SchemeKind::Drcat;
        sys.scheme.numCounters = 16;
        sys.scheme.banksPerPool = 8;
        expectRoundTrip(sys);
    }
    {
        // multibank kernel placement + non-default scheme seed.
        SystemConfig sys;
        sys.workload.name = "black";
        sys.workload.isAttack = true;
        sys.workload.attackMode = AttackMode::Light;
        sys.workload.attackKernelKind = AttackKernelKind::MultiBank;
        sys.scheme.kind = SchemeKind::Pra;
        sys.scheme.praProbability = 0.005;
        sys.scheme.seed = 77;
        sys.scheme.lfsrPrng = true;
        expectRoundTrip(sys);
    }
    {
        // counter cache with every cache knob off the default.
        SystemConfig sys;
        sys.preset = SystemPreset::QuadCore2Ch;
        sys.workload.name = "fluid";
        sys.scheme.kind = SchemeKind::CounterCache;
        sys.scheme.numCounters = 2048;
        sys.scheme.cacheWays = 4;
        sys.scheme.evictionPolicy = EvictionPolicyKind::Random;
        expectRoundTrip(sys);
    }
    {
        // fig16-style modern corpus cell: Misra-Gries vs many-sided.
        SystemConfig sys;
        sys.workload.name = "comm1";
        sys.workload.isAttack = true;
        sys.workload.attackMode = AttackMode::Medium;
        sys.workload.attackKernelKind = AttackKernelKind::ManySided;
        sys.scheme.kind = SchemeKind::MisraGries;
        sys.scheme.numCounters = 512;
        sys.scheme.threshold = 16384;
        expectRoundTrip(sys);
    }
    {
        // RFM with a non-default budget against half-double placement.
        SystemConfig sys;
        sys.workload.name = "mum";
        sys.workload.isAttack = true;
        sys.workload.attackKernelKind = AttackKernelKind::HalfDouble;
        sys.scheme.kind = SchemeKind::Rfm;
        sys.scheme.rfmBudget = 128;
        expectRoundTrip(sys);
    }
}

TEST(SystemConfigParse, ModernSchemeAliasesAndBudget)
{
    const SystemConfig mg =
        SystemConfig::parse("scheme=misra-gries counters=512");
    EXPECT_EQ(mg.scheme.kind, SchemeKind::MisraGries);
    EXPECT_EQ(mg.scheme.label(), "MG_512");
    EXPECT_EQ(SystemConfig::parse("scheme=misragries").scheme.kind,
              SchemeKind::MisraGries);

    const SystemConfig rfm =
        SystemConfig::parse("scheme=rfm rfmbudget=96");
    EXPECT_EQ(rfm.scheme.kind, SchemeKind::Rfm);
    EXPECT_EQ(rfm.scheme.rfmBudget, 96u);
    EXPECT_EQ(rfm.scheme.label(), "RFM_96");
    EXPECT_EQ(SystemConfig::parse("scheme=rfm").scheme.rfmBudget, 64u);
}

TEST(SystemConfigLabel, ComposesTheHistoricalLabels)
{
    SystemConfig sys;
    sys.preset = SystemPreset::QuadCore2Ch;
    sys.workload.name = "comm1";
    sys.workload.isAttack = true;
    sys.workload.attackMode = AttackMode::Medium;
    sys.workload.attackKernel = 3;
    sys.scheme.kind = SchemeKind::Prcat;
    sys.scheme.numCounters = 64;
    sys.scheme.banksPerPool = 8;
    // Every piece is the pre-existing formatter's output (scheme
    // labels feed committed @@METRIC names, workload labels feed
    // baseline cache keys), glued without modification.
    EXPECT_EQ(sys.label(),
              "PRCAT_64_rank8@attack-Medium-k3+comm1/quad2ch");
    EXPECT_EQ(sys.scheme.label(), "PRCAT_64_rank8");
    EXPECT_EQ(sys.workload.label(), "attack-Medium-k3+comm1");
}

TEST(SystemConfigParse, BadValuesAreFatal)
{
    EXPECT_EXIT(SystemConfig::parse("system=octo9ch"),
                ::testing::ExitedWithCode(1), "system must be");
    EXPECT_EXIT(SystemConfig::parse("attack=apocalyptic"),
                ::testing::ExitedWithCode(1), "attack must be");
    EXPECT_EXIT(SystemConfig::parse("scheme=warp"),
                ::testing::ExitedWithCode(1), "unknown scheme");
}

TEST(SweepCellLabel, RoutesThroughSystemConfig)
{
    SweepCell c;
    c.preset = SystemPreset::DualCore2Ch;
    c.workload.name = "libq";
    c.scheme.kind = SchemeKind::Sca;
    c.scheme.numCounters = 128;
    EXPECT_EQ(c.label(), c.system().label());
    EXPECT_EQ(c.label(), "SCA_128@libq/dual2ch");
}
