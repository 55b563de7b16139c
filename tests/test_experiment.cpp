/**
 * @file
 * Tests for the experiment runner (CMRPO/ETO orchestration).
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <vector>

#include "sim/experiment.hpp"

namespace catsim
{

namespace
{

// Keep the suite hermetic: an inherited CATSIM_BASELINE_CACHE would
// make runners read/write a user cache dir during tests.
const bool kEnvScrubbed = [] {
    ::unsetenv("CATSIM_BASELINE_CACHE");
    return true;
}();

/** Tiny scale so each test runs in well under a second. */
constexpr double kTestScale = 0.02;

SchemeConfig
scheme(SchemeKind kind, std::uint32_t counters = 64,
       std::uint32_t levels = 11, std::uint32_t threshold = 32768)
{
    SchemeConfig cfg;
    cfg.kind = kind;
    cfg.numCounters = counters;
    cfg.maxLevels = levels;
    cfg.threshold = threshold;
    cfg.praProbability = 0.002;
    return cfg;
}

} // namespace

TEST(Experiment, BaselineIsCached)
{
    ExperimentRunner runner(kTestScale);
    WorkloadSpec w;
    w.name = "comm1";
    const auto &a = runner.baseline(SystemPreset::DualCore2Ch, w);
    const auto &b = runner.baseline(SystemPreset::DualCore2Ch, w);
    EXPECT_EQ(&a, &b) << "same workload must reuse the cached baseline";
    EXPECT_GT(a.totalActivations, 0u);
    EXPECT_GT(a.epochs, 0u);
}

TEST(Experiment, ScaledThreshold)
{
    ExperimentRunner runner(0.25);
    EXPECT_EQ(runner.scaledThreshold(32768), 8192u);
    EXPECT_EQ(runner.scaledThreshold(1024), 512u) << "clamped at 512";
}

TEST(Experiment, CmrpoComponentsPositive)
{
    ExperimentRunner runner(kTestScale);
    WorkloadSpec w;
    w.name = "comm1";
    const auto r = runner.evalCmrpo(SystemPreset::DualCore2Ch, w,
                                    scheme(SchemeKind::Drcat));
    EXPECT_GT(r.cmrpo, 0.0);
    EXPECT_LT(r.cmrpo, 1.0) << "DRCAT CMRPO must be far below 100 %";
    EXPECT_GT(r.power.statik, 0.0);
    EXPECT_GT(r.power.dynamic, 0.0);
}

TEST(Experiment, ScaStaticPowerGrowsWithCounters)
{
    ExperimentRunner runner(kTestScale);
    WorkloadSpec w;
    w.name = "swapt";
    const auto small = runner.evalCmrpo(SystemPreset::DualCore2Ch, w,
                                        scheme(SchemeKind::Sca, 64));
    const auto large = runner.evalCmrpo(SystemPreset::DualCore2Ch, w,
                                        scheme(SchemeKind::Sca, 4096));
    EXPECT_GT(large.power.statik, small.power.statik);
}

TEST(Experiment, PraPowerDominatedByPrng)
{
    ExperimentRunner runner(kTestScale);
    WorkloadSpec w;
    w.name = "comm1";
    const auto r = runner.evalCmrpo(SystemPreset::DualCore2Ch, w,
                                    scheme(SchemeKind::Pra));
    // Section VII-B: PRNG generation dominates PRA's CMRPO.
    EXPECT_GT(r.power.dynamic, r.power.refresh);
}

TEST(Experiment, AttackWorkloadRuns)
{
    ExperimentRunner runner(kTestScale);
    WorkloadSpec w;
    w.name = "comm2";
    w.isAttack = true;
    w.attackMode = AttackMode::Heavy;
    w.attackKernel = 3;
    const auto &base = runner.baseline(SystemPreset::DualCore2Ch, w);
    EXPECT_GT(base.totalActivations, 0u);
    EXPECT_EQ(w.label(), "attack-Heavy-k3+comm2");
}

TEST(Experiment, CustomSplitScheduleCoScalesWithThreshold)
{
    // A custom schedule built from the paper threshold must be scaled
    // with T before it reaches the CAT, whose constructor requires the
    // last entry to equal the (scaled) refresh threshold - this test
    // dies if the co-scaling is wrong.  An eager schedule refreshes
    // no MORE victim rows than the lazy one on the same streams.
    ExperimentRunner runner(kTestScale);
    WorkloadSpec w;
    w.name = "comm1";

    auto withSchedule = [&](std::uint32_t div) {
        SchemeConfig cfg = scheme(SchemeKind::Drcat);
        cfg.splitThresholds.assign(cfg.maxLevels,
                                   cfg.threshold / div);
        cfg.splitThresholds.back() = cfg.threshold;
        return runner.evalCmrpo(SystemPreset::DualCore2Ch, w, cfg);
    };
    const auto eager = withSchedule(16);
    const auto lazy = withSchedule(2);
    EXPECT_GT(eager.cmrpo, 0.0);
    EXPECT_GT(lazy.cmrpo, 0.0);
    // Both schedules may fully saturate the counters (equal split
    // totals), but the eager one deepens the tree earlier, so its
    // walks make more SRAM accesses over the run.
    EXPECT_GE(eager.stats.splits, lazy.stats.splits);
    EXPECT_GT(eager.stats.sramAccesses, lazy.stats.sramAccesses)
        << "an eager schedule must deepen the tree earlier";
}

TEST(Experiment, EtoNonNegativeAndSmall)
{
    ExperimentRunner runner(kTestScale);
    WorkloadSpec w;
    w.name = "comm1";
    const double e = runner.evalEto(SystemPreset::DualCore2Ch, w,
                                    scheme(SchemeKind::Drcat));
    EXPECT_GE(e, -0.01);
    EXPECT_LT(e, 0.2);
}

namespace
{

/** The scheme-list cases compare two paths bit for bit, so a short
 *  epoch serves them; it keeps them affordable under the sanitizers. */
constexpr double kListScale = 0.005;

/** Every attacker family, with one placement and one epoch each. */
std::vector<AdaptiveAttackSpec>
everyAttack()
{
    std::vector<AdaptiveAttackSpec> attacks;
    for (const AttackerKind kind :
         {AttackerKind::Static, AttackerKind::MultiBank,
          AttackerKind::ManySided, AttackerKind::HalfDouble,
          AttackerKind::CloudMix, AttackerKind::RefreshAware}) {
        AdaptiveAttackSpec a;
        a.attacker = kind;
        a.kernel = 2;
        a.epochs = 1;
        a.targetsPerBank = kind == AttackerKind::ManySided
                                   || kind == AttackerKind::HalfDouble
                               ? 8
                               : 4;
        attacks.push_back(a);
    }
    return attacks;
}

} // namespace

TEST(Experiment, AdaptiveSchemeListMatchesOneSchemeAtATime)
{
    // One stimulus pass for an open-loop attack, one per scheme for
    // the closed-loop one, and every result bit for bit its own
    // single-scheme call's; DRCAT is listed twice.
    const std::vector<SchemeConfig> schemes = {
        scheme(SchemeKind::Drcat), scheme(SchemeKind::CounterCache, 2048),
        scheme(SchemeKind::Pra), scheme(SchemeKind::Drcat)};
    for (const AdaptiveAttackSpec &attack : everyAttack()) {
        const char *name = attackerKindName(attack.attacker);
        ExperimentRunner runner(kListScale);
        const auto listed =
            runner.evalAdaptive(SystemPreset::DualCore2Ch, attack, schemes);
        const bool closed =
            runner.adaptiveClosedLoop(SystemPreset::DualCore2Ch, attack);
        EXPECT_EQ(closed, attack.attacker == AttackerKind::RefreshAware)
            << name;
        EXPECT_EQ(runner.stimulusPasses(), closed ? schemes.size() : 1u)
            << name;
        ASSERT_EQ(listed.size(), schemes.size()) << name;
        for (std::size_t k = 0; k < schemes.size(); ++k) {
            const EvalResult alone = runner.evalAdaptive(
                SystemPreset::DualCore2Ch, attack, schemes[k]);
            EXPECT_EQ(listed[k].cmrpo, alone.cmrpo) << name << " " << k;
            EXPECT_EQ(listed[k].power.dynamic, alone.power.dynamic)
                << name << " " << k;
            EXPECT_EQ(listed[k].power.statik, alone.power.statik)
                << name << " " << k;
            EXPECT_EQ(listed[k].power.refresh, alone.power.refresh)
                << name << " " << k;
            EXPECT_EQ(listed[k].baselineSeconds, alone.baselineSeconds)
                << name << " " << k;
            EXPECT_EQ(listed[k].stats, alone.stats) << name << " " << k;
            EXPECT_GT(alone.stats.activations, 0u) << name << " " << k;
        }
    }
}

TEST(Experiment, AdaptiveEtoSchemeListMatchesOneSchemeAtATime)
{
    // One unmitigated leg for the whole list, then one mitigated leg
    // per scheme; DRCAT is listed twice.
    const std::vector<SchemeConfig> schemes = {scheme(SchemeKind::Drcat),
                                               scheme(SchemeKind::Pra),
                                               scheme(SchemeKind::Drcat)};
    for (const AdaptiveAttackSpec &attack : everyAttack()) {
        const char *name = attackerKindName(attack.attacker);
        ExperimentRunner runner(kListScale);
        const auto listed = runner.evalAdaptiveEto(
            SystemPreset::DualCore2Ch, attack, schemes);
        EXPECT_EQ(runner.stimulusPasses(), 1 + schemes.size()) << name;
        ASSERT_EQ(listed.size(), schemes.size()) << name;
        for (std::size_t k = 0; k < 2; ++k)
            EXPECT_EQ(listed[k],
                      runner.evalAdaptiveEto(SystemPreset::DualCore2Ch,
                                             attack, schemes[k]))
                << name << " " << k;
        EXPECT_EQ(listed[2], listed[0]) << name;
        EXPECT_GT(listed[0], 0.0) << name;
    }
}

TEST(Experiment, PresetsDiffer)
{
    const auto dual = makeSystem(SystemPreset::DualCore2Ch);
    const auto quad2 = makeSystem(SystemPreset::QuadCore2Ch);
    const auto quad4 = makeSystem(SystemPreset::QuadCore4Ch);
    EXPECT_EQ(dual.numCores, 2u);
    EXPECT_EQ(quad2.numCores, 4u);
    EXPECT_EQ(quad2.geometry.rowsPerBank, 131072u);
    EXPECT_EQ(quad4.geometry.totalBanks(), 64u);
    EXPECT_EQ(quad4.mapping, MappingPolicy::RowRankBankColChan);
}

TEST(ExperimentDeath, RejectsBadScale)
{
    EXPECT_EXIT(ExperimentRunner(0.0), ::testing::ExitedWithCode(1),
                "scale");
    EXPECT_EXIT(ExperimentRunner(1.5), ::testing::ExitedWithCode(1),
                "scale");
}

} // namespace catsim
