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

namespace
{

/** The disturbance grid's schemes (fig14/fig16) at T = 32K, in the
 *  column order of kPinnedDisturbance. */
std::vector<SchemeConfig>
disturbanceSchemes()
{
    SchemeConfig rfm = scheme(SchemeKind::Rfm);
    rfm.rfmBudget = 64;
    return {scheme(SchemeKind::CounterCache, 2048),
            scheme(SchemeKind::Prcat),
            scheme(SchemeKind::Drcat),
            scheme(SchemeKind::Pra),
            scheme(SchemeKind::MisraGries, 512),
            rfm};
}

/** One row of evalAdaptiveDisturbance results (kernel 1, Medium). */
struct PinnedDisturbance
{
    AttackerKind attacker;
    std::uint64_t epochs;
    double values[6]; //!< CC_2048 PRCAT_64 DRCAT_64 PRA MG_512 RFM_64
};

/**
 * Recorded at kTestScale with the hand-rolled ledger loop that
 * predates the ledger's move onto replaySources.  One epoch pins the
 * count and reset rule; two epochs also pin the epoch reset, which
 * one epoch cannot see.
 */
const PinnedDisturbance kPinnedDisturbance[] = {
    {AttackerKind::Static, 1,
     {1, 1.001526717557252, 1.001526717557252, 5.0183206106870228, 1,
      0.70687022900763363}},
    {AttackerKind::RefreshAware, 1,
     {1, 0.99694656488549616, 0.99694656488549616, 4.1480916030534347,
      1, 0.6824427480916031}},
    {AttackerKind::HalfDouble, 1,
     {1, 1, 1, 2.5099236641221374, 1, 0.71603053435114505}},
    {AttackerKind::CloudMix, 1,
     {0.88854961832061063, 0.42748091603053434, 0.42748091603053434,
      0.88854961832061063, 0.88854961832061063, 0.73740458015267174}},
    {AttackerKind::Static, 2,
     {1, 1.001526717557252, 1.001526717557252, 5.0183206106870228, 1,
      0.88854961832061063}},
    {AttackerKind::RefreshAware, 2,
     {1, 0.99694656488549616, 0.99694656488549616, 4.3251908396946561,
      1, 1.0305343511450382}},
    {AttackerKind::HalfDouble, 2,
     {1, 1, 1, 2.5648854961832059, 1, 0.8442748091603054}},
    {AttackerKind::CloudMix, 2,
     {0.9007633587786259, 0.67938931297709926, 0.67938931297709926,
      0.88854961832061063, 0.9007633587786259, 0.73740458015267174}},
};

} // namespace

TEST(ExperimentRunner, DisturbancePinned)
{
    const std::vector<SchemeConfig> schemes = disturbanceSchemes();
    ExperimentRunner runner(kTestScale);
    for (const PinnedDisturbance &pin : kPinnedDisturbance) {
        AdaptiveAttackSpec attack;
        attack.attacker = pin.attacker;
        attack.kernel = 1;
        attack.epochs = pin.epochs;
        attack.targetsPerBank =
            pin.attacker == AttackerKind::HalfDouble ? 8 : 4;
        for (std::size_t k = 0; k < schemes.size(); ++k)
            EXPECT_EQ(runner.evalAdaptiveDisturbance(
                          SystemPreset::DualCore2Ch, attack, schemes[k]),
                      pin.values[k])
                << attackerKindName(pin.attacker) << " epochs "
                << pin.epochs << " " << schemes[k].label();
    }
}

TEST(ExperimentRunnerDeath, DisturbanceRejectsSharedPool)
{
    ExperimentRunner runner(kListScale);
    SchemeConfig cfg = scheme(SchemeKind::Drcat);
    cfg.banksPerPool = 8;
    AdaptiveAttackSpec attack;
    attack.epochs = 1;
    EXPECT_EXIT(runner.evalAdaptiveDisturbance(SystemPreset::DualCore2Ch,
                                               attack, cfg),
                ::testing::ExitedWithCode(1), "banksPerPool=8");
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
