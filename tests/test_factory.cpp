/**
 * @file
 * Tests for scheme construction by name/config.
 */

#include <gtest/gtest.h>

#include "core/counter_cache.hpp"
#include "core/factory.hpp"
#include "core/pra.hpp"
#include "core/sca.hpp"
#include "core/tree_bundle.hpp"

namespace catsim
{

namespace
{

/** The tree parameters of a PRCAT/DRCAT scheme. */
CatTree::Params
treeParams(const MitigationScheme &scheme)
{
    return dynamic_cast<const TreeBundle &>(scheme).tree().params();
}

} // namespace

TEST(Factory, ParsesNames)
{
    EXPECT_EQ(parseSchemeKind("none"), SchemeKind::None);
    EXPECT_EQ(parseSchemeKind("SCA"), SchemeKind::Sca);
    EXPECT_EQ(parseSchemeKind("pra"), SchemeKind::Pra);
    EXPECT_EQ(parseSchemeKind("PrCat"), SchemeKind::Prcat);
    EXPECT_EQ(parseSchemeKind("drcat"), SchemeKind::Drcat);
    EXPECT_EQ(parseSchemeKind("cc"), SchemeKind::CounterCache);
    EXPECT_EQ(parseSchemeKind("countercache"),
              SchemeKind::CounterCache);
}

TEST(FactoryDeath, UnknownName)
{
    EXPECT_EXIT(parseSchemeKind("rowpress"),
                ::testing::ExitedWithCode(1), "unknown scheme");
}

TEST(Factory, BuildsEveryKind)
{
    SchemeConfig cfg;
    cfg.numCounters = 64;
    cfg.maxLevels = 11;
    cfg.threshold = 32768;

    cfg.kind = SchemeKind::None;
    EXPECT_EQ(makeScheme(cfg, 65536), nullptr);

    cfg.kind = SchemeKind::Sca;
    const auto sca = makeScheme(cfg, 65536);
    EXPECT_EQ(dynamic_cast<const Sca &>(*sca).numCounters(), 64u);

    cfg.kind = SchemeKind::Pra;
    cfg.praProbability = 0.002;
    const auto pra = makeScheme(cfg, 65536);
    EXPECT_EQ(dynamic_cast<const Pra &>(*pra).probability(), 0.002);

    cfg.kind = SchemeKind::Prcat;
    const CatTree::Params prcat = treeParams(*makeScheme(cfg, 65536));
    EXPECT_EQ(prcat.numCounters, 64u);
    EXPECT_FALSE(prcat.enableWeights);

    cfg.kind = SchemeKind::Drcat;
    const CatTree::Params drcat = treeParams(*makeScheme(cfg, 65536));
    EXPECT_EQ(drcat.numCounters, 64u);
    EXPECT_TRUE(drcat.enableWeights);

    cfg.kind = SchemeKind::CounterCache;
    cfg.numCounters = 2048;
    const auto cc = makeScheme(cfg, 65536);
    EXPECT_EQ(dynamic_cast<const CounterCache &>(*cc).capacity(), 2048u);
}

TEST(Factory, CustomSplitScheduleReachesTree)
{
    // SchemeConfig::splitThresholds must flow through to the CAT: an
    // all-100 schedule splits the hot group on the 101st activation
    // instead of at the Section IV-D threshold.
    SchemeConfig cfg;
    cfg.kind = SchemeKind::Prcat;
    cfg.numCounters = 64;
    cfg.maxLevels = 11;
    cfg.threshold = 32768;
    cfg.splitThresholds.assign(11, 100);
    cfg.splitThresholds.back() = cfg.threshold;
    auto scheme = makeScheme(cfg, 65536);
    auto *prcat = dynamic_cast<TreeBundle *>(scheme.get());
    ASSERT_NE(prcat, nullptr);
    for (int i = 0; i < 100; ++i)
        scheme->onActivate(42);
    EXPECT_EQ(prcat->tree().leafDepth(42), 5u);
    scheme->onActivate(42);
    EXPECT_EQ(prcat->tree().leafDepth(42), 6u);
    EXPECT_TRUE(prcat->tree().checkInvariants());
}

TEST(Factory, LabelsMatchSchemes)
{
    SchemeConfig cfg;
    cfg.kind = SchemeKind::Drcat;
    cfg.numCounters = 128;
    EXPECT_EQ(cfg.label(), "DRCAT_128");
    cfg.kind = SchemeKind::None;
    EXPECT_EQ(cfg.label(), "none");
    cfg.kind = SchemeKind::Pra;
    cfg.praProbability = 0.003;
    EXPECT_EQ(cfg.label(), "PRA_0.003");
}

TEST(Factory, ExtensionAxisLabels)
{
    SchemeConfig cfg;
    cfg.kind = SchemeKind::CounterCache;
    cfg.numCounters = 2048;
    EXPECT_EQ(cfg.label(), "CC_2048"); // the default policy is omitted
    cfg.evictionPolicy = EvictionPolicyKind::Lfu;
    EXPECT_EQ(cfg.label(), "CC_2048_lfu");
    // banksPerPool only marks CAT labels.
    cfg.banksPerPool = 8;
    EXPECT_EQ(cfg.label(), "CC_2048_lfu");
    cfg.kind = SchemeKind::Drcat;
    cfg.numCounters = 64;
    EXPECT_EQ(cfg.label(), "DRCAT_64_rank8");
    cfg.banksPerPool = 1;
    EXPECT_EQ(cfg.label(), "DRCAT_64");
}

TEST(Factory, NonPow2CountersBuildAndRun)
{
    SchemeConfig cfg;
    cfg.kind = SchemeKind::Drcat;
    cfg.numCounters = 63;
    cfg.maxLevels = 11;
    cfg.threshold = 4096;
    auto scheme = makeScheme(cfg, 65536);
    EXPECT_EQ(treeParams(*scheme).numCounters, 63u);
    EXPECT_TRUE(treeParams(*scheme).enableWeights);
    for (int i = 0; i < 10000; ++i)
        scheme->onActivate(static_cast<RowAddr>(i % 100));
    EXPECT_EQ(scheme->stats().activations, 10000u);
}

TEST(FactoryDeath, SingleInstanceCannotSharePool)
{
    SchemeConfig cfg;
    cfg.kind = SchemeKind::Prcat;
    cfg.banksPerPool = 8;
    EXPECT_EXIT(makeScheme(cfg, 65536), ::testing::ExitedWithCode(1),
                "makeBankSchemes");
}

TEST(FactoryDeath, MisalignedPoolGroupIsFatal)
{
    // A first_bank inside a pool group would split a SharedCounterPool.
    SchemeConfig cfg;
    cfg.kind = SchemeKind::Prcat;
    cfg.numCounters = 16;
    cfg.maxLevels = 11;
    cfg.threshold = 2048;
    cfg.banksPerPool = 8;
    EXPECT_EXIT(makeBankSchemes(cfg, 65536, 8, 4),
                ::testing::ExitedWithCode(1), "splits a banksPerPool");
}

TEST(Factory, BankSchemesMatchPerBankConstruction)
{
    // makeBankSchemes must reproduce the historical per-bank loop:
    // same seed derivation, same instances (PRA decisions included).
    SchemeConfig cfg;
    cfg.kind = SchemeKind::Pra;
    cfg.praProbability = 0.05;
    cfg.seed = 9;
    auto banks = makeBankSchemes(cfg, 65536, 3);
    ASSERT_EQ(banks.size(), 3u);
    for (std::uint32_t b = 0; b < 3; ++b) {
        SchemeConfig one = cfg;
        one.seed = cfg.seed * 1000003ULL + b;
        auto lone = makeScheme(one, 65536);
        for (int i = 0; i < 2000; ++i) {
            ASSERT_EQ(banks[b]->onActivate(7).triggered(),
                      lone->onActivate(7).triggered())
                << "bank " << b << " access " << i;
        }
    }
}

TEST(Factory, LfsrPraOption)
{
    SchemeConfig cfg;
    cfg.kind = SchemeKind::Pra;
    cfg.praProbability = 0.01;
    cfg.lfsrPrng = true;
    auto scheme = makeScheme(cfg, 65536);
    // Behaviourally identical interface; just ensure it runs.
    for (int i = 0; i < 1000; ++i)
        scheme->onActivate(42);
    EXPECT_EQ(scheme->stats().activations, 1000u);
}

TEST(Factory, PerBankSeedsDecorrelatePra)
{
    SchemeConfig a;
    a.kind = SchemeKind::Pra;
    a.praProbability = 0.05;
    a.seed = 1;
    SchemeConfig b = a;
    b.seed = 2;
    auto sa = makeScheme(a, 65536);
    auto sb = makeScheme(b, 65536);
    int same = 0;
    const int n = 2000;
    for (int i = 0; i < n; ++i) {
        same += sa->onActivate(7).triggered()
                == sb->onActivate(7).triggered();
    }
    EXPECT_LT(same, n); // different seeds, different decisions
}

} // namespace catsim
