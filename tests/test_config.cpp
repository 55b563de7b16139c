/**
 * @file
 * Tests for the key=value configuration helper.
 */

#include <gtest/gtest.h>

#include "common/config.hpp"

namespace catsim
{

TEST(Config, FromArgs)
{
    const char *argv[] = {"prog", "counters=64", "scheme=drcat",
                          "p=0.002"};
    Config cfg = Config::fromArgs(4, argv);
    EXPECT_EQ(cfg.getUint("counters", 0), 64u);
    EXPECT_EQ(cfg.getString("scheme", ""), "drcat");
    EXPECT_DOUBLE_EQ(cfg.getDouble("p", 0.0), 0.002);
}

TEST(Config, Defaults)
{
    Config cfg;
    EXPECT_EQ(cfg.getInt("missing", -3), -3);
    EXPECT_EQ(cfg.getString("missing", "x"), "x");
    EXPECT_TRUE(cfg.getBool("missing", true));
    EXPECT_FALSE(cfg.has("missing"));
}

TEST(Config, BoolParsing)
{
    Config cfg;
    cfg.set("a", "true");
    cfg.set("b", "0");
    cfg.set("c", "yes");
    cfg.set("d", "off");
    EXPECT_TRUE(cfg.getBool("a", false));
    EXPECT_FALSE(cfg.getBool("b", true));
    EXPECT_TRUE(cfg.getBool("c", false));
    EXPECT_FALSE(cfg.getBool("d", true));
}

TEST(Config, SetOverrides)
{
    Config cfg;
    cfg.set("k", "1");
    cfg.set("k", "2");
    EXPECT_EQ(cfg.getInt("k", 0), 2);
}

TEST(Config, KeysSorted)
{
    Config cfg;
    cfg.set("b", "1");
    cfg.set("a", "2");
    const auto keys = cfg.keys();
    ASSERT_EQ(keys.size(), 2u);
    EXPECT_EQ(keys[0], "a");
    EXPECT_EQ(keys[1], "b");
}

TEST(ExperimentScale, DefaultsToOne)
{
    // The test environment does not set CATSIM_SCALE (and if it does,
    // the value must be positive).
    EXPECT_GT(experimentScale(), 0.0);
}

} // namespace catsim
