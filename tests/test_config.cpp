/**
 * @file
 * Tests for the key=value configuration helper.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

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

TEST(ConfigDeath, RejectUnreadNamesTheKey)
{
    const char *argv[] = {"prog", "scheme=pra", "sheme=pra", "scale=0.05"};
    const Config cfg = Config::fromArgs(4, argv);
    EXPECT_EQ(cfg.getString("scheme", ""), "pra");
    EXPECT_DOUBLE_EQ(cfg.getDouble("scale", 0.1), 0.05);
    EXPECT_EQ(cfg.getUint("counters", 64), 64u); // absent keys are fine
    EXPECT_EXIT(cfg.rejectUnread(), ::testing::ExitedWithCode(1),
                "config key 'sheme' is unknown or unused here");
    EXPECT_EQ(cfg.getString("sheme", ""), "pra");
    cfg.rejectUnread(); // every key has now been read
}

TEST(ConfigDeath, RepeatedKeyIsFatalInBothParsers)
{
    // Each parsed token sets its key once: a repeat names the key
    // instead of letting the last value win.
    const char *argv[] = {"prog", "scheme=pra", "scheme=cc", "scale=0.01"};
    EXPECT_EXIT(Config::fromArgs(4, argv), ::testing::ExitedWithCode(1),
                "config key 'scheme' is given more than once");
    EXPECT_EXIT(Config::fromString("scale=0.01 counters=64 counters=64"),
                ::testing::ExitedWithCode(1),
                "config key 'counters' is given more than once");
    // Distinct keys, and an empty value, still parse.
    const Config cfg = Config::fromString("scheme= schemes=cc");
    EXPECT_EQ(cfg.getString("scheme", "x"), "");
    EXPECT_EQ(cfg.getString("schemes", ""), "cc");
}

TEST(ExperimentScale, DefaultsToOne)
{
    // The test environment does not set CATSIM_SCALE (and if it does,
    // the value must be positive).
    EXPECT_GT(experimentScale(), 0.0);
}

namespace
{

/** experimentScale() with CATSIM_SCALE set to @p value; the caller's
 *  own CATSIM_SCALE, if any, is put back afterwards. */
double
scaleWith(const char *value)
{
    const char *outer = std::getenv("CATSIM_SCALE");
    const bool had = outer != nullptr;
    const std::string saved = had ? outer : "";
    ::setenv("CATSIM_SCALE", value, 1);
    const double s = experimentScale();
    if (had)
        ::setenv("CATSIM_SCALE", saved.c_str(), 1);
    else
        ::unsetenv("CATSIM_SCALE");
    return s;
}

} // namespace

TEST(ExperimentScale, ParsesTheWholeValue)
{
    EXPECT_EQ(scaleWith("0.05"), 0.05);
    EXPECT_EQ(scaleWith("1"), 1.0);
    EXPECT_EQ(scaleWith("2e-2"), 0.02);
}

TEST(ExperimentScaleDeath, MalformedValueIsFatal)
{
    for (const char *bad :
         {"abc", "0", "0,05", "0.05x", "2", "-0.1", "", " 0.05", "nan"})
        EXPECT_EXIT(scaleWith(bad), ::testing::ExitedWithCode(1),
                    "CATSIM_SCALE='" + std::string(bad) + "'")
            << "input: '" << bad << "'";
}

} // namespace catsim
