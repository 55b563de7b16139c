/**
 * @file
 * Tests for the counter-cache baseline (Kim et al., CAL 2015).
 */

#include <gtest/gtest.h>

#include <vector>

#include "core/counter_cache.hpp"

namespace catsim
{

TEST(CounterCache, ExactTwoVictims)
{
    CounterCache cc(65536, 2048, 8, 64);
    RefreshAction act;
    for (int i = 0; i < 64; ++i)
        act = cc.onActivate(1000);
    ASSERT_TRUE(act.triggered());
    EXPECT_EQ(act.lo, 999u);
    EXPECT_EQ(act.hi, 1001u);
    EXPECT_EQ(act.rowCount, 2u);
}

TEST(CounterCache, ThresholdExactPerRow)
{
    CounterCache cc(65536, 2048, 8, 64);
    // 63 accesses to one row plus 63 to another: no refresh, because
    // counting is per row (unlike SCA's shared group counters).
    for (int i = 0; i < 63; ++i) {
        ASSERT_FALSE(cc.onActivate(10).triggered());
        ASSERT_FALSE(cc.onActivate(20).triggered());
    }
    EXPECT_TRUE(cc.onActivate(10).triggered());
}

TEST(CounterCache, HitsAndMisses)
{
    CounterCache cc(65536, 64, 4, 1000);
    cc.onActivate(1);
    cc.onActivate(1);
    cc.onActivate(1);
    EXPECT_EQ(cc.misses(), 1u);
    EXPECT_EQ(cc.hits(), 2u);
}

TEST(CounterCache, CapacityMissesGenerateDramTraffic)
{
    CounterCache cc(65536, 64, 4, 100000);
    // Touch far more rows than the cache holds.
    for (RowAddr r = 0; r < 1024; ++r)
        cc.onActivate(r);
    // Second sweep: everything was evicted.
    for (RowAddr r = 0; r < 1024; ++r)
        cc.onActivate(r);
    const auto &st = cc.stats();
    EXPECT_EQ(st.counterDramReads, 2048u);
    EXPECT_GT(st.counterDramWrites, 0u);
    EXPECT_EQ(cc.hits(), 0u);
}

TEST(CounterCache, LruKeepsHotRow)
{
    CounterCache cc(65536, 64, 4, 100000);
    // Row 0 stays hot while conflicting rows stream through its set.
    // Sets = 16, so rows 0, 16, 32, ... collide.
    for (int round = 0; round < 10; ++round) {
        cc.onActivate(0);
        cc.onActivate(16 * (round % 3 + 1));
    }
    // Row 0 should have stayed cached after the first miss.
    EXPECT_GE(cc.hits(), 9u);
}

TEST(CounterCache, CounterSurvivesEviction)
{
    CounterCache cc(65536, 64, 4, 10);
    for (int i = 0; i < 9; ++i)
        cc.onActivate(0);
    // Evict row 0's counter by streaming the set, then return.
    for (int k = 1; k <= 8; ++k)
        cc.onActivate(static_cast<RowAddr>(16 * k));
    // The 10th access must still trigger: backing storage kept 9.
    EXPECT_TRUE(cc.onActivate(0).triggered());
}

TEST(CounterCache, EpochResetsBacking)
{
    CounterCache cc(65536, 64, 4, 10);
    for (int i = 0; i < 9; ++i)
        cc.onActivate(0);
    cc.onEpoch();
    for (int i = 0; i < 9; ++i)
        ASSERT_FALSE(cc.onActivate(0).triggered());
    EXPECT_TRUE(cc.onActivate(0).triggered());
}

TEST(CounterCache, Capacity)
{
    CounterCache cc(65536, 2048, 8, 32768);
    EXPECT_EQ(cc.capacity(), 2048u);
}

TEST(CounterCacheDeath, RejectsBadWays)
{
    EXPECT_EXIT(CounterCache(65536, 100, 8, 32768),
                ::testing::ExitedWithCode(1), "multiple of ways");
}

TEST(CounterCacheDeath, RowOutOfRangePanics)
{
    // backing_ has one counter per row; the row past the last one must
    // stop the run instead of writing past the array.
    CounterCache cc(65536, 2048, 8, 64);
    cc.onActivate(65535);
    EXPECT_DEATH(cc.onActivate(65536), "row 65536 out of range");
    const std::vector<RowAddr> rows{3, 65536 + 9};
    EXPECT_DEATH(cc.onActivateBatch(rows.data(), rows.size()),
                 "row 65545 out of range");
}

namespace
{

/** A 4-way cache whose sets alias rows 16 apart (sets = 16). */
CounterCache
makeCacheWith(EvictionPolicyKind kind, std::uint64_t seed = 7)
{
    return CounterCache(65536, 64, 4, 100000,
                        makeEvictionPolicy(kind, seed));
}

} // namespace

TEST(CounterCacheEviction, ParseAndNames)
{
    EXPECT_EQ(parseEvictionPolicy("LRU"), EvictionPolicyKind::Lru);
    EXPECT_EQ(parseEvictionPolicy("lfu"), EvictionPolicyKind::Lfu);
    EXPECT_EQ(parseEvictionPolicy("Random"),
              EvictionPolicyKind::Random);
    EXPECT_STREQ(evictionPolicyName(EvictionPolicyKind::Lfu), "lfu");
}

TEST(CounterCacheEviction, ParseDeathOnUnknown)
{
    for (const char *name : {"plru", "legacy", "default"})
        EXPECT_EXIT(parseEvictionPolicy(name),
                    ::testing::ExitedWithCode(1), "eviction policy")
            << name;
}

TEST(CounterCacheEviction, DefaultIsLru)
{
    // A cache built without a policy evicts as LRU does on a conflict
    // stream that overflows its sets.
    CounterCache byDefault(65536, 64, 4, 100000);
    CounterCache lru = makeCacheWith(EvictionPolicyKind::Lru);
    for (int round = 0; round < 200; ++round) {
        const RowAddr row =
            static_cast<RowAddr>(16 * ((round * 7) % 9));
        byDefault.onActivate(row);
        lru.onActivate(row);
    }
    EXPECT_EQ(byDefault.hits(), lru.hits());
    EXPECT_EQ(byDefault.misses(), lru.misses());
    EXPECT_EQ(byDefault.stats(), lru.stats());
    EXPECT_GT(lru.misses(), 9u) << "the stream must evict";
}

TEST(CounterCacheEviction, LfuKeepsFrequentRowLruEvictsIt)
{
    // Row 0 is touched often early, then 4 fresher conflicting rows
    // stream through the set.  LFU shields the frequent row; LRU
    // evicts it (it is the least recent once the streamers arrive).
    auto drive = [](CounterCache &cc) {
        for (int i = 0; i < 8; ++i)
            cc.onActivate(0);
        for (RowAddr r = 16; r <= 64; r += 16)
            cc.onActivate(r);
        const Count missesBefore = cc.misses();
        cc.onActivate(0);
        return cc.misses() - missesBefore;
    };
    CounterCache lfu = makeCacheWith(EvictionPolicyKind::Lfu);
    EXPECT_EQ(drive(lfu), 0u) << "LFU evicted the frequent row";
    CounterCache lru = makeCacheWith(EvictionPolicyKind::Lru);
    EXPECT_EQ(drive(lru), 1u) << "LRU kept the stale frequent row";
}

TEST(CounterCacheEviction, RandomIsDeterministicPerSeedAndCountsBits)
{
    auto drive = [](CounterCache &cc) {
        for (int i = 0; i < 400; ++i)
            cc.onActivate(static_cast<RowAddr>(16 * (i % 7)));
        return cc.hits();
    };
    CounterCache a = makeCacheWith(EvictionPolicyKind::Random, 99);
    CounterCache b = makeCacheWith(EvictionPolicyKind::Random, 99);
    EXPECT_EQ(drive(a), drive(b));
    // Conflict misses beyond the fills must have drawn PRNG bits, and
    // those bits are charged to the scheme stats (energy model input).
    EXPECT_GT(a.policy().prngBits(), 0u);
    EXPECT_EQ(a.stats().prngBits, a.policy().prngBits());
}

TEST(CounterCacheEviction, PoliciesStillRefreshExactly)
{
    // Whatever the policy, counting stays exact: threshold T on one
    // row refreshes exactly its two neighbors.
    for (EvictionPolicyKind kind :
         {EvictionPolicyKind::Lru, EvictionPolicyKind::Lfu,
          EvictionPolicyKind::Random}) {
        CounterCache cc(65536, 2048, 8, 64,
                        makeEvictionPolicy(kind, 3));
        RefreshAction act;
        for (int i = 0; i < 64; ++i)
            act = cc.onActivate(1000);
        ASSERT_TRUE(act.triggered());
        EXPECT_EQ(act.lo, 999u);
        EXPECT_EQ(act.hi, 1001u);
        EXPECT_EQ(act.rowCount, 2u);
    }
}

} // namespace catsim
