#include "sim/cache.hh"

#include <algorithm>

#include <gtest/gtest.h>

#include "stats/rng.hh"
#include "support/error.hh"

namespace ttmcas {
namespace {

CacheConfig
smallConfig(ReplacementPolicy policy = ReplacementPolicy::Lru)
{
    CacheConfig config;
    config.size_bytes = 1024;
    config.line_bytes = 64;
    config.associativity = 4;
    config.policy = policy;
    return config;
}

TEST(CacheConfigTest, GeometryDerivation)
{
    const CacheConfig config = smallConfig();
    EXPECT_EQ(config.numSets(), 4u);
    EXPECT_NO_THROW(config.validate());
}

TEST(CacheConfigTest, ValidationCatchesBadGeometry)
{
    CacheConfig config = smallConfig();
    config.line_bytes = 48; // not a power of two
    EXPECT_THROW(config.validate(), ModelError);

    config = smallConfig();
    config.associativity = 0;
    EXPECT_THROW(config.validate(), ModelError);

    config = smallConfig();
    config.size_bytes = 96; // smaller than one set
    EXPECT_THROW(config.validate(), ModelError);

    config = smallConfig();
    config.size_bytes = 1024 + 256; // 5 sets: not a power of two
    EXPECT_THROW(config.validate(), ModelError);

    config = smallConfig(ReplacementPolicy::TreePlru);
    config.associativity = 3;
    config.size_bytes = 64 * 3 * 4;
    EXPECT_THROW(config.validate(), ModelError);
}

TEST(CacheTest, ColdMissThenHit)
{
    Cache cache(smallConfig());
    EXPECT_FALSE(cache.access(0x1000));
    EXPECT_TRUE(cache.access(0x1000));
    EXPECT_TRUE(cache.access(0x1008)); // same line
    EXPECT_EQ(cache.stats().accesses, 3u);
    EXPECT_EQ(cache.stats().hits, 2u);
    EXPECT_EQ(cache.stats().misses(), 1u);
}

TEST(CacheTest, ContainsDoesNotPerturbState)
{
    Cache cache(smallConfig());
    cache.access(0x2000);
    const CacheStats before = cache.stats();
    EXPECT_TRUE(cache.contains(0x2000));
    EXPECT_FALSE(cache.contains(0x9000));
    EXPECT_EQ(cache.stats().accesses, before.accesses);
}

TEST(CacheTest, LruEvictsLeastRecentlyUsed)
{
    // 4-way set: fill one set with 4 lines, touch the first again, then
    // insert a fifth line; the second line must be the victim.
    Cache cache(smallConfig(ReplacementPolicy::Lru));
    const std::uint64_t set_stride = 64 * 4; // lines mapping to set 0
    cache.access(0 * set_stride);
    cache.access(1 * set_stride);
    cache.access(2 * set_stride);
    cache.access(3 * set_stride);
    cache.access(0 * set_stride);  // refresh line 0
    cache.access(4 * set_stride);  // evicts line 1
    EXPECT_TRUE(cache.contains(0 * set_stride));
    EXPECT_FALSE(cache.contains(1 * set_stride));
    EXPECT_TRUE(cache.contains(2 * set_stride));
}

TEST(CacheTest, FifoIgnoresReuse)
{
    Cache cache(smallConfig(ReplacementPolicy::Fifo));
    const std::uint64_t set_stride = 64 * 4;
    cache.access(0 * set_stride);
    cache.access(1 * set_stride);
    cache.access(2 * set_stride);
    cache.access(3 * set_stride);
    cache.access(0 * set_stride); // hit; FIFO order unchanged
    cache.access(4 * set_stride); // evicts line 0 (oldest insert)
    EXPECT_FALSE(cache.contains(0 * set_stride));
    EXPECT_TRUE(cache.contains(1 * set_stride));
}

TEST(CacheTest, TreePlruProtectsMostRecentlyUsed)
{
    Cache cache(smallConfig(ReplacementPolicy::TreePlru));
    const std::uint64_t set_stride = 64 * 4;
    for (std::uint64_t i = 0; i < 4; ++i)
        cache.access(i * set_stride);
    cache.access(3 * set_stride); // MRU = line 3
    cache.access(4 * set_stride); // must not evict line 3
    EXPECT_TRUE(cache.contains(3 * set_stride));
}

TEST(CacheTest, RandomPolicyStillCachesWorkingSet)
{
    Cache cache(smallConfig(ReplacementPolicy::Random));
    // Working set smaller than capacity: after warm-up everything hits.
    for (int pass = 0; pass < 3; ++pass) {
        for (std::uint64_t address = 0; address < 512; address += 64)
            cache.access(address);
    }
    Cache& warm = cache;
    const std::uint64_t hits_before = warm.stats().hits;
    for (std::uint64_t address = 0; address < 512; address += 64)
        warm.access(address);
    EXPECT_EQ(warm.stats().hits - hits_before, 8u);
}

TEST(CacheTest, WorkingSetBeyondCapacityMisses)
{
    Cache cache(smallConfig());
    // Stream over 64 KiB with no reuse: every line access misses.
    for (std::uint64_t address = 0; address < 64 * 1024; address += 64)
        cache.access(address);
    EXPECT_DOUBLE_EQ(cache.stats().missRate(), 1.0);
}

TEST(CacheTest, BiggerCacheNeverWorseOnLoop)
{
    const auto miss_rate = [](std::uint64_t size) {
        CacheConfig config;
        config.size_bytes = size;
        config.line_bytes = 64;
        config.associativity = 4;
        Cache cache(config);
        double last = 0.0;
        for (int pass = 0; pass < 8; ++pass) {
            for (std::uint64_t a = 0; a < 8 * 1024; a += 8)
                cache.access(a);
        }
        last = cache.stats().missRate();
        return last;
    };
    EXPECT_GE(miss_rate(1024), miss_rate(4 * 1024));
    EXPECT_GE(miss_rate(4 * 1024), miss_rate(16 * 1024));
    // Once the loop fits, only cold misses remain.
    EXPECT_LT(miss_rate(16 * 1024), 0.02);
}

TEST(CacheTest, ResetClearsEverything)
{
    Cache cache(smallConfig());
    cache.access(0x1000);
    cache.access(0x1000);
    cache.reset();
    EXPECT_EQ(cache.stats().accesses, 0u);
    EXPECT_FALSE(cache.contains(0x1000));
    EXPECT_FALSE(cache.access(0x1000)); // cold again
}

TEST(CacheTest, ResetReplaysLikeAFreshCache)
{
    // A working set 4x the capacity keeps evicting, so every Random
    // victim choice shows in the hit count.
    Rng rng(7);
    std::vector<std::uint64_t> trace;
    for (int i = 0; i < 4000; ++i)
        trace.push_back(rng.uniformInt(64) * 64);

    for (ReplacementPolicy policy :
         {ReplacementPolicy::Lru, ReplacementPolicy::Fifo,
          ReplacementPolicy::Random, ReplacementPolicy::TreePlru}) {
        Cache fresh(smallConfig(policy), 99);
        fresh.run(trace);

        Cache reused(smallConfig(policy), 99);
        reused.run(trace);
        reused.reset();
        reused.run(trace);
        EXPECT_EQ(reused.stats().hits, fresh.stats().hits)
            << replacementPolicyName(policy);
        EXPECT_EQ(reused.stats().accesses, fresh.stats().accesses);
    }
}

TEST(CacheTest, RunReturnsTraceMissRate)
{
    Cache cache(smallConfig());
    const std::vector<std::uint64_t> trace{0, 0, 64, 64, 128};
    const double miss_rate = cache.run(trace);
    EXPECT_DOUBLE_EQ(miss_rate, 3.0 / 5.0);
}

TEST(CachePrefetchTest, NextLinePrefetchHalvesStreamingMisses)
{
    CacheConfig plain = smallConfig();
    CacheConfig prefetching = smallConfig();
    prefetching.next_line_prefetch = true;

    Cache no_prefetch(plain);
    Cache with_prefetch(prefetching);
    // Pure streaming at line granularity: every access misses without
    // prefetch; with next-line prefetch every other access hits.
    for (std::uint64_t address = 0; address < 256 * 1024; address += 64) {
        no_prefetch.access(address);
        with_prefetch.access(address);
    }
    EXPECT_DOUBLE_EQ(no_prefetch.stats().missRate(), 1.0);
    EXPECT_NEAR(with_prefetch.stats().missRate(), 0.5, 0.01);
}

TEST(CachePrefetchTest, PrefetchDoesNotInflateAccessCounts)
{
    CacheConfig prefetching = smallConfig();
    prefetching.next_line_prefetch = true;
    Cache cache(prefetching);
    for (int i = 0; i < 100; ++i)
        cache.access(static_cast<std::uint64_t>(i) * 64);
    EXPECT_EQ(cache.stats().accesses, 100u);
}

TEST(CachePrefetchTest, PrefetchCanHurtRandomWorkloads)
{
    // Random accesses gain nothing from next-line lines but suffer the
    // pollution: the prefetching cache must not do meaningfully better.
    CacheConfig plain = smallConfig();
    CacheConfig prefetching = smallConfig();
    prefetching.next_line_prefetch = true;
    Cache no_prefetch(plain);
    Cache with_prefetch(prefetching);
    Rng rng(1);
    for (int i = 0; i < 20000; ++i) {
        const std::uint64_t address = rng.uniformInt(1 << 20);
        no_prefetch.access(address);
        with_prefetch.access(address);
    }
    EXPECT_GE(with_prefetch.stats().missRate(),
              no_prefetch.stats().missRate() - 0.02);
}

TEST(CacheStatsTest, EmptyStatsAreZero)
{
    const CacheStats stats;
    EXPECT_DOUBLE_EQ(stats.missRate(), 0.0);
    EXPECT_DOUBLE_EQ(stats.hitRate(), 1.0);
}

TEST(ReplacementPolicyTest, NamesAreStable)
{
    EXPECT_EQ(replacementPolicyName(ReplacementPolicy::Lru), "lru");
    EXPECT_EQ(replacementPolicyName(ReplacementPolicy::Fifo), "fifo");
    EXPECT_EQ(replacementPolicyName(ReplacementPolicy::Random), "random");
    EXPECT_EQ(replacementPolicyName(ReplacementPolicy::TreePlru),
              "tree-plru");
}

/** Property sweep: all policies behave sanely across geometries. */
class CachePolicyTest
    : public ::testing::TestWithParam<ReplacementPolicy>
{};

TEST_P(CachePolicyTest, HitRateHighOnceWorkingSetFits)
{
    CacheConfig config;
    config.size_bytes = 16 * 1024;
    config.line_bytes = 64;
    config.associativity = 4;
    config.policy = GetParam();
    Cache cache(config);
    for (int pass = 0; pass < 10; ++pass) {
        for (std::uint64_t a = 0; a < 8 * 1024; a += 8)
            cache.access(a);
    }
    EXPECT_GT(cache.stats().hitRate(), 0.95)
        << replacementPolicyName(GetParam());
}

TEST_P(CachePolicyTest, NeverReportsMoreHitsThanAccesses)
{
    CacheConfig config;
    config.size_bytes = 2048;
    config.line_bytes = 64;
    config.associativity = 2;
    config.policy = GetParam();
    Cache cache(config);
    Rng rng(1);
    for (int i = 0; i < 5000; ++i)
        cache.access(rng.uniformInt(1 << 16));
    EXPECT_LE(cache.stats().hits, cache.stats().accesses);
    EXPECT_EQ(cache.stats().accesses, 5000u);
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, CachePolicyTest,
    ::testing::Values(ReplacementPolicy::Lru, ReplacementPolicy::Fifo,
                      ReplacementPolicy::Random,
                      ReplacementPolicy::TreePlru),
    [](const ::testing::TestParamInfo<ReplacementPolicy>& info) {
        std::string name = replacementPolicyName(info.param);
        name.erase(std::remove(name.begin(), name.end(), '-'),
                   name.end());
        return name;
    });

} // namespace
} // namespace ttmcas
