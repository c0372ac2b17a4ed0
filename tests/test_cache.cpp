#include "engine/cache.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace lls {
namespace {

/// Maps every key to shard 0, so capacity and eviction behavior can be
/// exercised deterministically on a single stripe.
struct ZeroHash {
    std::size_t operator()(int) const { return 0; }
};

using OneShardCache = ShardedCache<int, int, ZeroHash>;

TEST(ShardedCache, MissThenHit) {
    OneShardCache cache("test.basic", 8);
    EXPECT_FALSE(cache.get(1).has_value());
    cache.put(1, 10);
    const auto hit = cache.get(1);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(*hit, 10);

    const CacheStatsSnapshot s = cache.stats();
    EXPECT_EQ(s.name, "test.basic");
    EXPECT_EQ(s.misses, 1u);
    EXPECT_EQ(s.hits, 1u);
    EXPECT_EQ(s.entries, 1u);
    EXPECT_EQ(s.evictions, 0u);
}

TEST(ShardedCache, InsertPastCapacityDropsHalfTheShard) {
    constexpr std::size_t kCap = 8;
    OneShardCache cache("test.evict", kCap);
    for (int k = 0; k < static_cast<int>(kCap); ++k) cache.put(k, k);
    EXPECT_EQ(cache.stats().entries, kCap);
    EXPECT_EQ(cache.stats().evictions, 0u);

    // The 9th distinct key trips the bound: the shard drops to half
    // capacity first, then the new key lands on top.
    cache.put(100, 100);
    const CacheStatsSnapshot s = cache.stats();
    EXPECT_EQ(s.entries, kCap / 2 + 1);
    EXPECT_EQ(s.evictions, kCap - kCap / 2);
    // The newly inserted key always survives its own eviction.
    ASSERT_TRUE(cache.get(100).has_value());
    EXPECT_EQ(*cache.get(100), 100);
}

TEST(ShardedCache, OverwriteAtCapacityDoesNotEvict) {
    constexpr std::size_t kCap = 8;
    OneShardCache cache("test.overwrite", kCap);
    for (int k = 0; k < static_cast<int>(kCap); ++k) cache.put(k, k);

    // Re-putting a resident key is an overwrite, not a growth insert.
    cache.put(3, 33);
    const CacheStatsSnapshot s = cache.stats();
    EXPECT_EQ(s.entries, kCap);
    EXPECT_EQ(s.evictions, 0u);
    EXPECT_EQ(*cache.get(3), 33);
}

TEST(ShardedCache, PerShardCapacityBoundHoldsUnderChurn) {
    constexpr std::size_t kCap = 4;
    using IntCache = ShardedCache<int, int>;
    IntCache cache("test.bound", kCap);
    for (int k = 0; k < 1000; ++k) cache.put(k, k);
    // Whatever the hash scatter, no shard may exceed its bound, so the
    // total is capped at kShards * kCap.
    const CacheStatsSnapshot s = cache.stats();
    EXPECT_LE(s.entries, IntCache::kShards * kCap);
    EXPECT_GT(s.evictions, 0u);
}

TEST(ShardedCache, GetOrComputeCachesTheFirstResult) {
    OneShardCache cache("test.memoize", 64);
    int calls = 0;
    const auto compute = [&calls] {
        ++calls;
        return 42;
    };
    EXPECT_EQ(cache.get_or_compute(7, compute), 42);
    EXPECT_EQ(cache.get_or_compute(7, compute), 42);
    EXPECT_EQ(calls, 1);
}

TEST(ShardedCache, ForEachVisitsEveryEntry) {
    ShardedCache<int, int> cache("test.visit", 1024);
    std::set<int> expected;
    for (int k = 0; k < 100; ++k) {
        cache.put(k, k * 2);
        expected.insert(k);
    }
    std::set<int> seen;
    cache.for_each([&](const int& key, const int& value) {
        EXPECT_EQ(value, key * 2);
        EXPECT_TRUE(seen.insert(key).second) << "duplicate visit of " << key;
    });
    EXPECT_EQ(seen, expected);
}

TEST(ShardedCache, StatsSnapshotExactUnderConcurrentInsert) {
    // 8 threads insert disjoint key ranges through get_or_compute with a
    // capacity high enough that nothing evicts: afterwards, entries/misses
    // are exactly the total key count and a second pass hits every key.
    constexpr int kThreads = 8;
    constexpr int kPerThread = 256;
    ShardedCache<int, int> cache("test.concurrent", 4096);

    std::vector<std::thread> workers;
    workers.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        workers.emplace_back([&cache, t] {
            for (int i = 0; i < kPerThread; ++i) {
                const int key = t * kPerThread + i;
                cache.get_or_compute(key, [key] { return key + 1; });
            }
        });
    }
    for (auto& w : workers) w.join();

    const CacheStatsSnapshot after_insert = cache.stats();
    EXPECT_EQ(after_insert.entries, static_cast<std::uint64_t>(kThreads * kPerThread));
    EXPECT_EQ(after_insert.misses, static_cast<std::uint64_t>(kThreads * kPerThread));
    EXPECT_EQ(after_insert.hits, 0u);
    EXPECT_EQ(after_insert.evictions, 0u);

    workers.clear();
    for (int t = 0; t < kThreads; ++t) {
        workers.emplace_back([&cache, t] {
            for (int i = 0; i < kPerThread; ++i) {
                const int key = t * kPerThread + i;
                const auto hit = cache.get(key);
                ASSERT_TRUE(hit.has_value());
                EXPECT_EQ(*hit, key + 1);
            }
        });
    }
    for (auto& w : workers) w.join();

    const CacheStatsSnapshot after_read = cache.stats();
    EXPECT_EQ(after_read.hits, static_cast<std::uint64_t>(kThreads * kPerThread));
    EXPECT_EQ(after_read.misses, after_insert.misses);
}

TEST(ShardedCache, ConcurrentGetOrComputeOnOneKeyStaysConsistent) {
    // Racing computes of the same fresh key may each run (compute happens
    // outside the stripe lock), but the cache must end up with exactly one
    // entry and every later read must return it.
    OneShardCache cache("test.race", 64);
    std::atomic<int> computes{0};
    std::vector<std::thread> workers;
    for (int t = 0; t < 8; ++t) {
        workers.emplace_back([&] {
            for (int i = 0; i < 100; ++i)
                cache.get_or_compute(5, [&] {
                    computes.fetch_add(1, std::memory_order_relaxed);
                    return 55;
                });
        });
    }
    for (auto& w : workers) w.join();

    EXPECT_GE(computes.load(), 1);
    EXPECT_EQ(cache.stats().entries, 1u);
    EXPECT_EQ(*cache.get(5), 55);
}

TEST(ShardedCache, BytesLedgerTracksInsertOverwriteEvictClear) {
    // Default flat sizer: every <int,int> entry costs the same.
    constexpr std::size_t kEntry = sizeof(int) + sizeof(int) + OneShardCache::kEntryOverheadBytes;
    OneShardCache cache("test.bytes", 8);
    EXPECT_EQ(cache.stats().bytes, 0u);
    for (int k = 0; k < 4; ++k) cache.put(k, k);
    EXPECT_EQ(cache.stats().bytes, 4 * kEntry);
    cache.put(2, 22);  // overwrite: same size, ledger unchanged
    EXPECT_EQ(cache.stats().bytes, 4 * kEntry);
    for (int k = 4; k < 9; ++k) cache.put(k, k);  // trips the entry cap at the 9th
    EXPECT_EQ(cache.stats().bytes, cache.stats().entries * kEntry);
    cache.clear();
    EXPECT_EQ(cache.stats().bytes, 0u);
}

TEST(ShardedCache, CustomSizerChargesTheStoredEntry) {
    // The sizer sees the *stored* copy, so a capacity-dependent sizer stays
    // ledger-consistent: what insert adds, erase subtracts.
    using StringCache = ShardedCache<int, std::string, ZeroHash>;
    StringCache cache("test.sizer", 8, [](const int&, const std::string& v) {
        return sizeof(int) + v.capacity() + StringCache::kEntryOverheadBytes;
    });
    cache.put(1, std::string(100, 'x'));
    cache.put(2, std::string(5, 'y'));
    std::size_t expected = 0;
    cache.for_each([&](const int&, const std::string& v) {
        expected += sizeof(int) + v.capacity() + StringCache::kEntryOverheadBytes;
    });
    EXPECT_EQ(cache.stats().bytes, expected);
    // Overwrite with a differently-sized value re-prices the entry.
    cache.put(1, std::string(3, 'z'));
    expected = 0;
    cache.for_each([&](const int&, const std::string& v) {
        expected += sizeof(int) + v.capacity() + StringCache::kEntryOverheadBytes;
    });
    EXPECT_EQ(cache.stats().bytes, expected);
}

}  // namespace
}  // namespace lls
