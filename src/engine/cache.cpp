#include "engine/cache.hpp"

#include <map>

namespace lls {

namespace {

/// Global registry of cache stats providers, keyed by registration id (so
/// iteration follows registration order). A cache unregisters in its
/// destructor, and snapshots call the providers under the same mutex, so a
/// provider can never run against a destroyed cache.
struct CacheRegistry {
    std::mutex mutex;
    std::uint64_t next_id = 0;
    std::map<std::uint64_t, std::function<CacheStatsSnapshot()>> providers;
};

CacheRegistry& registry() {
    static CacheRegistry instance;
    return instance;
}

}  // namespace

namespace detail {

std::uint64_t register_cache(std::function<CacheStatsSnapshot()> provider) {
    auto& reg = registry();
    std::lock_guard<std::mutex> lock(reg.mutex);
    const std::uint64_t id = reg.next_id++;
    reg.providers.emplace(id, std::move(provider));
    return id;
}

void unregister_cache(std::uint64_t id) {
    auto& reg = registry();
    std::lock_guard<std::mutex> lock(reg.mutex);
    reg.providers.erase(id);
}

}  // namespace detail

std::vector<CacheStatsSnapshot> all_cache_stats() {
    auto& reg = registry();
    std::lock_guard<std::mutex> lock(reg.mutex);
    std::vector<CacheStatsSnapshot> stats;
    stats.reserve(reg.providers.size());
    for (const auto& [id, provider] : reg.providers) stats.push_back(provider());
    return stats;
}

std::string npn_cache_key(const TruthTable& canonical, int extra) {
    std::string key = std::to_string(canonical.num_vars());
    key += ':';
    key += canonical.to_hex();
    if (extra != 0) {
        key += ':';
        key += std::to_string(extra);
    }
    return key;
}

ShardedCache<std::pair<std::uint64_t, std::uint64_t>, bool, U64PairHash>& cec_memo() {
    static ShardedCache<std::pair<std::uint64_t, std::uint64_t>, bool, U64PairHash> instance(
        "cec_memo", /*max_entries_per_shard=*/8192);
    return instance;
}

}  // namespace lls
