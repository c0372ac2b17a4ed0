#include "engine/metrics.hpp"

#include <deque>
#include <mutex>
#include <tuple>

#include "common/json.hpp"
#include "engine/cache.hpp"

namespace lls {

/// Entries live in deques so handles returned to callers stay stable while
/// new names are registered.
struct Metrics::Impl {
    mutable std::mutex mutex;
    std::deque<std::pair<std::string, MetricCounter>> counters;
    std::deque<std::pair<std::string, MetricTimer>> timers;
};

Metrics::Impl& Metrics::impl() const {
    static Impl instance;
    return instance;
}

Metrics& Metrics::global() {
    static Metrics instance;
    return instance;
}

MetricCounter& Metrics::counter(std::string_view name) {
    Impl& i = impl();
    std::lock_guard<std::mutex> lock(i.mutex);
    for (auto& [n, c] : i.counters)
        if (n == name) return c;
    i.counters.emplace_back(std::piecewise_construct, std::forward_as_tuple(name),
                            std::forward_as_tuple());
    return i.counters.back().second;
}

MetricTimer& Metrics::timer(std::string_view name) {
    Impl& i = impl();
    std::lock_guard<std::mutex> lock(i.mutex);
    for (auto& [n, t] : i.timers)
        if (n == name) return t;
    i.timers.emplace_back(std::piecewise_construct, std::forward_as_tuple(name),
                          std::forward_as_tuple());
    return i.timers.back().second;
}

std::vector<Metrics::CounterRow> Metrics::counters() const {
    Impl& i = impl();
    std::lock_guard<std::mutex> lock(i.mutex);
    std::vector<CounterRow> rows;
    rows.reserve(i.counters.size());
    for (const auto& [n, c] : i.counters) rows.push_back({n, c.value()});
    return rows;
}

std::vector<Metrics::TimerRow> Metrics::timers() const {
    Impl& i = impl();
    std::lock_guard<std::mutex> lock(i.mutex);
    std::vector<TimerRow> rows;
    rows.reserve(i.timers.size());
    for (const auto& [n, t] : i.timers) rows.push_back({n, t.total_seconds(), t.samples()});
    return rows;
}

void Metrics::reset() {
    Impl& i = impl();
    std::lock_guard<std::mutex> lock(i.mutex);
    for (auto& [n, c] : i.counters) c.reset();
    for (auto& [n, t] : i.timers) t.reset();
}

void Metrics::report(std::FILE* out, const std::vector<CacheStatsSnapshot>& caches) const {
    std::fprintf(out, "-- metrics ------------------------------------------------\n");
    for (const auto& row : counters())
        std::fprintf(out, "  %-32s %12llu\n", row.name.c_str(),
                     static_cast<unsigned long long>(row.value));
    for (const auto& row : timers())
        std::fprintf(out, "  %-32s %11.3fs  (%llu samples)\n", row.name.c_str(),
                     row.total_seconds, static_cast<unsigned long long>(row.samples));
    for (const auto& cache : caches)
        std::fprintf(out, "  cache %-26s %llu hits, %llu misses, %llu evictions, %llu entries\n",
                     cache.name.c_str(), static_cast<unsigned long long>(cache.hits),
                     static_cast<unsigned long long>(cache.misses),
                     static_cast<unsigned long long>(cache.evictions),
                     static_cast<unsigned long long>(cache.entries));
}

std::string Metrics::to_json(const std::vector<CacheStatsSnapshot>& caches) const {
    // Names come from code today, but nothing enforces that (cache names
    // are arbitrary constructor strings) — always escape.
    std::string json = "{\"counters\":{";
    bool first = true;
    for (const auto& row : counters()) {
        if (!first) json += ',';
        first = false;
        json += '"' + json_escape(row.name) + "\":" + std::to_string(row.value);
    }
    json += "},\"timers\":{";
    first = true;
    for (const auto& row : timers()) {
        if (!first) json += ',';
        first = false;
        json += '"' + json_escape(row.name) + "\":{\"seconds\":" +
                std::to_string(row.total_seconds) +
                ",\"samples\":" + std::to_string(row.samples) + "}";
    }
    json += "},\"caches\":{";
    first = true;
    for (const auto& cache : caches) {
        if (!first) json += ',';
        first = false;
        json += '"' + json_escape(cache.name) + "\":{\"hits\":" + std::to_string(cache.hits) +
                ",\"misses\":" + std::to_string(cache.misses) +
                ",\"evictions\":" + std::to_string(cache.evictions) +
                ",\"entries\":" + std::to_string(cache.entries) + "}";
    }
    json += "}}";
    return json;
}

}  // namespace lls
