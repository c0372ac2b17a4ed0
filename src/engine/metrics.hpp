#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

namespace lls {

struct CacheStatsSnapshot;

/// One named monotonically increasing counter. Handles returned by
/// `Metrics::counter` stay valid for the life of the process.
class MetricCounter {
public:
    void add(std::uint64_t delta = 1) { value_.fetch_add(delta, std::memory_order_relaxed); }
    std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }
    void reset() { value_.store(0, std::memory_order_relaxed); }

private:
    std::atomic<std::uint64_t> value_{0};
};

/// One named accumulating timer (total nanoseconds + number of samples).
class MetricTimer {
public:
    void add_nanos(std::uint64_t nanos) {
        total_nanos_.fetch_add(nanos, std::memory_order_relaxed);
        samples_.fetch_add(1, std::memory_order_relaxed);
    }
    double total_seconds() const {
        return static_cast<double>(total_nanos_.load(std::memory_order_relaxed)) * 1e-9;
    }
    std::uint64_t samples() const { return samples_.load(std::memory_order_relaxed); }
    void reset() {
        total_nanos_.store(0, std::memory_order_relaxed);
        samples_.store(0, std::memory_order_relaxed);
    }

private:
    std::atomic<std::uint64_t> total_nanos_{0};
    std::atomic<std::uint64_t> samples_{0};
};

/// Process-wide registry of named counters and stage timers.
///
/// Lookup by name takes a mutex, so callers on hot paths should resolve
/// their handles once and hold the returned references (they are stable —
/// entries are never removed). The counters/timers themselves are atomic
/// and safe to bump from any worker thread.
class Metrics {
public:
    static Metrics& global();

    MetricCounter& counter(std::string_view name);
    MetricTimer& timer(std::string_view name);

    struct CounterRow {
        std::string name;
        std::uint64_t value;
    };
    struct TimerRow {
        std::string name;
        double total_seconds;
        std::uint64_t samples;
    };

    std::vector<CounterRow> counters() const;
    std::vector<TimerRow> timers() const;

    /// Zeroes every counter and timer (entries stay registered).
    void reset();

    /// Human-readable report: counters, timers, and the given cache stats
    /// (the engine's are `all_cache_stats()`).
    void report(std::FILE* out, const std::vector<CacheStatsSnapshot>& caches) const;

    /// The same data as a JSON object string (stable key order).
    std::string to_json(const std::vector<CacheStatsSnapshot>& caches) const;

private:
    Metrics() = default;
    struct Impl;
    Impl& impl() const;
};

/// RAII timer: accumulates the scope's wall-clock duration into a
/// MetricTimer on destruction.
class ScopedTimer {
public:
    explicit ScopedTimer(MetricTimer& timer)
        : timer_(timer), start_(std::chrono::steady_clock::now()) {}
    ScopedTimer(const ScopedTimer&) = delete;
    ScopedTimer& operator=(const ScopedTimer&) = delete;
    ~ScopedTimer() {
        const auto elapsed = std::chrono::steady_clock::now() - start_;
        timer_.add_nanos(static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count()));
    }

private:
    MetricTimer& timer_;
    std::chrono::steady_clock::time_point start_;
};

}  // namespace lls
