#pragma once

// In-memory span recorder for the traced rep. Spans are recorded around
// calls into the library's public functions (the benchmark never reaches
// inside src/), kept in memory, and written out when the rep ends. A
// disabled Trace records nothing, so the timed reps pay one branch per
// span site.

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "json.hpp"

namespace lls_bench {

struct Span {
    int id = 0;
    int parent = -1;  ///< -1 for a root span
    int thread = 0;   ///< small per-process thread number, 0 = first thread seen
    std::string name;
    std::string circuit;  ///< circuit the span worked on, empty when none
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
};

class Trace {
public:
    /// Parent argument meaning "the innermost span open on this thread".
    static constexpr int kCurrent = -2;

    explicit Trace(bool enabled);
    Trace(const Trace&) = delete;
    Trace& operator=(const Trace&) = delete;

    bool enabled() const { return enabled_; }

    /// Opens a span and returns its id (-1 when disabled).
    int begin(std::string name, std::string circuit, int parent);
    void end(int id);

    std::vector<Span> spans() const;

private:
    std::int64_t now_ns() const;

    const bool enabled_;
    const std::chrono::steady_clock::time_point origin_;
    mutable std::mutex mutex_;
    std::vector<Span> spans_;          // guarded by mutex_
    std::map<std::thread::id, int> threads_;  // guarded by mutex_
};

/// RAII span: opens on construction, closes on destruction.
class ScopedSpan {
public:
    ScopedSpan(Trace& trace, std::string name, std::string circuit = {},
               int parent = Trace::kCurrent)
        : trace_(trace), id_(trace.begin(std::move(name), std::move(circuit), parent)) {}
    ~ScopedSpan() { trace_.end(id_); }
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

    int id() const { return id_; }

private:
    Trace& trace_;
    int id_;
};

/// Self time of every span, indexed like `spans`: its duration minus the
/// length of the union of its children's intervals (clipped to its own).
std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans);

/// Sums of span durations and of self times, by span name, in seconds.
std::map<std::string, double> total_seconds_by_name(const std::vector<Span>& spans);
std::map<std::string, double> self_seconds_by_name(const std::vector<Span>& spans);

/// The trace file: `{"spans": [{id, parent, thread, name, circuit,
/// start_ns, end_ns, self_ns}, ...]}`.
Json trace_to_json(const std::vector<Span>& spans);

}  // namespace lls_bench
