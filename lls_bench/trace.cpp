#include "trace.hpp"

#include <algorithm>
#include <utility>

namespace lls_bench {

namespace {

// Spans opened and not yet closed on this thread, innermost last; the
// default parent of a new span.
thread_local std::vector<int> open_spans;

}  // namespace

Trace::Trace(bool enabled) : enabled_(enabled), origin_(std::chrono::steady_clock::now()) {}

std::int64_t Trace::now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin_)
        .count();
}

int Trace::begin(std::string name, std::string circuit, int parent) {
    if (!enabled_) return -1;
    if (parent == kCurrent) parent = open_spans.empty() ? -1 : open_spans.back();
    int id = 0;
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        const auto [it, inserted] =
            threads_.emplace(std::this_thread::get_id(), static_cast<int>(threads_.size()));
        id = static_cast<int>(spans_.size());
        Span span;
        span.id = id;
        span.parent = parent;
        span.thread = it->second;
        span.name = std::move(name);
        span.circuit = std::move(circuit);
        span.start_ns = now_ns();
        spans_.push_back(std::move(span));
    }
    open_spans.push_back(id);
    return id;
}

void Trace::end(int id) {
    if (id < 0) return;
    const std::int64_t t = now_ns();
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        spans_[static_cast<std::size_t>(id)].end_ns = t;
    }
    const auto it = std::find(open_spans.rbegin(), open_spans.rend(), id);
    if (it != open_spans.rend()) open_spans.erase(std::next(it).base());
}

std::vector<Span> Trace::spans() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
}

std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans) {
    std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(spans.size());
    for (const Span& s : spans)
        if (s.parent >= 0)
            children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns, s.end_ns);
    std::vector<std::int64_t> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span& s = spans[i];
        auto& intervals = children[i];
        // Children on other threads may start before or outlive their
        // parent's interval; only the overlapping part is covered time.
        for (auto& [a, b] : intervals) {
            a = std::clamp(a, s.start_ns, s.end_ns);
            b = std::clamp(b, s.start_ns, s.end_ns);
        }
        std::sort(intervals.begin(), intervals.end());
        std::int64_t covered = 0, reach = s.start_ns;
        for (const auto& [a, b] : intervals) {
            const std::int64_t from = std::max(a, reach);
            if (b > from) {
                covered += b - from;
                reach = b;
            }
        }
        self[i] = (s.end_ns - s.start_ns) - covered;
    }
    return self;
}

std::map<std::string, double> total_seconds_by_name(const std::vector<Span>& spans) {
    std::map<std::string, double> out;
    for (const Span& s : spans) out[s.name] += static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    return out;
}

std::map<std::string, double> self_seconds_by_name(const std::vector<Span>& spans) {
    const auto self = self_times_ns(spans);
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans.size(); ++i)
        out[spans[i].name] += static_cast<double>(self[i]) * 1e-9;
    return out;
}

Json trace_to_json(const std::vector<Span>& spans) {
    const auto self = self_times_ns(spans);
    Json list = Json::array();
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span& s = spans[i];
        Json j = Json::object();
        j.set("id", s.id);
        j.set("parent", s.parent);
        j.set("thread", s.thread);
        j.set("name", s.name);
        j.set("circuit", s.circuit);
        j.set("start_ns", static_cast<double>(s.start_ns));
        j.set("end_ns", static_cast<double>(s.end_ns));
        j.set("self_ns", static_cast<double>(self[i]));
        list.push(std::move(j));
    }
    Json doc = Json::object();
    doc.set("spans", std::move(list));
    return doc;
}

}  // namespace lls_bench
