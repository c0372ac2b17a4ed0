// lls_bench --compare: base against new, per workload row and end-to-end
// metric, with the verdict rules of README.md ("Quoting a comparison").

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "bench.hpp"

namespace lls_bench {

namespace {

struct Side {
    std::vector<std::string> files;
    std::vector<Json> docs;
};

bool load_side(const std::string& list, Side& side) {
    std::stringstream in(list);
    std::string path;
    while (std::getline(in, path, ',')) {
        if (path.empty()) continue;
        try {
            side.docs.push_back(parse_json(read_file(path)));
        } catch (const std::exception& e) {
            std::fprintf(stderr, "compare: %s\n", e.what());
            return false;
        }
        const Json& p = side.docs.back()["provenance"];
        if (!p["timing_valid"].as_bool()) {
            std::fprintf(stderr,
                         "compare: refusing %s: its timings come from a %s build with "
                         "sanitizer '%s'\n",
                         path.c_str(), p.string_or("cmake_build_type", "?").c_str(),
                         p.string_or("sanitizer", "?").c_str());
            return false;
        }
        side.files.push_back(path);
    }
    if (side.docs.empty()) std::fprintf(stderr, "compare: empty file list '%s'\n", list.c_str());
    return !side.docs.empty();
}

/// One side's values of a metric: with one file, its per-rep samples; with
/// several (alternating runs), one median per file.
std::vector<double> values_of(const Side& side, const std::string& workload,
                              const std::string& metric) {
    std::vector<double> out;
    for (const Json& doc : side.docs) {
        const Json& stat = doc["workloads"][workload]["metrics"][metric];
        if (side.docs.size() == 1) {
            for (const Json& v : stat["samples"].items()) out.push_back(v.as_number());
        } else if (stat.find("median")) {
            out.push_back(stat.number_or("median", 0));
        }
    }
    return out;
}

}  // namespace

int compare_results(const std::string& base_list, const std::string& new_list) {
    Side base, next;
    if (!load_side(base_list, base) || !load_side(new_list, next)) return 2;
    bool regression = false;
    const bool paired = base.docs.size() > 1 && base.docs.size() == next.docs.size();

    for (const auto& [workload, base_summary] : base.docs.front()["workloads"].members()) {
        const Json* new_summary = next.docs.front()["workloads"].find(workload);
        if (!new_summary) continue;
        std::printf("== %s\n", workload.c_str());
        std::printf("  %-14s %12s %12s %12s %12s %12s %12s %8s  %s\n", "metric", "base", "base q1",
                    "base q3", "new", "new q1", "new q3", "delta%", "verdict");
        for (const MetricDef& m : end_to_end_metrics()) {
            const auto b = values_of(base, workload, m.name);
            const auto n = values_of(next, workload, m.name);
            if (b.empty() || n.empty()) continue;
            const double bm = median(b), nm = median(n);
            const auto [bq1, bq3] = quartiles(b);
            const auto [nq1, nq3] = quartiles(n);
            const double delta = bm != 0 ? (nm - bm) / bm : 0.0;
            std::string verdict;
            if (is_exact_metric(m.name)) {
                verdict = nm == bm ? "unchanged" : "CHANGED";
                regression = regression || nm != bm;
            } else {
                // Allowed change in the metric's unit: the bound's share of
                // the median, but never less than the metric's floor.
                const auto allowed = [&m](double median) {
                    return std::max(m.bound * median, m.floor);
                };
                const bool all_better = *std::max_element(n.begin(), n.end()) <
                                        *std::min_element(b.begin(), b.end());
                if (bq3 - bq1 > allowed(bm) || nq3 - nq1 > allowed(nm)) {
                    verdict = all_better ? "better" : "unresolved";
                } else if (nm - bm > allowed(bm)) {
                    verdict = "WORSE";
                    regression = true;
                } else {
                    verdict = nq3 < bq1 ? "better" : "unchanged";
                }
            }
            std::printf("  %-14s %12.6g %12.6g %12.6g %12.6g %12.6g %12.6g %+8.2f  %s", m.name, bm,
                        bq1, bq3, nm, nq1, nq3, 100.0 * delta, verdict.c_str());
            if (paired && !is_exact_metric(m.name)) {
                std::size_t wins = 0;
                for (std::size_t i = 0; i < b.size() && i < n.size(); ++i) wins += n[i] < b[i];
                std::printf(" (new wins %zu/%zu pairs)", wins, std::min(b.size(), n.size()));
            }
            std::printf("\n");
        }

        // fail_frac: any failed circuit run on the new side is a regression.
        double base_failed = 0, new_failed = 0, base_attempted = 0, new_attempted = 0;
        for (const Json& d : base.docs) {
            base_failed += d["workloads"][workload].number_or("failed", 0);
            base_attempted += d["workloads"][workload].number_or("attempted", 0);
        }
        for (const Json& d : next.docs) {
            new_failed += d["workloads"][workload].number_or("failed", 0);
            new_attempted += d["workloads"][workload].number_or("attempted", 0);
        }
        std::printf("  failed circuit runs: base %.0f of %.0f, new %.0f of %.0f\n", base_failed,
                    base_attempted, new_failed, new_attempted);
        if (new_failed > 0) regression = true;

        // Per-circuit QoR: name every circuit whose result moved.
        std::map<std::string, const Json*> base_rows;
        for (const Json& r : base_summary["circuits"].items())
            base_rows[r.string_or("name", "")] = &r;
        for (const Json& r : (*new_summary)["circuits"].items()) {
            const auto it = base_rows.find(r.string_or("name", ""));
            if (it == base_rows.end()) continue;
            for (const char* key : {"levels", "ands", "delay_ps", "power_mw", "work_units"})
                if (it->second->number_or(key, 0) != r.number_or(key, 0))
                    std::printf("  QoR %s %s: %.10g -> %.10g\n", it->first.c_str(), key,
                                it->second->number_or(key, 0), r.number_or(key, 0));
        }

        // Per-layer self time, from each side's (first) traced rep.
        const Json& base_self = base_summary["span_self_s"];
        const Json& new_self = (*new_summary)["span_self_s"];
        if (!base_self.is_null() && !new_self.is_null()) {
            std::printf("  %-26s %12s %12s %8s\n", "span self time (s)", "base", "new", "delta%");
            std::set<std::string> names;
            for (const auto& [name, v] : base_self.members()) names.insert(name);
            for (const auto& [name, v] : new_self.members()) names.insert(name);
            for (const auto& name : names) {
                const double bs = base_self.number_or(name, 0), ns = new_self.number_or(name, 0);
                std::printf("  %-26s %12.6f %12.6f %+8.1f\n", name.c_str(), bs, ns,
                            bs > 0 ? 100.0 * (ns - bs) / bs : 0.0);
            }
        }
    }
    std::printf("compare: %s\n", regression ? "REGRESSION (exit 1)" : "no regression");
    return regression ? 1 : 0;
}

}  // namespace lls_bench
