// lls_bench: the repository's end-to-end and per-layer benchmark.
//
//   lls_bench [--workload NAME|all] [--seed N] [--seconds T] [--trace 0|1]
//             [--out FILE] [--trace-dir DIR]
//   lls_bench --quick
//   lls_bench --compare BASE.json[,BASE2.json...] NEW.json[,NEW2.json...]
//
// Each rep runs in a fresh child process of this binary (posix_spawn +
// wait4), one at a time, like one lls_opt run except for a pinned mmap
// threshold (child_main): the child's rusage gives its CPU time and peak
// RSS, and no process-wide memo state leaks between reps.
// See README.md for the workloads, metrics, trace format and --compare.

#include <malloc.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "common/parse.hpp"
#include "io/generators.hpp"

extern char** environ;

// The sanitizer this binary was compiled with, as the compiler reports it
// (GCC's __SANITIZE_*__ macros, Clang's __has_feature); empty when none.
#if defined(__SANITIZE_ADDRESS__)
#define LLS_BENCH_SANITIZER "address"
#elif defined(__SANITIZE_THREAD__)
#define LLS_BENCH_SANITIZER "thread"
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define LLS_BENCH_SANITIZER "address"
#elif __has_feature(thread_sanitizer)
#define LLS_BENCH_SANITIZER "thread"
#endif
#endif
#ifndef LLS_BENCH_SANITIZER
#define LLS_BENCH_SANITIZER ""
#endif

namespace fs = std::filesystem;

namespace lls_bench {

double median(std::vector<double> values) {
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

std::pair<double, double> quartiles(std::vector<double> values) {
    if (values.size() < 2) {
        const double m = median(values);
        return {m, m};
    }
    // statistics.quantiles' default "exclusive" method, n = 4.
    std::sort(values.begin(), values.end());
    const long ld = static_cast<long>(values.size());
    const long m = ld + 1;
    double q[2] = {0, 0};
    for (int i = 1; i <= 3; i += 2) {
        long j = i * m / 4;
        j = std::clamp(j, 1L, ld - 1);
        const long delta = i * m - j * 4;
        q[i / 2] = (values[static_cast<std::size_t>(j - 1)] * static_cast<double>(4 - delta) +
                    values[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
                   4.0;
    }
    return {q[0], q[1]};
}

Json provenance() {
    const std::string build_type = LLS_BENCH_BUILD_TYPE;
    const std::string sanitize = LLS_BENCH_SANITIZER;
    Json p = Json::object();
    p.set("nproc", static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN)));
    p.set("hardware_concurrency", static_cast<int>(std::thread::hardware_concurrency()));
    p.set("jobs", kJobs);
    p.set("cmake_build_type", build_type);
    p.set("sanitizer", sanitize);
    p.set("compiler", std::string(__VERSION__));
    p.set("git_sha", std::string(LLS_BENCH_GIT_SHA));
    p.set("git_dirty", std::string(LLS_BENCH_GIT_DIRTY));
    // Timings from sanitized or unoptimized builds measure the
    // instrumentation, not the code; --compare refuses them.
    p.set("timing_valid",
          sanitize.empty() && (build_type == "Release" || build_type == "RelWithDebInfo"));
    return p;
}

namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
}

std::string self_exe() { return fs::read_symlink("/proc/self/exe").string(); }

/// Inputs, stores and per-rep files live next to the binary, inside the
/// build directory.
fs::path work_root() { return fs::path(self_exe()).parent_path() / "work"; }

struct RepRun {
    bool ok = false;
    std::string error;
    double cpu_s = 0.0;
    double peak_rss_mb = 0.0;
    Json result;
};

/// Runs one rep in a child process and waits for it to end.
RepRun spawn_rep(const std::vector<std::string>& args) {
    const std::string exe = self_exe();
    std::vector<std::string> argv_store = {exe, "--child"};
    argv_store.insert(argv_store.end(), args.begin(), args.end());
    std::vector<char*> argv;
    for (auto& a : argv_store) argv.push_back(a.data());
    argv.push_back(nullptr);

    // The child's stdout joins stderr: the parent's stdout carries only the
    // report and the final result line.
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, STDERR_FILENO, STDOUT_FILENO);
    pid_t pid = 0;
    const int rc = posix_spawn(&pid, exe.c_str(), &actions, nullptr, argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    RepRun run;
    if (rc != 0) {
        run.error = std::string("posix_spawn: ") + std::strerror(rc);
        return run;
    }
    int status = 0;
    struct rusage usage {};
    while (wait4(pid, &status, 0, &usage) < 0) {
        if (errno != EINTR) {
            run.error = std::string("wait4: ") + std::strerror(errno);
            return run;
        }
    }
    run.cpu_s = static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
                static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) * 1e-6;
    run.peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
        run.error = WIFSIGNALED(status) ? "child killed by signal " + std::to_string(WTERMSIG(status))
                                        : "child exited " + std::to_string(WEXITSTATUS(status));
        return run;
    }
    run.ok = true;
    return run;
}

struct Options {
    std::string workload = "all";
    std::uint64_t seed = 0;
    double seconds = 15.0;
    bool trace = false;
    bool quick = false;
    std::string out;
    std::string trace_dir;
};

/// One workload's state across the run.
struct WorkloadRun {
    const Workload* workload = nullptr;
    fs::path dir;
    std::size_t num_circuits = 0;
    std::vector<RepRun> reps;
    std::optional<RepRun> traced;
    double elapsed = 0.0;
    std::map<std::string, std::string> reference_hash;  ///< circuit -> output hash
    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::vector<std::string> problems;
    std::optional<bool> qor_matches_baseline;
};

std::vector<std::string> rep_args(WorkloadRun& run, const std::string& result_file,
                                  const std::string& trace_path) {
    std::vector<std::string> args = {"--workload", run.workload->name, "--inputs",
                                     (run.dir / "inputs").string(), "--result",
                                     (run.dir / result_file).string()};
    const fs::path store = run.dir / "store";
    switch (run.workload->kind) {
        case WorkloadKind::LookaheadOnly:
            // Every rep writes a fresh, empty store.
            fs::remove_all(store);
            args.insert(args.end(), {"--store", store.string()});
            break;
        case WorkloadKind::LookaheadWarm:
            args.insert(args.end(), {"--store", store.string(), "--store-read-only"});
            break;
        default: break;
    }
    if (!trace_path.empty()) args.insert(args.end(), {"--trace-out", trace_path});
    return args;
}

/// Reads a finished rep's result and checks its outputs: every circuit
/// verified, and every output hash equal to the reference (the populate
/// pass for lookahead_warm, else the workload's first rep).
void record(WorkloadRun& run, RepRun& rep, const fs::path& result_path) {
    run.attempted += run.num_circuits;
    if (rep.ok) {
        try {
            rep.result = parse_json(read_file(result_path.string()));
        } catch (const std::exception& e) {
            rep.ok = false;
            rep.error = e.what();
        }
    }
    if (!rep.ok) {
        run.failed += run.num_circuits;
        run.problems.push_back("rep failed: " + rep.error);
        return;
    }
    for (const Json& row : rep.result["circuits"].items()) {
        const std::string name = row.string_or("name", "?");
        const std::string hash = row.string_or("hash", "");
        std::string problem = row.string_or("problem", "");
        const auto [it, inserted] = run.reference_hash.emplace(name, hash);
        if (problem.empty() && !inserted && it->second != hash)
            problem = "output hash " + hash + " differs from " + it->second;
        if (!problem.empty()) {
            ++run.failed;
            run.problems.push_back(name + ": " + problem);
        }
    }
    if (rep.result.number_or("replay_failures", 0) > 0)
        run.problems.push_back("replay: restructure/sweep output failed CEC");
}

void prepare(WorkloadRun& run, const Options& options) {
    const std::string name = run.workload->name;
    run.dir = work_root() / (options.quick ? "quick" : name);
    write_inputs(*run.workload, options.quick, (run.dir / "inputs").string());
    run.num_circuits = static_cast<std::size_t>(
        std::distance(fs::directory_iterator(run.dir / "inputs"), fs::directory_iterator{}));
    if (run.workload->kind == WorkloadKind::LookaheadWarm) {
        // Untimed populate pass: the lookahead_only flow writing the store
        // every timed rep then reads. Its outputs are the reference hashes,
        // so warm outputs must equal cold ones.
        const fs::path store = run.dir / "store";
        fs::remove_all(store);
        RepRun populate = spawn_rep({"--workload", name, "--inputs", (run.dir / "inputs").string(),
                                     "--result", (run.dir / "populate.json").string(), "--store",
                                     store.string()});
        record(run, populate, run.dir / "populate.json");
    }
}

/// Checks per-circuit QoR against the values pinned in baseline.json.
std::optional<bool> matches_baseline(const WorkloadRun& run, const Json& rows) {
    Json baseline;
    try {
        baseline = parse_json(read_file(LLS_BENCH_SOURCE_DIR "/baseline.json"));
    } catch (const std::exception&) {
        return std::nullopt;
    }
    const Json* pinned = baseline["workloads"][run.workload->name].find("circuits");
    if (!pinned) return std::nullopt;
    bool match = pinned->items().size() == rows.items().size();
    for (const Json& row : rows.items()) {
        const Json* want = nullptr;
        for (const Json& p : pinned->items())
            if (p.string_or("name", "") == row.string_or("name", "")) want = &p;
        for (const char* key : {"levels", "ands", "delay_ps", "power_mw", "work_units"}) {
            if (want && want->number_or(key, -1) == row.number_or(key, -2)) continue;
            match = false;
            std::fprintf(stderr, "%s: %s %s = %.17g, baseline.json pins %.17g\n",
                         run.workload->name, row.string_or("name", "?").c_str(), key,
                         row.number_or(key, 0), want ? want->number_or(key, 0) : 0.0);
        }
    }
    return match;
}

Json stat_json(const char* unit, const std::vector<double>& samples) {
    const auto [q1, q3] = quartiles(samples);
    Json j = Json::object();
    j.set("unit", unit);
    j.set("median", median(samples));
    j.set("q1", q1);
    j.set("q3", q3);
    j.set("n", static_cast<int>(samples.size()));
    Json list = Json::array();
    for (double v : samples) list.push(v);
    j.set("samples", std::move(list));
    return j;
}

/// The workload's entry of the result file. `check_baseline` compares
/// per-circuit QoR with baseline.json (which pins the full input sets).
Json summarize(WorkloadRun& run, bool check_baseline) {
    std::vector<const RepRun*> ok;
    for (const auto& rep : run.reps)
        if (rep.ok) ok.push_back(&rep);
    std::map<std::string, std::vector<double>> samples;
    for (const RepRun* rep : ok) {
        samples["wall_s"].push_back(rep->result.number_or("wall_s", 0));
        for (const Json& t : rep->result["setup_s"].items())
            samples["setup_s"].push_back(t.as_number());
        samples["cpu_s"].push_back(rep->cpu_s);
        samples["peak_rss_mb"].push_back(rep->peak_rss_mb);
    }
    Json circuits = Json::array();
    if (!ok.empty()) {
        for (const Json& row : ok.front()->result["circuits"].items()) {
            samples["levels_sum"].push_back(row.number_or("levels", 0));
            samples["ands_sum"].push_back(row.number_or("ands", 0));
            samples["delay_ps_sum"].push_back(row.number_or("delay_ps", 0));
            samples["power_mw_sum"].push_back(row.number_or("power_mw", 0));
            samples["work_units"].push_back(row.number_or("work_units", 0));
            std::vector<double> seconds;
            for (const RepRun* rep : ok)
                for (const Json& r : rep->result["circuits"].items())
                    if (r.string_or("name", "") == row.string_or("name", ""))
                        seconds.push_back(r.number_or("seconds", 0));
            Json out = Json::object();
            for (const char* key : {"name", "levels", "ands", "delay_ps", "power_mw",
                                    "work_units", "hash"})
                out.set(key, row[key]);
            out.set("seconds_median", median(seconds));
            circuits.push(std::move(out));
        }
    }

    Json metrics = Json::object();
    for (const MetricDef& m : end_to_end_metrics()) {
        if (is_exact_metric(m.name)) {
            double sum = 0;
            for (double v : samples[m.name]) sum += v;
            metrics.set(m.name, stat_json(m.unit, {sum}));
        } else {
            metrics.set(m.name, stat_json(m.unit, samples[m.name]));
        }
    }

    Json summary = Json::object();
    summary.set("reps", static_cast<int>(ok.size()));
    summary.set("attempted", static_cast<std::uint64_t>(run.attempted));
    summary.set("failed", static_cast<std::uint64_t>(run.failed));
    summary.set("correct", run.failed == 0 && run.problems.empty());
    summary.set("metrics", std::move(metrics));
    if (run.traced && run.traced->ok) {
        Json layers = run.traced->result["per_layer"];
        // Σ (lookahead depth − Sklansky CLA depth) over the adders: the
        // Table 1 distance to the reference optimum (signed: lookahead
        // beats the CLA on the smallest widths).
        double gap = 0;
        for (const Json& row : circuits.items()) {
            const std::string name = row.string_or("name", "");
            if (name.rfind("rca", 0) == 0)
                gap += row.number_or("levels", 0) -
                       lls::carry_lookahead_adder(std::stoi(name.substr(3))).depth();
        }
        layers.set("adders.cla_gap_levels", gap);
        const double untraced = median(samples["wall_s"]);
        layers.set("trace.overhead_pct",
                   untraced > 0
                       ? 100.0 * (run.traced->result.number_or("wall_s", 0) - untraced) / untraced
                       : 0.0);
        summary.set("per_layer", std::move(layers));
        summary.set("span_self_s", run.traced->result["span_self_s"]);
    }
    if (check_baseline && !ok.empty()) run.qor_matches_baseline = matches_baseline(run, circuits);
    if (run.qor_matches_baseline) summary.set("qor_matches_baseline", *run.qor_matches_baseline);
    summary.set("circuits", std::move(circuits));
    Json problems = Json::array();
    for (const auto& p : run.problems) problems.push(p);
    summary.set("problems", std::move(problems));
    return summary;
}

void print_summary(const WorkloadRun& run, const Json& summary) {
    std::printf("== %s: %d reps, %.0f circuit runs, %.0f failed%s\n", run.workload->name,
                static_cast<int>(summary.number_or("reps", 0)), summary.number_or("attempted", 0),
                summary.number_or("failed", 0),
                run.qor_matches_baseline ? (*run.qor_matches_baseline
                                                ? ", QoR matches baseline.json"
                                                : ", QoR DIFFERS from baseline.json")
                                         : "");
    for (const auto& [name, stat] : summary["metrics"].members())
        std::printf("  %-34s %14.6g %-6s  [q1 %.6g, q3 %.6g, n %.0f]\n", name.c_str(),
                    stat.number_or("median", 0), stat.string_or("unit", "").c_str(),
                    stat.number_or("q1", 0), stat.number_or("q3", 0), stat.number_or("n", 0));
    if (const Json* layers = summary.find("per_layer"))
        for (const MetricDef& m : per_layer_metrics())
            std::printf("  %-34s %14.6g %s\n", m.name, layers->number_or(m.name, 0), m.unit);
    std::printf("  %-22s %6s %7s %8s %8s %9s %8s\n", "circuit", "levels", "ANDs", "delay_ps",
                "power_mW", "work", "seconds");
    for (const Json& row : summary["circuits"].items())
        std::printf("  %-22s %6.0f %7.0f %8.0f %8.4f %9.0f %8.3f\n",
                    row.string_or("name", "").c_str(), row.number_or("levels", 0),
                    row.number_or("ands", 0), row.number_or("delay_ps", 0),
                    row.number_or("power_mw", 0), row.number_or("work_units", 0),
                    row.number_or("seconds_median", 0));
    for (const auto& p : run.problems) std::printf("  PROBLEM %s\n", p.c_str());
}

/// The smoke test's four assertions (see README.md).
bool quick_checks(const WorkloadRun& run, const Json& summary, const fs::path& trace_file) {
    bool ok = true;
    const auto fail = [&ok](const std::string& what) {
        std::fprintf(stderr, "smoke: FAIL %s\n", what.c_str());
        ok = false;
    };
    std::map<std::string, std::string> printed;
    for (const auto& [name, stat] : summary["metrics"].members())
        printed[name] = stat.string_or("unit", "");
    if (const Json* layers = summary.find("per_layer"))
        for (const MetricDef& m : per_layer_metrics())
            if (layers->find(m.name)) printed[m.name] = m.unit;
    try {
        const Json spec = parse_json(read_file(LLS_BENCH_SOURCE_DIR "/../BENCHMARK.json"));
        for (const char* section : {"end_to_end", "per_layer"})
            for (const Json& m : spec[section].items()) {
                const auto it = printed.find(m.string_or("name", ""));
                if (it == printed.end() || it->second != m.string_or("unit", ""))
                    fail("BENCHMARK.json metric " + m.string_or("name", "") + " [" +
                         m.string_or("unit", "") + "] is not printed with that unit");
            }
    } catch (const std::exception& e) {
        fail(std::string("BENCHMARK.json: ") + e.what());
    }
    if (run.failed != 0 || !run.problems.empty()) fail("fail_frac is not 0");
    if (run.reps.size() + (run.traced ? 1 : 0) < 2 || run.reference_hash.empty())
        fail("fewer than two reps to compare hashes across");
    try {
        const Json trace = parse_json(read_file(trace_file.string()));
        if (trace["spans"].items().empty()) fail("trace has no spans");
        for (const Json& s : trace["spans"].items()) {
            const double duration = s.number_or("end_ns", 0) - s.number_or("start_ns", 0);
            const double self = s.number_or("self_ns", -1);
            if (!(self >= 0 && self <= duration))
                fail("span " + s.string_or("name", "") + " has self time outside [0, duration]");
        }
    } catch (const std::exception& e) {
        fail(std::string("trace: ") + e.what());
    }
    std::printf("smoke: %s\n", ok ? "PASS" : "FAIL");
    return ok;
}

int run_benchmark(const Options& options) {
    std::vector<WorkloadRun> runs;
    if (options.quick) {
        runs.push_back({});
        runs.back().workload = find_workload("adders");
    } else if (options.workload == "all") {
        for (const auto& w : workloads()) {
            runs.push_back({});
            runs.back().workload = &w;
        }
    } else {
        const Workload* w = find_workload(options.workload);
        if (!w) {
            std::fprintf(stderr, "error: unknown workload '%s'\n", options.workload.c_str());
            return 2;
        }
        runs.push_back({});
        runs.back().workload = w;
    }
    const bool trace = options.trace || options.quick || !options.trace_dir.empty();
    const std::size_t min_reps = options.quick ? 1 : 3;
    const std::size_t max_reps = options.quick ? 1 : 100;
    for (auto& run : runs) prepare(run, options);

    // Timed reps. Each round runs one rep of every unfinished workload,
    // starting one workload further along, so slow phases of a shared host
    // spread over all workloads instead of landing on one.
    for (std::size_t round = 0;; ++round) {
        bool any = false;
        for (std::size_t k = 0; k < runs.size(); ++k) {
            WorkloadRun& run = runs[(round + k) % runs.size()];
            if (run.reps.size() >= max_reps ||
                (run.reps.size() >= min_reps && run.elapsed >= options.seconds))
                continue;
            any = true;
            const auto start = Clock::now();
            RepRun rep = spawn_rep(rep_args(run, "rep.json", ""));
            run.elapsed += seconds_between(start, Clock::now());
            record(run, rep, run.dir / "rep.json");
            run.reps.push_back(std::move(rep));
        }
        if (!any) break;
    }

    // One traced rep per workload, never part of the timed samples.
    std::map<std::string, fs::path> trace_files;
    if (trace) {
        if (!options.trace_dir.empty()) fs::create_directories(options.trace_dir);
        for (auto& run : runs) {
            const fs::path trace_file =
                options.trace_dir.empty()
                    ? run.dir / "trace.json"
                    : fs::path(options.trace_dir) / (std::string(run.workload->name) + ".json");
            trace_files[run.workload->name] = trace_file;
            RepRun rep = spawn_rep(rep_args(run, "traced.json", trace_file.string()));
            record(run, rep, run.dir / "traced.json");
            run.traced = std::move(rep);
        }
    }

    Json result = Json::object();
    result.set("provenance", provenance());
    result.set("seed", options.seed);
    result.set("seconds", options.seconds);
    Json per_workload = Json::object();
    bool correct = true, quick_ok = true;
    std::uint64_t attempted = 0, failed = 0;
    Json line_metrics = Json::object();
    for (auto& run : runs) {
        Json summary = summarize(run, !options.quick);
        print_summary(run, summary);
        if (options.quick)
            quick_ok = quick_checks(run, summary, trace_files[run.workload->name]);
        correct = correct && summary["correct"].as_bool();
        attempted += run.attempted;
        failed += run.failed;
        const std::string prefix = runs.size() > 1 ? std::string(run.workload->name) + "." : "";
        if (options.trace) {
            for (const MetricDef& m : per_layer_metrics()) {
                Json v = Json::object();
                v.set("value", summary["per_layer"].number_or(m.name, 0));
                v.set("unit", m.unit);
                line_metrics.set(prefix + m.name, std::move(v));
            }
        } else {
            for (const MetricDef& m : end_to_end_metrics()) {
                Json v = Json::object();
                v.set("value", summary["metrics"][m.name].number_or("median", 0));
                v.set("unit", m.unit);
                line_metrics.set(prefix + m.name, std::move(v));
            }
        }
        per_workload.set(run.workload->name, std::move(summary));
    }
    result.set("workloads", std::move(per_workload));
    if (!options.out.empty()) write_file(options.out, result.dump() + "\n");

    Json line = Json::object();
    line.set("correct", correct);
    line.set("attempted", attempted);
    line.set("failed", failed);
    line.set("metrics", std::move(line_metrics));
    std::printf("%s\n", line.dump().c_str());
    return correct && quick_ok ? 0 : 1;
}

int usage() {
    std::fprintf(stderr,
                 "usage: lls_bench [--workload NAME|all] [--seed N] [--seconds T] [--trace 0|1]\n"
                 "                 [--out FILE] [--trace-dir DIR]\n"
                 "       lls_bench --quick\n"
                 "       lls_bench --compare BASE.json[,...] NEW.json[,...]\n");
    return 2;
}

int child_main(int argc, char** argv) {
    // Pin glibc's mmap threshold at its default. Left dynamic, glibc raises
    // it when an mmapped block is freed, and whether that happens before or
    // after the next large allocation depends on thread timing: peak RSS of
    // identical reps then lands in two modes 15 MB apart. lls_opt does not
    // pin it; README.md gives the measured difference.
    mallopt(M_MMAP_THRESHOLD, 128 * 1024);
    RepOptions rep;
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool has_value = i + 1 < argc;
        if (arg == "--workload" && has_value) rep.workload = find_workload(argv[++i]);
        else if (arg == "--inputs" && has_value) rep.inputs_dir = argv[++i];
        else if (arg == "--store" && has_value) rep.store_dir = argv[++i];
        else if (arg == "--store-read-only") rep.store_read_only = true;
        else if (arg == "--result" && has_value) rep.result_path = argv[++i];
        else if (arg == "--trace-out" && has_value) rep.trace_path = argv[++i];
        else return usage();
    }
    if (!rep.workload || rep.inputs_dir.empty() || rep.result_path.empty()) return usage();
    return run_rep(rep);
}

}  // namespace

}  // namespace lls_bench

int main(int argc, char** argv) {
    using namespace lls_bench;
    try {
        if (argc > 1 && std::string(argv[1]) == "--child") return child_main(argc, argv);
        Options options;
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            const bool has_value = i + 1 < argc;
            if (arg == "--compare" && i + 2 < argc) return compare_results(argv[i + 1], argv[i + 2]);
            int value = 0;
            if (arg == "--quick") options.quick = true;
            else if (arg == "--workload" && has_value) options.workload = argv[++i];
            else if (arg == "--seed" && has_value) {
                if (!lls::parse_u64_option("--seed", argv[++i], UINT64_MAX, &options.seed))
                    return 2;
            } else if (arg == "--seconds" && has_value) {
                if (!lls::parse_int_option("--seconds", argv[++i], 1, 3600, &value)) return 2;
                options.seconds = value;
            } else if (arg == "--trace" && has_value) {
                if (!lls::parse_int_option("--trace", argv[++i], 0, 1, &value)) return 2;
                options.trace = value == 1;
            } else if (arg == "--out" && has_value) options.out = argv[++i];
            else if (arg == "--trace-dir" && has_value) options.trace_dir = argv[++i];
            else return usage();
        }
        return run_benchmark(options);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "lls_bench: %s\n", e.what());
        return 3;
    }
}
