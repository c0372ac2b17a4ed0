#pragma once

// Shared declarations of the lls_bench package: the workload and metric
// tables, the child-rep entry point, summary statistics, and --compare.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "json.hpp"

namespace lls_bench {

/// Worker threads of every workload (the engine's --jobs): the reference
/// machine's core count, so no run ever has more than four threads.
inline constexpr int kJobs = 4;

enum class WorkloadKind { Table2Batch, Adders, LookaheadOnly, LookaheadWarm };

struct Workload {
    const char* name;
    WorkloadKind kind;
};

/// The four workloads, in BENCHMARK.json order (which says why each one).
const std::vector<Workload>& workloads();
const Workload* find_workload(std::string_view name);

/// One metric of BENCHMARK.json. End-to-end metrics are all lower-is-better
/// and carry a regression bound (a share of the parent's median); per-layer
/// metrics have none. --compare never allows less than `floor` (in the
/// metric's unit) of change, so a metric of a few milliseconds can still
/// reach a verdict.
struct MetricDef {
    const char* name;
    const char* unit;
    double bound;
    double floor = 0.0;
};
const std::vector<MetricDef>& end_to_end_metrics();
const std::vector<MetricDef>& per_layer_metrics();
/// True for the deterministic end-to-end metrics (QoR and work units).
bool is_exact_metric(std::string_view name);

/// Writes the workload's inputs as BLIF files into `dir` (replacing its
/// contents). They are the same for every seed. `quick` selects the
/// smoke-test subset.
void write_inputs(const Workload& workload, bool quick, const std::string& dir);

/// What one child process runs: every input of `inputs_dir` through the
/// workload's flow, then verification and mapping; with `trace_path` set
/// it also records spans, snapshots the engine registry and runs the
/// replay pass. The result JSON goes to `result_path`.
struct RepOptions {
    const Workload* workload = nullptr;
    std::string inputs_dir;
    std::string store_dir;   ///< empty = no persistent memo store
    bool store_read_only = false;
    std::string result_path;
    std::string trace_path;  ///< empty = untraced
};
int run_rep(const RepOptions& options);

/// Median and quartiles as Python's statistics.median and
/// statistics.quantiles(values, n=4) compute them.
double median(std::vector<double> values);
std::pair<double, double> quartiles(std::vector<double> values);

/// Build and host description written into every result file.
Json provenance();

/// `--compare`: each side is a comma-separated list of result files.
/// Returns the exit code (0 = no regression, 1 = regression or QoR
/// change, 2 = unusable input).
int compare_results(const std::string& base_list, const std::string& new_list);

}  // namespace lls_bench
