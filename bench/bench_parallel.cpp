// Scaling bench of the concurrent optimization engine: optimizes a
// multi-output circuit (ripple-carry adder, every sum output on the
// critical ripple chain) with an increasing number of jobs and reports
// wall-clock speedup over the serial engine. The engine's determinism
// contract makes the comparison exact: every job count must produce the
// same depth and AND count, which this bench asserts — both for unbounded
// runs and for runs bounded by a deterministic --work-budget (the budgeted
// sweep uses half the unbudgeted work, so the budget genuinely binds).
//
//   bench_parallel [bits] [max_jobs] [iterations]
//
// Results go to stdout and to BENCH_parallel.json (machine-readable, one
// object per jobs value, plus a "budgeted" section) so the perf trajectory
// is tracked across PRs.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/parse.hpp"
#include "common/stopwatch.hpp"
#include "common/thread_pool.hpp"
#include "engine/engine.hpp"
#include "io/generators.hpp"

using namespace lls;

namespace {

struct Row {
    int jobs;
    double seconds;
    int depth;
    std::size_t ands;
    std::uint64_t work_units;
};

/// One sweep over the job counts; returns one row per jobs value and sets
/// `*identical` to whether depth/ANDs matched across all of them.
std::vector<Row> sweep(const Aig& circuit, const LookaheadParams& params,
                       const std::vector<int>& job_counts, bool* identical) {
    std::vector<Row> rows;
    for (const int jobs : job_counts) {
        // Each jobs value must redo the full work: the process-wide memo
        // would otherwise hand later runs the earlier runs' results and
        // fake the scaling curve.
        clear_engine_caches();
        EngineOptions engine;
        engine.jobs = jobs;
        OptimizeStats stats;
        Stopwatch sw;
        const Aig out = optimize_timing_engine(circuit, params, engine, &stats);
        const double seconds = sw.elapsed_seconds();
        if (!stats.verified) {
            std::fprintf(stderr, "VERIFICATION FAILURE at jobs=%d\n", jobs);
            std::exit(1);
        }
        rows.push_back({jobs, seconds, out.depth(), out.count_reachable_ands(),
                        stats.work_units});
        std::printf("  jobs=%-3d %8.2fs   depth %2d   %6zu ANDs   %8llu units   speedup %.2fx\n",
                    jobs, seconds, out.depth(), out.count_reachable_ands(),
                    static_cast<unsigned long long>(stats.work_units),
                    rows.front().seconds / seconds);
        std::fflush(stdout);
    }
    *identical = true;
    for (const auto& row : rows)
        *identical = *identical && row.depth == rows.front().depth &&
                     row.ands == rows.front().ands && row.work_units == rows.front().work_units;
    return rows;
}

std::string rows_json(const std::vector<Row>& rows) {
    std::string json = "[";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        if (i) json += ',';
        json += "{\"jobs\":" + std::to_string(rows[i].jobs) +
                ",\"seconds\":" + std::to_string(rows[i].seconds) +
                ",\"speedup\":" + std::to_string(rows.front().seconds / rows[i].seconds) +
                ",\"depth\":" + std::to_string(rows[i].depth) +
                ",\"ands\":" + std::to_string(rows[i].ands) +
                ",\"work_units\":" + std::to_string(rows[i].work_units) + "}";
    }
    return json + "]";
}

}  // namespace

int main(int argc, char** argv) {
    int bits = 16, max_jobs = 4, iterations = 4;
    const bool args_ok =
        (argc <= 1 || parse_int_option("bits", argv[1], 2, 4096, &bits)) &&
        (argc <= 2 || parse_int_option("max_jobs", argv[2], 1, 1024, &max_jobs)) &&
        (argc <= 3 || parse_int_option("iterations", argv[3], 1, 1000000, &iterations));
    if (!args_ok) {
        std::fprintf(stderr, "usage: %s [bits>=2] [max_jobs>=1] [iterations>=1]\n", argv[0]);
        return 2;
    }

    const Aig rca = ripple_carry_adder(bits);
    LookaheadParams params;
    params.max_iterations = iterations;

    std::printf("parallel scaling: %d-bit ripple adder, %zu PIs, %zu POs, depth %d, %zu ANDs "
                "(%zu hardware threads)\n",
                bits, rca.num_pis(), rca.num_pos(), rca.depth(), rca.count_reachable_ands(),
                ThreadPool::hardware_jobs());

    std::vector<int> job_counts;
    for (int j = 1; j <= max_jobs; j *= 2) job_counts.push_back(j);
    if (job_counts.back() != max_jobs) job_counts.push_back(max_jobs);

    bool identical = false;
    const std::vector<Row> rows = sweep(rca, params, job_counts, &identical);
    std::printf("QoR identical across job counts: %s\n", identical ? "yes" : "NO (BUG)");

    // Budgeted sweep: the same circuit under a deterministic work budget
    // that binds mid-run (half the unbudgeted spend), asserting that the
    // bit-identical guarantee survives budget exhaustion.
    const std::uint64_t work_budget = std::max<std::uint64_t>(1, rows.front().work_units / 2);
    std::printf("budgeted scaling: --work-budget %llu (half of unbudgeted %llu units)\n",
                static_cast<unsigned long long>(work_budget),
                static_cast<unsigned long long>(rows.front().work_units));
    LookaheadParams budgeted_params = params;
    budgeted_params.work_budget = work_budget;
    bool budgeted_identical = false;
    const std::vector<Row> budgeted_rows =
        sweep(rca, budgeted_params, job_counts, &budgeted_identical);
    std::printf("QoR identical across job counts with budget: %s\n",
                budgeted_identical ? "yes" : "NO (BUG)");

    std::string json = "{\"circuit\":\"rca" + std::to_string(bits) + "\",\"bits\":" +
                       std::to_string(bits) + ",\"iterations\":" + std::to_string(iterations) +
                       ",\"hardware_threads\":" + std::to_string(ThreadPool::hardware_jobs()) +
                       ",\"qor_identical\":" + (identical ? "true" : "false") +
                       ",\"runs\":" + rows_json(rows) +
                       ",\"budgeted\":{\"work_budget\":" + std::to_string(work_budget) +
                       ",\"qor_identical\":" + (budgeted_identical ? "true" : "false") +
                       ",\"runs\":" + rows_json(budgeted_rows) + "}}\n";
    if (std::FILE* f = std::fopen("BENCH_parallel.json", "w")) {
        std::fputs(json.c_str(), f);
        std::fclose(f);
        std::printf("wrote BENCH_parallel.json\n");
    }
    return identical && budgeted_identical ? 0 : 1;
}
