// Scaling bench of the concurrent optimization engine: optimizes a
// multi-output circuit (ripple-carry adder, every sum output on the
// critical ripple chain) with an increasing number of jobs and reports
// wall-clock speedup over the serial engine. The engine's determinism
// contract makes the comparison exact: every job count must produce the
// same depth and AND count, which this bench asserts — both for unbounded
// runs and for runs bounded by a deterministic --work-budget (the budgeted
// sweep uses half the unbudgeted work, so the budget genuinely binds).
//
// A second sweep benchmarks the shared concurrent BddManager against
// per-task private managers on the engine's rung-2 access pattern (many
// workers building the node BDDs of overlapping PO cones) and records the
// cross-worker ITE-cache hit rate.
//
//   bench_parallel [bits] [max_jobs] [iterations]
//
// Results go to stdout and to BENCH_parallel.json (machine-readable, one
// object per jobs value, plus "budgeted" and "bdd" sections)
// so the perf trajectory is tracked across PRs.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "aig/aig_build.hpp"
#include "bdd/aig_bdd.hpp"
#include "bdd/bdd.hpp"
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

struct BddRow {
    int jobs;
    double shared_seconds;
    double private_seconds;
    double shared_hit_rate;   ///< ITE-cache hit rate of the one shared manager
    double private_hit_rate;  ///< aggregate ITE-cache hit rate of the private managers
};

double hit_rate(std::uint64_t hits, std::uint64_t misses) {
    return hits + misses == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(hits + misses);
}

/// Shared-vs-private BDD manager comparison on the engine's exact-verify
/// workload shape: every PO cone of the circuit, kRounds times over, built
/// as node BDDs from `jobs` threads. Shared mode points every task at one
/// concurrent manager (overlapping subfunctions collapse to unique-table
/// and ITE-cache hits across workers); private mode gives every task its
/// own manager, the pre-refactor behavior.
std::vector<BddRow> bdd_sweep(const Aig& circuit, const std::vector<int>& job_counts) {
    constexpr int kRounds = 32;
    // Sized so the one shared manager can hold every cone's node BDDs at
    // once: the old 2^16 cap was exceeded by the default 16-bit adder's
    // cones and killed the whole bench with an uncaught ResourceExhausted.
    constexpr std::size_t kNodeLimit = std::size_t{1} << 20;
    std::vector<Aig> cones;
    for (std::size_t o = 0; o < circuit.num_pos(); ++o) cones.push_back(extract_cone(circuit, o));
    const std::size_t tasks = cones.size() * kRounds;

    std::vector<BddRow> rows;
    for (const int jobs : job_counts) {
        ThreadPool pool(static_cast<std::size_t>(jobs) - 1);

        BddManager shared(static_cast<int>(circuit.num_pis()), kNodeLimit);
        Stopwatch shared_sw;
        pool.parallel_for(0, tasks, [&](std::size_t i) {
            build_node_bdds(cones[i % cones.size()], shared);
        });
        const double shared_seconds = shared_sw.elapsed_seconds();
        const BddStats shared_stats = shared.stats();

        std::atomic<std::uint64_t> private_hits{0}, private_misses{0};
        Stopwatch private_sw;
        pool.parallel_for(0, tasks, [&](std::size_t i) {
            const Aig& cone = cones[i % cones.size()];
            BddManager manager(static_cast<int>(cone.num_pis()), kNodeLimit);
            build_node_bdds(cone, manager);
            const BddStats s = manager.stats();
            private_hits.fetch_add(s.ite_hits, std::memory_order_relaxed);
            private_misses.fetch_add(s.ite_misses, std::memory_order_relaxed);
        });
        const double private_seconds = private_sw.elapsed_seconds();

        rows.push_back({jobs, shared_seconds, private_seconds,
                        hit_rate(shared_stats.ite_hits, shared_stats.ite_misses),
                        hit_rate(private_hits.load(), private_misses.load())});
        std::printf("  jobs=%-3d shared %7.3fs (ite hit %5.1f%%)   private %7.3fs "
                    "(ite hit %5.1f%%)   speedup %.2fx\n",
                    jobs, shared_seconds, 100.0 * rows.back().shared_hit_rate, private_seconds,
                    100.0 * rows.back().private_hit_rate, private_seconds / shared_seconds);
        std::fflush(stdout);
    }
    return rows;
}

std::string bdd_rows_json(const std::vector<BddRow>& rows) {
    std::string json = "[";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        if (i) json += ',';
        json += "{\"jobs\":" + std::to_string(rows[i].jobs) +
                ",\"shared_seconds\":" + std::to_string(rows[i].shared_seconds) +
                ",\"private_seconds\":" + std::to_string(rows[i].private_seconds) +
                ",\"shared_ite_hit_rate\":" + std::to_string(rows[i].shared_hit_rate) +
                ",\"private_ite_hit_rate\":" + std::to_string(rows[i].private_hit_rate) +
                ",\"speedup\":" + std::to_string(rows[i].private_seconds / rows[i].shared_seconds) +
                "}";
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

    // Shared-vs-private BDD manager on the exact-verification workload.
    // Capped at a 10-bit adder: with the generator's PI order (all a's,
    // then all b's) adder cone BDDs grow exponentially in the bit width,
    // and past ~12 bits they exceed any sane node limit — which used to
    // kill this bench with an uncaught ResourceExhausted at the default
    // 16-bit size.
    const Aig bdd_rca = bits <= 10 ? rca : ripple_carry_adder(10);
    std::printf("shared BDD manager: node BDDs of all %zu PO cones x32 rounds (%d-bit adder)\n",
                bdd_rca.num_pos(), bits <= 10 ? bits : 10);
    const std::vector<BddRow> bdd_rows = bdd_sweep(bdd_rca, job_counts);
    bool bdd_sharing_observed = false;
    for (const auto& row : bdd_rows)
        bdd_sharing_observed = bdd_sharing_observed || row.shared_hit_rate > 0.0;
    std::printf("cross-worker ITE-cache hits observed: %s\n",
                bdd_sharing_observed ? "yes" : "NO (BUG)");

    std::string json = "{\"circuit\":\"rca" + std::to_string(bits) + "\",\"bits\":" +
                       std::to_string(bits) + ",\"iterations\":" + std::to_string(iterations) +
                       ",\"hardware_threads\":" + std::to_string(ThreadPool::hardware_jobs()) +
                       ",\"qor_identical\":" + (identical ? "true" : "false") +
                       ",\"runs\":" + rows_json(rows) +
                       ",\"budgeted\":{\"work_budget\":" + std::to_string(work_budget) +
                       ",\"qor_identical\":" + (budgeted_identical ? "true" : "false") +
                       ",\"runs\":" + rows_json(budgeted_rows) + "}" +
                       ",\"bdd\":{\"sharing_observed\":" + (bdd_sharing_observed ? "true" : "false") +
                       ",\"runs\":" + bdd_rows_json(bdd_rows) + "}}\n";
    if (std::FILE* f = std::fopen("BENCH_parallel.json", "w")) {
        std::fputs(json.c_str(), f);
        std::fclose(f);
        std::printf("wrote BENCH_parallel.json\n");
    }
    return identical && budgeted_identical && bdd_sharing_observed ? 0 : 1;
}
