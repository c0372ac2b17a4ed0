// Workload definitions, input generation, and the child side of a rep: the
// program phase (read, optimize, verify, map), and for the traced rep the
// registry snapshot and the replay pass that times each layer from outside.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "aig/aig_build.hpp"
#include "baseline/restructure.hpp"
#include "bench.hpp"
#include "cec/cec.hpp"
#include "engine/cache.hpp"
#include "engine/engine.hpp"
#include "engine/metrics.hpp"
#include "engine/warm_start.hpp"
#include "io/blif.hpp"
#include "io/generators.hpp"
#include "lookahead/decompose.hpp"
#include "mapping/mapper.hpp"
#include "network/network.hpp"
#include "sim/simulation.hpp"
#include "spcf/spcf.hpp"
#include "trace.hpp"

namespace fs = std::filesystem;

namespace lls_bench {

const std::vector<Workload>& workloads() {
    static const std::vector<Workload> list = {
        {"table2_batch", WorkloadKind::Table2Batch},
        {"adders", WorkloadKind::Adders},
        {"lookahead_only", WorkloadKind::LookaheadOnly},
        {"lookahead_warm", WorkloadKind::LookaheadWarm},
    };
    return list;
}

const Workload* find_workload(std::string_view name) {
    for (const auto& w : workloads())
        if (name == w.name) return &w;
    return nullptr;
}

namespace {

constexpr double kExact = 0.0001;

}  // namespace

const std::vector<MetricDef>& end_to_end_metrics() {
    static const std::vector<MetricDef> list = {
        {"wall_s", "s", 0.25},         {"setup_s", "s", 0.25, 0.02},
        {"cpu_s", "s", 0.25},          {"peak_rss_mb", "MB", 0.15},
        {"levels_sum", "levels", kExact}, {"ands_sum", "ANDs", kExact},
        {"delay_ps_sum", "ps", kExact},   {"power_mw_sum", "mW", kExact},
        {"work_units", "units", kExact},
    };
    return list;
}

bool is_exact_metric(std::string_view name) {
    for (const auto& m : end_to_end_metrics())
        if (name == m.name) return m.bound == kExact;
    return false;
}

const std::vector<MetricDef>& per_layer_metrics() {
    static const std::vector<MetricDef> list = {
        {"engine.total_s", "s", 0},
        {"engine.evaluate_pct", "%", 0},
        {"engine.commit_pct", "%", 0},
        {"engine.restructure_pct", "%", 0},
        {"engine.sat_sweep_pct", "%", 0},
        {"engine.cec_pct", "%", 0},
        {"engine.rounds", "count", 0},
        {"engine.cones_evaluated", "count", 0},
        {"engine.cone_yield", "ratio", 0},
        {"engine.fault.records", "count", 0},
        {"engine.steal.stolen_indices", "count", 0},
        {"engine.steal.idle_wait_pct", "%", 0},
        {"engine.intracone.queries", "count", 0},
        {"engine.intracone.idle_wait_pct", "%", 0},
        {"sat.evaluate_conflicts", "count", 0},
        {"sat.sweep_conflicts", "count", 0},
        {"sat.cec_conflicts", "count", 0},
        {"baseline.restructure_s", "s", 0},
        {"baseline.balance_s", "s", 0},
        {"lookahead.decompose_s", "s", 0},
        {"lookahead.cone_p50_ms", "ms", 0},
        {"lookahead.cone_p90_ms", "ms", 0},
        {"lookahead.cone_yield", "ratio", 0},
        {"spcf.compute_s", "s", 0},
        {"spcf.compute_calls", "count", 0},
        {"network.clustering_s", "s", 0},
        {"sim.simulate_s", "s", 0},
        {"sim.timing_simulate_s", "s", 0},
        {"cec.verify_s", "s", 0},
        {"cec.check_equivalence_s", "s", 0},
        {"cec.sat_sweep_s", "s", 0},
        {"memo.decompose.hit_rate", "ratio", 0},
        {"memo.cec.hit_rate", "ratio", 0},
        {"memo.npn.hit_rate", "ratio", 0},
        {"memo.exact.hit_rate", "ratio", 0},
        {"memo.bytes", "bytes", 0},
        {"persist.load_pct", "%", 0},
        {"persist.finalize_pct", "%", 0},
        {"persist.records_imported", "count", 0},
        {"persist.warm_hits", "count", 0},
        {"persist.store.records", "count", 0},
        {"aig.extract_cone_s", "s", 0},
        {"aig.levels_s", "s", 0},
        {"io.read_blif_s", "s", 0},
        {"mapping.map_s", "s", 0},
        {"bdd.ite_cache.hit_rate", "ratio", 0},
        {"bdd.unique.nodes", "count", 0},
        {"bdd.shared.exact_verify_fallbacks", "count", 0},
        {"adders.cla_gap_levels", "levels", 0},
        {"trace.overhead_pct", "%", 0},
    };
    return list;
}

namespace {

/// The Table 2 stand-ins of table2_batch: the seven whose full flow
/// (restructure included) takes under 3 s each on four cores, plus
/// sparc_ifu_dcl_flat (about 6 s alone), the straggler. It comes first in
/// Table 2 order, so it is dispatched first and the batch ends on it. The
/// other seven take 9-47 s each, too long to repeat three times within
/// one measured run.
bool in_table2_batch(const std::string& name) {
    static const char* const kNames[] = {"sparc_ifu_dcl_flat",
                                         "dalu",
                                         "C432",
                                         "C880",
                                         "C3540",
                                         "lsu_stb_ctl_flat",
                                         "sparc_ifu_dec_flat",
                                         "sparc_tlu_intctl_flat"};
    return std::find(std::begin(kNames), std::end(kNames), name) != std::end(kNames);
}

/// Each rep sets up at least kMinSetups times and until kSetupSeconds have
/// passed, at most kMaxSetups times: five set-ups of the 1-20 ms inputs
/// are too few to be steady.
constexpr std::size_t kMinSetups = 5;
constexpr std::size_t kMaxSetups = 200;
constexpr double kSetupSeconds = 0.25;

lls::LookaheadParams params_for(WorkloadKind kind) {
    lls::LookaheadParams params;
    switch (kind) {
        case WorkloadKind::Table2Batch: params.max_iterations = 8; break;
        case WorkloadKind::Adders: params.max_iterations = 12; break;
        case WorkloadKind::LookaheadOnly:
        case WorkloadKind::LookaheadWarm:
            params.max_iterations = 10;
            params.baseline_preoptimize = false;
            params.force_random_patterns = true;
            break;
    }
    return params;
}

struct Circuit {
    std::string name;
    lls::Aig input;
};

struct Row {
    std::string name;
    int levels = 0;
    std::size_t ands = 0;
    double delay_ps = 0.0;
    double power_mw = 0.0;
    std::uint64_t work_units = 0;
    std::uint64_t hash = 0;
    double seconds = 0.0;
    std::string problem;  ///< empty when the output is verified correct
};

Json row_json(const Row& r) {
    char hash[24];
    std::snprintf(hash, sizeof(hash), "%016llx", static_cast<unsigned long long>(r.hash));
    Json j = Json::object();
    j.set("name", r.name);
    j.set("levels", r.levels);
    j.set("ands", static_cast<std::uint64_t>(r.ands));
    j.set("delay_ps", r.delay_ps);
    j.set("power_mw", r.power_mw);
    j.set("work_units", r.work_units);
    j.set("hash", std::string(hash));
    j.set("seconds", r.seconds);
    j.set("problem", r.problem);
    return j;
}

/// Verifies and maps one optimized circuit: the deliverable lls_opt
/// produces. CEC uses lls_opt's conflict limit.
Row finish(const Circuit& c, const lls::Aig& output, const lls::OptimizeStats& stats,
           const std::string& failure, double seconds, const lls::CellLibrary& library,
           Trace& trace, int parent) {
    Row row;
    row.name = c.name;
    row.seconds = seconds;
    row.work_units = stats.work_units;
    row.problem = failure;
    if (row.problem.empty() && !stats.verified) row.problem = "engine reported an unverified step";
    {
        const ScopedSpan span(trace, "cec.verify", c.name, parent);
        const lls::CecResult cec = lls::check_equivalence(c.input, output, 4000000);
        if (row.problem.empty() && !cec.resolved) row.problem = "CEC unresolved";
        if (row.problem.empty() && !cec.equivalent) row.problem = "CEC counterexample";
    }
    {
        const ScopedSpan span(trace, "mapping.map", c.name, parent);
        const lls::MappedCircuit mapped = lls::map_circuit(output, library);
        row.delay_ps = mapped.delay_ps;
        row.power_mw = mapped.power_mw;
    }
    row.levels = output.depth();
    row.ands = output.count_reachable_ands();
    row.hash = output.hash();
    return row;
}

/// Linear-interpolation percentile (p in [0, 1]) of a non-empty sample.
double percentile(std::vector<double> values, double p) {
    std::sort(values.begin(), values.end());
    const double pos = p * static_cast<double>(values.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

struct ReplayOutcome {
    int cones = 0;
    int cones_improved = 0;
    int failures = 0;
};

/// The replay pass: calls each layer's public functions on the workload's
/// own inputs, one span per call. Per circuit: levels, one delay-oriented
/// restructure round (the engine's restructure_round), SAT sweep, CEC
/// against the input. Per circuit's 16 deepest PO cones (ties by PO
/// index): cone extraction, simulation, timing simulation, SPCF,
/// clustering, and one lookahead decomposition with fixed RNG seeds.
ReplayOutcome replay(const std::vector<Circuit>& circuits, const lls::LookaheadParams& params,
                     Trace& trace) {
    constexpr std::size_t kConesPerCircuit = 16;
    ReplayOutcome out;
    const ScopedSpan replay_span(trace, "replay");
    lls::RestructureOptions delay_opt;
    delay_opt.delay_oriented = true;
    delay_opt.cut_size = 8;
    for (const Circuit& c : circuits) {
        std::vector<int> levels;
        {
            const ScopedSpan span(trace, "aig.levels", c.name);
            levels = c.input.compute_levels();
        }
        lls::Aig restructured, balanced, swept;
        {
            const ScopedSpan span(trace, "baseline.restructure", c.name);
            restructured = lls::restructure(c.input, delay_opt);
        }
        {
            const ScopedSpan span(trace, "baseline.balance", c.name);
            balanced = lls::balance(restructured);
        }
        {
            const ScopedSpan span(trace, "cec.sat_sweep", c.name);
            lls::Rng rng(1);
            swept = lls::sat_sweep(balanced, rng, 2000, 1024, /*depth_aware=*/true);
        }
        {
            const ScopedSpan span(trace, "cec.check_equivalence", c.name);
            const lls::CecResult cec = lls::check_equivalence(c.input, swept, 4000000);
            if (!cec.resolved || !cec.equivalent) ++out.failures;
        }

        std::vector<std::size_t> pos(c.input.num_pos());
        std::iota(pos.begin(), pos.end(), 0);
        std::stable_sort(pos.begin(), pos.end(), [&](std::size_t a, std::size_t b) {
            return levels[c.input.po(a).node()] > levels[c.input.po(b).node()];
        });
        pos.resize(std::min(pos.size(), kConesPerCircuit));
        for (const std::size_t po : pos) {
            const ScopedSpan cone_span(trace, "lookahead.cone", c.name);
            lls::Aig cone;
            {
                const ScopedSpan span(trace, "aig.extract_cone", c.name);
                cone = lls::extract_cone(c.input, po);
            }
            lls::Rng pattern_rng(params.seed);
            std::optional<lls::SimPatterns> patterns;
            std::vector<lls::Signature> sigs;
            {
                const ScopedSpan span(trace, "sim.simulate", c.name);
                patterns.emplace(cone.num_pis() <= lls::SimPatterns::kMaxExhaustivePis
                                     ? lls::SimPatterns::exhaustive(cone.num_pis())
                                     : lls::SimPatterns::random(cone.num_pis(),
                                                                params.num_random_patterns,
                                                                pattern_rng));
                sigs = lls::simulate(cone, *patterns);
            }
            {
                const ScopedSpan span(trace, "sim.timing_simulate", c.name);
                lls::timing_simulate(cone, *patterns, sigs);
            }
            {
                const ScopedSpan span(trace, "spcf.compute", c.name);
                lls::compute_spcf(cone, *patterns, sigs);
            }
            {
                const ScopedSpan span(trace, "network.clustering", c.name);
                lls::Network::from_aig(cone, params.cut_size, params.max_cuts);
            }
            {
                const ScopedSpan span(trace, "lookahead.decompose", c.name);
                lls::Rng rng(lls::hash_mix(params.seed, cone.hash()));
                if (lls::decompose_output(cone, params, rng)) ++out.cones_improved;
            }
            ++out.cones;
        }
    }
    return out;
}

/// Per-layer metrics of the traced rep, from the engine registry snapshot
/// taken after the program phase and from the spans (program + replay).
Json layer_metrics(const std::map<std::string, double>& counters,
                   const std::map<std::string, double>& timers,
                   const std::map<std::string, double>& timer_samples,
                   const std::vector<lls::CacheStatsSnapshot>& caches,
                   const std::vector<Span>& spans, const ReplayOutcome& replay,
                   std::size_t records_imported, double setup_s, double wall_s) {
    const auto get = [](const std::map<std::string, double>& m, const char* key) {
        const auto it = m.find(key);
        return it == m.end() ? 0.0 : it->second;
    };
    const auto pct = [](double part, double whole) { return whole > 0 ? 100.0 * part / whole : 0.0; };
    const auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
    const auto cache_hit_rate = [&](const char* name) {
        for (const auto& c : caches)
            if (c.name == name)
                return ratio(static_cast<double>(c.hits), static_cast<double>(c.hits + c.misses));
        return 0.0;
    };

    const auto span_totals = total_seconds_by_name(spans);
    std::vector<double> cone_ms;
    for (const Span& s : spans)
        if (s.name == "lookahead.cone") cone_ms.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-6);
    const double total = get(timers, "engine.total");
    // Thread capacity of the optimize calls: idle waits are shares of it.
    const double capacity = get(span_totals, "engine.optimize") * kJobs;
    double memo_bytes = 0;
    for (const auto& c : caches) memo_bytes += static_cast<double>(c.bytes);

    Json m = Json::object();
    m.set("engine.total_s", total);
    m.set("engine.evaluate_pct", pct(get(timers, "engine.evaluate"), total));
    m.set("engine.commit_pct", pct(get(timers, "engine.commit"), total));
    m.set("engine.restructure_pct", pct(get(timers, "engine.restructure"), total));
    m.set("engine.sat_sweep_pct", pct(get(timers, "engine.sat_sweep"), total));
    m.set("engine.cec_pct", pct(get(timers, "engine.cec"), total));
    m.set("engine.rounds", get(counters, "engine.rounds"));
    m.set("engine.cones_evaluated", get(counters, "engine.cones_evaluated"));
    m.set("engine.cone_yield",
          ratio(get(counters, "engine.cones_improved"), get(counters, "engine.cones_evaluated")));
    m.set("engine.fault.records", get(counters, "engine.fault.records"));
    m.set("engine.steal.stolen_indices", get(counters, "engine.steal.stolen_indices"));
    m.set("engine.steal.idle_wait_pct", pct(get(timers, "engine.steal.idle_wait"), capacity));
    m.set("engine.intracone.queries", get(counters, "engine.intracone.queries"));
    m.set("engine.intracone.idle_wait_pct",
          pct(get(timers, "engine.intracone.idle_wait"), capacity));
    m.set("sat.evaluate_conflicts", get(counters, "engine.work.evaluate.sat_conflicts"));
    m.set("sat.sweep_conflicts", get(counters, "engine.work.sat_sweep.sat_conflicts"));
    m.set("sat.cec_conflicts", get(counters, "engine.work.cec.sat_conflicts"));
    m.set("baseline.restructure_s", get(span_totals, "baseline.restructure"));
    m.set("baseline.balance_s", get(span_totals, "baseline.balance"));
    m.set("lookahead.decompose_s", get(span_totals, "lookahead.decompose"));
    m.set("lookahead.cone_p50_ms", cone_ms.empty() ? 0.0 : percentile(cone_ms, 0.5));
    m.set("lookahead.cone_p90_ms", cone_ms.empty() ? 0.0 : percentile(cone_ms, 0.9));
    m.set("lookahead.cone_yield", ratio(replay.cones_improved, replay.cones));
    m.set("spcf.compute_s", get(span_totals, "spcf.compute"));
    m.set("spcf.compute_calls", get(timer_samples, "spcf.compute"));
    m.set("network.clustering_s", get(span_totals, "network.clustering"));
    m.set("sim.simulate_s", get(span_totals, "sim.simulate"));
    m.set("sim.timing_simulate_s", get(span_totals, "sim.timing_simulate"));
    m.set("cec.verify_s", get(span_totals, "cec.verify"));
    m.set("cec.check_equivalence_s", get(span_totals, "cec.check_equivalence"));
    m.set("cec.sat_sweep_s", get(span_totals, "cec.sat_sweep"));
    m.set("memo.decompose.hit_rate", cache_hit_rate("decompose_memo"));
    m.set("memo.cec.hit_rate", cache_hit_rate("cec_memo"));
    m.set("memo.npn.hit_rate", cache_hit_rate("npn_canon"));
    m.set("memo.exact.hit_rate", cache_hit_rate("exact_structures"));
    m.set("memo.bytes", memo_bytes);
    m.set("persist.load_pct", pct(get(span_totals, "persist.load"), setup_s));
    m.set("persist.finalize_pct", pct(get(span_totals, "persist.finalize"), wall_s));
    m.set("persist.records_imported", static_cast<std::uint64_t>(records_imported));
    m.set("persist.warm_hits", get(counters, "persist.warm_hits"));
    m.set("persist.store.records", get(counters, "persist.store.records"));
    m.set("aig.extract_cone_s", get(span_totals, "aig.extract_cone"));
    m.set("aig.levels_s", get(span_totals, "aig.levels"));
    m.set("io.read_blif_s", get(span_totals, "io.read_blif"));
    m.set("mapping.map_s", get(span_totals, "mapping.map"));
    m.set("bdd.ite_cache.hit_rate",
          ratio(get(counters, "bdd.ite_cache.hits"),
                get(counters, "bdd.ite_cache.hits") + get(counters, "bdd.ite_cache.misses")));
    m.set("bdd.unique.nodes", get(counters, "bdd.unique.nodes"));
    m.set("bdd.shared.exact_verify_fallbacks",
          get(counters, "bdd.shared.exact_verify_fallbacks"));
    return m;
}

}  // namespace

void write_inputs(const Workload& workload, bool quick, const std::string& dir) {
    std::vector<Circuit> circuits;
    if (workload.kind == WorkloadKind::Adders) {
        const std::vector<int> widths = quick ? std::vector<int>{2, 4, 8}
                                              : std::vector<int>{2, 4, 8, 16, 32};
        for (const int n : widths)
            circuits.push_back({"rca" + std::to_string(n), lls::ripple_carry_adder(n)});
    } else {
        for (const auto& profile : lls::table2_profiles())
            if (workload.kind != WorkloadKind::Table2Batch || in_table2_batch(profile.name))
                circuits.push_back({profile.name, lls::synthetic_control_circuit(profile)});
    }
    fs::remove_all(dir);
    fs::create_directories(dir);
    for (std::size_t i = 0; i < circuits.size(); ++i) {
        const std::string prefix = (i < 10 ? "0" : "") + std::to_string(i) + "_";
        lls::write_blif_file((fs::path(dir) / (prefix + circuits[i].name + ".blif")).string(),
                             circuits[i].input, circuits[i].name);
    }
}

namespace {

/// What a rep sets up before its first optimize call.
struct Setup {
    std::vector<Circuit> circuits;
    std::unique_ptr<lls::WarmStart> warm;
};

/// Reads every input and opens the memo store.
Setup set_up(const RepOptions& options, Trace& trace) {
    Setup setup;
    const ScopedSpan span(trace, "setup");
    std::vector<fs::path> files;
    for (const auto& entry : fs::directory_iterator(options.inputs_dir))
        if (entry.path().extension() == ".blif") files.push_back(entry.path());
    std::sort(files.begin(), files.end());
    for (const auto& path : files) {
        const std::string name = path.stem().string().substr(3);  // drop "NN_"
        const ScopedSpan read_span(trace, "io.read_blif", name);
        setup.circuits.push_back({name, lls::read_blif_file(path.string())});
    }
    if (!options.store_dir.empty()) {
        const ScopedSpan load_span(trace, "persist.load");
        setup.warm = std::make_unique<lls::WarmStart>(
            options.store_dir, options.store_read_only ? lls::persist::StoreMode::Read
                                                       : lls::persist::StoreMode::ReadWrite);
    }
    return setup;
}

}  // namespace

int run_rep(const RepOptions& options) {
    using Clock = std::chrono::steady_clock;
    const auto seconds_since = [](Clock::time_point t) {
        return std::chrono::duration<double>(Clock::now() - t).count();
    };
    const WorkloadKind kind = options.workload->kind;
    const lls::LookaheadParams params = params_for(kind);
    const lls::CellLibrary library = lls::CellLibrary::generic_70nm();
    Trace trace(!options.trace_path.empty());
    lls::Metrics::global().reset();
    const int rep_span = trace.begin("rep", "", -1);

    // Set-up is repeated: one set-up takes 1-100 ms, too short to time once,
    // and the parent reports the median over every set-up of every rep.
    // Only the last one is traced and used. The first imports a warm store
    // into empty memo caches, the later ones overwrite the same entries.
    Trace untraced(false);
    std::vector<double> setup_times;
    Setup setup;
    const auto setups_start = Clock::now();
    for (;;) {
        const bool last = setup_times.size() + 1 >= kMinSetups &&
                          (seconds_since(setups_start) >= kSetupSeconds ||
                           setup_times.size() + 1 >= kMaxSetups);
        setup = {};
        const auto start = Clock::now();
        setup = set_up(options, last ? trace : untraced);
        setup_times.push_back(seconds_since(start));
        if (last) break;
    }
    const double setup_s = median(setup_times);
    const std::vector<Circuit>& circuits = setup.circuits;
    const std::unique_ptr<lls::WarmStart>& warm = setup.warm;

    // Program phase: optimize, verify and map every circuit, then flush the
    // store — what one lls_opt run delivers.
    const auto program_start = Clock::now();
    std::vector<Row> rows(circuits.size());
    {
        const ScopedSpan program_span(trace, "program");
        lls::EngineOptions engine;
        engine.jobs = kJobs;
        engine.warm_start = warm.get();
        if (kind == WorkloadKind::Table2Batch) {
            std::vector<lls::BatchItem> items;
            for (const auto& c : circuits) items.push_back({c.name, c.input});
            const ScopedSpan batch_span(trace, "engine.optimize");
            const int parent = batch_span.id();
            // Runs under the batch's completion mutex, on worker threads,
            // as lls_opt --batch verifies each item.
            lls::optimize_timing_batch(
                items, params, engine, [&](const lls::BatchOutcome& outcome, std::size_t i) {
                    std::string failure;
                    if (outcome.failed) failure = "item failed: " + outcome.error;
                    if (outcome.cancelled) failure = "item cancelled";
                    rows[i] = finish(circuits[i], outcome.output, outcome.stats, failure,
                                     outcome.seconds, library, trace, parent);
                });
        } else {
            for (std::size_t i = 0; i < circuits.size(); ++i) {
                const auto start = Clock::now();
                lls::OptimizeStats stats;
                lls::Aig output;
                std::string failure;
                {
                    const ScopedSpan span(trace, "engine.optimize", circuits[i].name);
                    try {
                        output = lls::optimize_timing_engine(circuits[i].input, params, engine,
                                                             &stats);
                    } catch (const std::exception& e) {
                        failure = std::string("optimize threw: ") + e.what();
                        output = circuits[i].input;
                    }
                }
                rows[i] = finish(circuits[i], output, stats, failure, seconds_since(start),
                                 library, trace, Trace::kCurrent);
            }
        }
        if (warm) {
            const ScopedSpan span(trace, "persist.finalize");
            warm->finalize();
        }
    }
    const double wall_s = seconds_since(program_start);

    Json result = Json::object();
    Json setups = Json::array();
    for (double t : setup_times) setups.push(t);
    result.set("setup_s", std::move(setups));
    result.set("wall_s", wall_s);
    Json list = Json::array();
    for (const Row& r : rows) list.push(row_json(r));
    result.set("circuits", std::move(list));

    if (trace.enabled()) {
        std::map<std::string, double> counters, timers, samples;
        for (const auto& c : lls::Metrics::global().counters())
            counters[c.name] = static_cast<double>(c.value);
        for (const auto& t : lls::Metrics::global().timers()) {
            timers[t.name] = t.total_seconds;
            samples[t.name] = static_cast<double>(t.samples);
        }
        const auto caches = lls::all_cache_stats();
        const ReplayOutcome replayed = replay(circuits, params, trace);
        trace.end(rep_span);
        const auto spans = trace.spans();
        result.set("replay_failures", replayed.failures);
        result.set("per_layer",
                   layer_metrics(counters, timers, samples, caches, spans, replayed, warm ? warm->imported_records() : 0, setup_s,
                                 wall_s));
        Json self = Json::object();
        for (const auto& [name, seconds] : self_seconds_by_name(spans)) self.set(name, seconds);
        result.set("span_self_s", std::move(self));
        write_file(options.trace_path, trace_to_json(spans).dump() + "\n");
    }
    write_file(options.result_path, result.dump() + "\n");
    return 0;
}

}  // namespace lls_bench
