#include "engine/engine.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <sstream>

#include "cec/cec.hpp"
#include "common/error.hpp"
#include "common/fault.hpp"
#include "engine/checkpoint.hpp"
#include "engine/metrics.hpp"
#include "io/blif.hpp"
#include "io/generators.hpp"

namespace lls {
namespace {

/// QoR + structure fingerprint of an optimized circuit.
struct Result {
    int depth;
    std::size_t ands;
    std::uint64_t hash;
};

Result run(const Aig& input, int jobs) {
    LookaheadParams params;
    params.max_iterations = 6;
    EngineOptions engine;
    engine.jobs = jobs;
    OptimizeStats stats;
    const Aig out = optimize_timing_engine(input, params, engine, &stats);
    EXPECT_TRUE(stats.verified);
    EXPECT_TRUE(check_equivalence(input, out, 2000000).equivalent);
    return {out.depth(), out.count_reachable_ands(), out.hash()};
}

TEST(Engine, JobsInvariantOnGeneratedAdders) {
    for (const int bits : {6, 10}) {
        const Aig rca = ripple_carry_adder(bits);
        const Result serial = run(rca, 1);
        const Result parallel4 = run(rca, 4);
        EXPECT_EQ(serial.depth, parallel4.depth) << bits;
        EXPECT_EQ(serial.ands, parallel4.ands) << bits;
        // Stronger than QoR equality: the committed structure is identical.
        EXPECT_EQ(serial.hash, parallel4.hash) << bits;
        EXPECT_LT(serial.depth, rca.depth()) << bits;
    }
}

TEST(Engine, JobsInvariantOnBlifRoundtrip) {
    BenchmarkProfile profile;
    profile.name = "engine_case";
    profile.num_pis = 12;
    profile.num_pos = 4;
    profile.chain_length = 9;
    profile.num_shared = 3;
    profile.seed = 11;
    const Aig circuit = synthetic_control_circuit(profile);

    // Through the BLIF reader, as a real input file would arrive.
    std::stringstream blif;
    write_blif(blif, circuit, "engine_case");
    const Aig parsed = read_blif(blif);

    const Result serial = run(parsed, 1);
    const Result parallel3 = run(parsed, 3);
    EXPECT_EQ(serial.depth, parallel3.depth);
    EXPECT_EQ(serial.ands, parallel3.ands);
    EXPECT_EQ(serial.hash, parallel3.hash);
}

std::string run_aiger(const Aig& input, int jobs) {
    LookaheadParams params;
    params.max_iterations = 6;
    EngineOptions engine;
    engine.jobs = jobs;
    OptimizeStats stats;
    const Aig out = optimize_timing_engine(input, params, engine, &stats);
    EXPECT_TRUE(stats.verified);
    std::stringstream aag;
    write_aiger(aag, out);
    return aag.str();
}

TEST(Engine, SerializedOutputIsByteIdenticalAcrossJobs) {
    // Every jobs value spreads the cones over a different number of
    // workers: the serialized output must match the serial run.
    const Aig rca = ripple_carry_adder(8);
    const std::string baseline = run_aiger(rca, 1);
    for (const int jobs : {2, 4}) EXPECT_EQ(run_aiger(rca, jobs), baseline) << "jobs=" << jobs;
}

/// Everything a cold run of the flow produces, as one comparable line: the
/// circuit, the accounting, an FNV-1a hash of the stats log and each fault
/// record's kind, stage, cone and cone name.
std::string flow_summary(const Aig& input, const LookaheadParams& params, int jobs) {
    clear_engine_caches();
    EngineOptions engine;
    engine.jobs = jobs;
    OptimizeStats stats;
    const Aig out = optimize_timing_engine(input, params, engine, &stats);
    std::string log;
    for (const std::string& line : stats.log) log += line + '\n';
    char line[256];
    std::snprintf(line, sizeof(line),
                  "hash %016llx ands %zu depth %d work %llu iterations %d decomposed %d "
                  "verified %d log %016llx",
                  static_cast<unsigned long long>(out.hash()), out.count_reachable_ands(),
                  out.depth(), static_cast<unsigned long long>(stats.work_units),
                  stats.iterations, stats.outputs_decomposed, stats.verified ? 1 : 0,
                  static_cast<unsigned long long>(checkpoint_bytes_hash(log)));
    std::string summary = line;
    for (const FaultRecord& f : stats.faults)
        summary += std::string("; ") + error_kind_name(f.kind) + "/" + f.stage + "/" +
                   std::to_string(f.cone) + "/" + f.cone_name;
    return summary;
}

TEST(Engine, FlowOutputIsPinned) {
    // The whole flow's output, pinned: restructuring the engine must not
    // move a bit of it. lsu_stb_ctl_flat starts at 1480 ANDs and its
    // candidates exceed kPerIterationCheckLimit (1500), so the pass-level
    // sweep and CEC run too.
    Aig lsu;
    for (const BenchmarkProfile& profile : table2_profiles())
        if (profile.name == "lsu_stb_ctl_flat") lsu = synthetic_control_circuit(profile);
    ASSERT_EQ(lsu.count_reachable_ands(), 1480u);
    LookaheadParams four_iterations;
    four_iterations.max_iterations = 4;
    LookaheadParams faulted;
    faulted.fault_plan = FaultPlan::parse("resource@decompose");
    const struct {
        const char* name;
        Aig input;
        LookaheadParams params;
        const char* summary;
    } cases[] = {
        {"rca16", ripple_carry_adder(16), LookaheadParams{},
         "hash 7fbe37dfc6659c44 ands 493 depth 14 work 3614 iterations 9 decomposed 22 "
         "verified 1 log 2e31ac468ac1787e"},
        {"lsu_stb_ctl_flat", lsu, four_iterations,
         "hash 3e18650427336ed7 ands 2814 depth 23 work 1481 iterations 3 decomposed 3 "
         "verified 1 log 0bd2718590b801f1"},
        {"rca16 resource@decompose", ripple_carry_adder(16), faulted,
         "hash 1ebf8b3762ce2890 ands 181 depth 20 work 4 iterations 1 decomposed 0 "
         "verified 1 log cbf29ce484222325; resource/decompose/15/sum15; "
         "resource/decompose/16/cout; resource/decompose/15/sum15; "
         "resource/decompose/15/sum15"},
    };
    for (const auto& c : cases)
        for (const int jobs : {1, 4})
            EXPECT_EQ(flow_summary(c.input, c.params, jobs), c.summary)
                << c.name << " jobs=" << jobs;
}

TEST(Engine, CacheHitCountersIncreaseOnRepeatedRuns) {
    const Aig rca = ripple_carry_adder(9);
    clear_engine_caches();
    const Result cold = run(rca, 1);
    const std::vector<CacheStatsSnapshot> after_first = all_cache_stats();
    // The engine has exactly two memos.
    ASSERT_EQ(after_first.size(), 2u);
    EXPECT_EQ(after_first[0].name, "decompose_memo");
    EXPECT_EQ(after_first[1].name, "cec_memo");
    const Result warm = run(rca, 1);
    const std::vector<CacheStatsSnapshot> after_second = all_cache_stats();
    // The second run re-derives the same cones, so it must hit the memo,
    // and the memo must not change what it commits.
    EXPECT_GT(after_second[0].hits, after_first[0].hits);
    EXPECT_GT(after_second[0].entries, 0u);
    EXPECT_EQ(warm.depth, cold.depth);
    EXPECT_EQ(warm.ands, cold.ands);
    EXPECT_EQ(warm.hash, cold.hash);
}

TEST(Engine, BatchMatchesIndividualRuns) {
    std::vector<BatchItem> items;
    items.push_back({"rca6", ripple_carry_adder(6)});
    items.push_back({"rca8", ripple_carry_adder(8)});

    LookaheadParams params;
    params.max_iterations = 6;
    EngineOptions engine;
    engine.jobs = 2;
    const auto outcomes = optimize_timing_batch(items, params, engine);
    ASSERT_EQ(outcomes.size(), 2u);
    for (std::size_t i = 0; i < items.size(); ++i) {
        EXPECT_EQ(outcomes[i].name, items[i].name);
        EXPECT_TRUE(check_equivalence(items[i].input, outcomes[i].output, 2000000).equivalent);
        const Result individual = run(items[i].input, 1);
        EXPECT_EQ(outcomes[i].output.depth(), individual.depth) << items[i].name;
        EXPECT_EQ(outcomes[i].output.count_reachable_ands(), individual.ands) << items[i].name;
    }
}

/// A deliberately skewed batch: one circuit with many equally-critical
/// cones (wide per-round fan-out) plus several small adders that finish
/// quickly.
std::vector<BatchItem> skewed_batch() {
    BenchmarkProfile profile;
    profile.name = "skewed_big";
    profile.num_pis = 14;
    profile.num_pos = 8;
    profile.chain_length = 9;
    profile.num_shared = 3;
    profile.seed = 23;
    std::vector<BatchItem> items;
    items.push_back({"big", synthetic_control_circuit(profile)});
    items.push_back({"small0", ripple_carry_adder(4)});
    items.push_back({"small1", ripple_carry_adder(5)});
    items.push_back({"small2", ripple_carry_adder(6)});
    return items;
}

std::vector<std::string> batch_aigers(const std::vector<BatchItem>& items, int jobs) {
    // Cold caches every run: a warm memo would mask any schedule-dependence
    // this test exists to catch.
    clear_engine_caches();
    LookaheadParams params;
    params.max_iterations = 5;
    EngineOptions engine;
    engine.jobs = jobs;
    const auto outcomes = optimize_timing_batch(items, params, engine);
    std::vector<std::string> aigers;
    for (const auto& outcome : outcomes) {
        EXPECT_FALSE(outcome.failed) << outcome.name;
        std::stringstream aag;
        write_aiger(aag, outcome.output);
        aigers.push_back(aag.str());
    }
    return aigers;
}

TEST(Engine, BatchIsByteIdenticalAcrossJobs) {
    // A batch is N standalone runs that split `jobs`: full serialized
    // bytes, not just QoR, must match the serial batch. At jobs 8 each of
    // the 4 items fans out on 2 threads of its own.
    const auto items = skewed_batch();
    const auto baseline = batch_aigers(items, 1);
    ASSERT_EQ(baseline.size(), items.size());
    for (const int jobs : {2, 4, 8})
        EXPECT_EQ(batch_aigers(items, jobs), baseline) << "jobs=" << jobs;
}

TEST(Engine, EmptyBatchReturnsNoOutcomes) {
    // What `lls_opt --resume` passes when every item is already journaled.
    for (const int jobs : {1, 4}) {
        EngineOptions engine;
        engine.jobs = jobs;
        int calls = 0;
        const auto outcomes = optimize_timing_batch(
            {}, LookaheadParams{}, engine, [&](const BatchOutcome&, std::size_t) { ++calls; });
        EXPECT_TRUE(outcomes.empty()) << "jobs=" << jobs;
        EXPECT_EQ(calls, 0) << "jobs=" << jobs;
    }
}

/// Full byte-level fingerprint of a budgeted run: the serialized output AIG
/// plus the budget bookkeeping. "Bit-identical across --jobs" means exactly
/// this string being equal, not just depth/AND counts.
struct BudgetedResult {
    std::string aiger;
    std::uint64_t work_units;
    bool budget_exhausted;
};

BudgetedResult run_budgeted(const Aig& input, std::uint64_t work_budget, int jobs) {
    LookaheadParams params;
    params.max_iterations = 6;
    params.work_budget = work_budget;
    EngineOptions engine;
    engine.jobs = jobs;
    OptimizeStats stats;
    const Aig out = optimize_timing_engine(input, params, engine, &stats);
    EXPECT_TRUE(stats.verified);
    EXPECT_FALSE(stats.wall_clock_interrupted);
    EXPECT_TRUE(check_equivalence(input, out, 2000000).equivalent);
    std::stringstream aag;
    write_aiger(aag, out);
    return {aag.str(), stats.work_units, stats.budget_exhausted};
}

TEST(Engine, BudgetedRunsAreJobsInvariant) {
    // Budgets chosen to exercise the interesting regimes: 1 (exhausted after
    // the very first round), a mid value (exhausted partway through the run),
    // and a huge value (never binds). Every jobs count must agree byte for
    // byte on the output AND on the work spent.
    const Aig rca = ripple_carry_adder(8);
    for (const std::uint64_t budget : {std::uint64_t{1}, std::uint64_t{100},
                                       std::uint64_t{1} << 62}) {
        const BudgetedResult serial = run_budgeted(rca, budget, 1);
        for (const int jobs : {2, 4}) {
            const BudgetedResult parallel = run_budgeted(rca, budget, jobs);
            EXPECT_EQ(serial.aiger, parallel.aiger) << "budget=" << budget << " jobs=" << jobs;
            EXPECT_EQ(serial.work_units, parallel.work_units)
                << "budget=" << budget << " jobs=" << jobs;
            EXPECT_EQ(serial.budget_exhausted, parallel.budget_exhausted)
                << "budget=" << budget << " jobs=" << jobs;
        }
    }
}

TEST(Engine, BudgetedRunsAreCacheStateInvariant) {
    // The memo must not alter a budgeted trajectory: a run that hits cached
    // cone evaluations has to charge exactly what a cold run would.
    const Aig circuit = ripple_carry_adder(7);
    clear_engine_caches();
    const BudgetedResult cold = run_budgeted(circuit, 60, 2);
    const BudgetedResult warm = run_budgeted(circuit, 60, 2);
    EXPECT_EQ(cold.aiger, warm.aiger);
    EXPECT_EQ(cold.work_units, warm.work_units);
    EXPECT_EQ(cold.budget_exhausted, warm.budget_exhausted);
}

TEST(Engine, BudgetSemantics) {
    const Aig rca = ripple_carry_adder(8);

    // budget=1 still commits one full round: rounds are atomic, exhaustion
    // gates the NEXT round. The run must report exhaustion and still improve
    // (or at least not worsen) the circuit.
    const BudgetedResult tiny = run_budgeted(rca, 1, 2);
    EXPECT_TRUE(tiny.budget_exhausted);
    EXPECT_GE(tiny.work_units, 1u);

    // A budget the run cannot spend is reported as not exhausted, and the
    // result matches the unbudgeted engine exactly.
    const BudgetedResult huge = run_budgeted(rca, std::uint64_t{1} << 62, 2);
    EXPECT_FALSE(huge.budget_exhausted);
    LookaheadParams params;
    params.max_iterations = 6;
    EngineOptions engine;
    engine.jobs = 2;
    const Aig unbudgeted = optimize_timing_engine(rca, params, engine);
    std::stringstream aag;
    write_aiger(aag, unbudgeted);
    EXPECT_EQ(huge.aiger, aag.str());

    // A binding mid-size budget spends no more than allowed... plus at most
    // the final round's overshoot, and strictly less than the huge run.
    const BudgetedResult mid = run_budgeted(rca, 100, 2);
    EXPECT_TRUE(mid.budget_exhausted);
    EXPECT_LT(mid.work_units, huge.work_units);
}

// ---------------------------------------------------------------------------
// Intra-cone SAT fan-out (a run's second scheduling level)

/// One engine run configured to exercise the SAT don't-care proofs of
/// secondary simplification (the intra-cone fan-out's workload): forcing
/// random patterns makes every cone's simulation non-exhaustive, so the
/// unreached candidate minterms go to per-cube SAT queries instead of
/// being read off an exhaustive truth table. Caches are cleared first —
/// every run is cold unless the caller re-runs itself.
BudgetedResult run_intra_cone(const Aig& input, int jobs, std::uint64_t work_budget = 0) {
    clear_engine_caches();
    LookaheadParams params;
    params.max_iterations = 4;
    params.force_random_patterns = true;
    params.work_budget = work_budget;
    EngineOptions engine;
    engine.jobs = jobs;
    OptimizeStats stats;
    const Aig out = optimize_timing_engine(input, params, engine, &stats);
    EXPECT_TRUE(stats.verified);
    EXPECT_FALSE(stats.wall_clock_interrupted);
    EXPECT_TRUE(check_equivalence(input, out, 2000000).equivalent);
    std::stringstream aag;
    write_aiger(aag, out);
    return {aag.str(), stats.work_units, stats.budget_exhausted};
}

TEST(Engine, IntraConeIsByteIdenticalAcrossJobs) {
    // The intra-cone fan-out is an execution knob: per-cube proof tasks
    // run on pool workers, but verdicts commit and conflicts charge in
    // fixed task order after the join, so serialized output AND work spend
    // must match the serial (jobs 1) path byte for byte at every jobs value.
    const Aig rca = ripple_carry_adder(8);
    const BudgetedResult baseline = run_intra_cone(rca, 1);
    for (const int jobs : {2, 4}) {
        const BudgetedResult r = run_intra_cone(rca, jobs);
        EXPECT_EQ(r.aiger, baseline.aiger) << "jobs=" << jobs;
        EXPECT_EQ(r.work_units, baseline.work_units) << "jobs=" << jobs;
    }
}

TEST(Engine, IntraConeBudgetedRunsAreInvariantAcrossJobsAndCacheStates) {
    // Budgeted trajectories must be unperturbed by the fan-out: the join
    // charges conflicts in task index order, so exhaustion fires after the
    // same round regardless of jobs x cold/warm cache.
    const Aig rca = ripple_carry_adder(8);
    for (const std::uint64_t budget : {std::uint64_t{80}, std::uint64_t{1} << 62}) {
        const BudgetedResult baseline = run_intra_cone(rca, 1, budget);
        for (const int jobs : {2, 4}) {
            const BudgetedResult r = run_intra_cone(rca, jobs, budget);
            EXPECT_EQ(r.aiger, baseline.aiger) << "budget=" << budget << " jobs=" << jobs;
            EXPECT_EQ(r.work_units, baseline.work_units)
                << "budget=" << budget << " jobs=" << jobs;
            EXPECT_EQ(r.budget_exhausted, baseline.budget_exhausted)
                << "budget=" << budget << " jobs=" << jobs;
        }
        // Warm-cache replay: run_intra_cone clears caches, so call the
        // engine again directly on the now-populated memo.
        LookaheadParams params;
        params.max_iterations = 4;
        params.force_random_patterns = true;
        params.work_budget = budget;
        EngineOptions engine;
        engine.jobs = 4;
        OptimizeStats stats;
        const Aig warm = optimize_timing_engine(rca, params, engine, &stats);
        std::stringstream aag;
        write_aiger(aag, warm);
        EXPECT_EQ(aag.str(), baseline.aiger) << "warm budget=" << budget;
        EXPECT_EQ(stats.work_units, baseline.work_units) << "warm budget=" << budget;
    }
}

TEST(Engine, IntraConeMetricsCountQueriesAndParallelBatches) {
    Metrics& metrics = Metrics::global();
    const std::uint64_t queries_before = metrics.counter("engine.intracone.queries").value();
    const std::uint64_t batches_before =
        metrics.counter("engine.intracone.parallel_batches").value();
    run_intra_cone(ripple_carry_adder(8), 4);
    // The forced-random-pattern run must have sent don't-care candidates
    // to SAT; with workers available, multi-task batches fan out.
    EXPECT_GT(metrics.counter("engine.intracone.queries").value(), queries_before);
    EXPECT_GT(metrics.counter("engine.intracone.parallel_batches").value(), batches_before);
}

TEST(Engine, OneItemBatchUsesItsJobs) {
    // A one-item batch gets every thread: it fans out like a standalone
    // run at the same jobs, and writes the bytes of the serial run.
    const Aig rca = ripple_carry_adder(8);
    const BudgetedResult serial = run_intra_cone(rca, 1);
    clear_engine_caches();
    LookaheadParams params;
    params.max_iterations = 4;
    params.force_random_patterns = true;
    EngineOptions engine;
    engine.jobs = 4;
    const MetricCounter& batches = Metrics::global().counter("engine.intracone.parallel_batches");
    const std::uint64_t batches_before = batches.value();
    const auto outcomes = optimize_timing_batch({{"rca8", rca}}, params, engine);
    EXPECT_GT(batches.value(), batches_before);
    ASSERT_EQ(outcomes.size(), 1u);
    EXPECT_TRUE(outcomes[0].stats.verified);
    std::stringstream aag;
    write_aiger(aag, outcomes[0].output);
    EXPECT_EQ(aag.str(), serial.aiger);
}

TEST(Engine, ConcurrentItemsFanOutOnTheirOwnPools) {
    // Several batch items at once, each fanning its cones and per-cube
    // proof tasks out on a pool of its own while all of them share the
    // process-wide memos — the concurrency TSan race-checks; every proof
    // task re-installs its cancellation scope on whichever worker picks it
    // up. At jobs 10 each of the 5 items runs on 2 threads. Outputs must
    // still match the fully serial baseline.
    std::vector<BatchItem> items;
    items.push_back({"rca7", ripple_carry_adder(7)});
    items.push_back({"rca8", ripple_carry_adder(8)});
    for (int s = 0; s < 3; ++s) {
        BenchmarkProfile profile;
        profile.name = "intracone_stress";
        profile.num_pis = 14;
        profile.num_pos = 6;
        profile.chain_length = 8;
        profile.num_shared = 3;
        profile.seed = 31 + s;
        items.push_back({"ctrl" + std::to_string(s), synthetic_control_circuit(profile)});
    }
    LookaheadParams params;
    params.max_iterations = 3;
    params.force_random_patterns = true;

    auto batch_bytes = [&](int jobs) {
        clear_engine_caches();
        EngineOptions engine;
        engine.jobs = jobs;
        const auto outcomes = optimize_timing_batch(items, params, engine);
        std::vector<std::string> aigers;
        for (const auto& outcome : outcomes) {
            EXPECT_FALSE(outcome.failed) << outcome.name;
            std::stringstream aag;
            write_aiger(aag, outcome.output);
            aigers.push_back(aag.str());
        }
        return aigers;
    };

    const auto baseline = batch_bytes(1);
    ASSERT_EQ(baseline.size(), items.size());
    EXPECT_EQ(batch_bytes(10), baseline);
    EXPECT_EQ(batch_bytes(4), baseline);
}

// ---------------------------------------------------------------------------
// Fault containment (PR 3)

TEST(FaultPlan, GrammarRoundtrip) {
    const FaultPlan plan = FaultPlan::parse("resource@decompose,solver@sat,oom@run");
    ASSERT_NE(plan.spec_for("decompose"), nullptr);
    EXPECT_EQ(plan.spec_for("decompose")->kind, ErrorKind::ResourceExhausted);
    ASSERT_NE(plan.spec_for("sat"), nullptr);
    EXPECT_EQ(plan.spec_for("sat")->kind, ErrorKind::SolverLimit);
    ASSERT_NE(plan.spec_for("run"), nullptr);
    EXPECT_TRUE(plan.spec_for("run")->bad_alloc);
    EXPECT_EQ(plan.spec_for("cec"), nullptr);
    EXPECT_EQ(FaultPlan::parse("cancel@decompose").spec_for("decompose")->kind,
              ErrorKind::Cancelled);

    // A spec is exactly kind@site over the five engine sites: no count, no
    // `fatal` kind or `cancelled` alias, and no site that no evaluation
    // reaches (it would fire nowhere, yet re-seed every cone).
    for (const char* bad : {"bogus@decompose", "resource", "resource@sat:x", "@sat", "resource@",
                            "resource@decompose,", "resource@decompose:2", "oom@run:3",
                            "fatal@batch:0", "resource@decompose:1", "fatal@batch:1",
                            "cancelled@decompose", "resource@decompse", "resource@batch"}) {
        try {
            FaultPlan::parse(bad);
            ADD_FAILURE() << "no throw for " << bad;
        } catch (const LlsError& e) {
            EXPECT_EQ(e.kind(), ErrorKind::ParseError) << bad;
        }
    }
    try {
        FaultPlan::parse("resource@decompse");
    } catch (const LlsError& e) {
        EXPECT_NE(std::string(e.what()).find("'decompse'"), std::string::npos) << e.what();
    }
}

OptimizeStats run_faulted(const Aig& input, const std::string& plan, int jobs, Aig* out_aig) {
    LookaheadParams params;
    params.max_iterations = 6;
    params.fault_plan = FaultPlan::parse(plan);
    EngineOptions engine;
    engine.jobs = jobs;
    OptimizeStats stats;
    *out_aig = optimize_timing_engine(input, params, engine, &stats);
    return stats;
}

TEST(Engine, FaultInjectionDegradesAtEverySiteClass) {
    // One plan per engine injection site, each with a distinct error kind.
    // Every run must complete and stay CEC-equivalent, and every fault keeps
    // its cone's original structure: each accepted decomposition passes all
    // four sites, so no cone is decomposed — containment, not propagation.
    // Any depth gain comes from the conventional restructuring passes.
    const Aig rca = ripple_carry_adder(6);
    const struct {
        const char* plan;
        ErrorKind kind;
    } cases[] = {
        {"resource@decompose", ErrorKind::ResourceExhausted},
        {"invariant@spcf", ErrorKind::InvariantViolation},
        {"solver@sat", ErrorKind::SolverLimit},
        {"verify@cec", ErrorKind::VerificationFailed},
    };
    for (const auto& c : cases) {
        Aig out;
        const OptimizeStats stats = run_faulted(rca, c.plan, 2, &out);
        EXPECT_TRUE(stats.verified) << c.plan;
        EXPECT_TRUE(check_equivalence(rca, out, 2000000).equivalent) << c.plan;
        ASSERT_FALSE(stats.faults.empty()) << c.plan;
        EXPECT_EQ(stats.outputs_decomposed, 0) << c.plan;
        for (const FaultRecord& fault : stats.faults) {
            EXPECT_EQ(fault.kind, c.kind) << c.plan;
            EXPECT_GE(fault.cone, 0) << c.plan;
        }
    }
}

TEST(Engine, FaultInjectionIsJobsInvariant) {
    const Aig rca = ripple_carry_adder(7);
    for (const std::string plan : {"resource@decompose,verify@cec", "verify@cec"}) {
        auto fingerprint = [&](int jobs) {
            Aig out;
            const OptimizeStats stats = run_faulted(rca, plan, jobs, &out);
            EXPECT_FALSE(stats.faults.empty()) << plan;
            std::stringstream aag;
            write_aiger(aag, out);
            std::string fp = aag.str();
            // Fold the fault journal into the fingerprint: records must agree
            // in order and site — not just in count.
            for (const FaultRecord& fault : stats.faults) {
                fp += "|" + std::string(error_kind_name(fault.kind)) + "@" + fault.stage + "#" +
                      std::to_string(fault.cone);
            }
            return fp;
        };

        const std::string serial = fingerprint(1);
        EXPECT_FALSE(serial.empty()) << plan;
        EXPECT_EQ(serial, fingerprint(2)) << plan;
        EXPECT_EQ(serial, fingerprint(4)) << plan;
    }
}

TEST(Engine, FaultedRunsAreCacheStateInvariant) {
    // Memo hits must replay fault records identically to cold evaluation.
    const Aig rca = ripple_carry_adder(6);
    for (const std::string plan : {"resource@decompose", "verify@cec"}) {
        clear_engine_caches();
        Aig cold_out, warm_out;
        const OptimizeStats cold = run_faulted(rca, plan, 2, &cold_out);
        const OptimizeStats warm = run_faulted(rca, plan, 2, &warm_out);
        EXPECT_EQ(cold_out.hash(), warm_out.hash()) << plan;
        ASSERT_EQ(cold.faults.size(), warm.faults.size()) << plan;
        for (std::size_t i = 0; i < cold.faults.size(); ++i) {
            EXPECT_EQ(cold.faults[i].cone, warm.faults[i].cone) << plan;
            EXPECT_EQ(cold.faults[i].stage, warm.faults[i].stage) << plan;
        }
    }
}

TEST(Engine, FaultPlanDoesNotPerturbCleanRuns) {
    // An empty plan must leave the params fingerprint — and therefore the
    // RNG streams, memo keys, persisted records and checkpoint entries —
    // untouched. The values are pinned: any field that starts or stops
    // feeding the fingerprint moves them.
    LookaheadParams params;
    params.max_iterations = 6;  // not part of the fingerprint
    const std::uint64_t clean = lookahead_params_fingerprint(params);
    EXPECT_EQ(clean, 0x6cc526c46031005cULL);
    EXPECT_EQ(lookahead_params_fingerprint(LookaheadParams{}), clean);
    params.fault_plan = FaultPlan::parse("");
    EXPECT_EQ(lookahead_params_fingerprint(params), clean);
    params.fault_plan = FaultPlan::parse("resource@decompose");
    EXPECT_EQ(lookahead_params_fingerprint(params), 0xdcd60d57a1190868ULL);
}

TEST(Engine, OnCompleteHookSeesEveryItemOnce) {
    std::vector<BatchItem> items;
    items.push_back({"rca5", ripple_carry_adder(5)});
    items.push_back({"rca6", ripple_carry_adder(6)});
    items.push_back({"rca7", ripple_carry_adder(7)});
    LookaheadParams params;
    params.max_iterations = 4;
    EngineOptions engine;
    engine.jobs = 3;
    std::atomic<int> in_hook{0};
    std::vector<int> seen(items.size(), 0);
    const auto outcomes = optimize_timing_batch(
        items, params, engine, [&](const BatchOutcome& outcome, std::size_t index) {
            // Journal writers rely on never being entered concurrently; the
            // hook is mutex-serialized, so unsynchronized writes are safe.
            EXPECT_EQ(in_hook.fetch_add(1), 0) << "on_complete entered concurrently";
            ASSERT_LT(index, seen.size());
            ++seen[index];
            EXPECT_EQ(outcome.name, items[index].name);
            in_hook.fetch_sub(1);
        });
    ASSERT_EQ(outcomes.size(), items.size());
    for (const int count : seen) EXPECT_EQ(count, 1);
}

TEST(Checkpoint, JournalRoundtrip) {
    const std::string path =
        (std::filesystem::temp_directory_path() / "lls_test_checkpoint.txt").string();
    std::remove(path.c_str());

    CheckpointEntry entry;
    entry.name = "rca8";
    entry.input_hash = 0xdeadbeefULL;
    entry.params_fingerprint = 0x1234ULL;
    entry.output_hash = checkpoint_bytes_hash("aag 1 2 3");
    entry.final_depth = 14;
    entry.final_ands = 493;
    entry.failed = false;
    {
        BatchCheckpoint journal(path);
        EXPECT_TRUE(journal.entries().empty());
        journal.append(entry);
    }
    {
        // Reload: the entry is found by its exact triple and nothing else.
        BatchCheckpoint journal(path);
        ASSERT_EQ(journal.entries().size(), 1u);
        const CheckpointEntry* found = journal.find("rca8", 0xdeadbeefULL, 0x1234ULL);
        ASSERT_NE(found, nullptr);
        EXPECT_EQ(found->output_hash, entry.output_hash);
        EXPECT_EQ(found->final_depth, 14);
        EXPECT_EQ(found->final_ands, 493u);
        // Stale entries (same name, different input or params) do not match.
        EXPECT_EQ(journal.find("rca8", 0xdeadbeefULL, 0x9999ULL), nullptr);
        EXPECT_EQ(journal.find("rca8", 0xbeefULL, 0x1234ULL), nullptr);
        EXPECT_EQ(journal.find("other", 0xdeadbeefULL, 0x1234ULL), nullptr);

        CheckpointEntry tabbed = entry;
        tabbed.name = "bad\tname";
        EXPECT_THROW(journal.append(tabbed), LlsError);
    }
    {
        // A torn last line, as a crash or a failed append leaves it, is
        // dropped so its item re-runs, and the next entry starts on a line
        // of its own instead of being glued onto the fragment.
        std::ofstream(path, std::ios::app) << "rca9\tdeadbe";
        BatchCheckpoint journal(path);
        ASSERT_EQ(journal.entries().size(), 1u);
        CheckpointEntry rerun = entry;
        rerun.name = "rca9";
        journal.append(rerun);
    }
    {
        BatchCheckpoint journal(path);
        ASSERT_EQ(journal.entries().size(), 2u);
        EXPECT_NE(journal.find("rca9", 0xdeadbeefULL, 0x1234ULL), nullptr);
    }
    {
        // A complete line that does not parse is no tear: it stays an error.
        std::ofstream(path, std::ios::app) << "rca9\tdeadbe\n";
        try {
            BatchCheckpoint journal(path);
            ADD_FAILURE() << "no throw on a malformed complete line";
        } catch (const LlsError& e) {
            EXPECT_EQ(e.kind(), ErrorKind::ParseError);
        }
    }
    {
        // A non-journal file is rejected up front, not silently re-stamped.
        std::ofstream(path, std::ios::trunc) << "not a journal\n";
        try {
            BatchCheckpoint journal(path);
            ADD_FAILURE() << "no throw on bad magic";
        } catch (const LlsError& e) {
            EXPECT_EQ(e.kind(), ErrorKind::ParseError);
        }
    }
    std::remove(path.c_str());
}

TEST(Checkpoint, ResumedItemsMatchUninterruptedRun) {
    // The property that makes --resume byte-identical: each batch item's
    // output depends only on (input, params), never on which other items ran
    // alongside it. A "resumed" batch that re-runs only the tail must produce
    // the same bytes the full batch produced for those items.
    std::vector<BatchItem> items;
    items.push_back({"rca5", ripple_carry_adder(5)});
    items.push_back({"rca6", ripple_carry_adder(6)});
    items.push_back({"rca7", ripple_carry_adder(7)});
    LookaheadParams params;
    params.max_iterations = 4;

    auto aiger_of = [](const BatchOutcome& outcome) {
        std::stringstream aag;
        write_aiger(aag, outcome.output);
        return aag.str();
    };

    // At jobs 4 the full batch runs 3 items on one thread each and the
    // resumed one 2 items on two threads each. Cold caches both times, so
    // the resumed items are recomputed, not replayed from the memo.
    for (const int jobs : {2, 4}) {
        EngineOptions engine;
        engine.jobs = jobs;
        clear_engine_caches();
        const auto full = optimize_timing_batch(items, params, engine);
        ASSERT_EQ(full.size(), 3u);

        // Simulate a crash after item 0 was journaled: the resumed run only
        // contains the remaining items.
        clear_engine_caches();
        const std::vector<BatchItem> resumed_items = {items[1], items[2]};
        const auto resumed = optimize_timing_batch(resumed_items, params, engine);
        ASSERT_EQ(resumed.size(), 2u);
        EXPECT_EQ(aiger_of(resumed[0]), aiger_of(full[1])) << "jobs=" << jobs;
        EXPECT_EQ(aiger_of(resumed[1]), aiger_of(full[2])) << "jobs=" << jobs;
    }
}

TEST(Engine, MetricsRecordRuns) {
    Metrics& metrics = Metrics::global();
    const std::uint64_t runs_before = metrics.counter("engine.runs").value();
    run(ripple_carry_adder(5), 2);
    EXPECT_GT(metrics.counter("engine.runs").value(), runs_before);
    EXPECT_GT(metrics.timer("engine.evaluate").samples(), 0u);
    const std::string json = metrics.to_json(all_cache_stats());
    EXPECT_NE(json.find("\"engine.runs\""), std::string::npos);
    EXPECT_NE(json.find("\"caches\""), std::string::npos);
}

// ---- cooperative cancellation ------------------------------------------

TEST(Engine, InjectedCancelDegradesConeWithFaultRecord) {
    // Without a shutdown request, a `cancel@decompose` fault is an ordinary
    // contained fault: the cancelled cone must be kept original with a
    // Cancelled fault record, and the run must stay equivalent.
    const Aig rca = ripple_carry_adder(6);
    clear_engine_caches();
    Aig out;
    const OptimizeStats stats = run_faulted(rca, "cancel@decompose", 2, &out);
    EXPECT_TRUE(stats.verified);
    EXPECT_TRUE(check_equivalence(rca, out, 2000000).equivalent);
    ASSERT_FALSE(stats.faults.empty());
    for (const FaultRecord& fault : stats.faults) EXPECT_EQ(fault.kind, ErrorKind::Cancelled);
    EXPECT_FALSE(stats.cancelled);  // a cone cancellation is not a shutdown
    EXPECT_EQ(stats.outputs_decomposed, 0);
}

TEST(Engine, InjectedCancelIsJobsInvariant) {
    // The caches are cleared per run so every job count computes each
    // evaluation; injection being a pure function of (cone, params), the
    // computation replays identically across schedules.
    const Aig rca = ripple_carry_adder(7);
    auto fingerprint = [&](int jobs) {
        clear_engine_caches();
        Aig out;
        const OptimizeStats stats = run_faulted(rca, "cancel@decompose", jobs, &out);
        std::stringstream aag;
        write_aiger(aag, out);
        std::string fp = aag.str();
        for (const FaultRecord& fault : stats.faults)
            fp += "|" + std::string(error_kind_name(fault.kind)) + "@" + fault.stage + "#" +
                  std::to_string(fault.cone);
        return fp;
    };
    const std::string serial = fingerprint(1);
    EXPECT_FALSE(serial.empty());
    EXPECT_EQ(serial, fingerprint(2));
    EXPECT_EQ(serial, fingerprint(4));
}

TEST(Engine, InjectedCancelIsCacheStateInvariant) {
    // Like every other fault, a cancelled evaluation is memoized and
    // replayed: the warm run evaluates no cone, and cold and warm runs
    // agree bit-for-bit, fault journal included.
    const Aig rca = ripple_carry_adder(6);
    clear_engine_caches();
    Aig cold_out, warm_out;
    const OptimizeStats cold = run_faulted(rca, "cancel@decompose", 2, &cold_out);
    const MetricCounter& cones_evaluated = Metrics::global().counter("engine.cones_evaluated");
    const std::uint64_t evaluated_before_warm = cones_evaluated.value();
    const OptimizeStats warm = run_faulted(rca, "cancel@decompose", 2, &warm_out);
    EXPECT_EQ(cones_evaluated.value(), evaluated_before_warm);
    EXPECT_EQ(cold_out.hash(), warm_out.hash());
    ASSERT_EQ(cold.faults.size(), warm.faults.size());
    for (std::size_t i = 0; i < cold.faults.size(); ++i) {
        EXPECT_EQ(warm.faults[i].kind, ErrorKind::Cancelled);
        EXPECT_EQ(cold.faults[i].cone, warm.faults[i].cone);
        EXPECT_EQ(cold.faults[i].stage, warm.faults[i].stage);
    }
}

TEST(Engine, PreRequestedTokenReturnsInputWithCancelledFlag) {
    // A token requested before the run starts: the engine must dispatch
    // nothing and hand back the (cleaned) input with stats.cancelled set —
    // the single-circuit analogue of a batch item that never started.
    const Aig rca = ripple_carry_adder(6);
    CancelToken token;
    token.request();
    LookaheadParams params;
    params.max_iterations = 4;
    EngineOptions engine;
    engine.jobs = 2;
    engine.cancel = &token;
    const std::uint64_t stops_before =
        Metrics::global().counter("engine.cancel.shutdowns").value();
    OptimizeStats stats;
    const Aig out = optimize_timing_engine(rca, params, engine, &stats);
    EXPECT_TRUE(stats.cancelled);
    EXPECT_EQ(stats.outputs_decomposed, 0);
    EXPECT_TRUE(check_equivalence(rca, out, 2000000).equivalent);
    EXPECT_GT(Metrics::global().counter("engine.cancel.shutdowns").value(), stops_before);
}

TEST(Engine, BatchShutdownMarksItemsCancelledNotFailed) {
    // With the token already requested, every batch item must come back
    // cancelled (never failed), on_complete must still see each exactly
    // once, and outputs must be safe placeholders (the unmodified input).
    std::vector<BatchItem> items;
    items.push_back({"a", ripple_carry_adder(5)});
    items.push_back({"b", ripple_carry_adder(6)});
    items.push_back({"c", ripple_carry_adder(7)});
    CancelToken token;
    token.request();
    EngineOptions engine;
    engine.jobs = 2;
    engine.cancel = &token;
    LookaheadParams params;
    params.max_iterations = 4;
    std::atomic<int> completions{0};
    const auto outcomes = optimize_timing_batch(
        items, params, engine, [&](const BatchOutcome& r, std::size_t) {
            ++completions;
            EXPECT_TRUE(r.cancelled);
        });
    ASSERT_EQ(outcomes.size(), items.size());
    EXPECT_EQ(completions.load(), static_cast<int>(items.size()));
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        EXPECT_TRUE(outcomes[i].cancelled) << outcomes[i].name;
        EXPECT_FALSE(outcomes[i].failed) << outcomes[i].name;
        EXPECT_TRUE(check_equivalence(items[i].input, outcomes[i].output, 2000000).equivalent)
            << outcomes[i].name;
    }
}

TEST(Engine, MidBatchShutdownKeepsFinishedItemsByteIdentical) {
    // Request shutdown from on_complete after the first finished item: the
    // finished prefix must match an uninterrupted run byte-for-byte (what
    // --resume relies on), and the interrupted/never-started remainder must
    // be cancelled, not failed.
    const auto items = skewed_batch();
    LookaheadParams params;
    params.max_iterations = 6;

    auto aiger_of = [](const BatchOutcome& r) {
        std::stringstream aag;
        write_aiger(aag, r.output);
        return aag.str();
    };

    clear_engine_caches();
    EngineOptions full_engine;
    full_engine.jobs = 2;
    const auto full = optimize_timing_batch(items, params, full_engine);

    clear_engine_caches();
    CancelToken token;
    EngineOptions engine;
    engine.jobs = 2;
    engine.cancel = &token;
    std::atomic<int> finished{0};
    const auto interrupted = optimize_timing_batch(
        items, params, engine, [&](const BatchOutcome& r, std::size_t) {
            if (!r.cancelled && ++finished == 1) token.request();
        });
    ASSERT_EQ(interrupted.size(), items.size());
    std::size_t completed = 0, cancelled = 0;
    for (std::size_t i = 0; i < interrupted.size(); ++i) {
        if (interrupted[i].cancelled) {
            ++cancelled;
            EXPECT_FALSE(interrupted[i].failed);
            continue;
        }
        ++completed;
        EXPECT_FALSE(interrupted[i].failed);
        // Finished-before-shutdown items are exactly the uninterrupted bytes.
        EXPECT_EQ(aiger_of(interrupted[i]), aiger_of(full[i])) << interrupted[i].name;
    }
    EXPECT_GE(completed, 1u);
    EXPECT_EQ(completed + cancelled, items.size());
}

// ---- bad_alloc containment ---------------------------------------------

TEST(Engine, InjectedOomIsContainedAndMapsToResourceExhausted) {
    // `oom@...` throws a raw std::bad_alloc at the site — the containment
    // path must classify it ResourceExhausted, keep every cone original like
    // any resource fault, and stay jobs-invariant.
    const FaultPlan plan = FaultPlan::parse("oom@decompose");
    // Same ErrorKind, different injection: the fingerprints must not
    // collide, or an oom plan could replay a resource plan's memo entries.
    EXPECT_NE(plan.fingerprint(), FaultPlan::parse("resource@decompose").fingerprint());

    const Aig rca = ripple_carry_adder(6);
    auto fingerprint = [&](int jobs) {
        Aig out;
        const OptimizeStats stats = run_faulted(rca, "oom@decompose", jobs, &out);
        EXPECT_TRUE(stats.verified);
        EXPECT_TRUE(check_equivalence(rca, out, 2000000).equivalent);
        EXPECT_FALSE(stats.faults.empty());
        EXPECT_EQ(stats.outputs_decomposed, 0);  // the site is every cone's first step
        for (const FaultRecord& fault : stats.faults)
            EXPECT_EQ(fault.kind, ErrorKind::ResourceExhausted);
        std::stringstream aag;
        write_aiger(aag, out);
        return aag.str();
    };
    const std::string serial = fingerprint(1);
    EXPECT_EQ(serial, fingerprint(2));
    EXPECT_EQ(serial, fingerprint(4));
}

TEST(Engine, BatchRunLevelOomFailsItemsWithoutTearingDownTheBatch) {
    // `oom@run` fires at run entry, before any per-cone boundary exists —
    // the batch item boundary must degrade each item to its (cleaned)
    // input, exactly like any other item-level failure.
    std::vector<BatchItem> items;
    items.push_back({"rca5", ripple_carry_adder(5)});
    items.push_back({"rca6", ripple_carry_adder(6)});
    LookaheadParams params;
    params.max_iterations = 4;
    params.fault_plan = FaultPlan::parse("oom@run");
    EngineOptions engine;
    engine.jobs = 2;
    const auto outcomes = optimize_timing_batch(items, params, engine);
    ASSERT_EQ(outcomes.size(), 2u);
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        EXPECT_TRUE(outcomes[i].failed) << outcomes[i].name;
        EXPECT_FALSE(outcomes[i].cancelled) << outcomes[i].name;
        EXPECT_FALSE(outcomes[i].error.empty()) << outcomes[i].name;
        EXPECT_FALSE(outcomes[i].stats.verified);
        EXPECT_EQ(outcomes[i].output.hash(), items[i].input.cleanup().hash());
    }
}

}  // namespace
}  // namespace lls
