#include "engine/engine.hpp"

#include <algorithm>
#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>

#include <mutex>

#include <thread>

#include "aig/aig_build.hpp"
#include "baseline/restructure.hpp"
#include "cec/cec.hpp"
#include "common/budget.hpp"
#include "common/error.hpp"
#include "common/fault.hpp"
#include "common/stopwatch.hpp"
#include "common/thread_pool.hpp"
#include "engine/memo.hpp"
#include "engine/metrics.hpp"
#include "engine/warm_start.hpp"
#include "lookahead/decompose.hpp"

namespace lls {

namespace {

/// One round of conventional delay-oriented restructuring (the "existing
/// logic optimization algorithms" the paper's technique complements).
Aig restructure_round(const Aig& aig) {
    RestructureOptions delay_opt;
    delay_opt.delay_oriented = true;
    delay_opt.cut_size = 8;
    return balance(restructure(aig, delay_opt));
}

bool better(const Aig& a, const Aig& b) {
    const int da = a.depth(), db = b.depth();
    return da < db || (da == db && a.count_reachable_ands() < b.count_reachable_ands());
}

/// Fingerprint of every LookaheadParams field `decompose_output` reads. A
/// memo entry is only valid for identical parameters, and the per-cone RNG
/// seed is derived from this fingerprint + the cone's structural hash so
/// that a cone's outcome depends on nothing but (cone, params) — the root
/// of the jobs-invariance guarantee. The wall-clock rail (time budget)
/// changes no completed evaluation, so it stays out of it.
std::uint64_t params_fingerprint(const LookaheadParams& p) {
    std::uint64_t h = 0x6c6f6f6b61686561ULL;  // "lookahea"
    h = hash_mix(h, static_cast<std::uint64_t>(p.cut_size));
    h = hash_mix(h, static_cast<std::uint64_t>(p.max_cuts));
    h = hash_mix(h, p.num_random_patterns);
    h = hash_mix(h, p.force_random_patterns);
    h = hash_mix(h, p.seed);
    h = hash_mix(h, static_cast<std::uint64_t>(static_cast<std::int64_t>(p.spcf_slack)));
    h = hash_mix(h, static_cast<std::uint64_t>(p.sat_conflict_limit));
    h = hash_mix(h, p.use_implication_rules);
    h = hash_mix(h, p.secondary_simplification);
    // A non-empty fault plan changes what the evaluations compute, so it
    // must change the memo key; an empty plan adds nothing, keeping every
    // fault-free fingerprint (and so every RNG stream) exactly as before.
    if (!p.fault_plan.empty()) h = hash_mix(h, FaultPlan::parse(p.fault_plan).fingerprint());
    return h;
}

/// Equivalence check with the structural-hash verdict memo in front. Only
/// resolved verdicts are stored; a memo hit returns no counterexample
/// (engine callers only branch on resolved/equivalent). `ctx.cost` meters
/// the SAT work actually performed — a memo hit honestly reports zero,
/// which is why serial-stage CEC work feeds --metrics but is never charged
/// against the deterministic budget (docs/ENGINE.md, "Budget semantics").
/// A hit on a verdict imported from the persistent store is noted against
/// `warm` for the `persist.warm_hits` split.
CecResult check_equivalence_memo(const Aig& a, const Aig& b, std::int64_t conflict_limit,
                                 const RunContext& ctx = RunContext{},
                                 WarmStart* warm = nullptr) {
    // Not std::minmax: it returns references into the hash() temporaries,
    // which dangle once this statement ends.
    const std::uint64_t ha = a.hash(), hb = b.hash();
    const std::pair<std::uint64_t, std::uint64_t> key{std::min(ha, hb), std::max(ha, hb)};
    if (const auto verdict = cec_memo().get(key)) {
        if (warm) warm->note_cec_hit(key.first, key.second);
        CecResult r;
        r.equivalent = *verdict;
        r.resolved = true;
        return r;
    }
    CecResult r = check_equivalence(a, b, conflict_limit, ctx);
    if (r.resolved) cec_memo().put(key, r.equivalent);
    return r;
}

/// The fault record of an exception caught at a cone boundary: its error
/// kind, the stage an LlsError names (else "evaluate"), and its message.
FaultRecord fault_record_of(const std::exception& e) {
    FaultRecord record;
    record.kind = error_kind_of(e);
    const auto* lls_error = dynamic_cast<const LlsError*>(&e);
    record.stage = lls_error && !lls_error->stage().empty() ? lls_error->stage() : "evaluate";
    record.detail = e.what();
    return record;
}

}  // namespace

DecomposeMemo& decompose_memo() {
    // Ledger price of one stored AIG node: fanins, level, hash-bucket share.
    constexpr std::size_t kAigNodeBytes = 24;
    static DecomposeMemo instance(
        "decompose_memo", /*max_entries_per_shard=*/2048,
        [](const std::pair<std::uint64_t, std::uint64_t>&, const ConeEvaluation& e) {
            std::size_t bytes = sizeof(ConeEvaluation) + DecomposeMemo::kEntryOverheadBytes;
            if (e.outcome)
                bytes += sizeof(DecomposeOutcome) +
                         e.outcome->aig.num_nodes() * kAigNodeBytes +
                         e.outcome->reconstruction.capacity();
            if (e.fault)
                bytes += e.fault->stage.capacity() + e.fault->detail.capacity() +
                         e.fault->cone_name.capacity();
            return bytes;
        });
    return instance;
}

CecMemo& cec_memo() {
    static CecMemo instance("cec_memo", /*max_entries_per_shard=*/8192);
    return instance;
}

namespace {

/// The engine run behind both public drivers. `shared_pool` is the batch
/// driver's hook (null for a standalone run): the batch-wide pool to fan
/// each round's cone evaluations across instead of a run-private pool sized
/// from `jobs`. Every in-flight item publishes its per-round `parallel_for`
/// range to the one queue that *freed* workers — threads whose own items
/// have completed — also drain (two-level scheduling). Commits stay serial
/// per item in deterministic cone order, so outputs are byte-identical with
/// and without it.
Aig run_engine(const Aig& input, const LookaheadParams& params, const EngineOptions& engine,
               ThreadPool* shared_pool, OptimizeStats* stats) {
    Metrics& metrics = Metrics::global();
    MetricCounter& cones_evaluated = metrics.counter("engine.cones_evaluated");
    MetricCounter& cones_improved = metrics.counter("engine.cones_improved");
    MetricCounter& rounds_run = metrics.counter("engine.rounds");
    MetricTimer& evaluate_timer = metrics.timer("engine.evaluate");
    MetricTimer& commit_timer = metrics.timer("engine.commit");
    MetricTimer& restructure_timer = metrics.timer("engine.restructure");
    MetricTimer& sweep_timer = metrics.timer("engine.sat_sweep");
    MetricTimer& cec_timer = metrics.timer("engine.cec");
    MetricTimer& total_timer = metrics.timer("engine.total");
    // Work-unit meters: `work.evaluate.*` is what the deterministic budget
    // charges (memo hits replay the stored cost, so the charge stream is
    // cache-invariant); the serial-stage meters report work actually
    // performed and are observability-only.
    MetricCounter& work_decompositions = metrics.counter("engine.work.evaluate.decompositions");
    MetricCounter& work_eval_conflicts = metrics.counter("engine.work.evaluate.sat_conflicts");
    MetricCounter& work_sweep_conflicts = metrics.counter("engine.work.sat_sweep.sat_conflicts");
    MetricCounter& work_cec_conflicts = metrics.counter("engine.work.cec.sat_conflicts");
    MetricCounter& budget_stops = metrics.counter("engine.budget_exhausted");
    MetricCounter& wall_clock_stops = metrics.counter("engine.wall_clock_interrupts");
    MetricCounter& fault_records = metrics.counter("engine.fault.records");
    MetricCounter& shutdown_stops = metrics.counter("engine.cancel.shutdowns");
    const ScopedTimer total_scope(total_timer);
    metrics.counter("engine.runs").add();

    // The calling thread participates in parallel_for, so a pool of
    // jobs - 1 workers applies exactly `jobs` threads to the cone fan-out.
    // Under two-level scheduling the run instead publishes its fan-out to
    // the caller-owned shared pool (batch mode), where freed workers from
    // completed sibling items pick it up.
    const int jobs = std::max(1, engine.jobs);
    std::optional<ThreadPool> own_pool;
    if (!shared_pool) own_pool.emplace(static_cast<std::size_t>(jobs - 1));
    ThreadPool& pool = shared_pool ? *shared_pool : *own_pool;
    MetricCounter& steal_donated = metrics.counter("engine.steal.donated_ranges");
    MetricCounter& steal_stolen = metrics.counter("engine.steal.stolen_indices");
    // A malformed plan is an entry error, raised before any work starts.
    const FaultPlan fault_plan = FaultPlan::parse(params.fault_plan);
    // Run-entry fault site: `oom@run` (or any kind at site "run") fires
    // here, before any per-cone work — in batch mode the exception crosses
    // the item boundary, proving a run-level allocation failure degrades
    // that item to `failed` without tearing down its siblings.
    fault_plan.check("run", "engine");
    const std::uint64_t fingerprint = params_fingerprint(params);

    // Master RNG for the *serial* stages (SAT sweeping). Candidate
    // evaluation never draws from it: each cone gets its own generator
    // seeded from (params fingerprint, cone hash), so the fan-out order —
    // and therefore the job count — cannot influence any outcome.
    Rng rng(params.seed);
    const Aig original = input.cleanup();

    // Deterministic work budget: charged only at serial points with the
    // per-cone costs of each round's evaluations, so `budget.exhausted()`
    // is a pure function of work performed — identical on every thread
    // schedule. The wall-clock rail stays as a nondeterministic emergency
    // stop: the run's elapsed time, checked against `time_budget_seconds`
    // before each round, before each cone task, and after each round's
    // fan-out. Once it has run out the in-flight round is discarded
    // (partially evaluated rounds are never committed) and the run is
    // flagged. Elapsed time is monotone, so a task that skipped on it
    // guarantees the post-fan-out check fires too.
    WorkBudget budget(params.work_budget);
    const Stopwatch run_clock;
    auto time_budget_expired = [&]() {
        return params.time_budget_seconds > 0.0 &&
               run_clock.elapsed_seconds() >= params.time_budget_seconds;
    };
    bool wall_clock_interrupted = false;
    // Process/batch-level cooperative cancellation. The serial stages run
    // under this scope, so a SIGTERM reaches the polls in SAT sweeping and
    // CEC too; the Cancelled error it raises is caught around the passes
    // below and the best verified circuit so far is returned.
    auto shutdown_requested = [&]() {
        return engine.cancel != nullptr && engine.cancel->requested();
    };
    const CancelScope serial_cancel_scope(engine.cancel);
    // Context of the *serial* stages (SAT sweeping, CEC): observability
    // cost sink plus the shutdown token, never an executor — serial-stage
    // work is uncharged and single-threaded by design.
    auto serial_context = [&](WorkCost& cost) {
        RunContext ctx;
        ctx.cost = &cost;
        ctx.cancel = engine.cancel;
        ctx.metrics = &metrics;
        return ctx;
    };
    OptimizeStats local;
    local.initial_depth = original.depth();
    local.initial_ands = original.count_reachable_ands();
    const std::size_t and_budget = 8 * std::max<std::size_t>(local.initial_ands, 64);

    // Serial-point check of both stop sources; flags the run when the
    // wall-clock rail is what fired.
    auto stop_requested = [&]() {
        if (time_budget_expired()) wall_clock_interrupted = true;
        return wall_clock_interrupted || shutdown_requested();
    };
    // The serial stages shared by the per-iteration, pass-level, and
    // restructuring paths: SAT sweeping and CEC against the verdict memo,
    // both metered for --metrics but never charged to the budget. A failed
    // or unresolved check means the candidate cannot be trusted (callers
    // revert); an unresolved one also marks the run unverified. A proven
    // difference is a bug — every committed cone passed its own CEC — so
    // it is also recorded as a whole-circuit fault (`cone` = -1) naming
    // `check` and, unless the verdict came from the memo, the
    // counterexample.
    auto sweep = [&](const Aig& aig) {
        const ScopedTimer sweep_scope(sweep_timer);
        WorkCost sweep_cost;
        Aig swept = sat_sweep(aig, rng, /*conflict_limit=*/2000, /*num_patterns=*/1024,
                              /*depth_aware=*/true, serial_context(sweep_cost));
        work_sweep_conflicts.add(sweep_cost.sat_conflicts);
        return swept;
    };
    auto proven_equivalent = [&](const Aig& a, const Aig& b, std::int64_t conflict_limit,
                                 const char* check) {
        const ScopedTimer cec_scope(cec_timer);
        WorkCost cec_cost;
        const CecResult cec = check_equivalence_memo(a, b, conflict_limit,
                                                     serial_context(cec_cost), engine.warm_start);
        work_cec_conflicts.add(cec_cost.sat_conflicts);
        local.verified = local.verified && cec.resolved;
        if (cec.resolved && !cec.equivalent) {
            FaultRecord record;
            record.kind = ErrorKind::VerificationFailed;
            record.stage = "cec";
            record.detail = std::string(check) + " CEC proved the candidate non-equivalent";
            if (!cec.counterexample.empty()) {
                record.detail += " at PI assignment ";
                for (const bool bit : cec.counterexample) record.detail += bit ? '1' : '0';
            }
            fault_records.add();
            local.faults.push_back(std::move(record));
        }
        return cec.resolved && cec.equivalent;
    };

    Aig best = original;

    // Each iteration applies one level of lookahead decomposition to every
    // critical output, then (optionally) rounds of conventional
    // restructuring that flatten the freshly built window/mux logic — the
    // step that turns iterated single-level decompositions into the
    // prefix-style trees of the paper's Eqn. 2. An iteration that keeps the
    // depth flat is tolerated for a bounded number of rounds (the rewrite
    // into window form often pays off only once a later round flattens the
    // nested windows); the best circuit seen anywhere is what is returned.
    // Above this size, SAT sweeping and CEC run per *pass* instead of per
    // iteration (every per-cone decomposition is CEC-verified regardless,
    // and the returned circuit is always verified against the input).
    constexpr std::size_t kPerIterationCheckLimit = 1500;

    // Evaluation of one candidate: pure function of (current, po, params) —
    // including its work cost and fault record, which the memo stores
    // alongside the outcome.
    //
    // The per-cone fault boundary runs *inside* the memoized computation:
    // `decompose_output` runs once, and any exception other than a shutdown
    // becomes the evaluation's fault record while the cone keeps its
    // original structure (the commit sees no outcome). Work spent before
    // the throw is still charged, so a faulted evaluation — like the fault
    // injection that exercises it — is a pure function of (cone, params):
    // bit-identical across job counts, and replayed verbatim on a memo hit.
    auto evaluate_cone = [&](const Aig& current, std::size_t po) -> ConeEvaluation {
        const Aig cone = extract_cone(current, po);
        const std::uint64_t cone_hash = cone.hash();
        auto compute = [&]() -> ConeEvaluation {
            cones_evaluated.add();
            // Expose the shutdown token to every poll site this evaluation
            // reaches — the SAT solve loop and the decomposition inner
            // loops both poll this scope.
            const CancelScope cancel_scope(engine.cancel);
            ConeEvaluation evaluation;
            // The one plumbing path down the decompose -> reduce -> simplify
            // -> cec -> sat stack: deterministic cost sink, fault plan,
            // shutdown token (the one the CancelScope above holds, so
            // fanned-out work re-installs it on whichever worker runs it),
            // and the intra-cone executor for the per-cube SAT don't-care
            // fan-out (third scheduling level).
            RunContext ctx = cone_run_context(evaluation);
            ctx.faults = &fault_plan;
            ctx.cancel = engine.cancel;
            ctx.metrics = &metrics;
            ctx.executor = pool.size() > 0 ? &pool : nullptr;
            Rng cone_rng(hash_mix(fingerprint, cone_hash));
            try {
                if (auto outcome = decompose_output(cone, params, cone_rng, ctx))
                    evaluation.outcome =
                        std::make_shared<const DecomposeOutcome>(std::move(*outcome));
            } catch (const std::exception& e) {
                // A shutdown cancellation propagates: the whole round is
                // about to be discarded, so nothing is recorded or memoized
                // for this cone — `--resume` re-evaluates it from scratch,
                // byte-identically. Anything else, an injected `cancel`
                // fault included, is an ordinary contained fault.
                if (error_kind_of(e) == ErrorKind::Cancelled && shutdown_requested()) throw;
                evaluation.fault = fault_record_of(e);
            }
            return evaluation;
        };
        // Explicit get/put instead of get_or_compute so a hit on an entry
        // the persistent store imported can be metered as a warm hit.
        const std::pair<std::uint64_t, std::uint64_t> key{cone_hash, fingerprint};
        if (auto cached = decompose_memo().get(key)) {
            if (engine.warm_start) engine.warm_start->note_decompose_hit(cone_hash, fingerprint);
            return std::move(*cached);
        }
        ConeEvaluation value = compute();
        decompose_memo().put(key, value);
        return value;
    };

    auto run_decomposition_loop = [&](Aig current) {
        int plateau = 0;
        constexpr int kMaxPlateau = 2;
        bool touched = false;
        for (int iter = 0; iter < params.max_iterations && !budget.exhausted(); ++iter) {
            if (stop_requested()) break;
            const int depth = current.depth();
            if (depth < 2) break;
            const auto levels = current.compute_levels();

            // Gather the timing-critical POs: one evaluation task per
            // distinct driver node (a complemented sibling PO reuses the
            // result with an inverted output), keyed to the first PO that
            // references the driver.
            struct ConeTask {
                std::size_t po;
            };
            std::vector<ConeTask> tasks;
            std::unordered_map<std::uint32_t, std::size_t> driver_task;
            for (std::size_t o = 0; o < current.num_pos(); ++o) {
                const AigLit driver = current.po(o);
                if (levels[driver.node()] != depth) continue;
                if (driver_task.emplace(driver.node(), tasks.size()).second)
                    tasks.push_back({o});
            }

            // Fan the candidate evaluations across the workers. Workers
            // only read `current` (cone extraction copies what they need)
            // and build private cones, simulators, and SAT solvers. The
            // work budget is never consulted here — every admitted task
            // runs to completion, so the set of evaluated cones cannot
            // depend on the schedule. Only the wall-clock rail may abandon
            // a round, and then the whole round is discarded below.
            std::vector<ConeEvaluation> evaluations(tasks.size());
            {
                const ScopedTimer evaluate_scope(evaluate_timer);
                // On a shared pool this range is *donated*: the helper
                // tasks land in the batch-wide queue where any freed
                // worker can drain them. An index executed by a thread
                // other than this item's owner is a stolen index —
                // observability only, never part of the result.
                const bool donated = shared_pool != nullptr && pool.size() > 0 && tasks.size() > 1;
                if (donated) steal_donated.add();
                const std::thread::id owner = std::this_thread::get_id();
                pool.parallel_for(0, tasks.size(), [&](std::size_t i) {
                    if (donated && std::this_thread::get_id() != owner) steal_stolen.add();
                    // Stop dispatching: tasks that have not started yet are
                    // skipped outright once a shutdown is requested (the
                    // round below is discarded anyway).
                    if (time_budget_expired() || shutdown_requested()) return;
                    // Task-boundary backstop: the per-cone boundary contains
                    // faults inside the evaluation, so anything arriving
                    // here escaped outside it (cone extraction, the memo
                    // itself, allocation). The cone degrades to "keep
                    // original structure" and the round continues.
                    try {
                        evaluations[i] = evaluate_cone(current, tasks[i].po);
                    } catch (const std::exception& e) {
                        // In-flight shutdown cancellation: leave the slot
                        // empty, no fault record — the round is discarded.
                        if (error_kind_of(e) == ErrorKind::Cancelled && shutdown_requested())
                            return;
                        ConeEvaluation degraded;
                        degraded.fault = fault_record_of(e);
                        evaluations[i] = std::move(degraded);
                    }
                });
            }
            // Wall-clock interruption or shutdown: the partially evaluated
            // round is discarded — never charged, never committed — so a
            // resumed run retraces the uninterrupted trajectory exactly.
            if (stop_requested()) break;

            // Charge this round's deterministic cost, in task order, at a
            // serial point. The round is fully evaluated by now and will be
            // fully committed; exhaustion takes effect before the *next*
            // round starts.
            {
                WorkCost round_cost;
                for (const auto& evaluation : evaluations) round_cost += evaluation.cost;
                budget.charge(round_cost);
                work_decompositions.add(round_cost.decompositions);
                work_eval_conflicts.add(round_cost.sat_conflicts);
            }

            // Round boundary: push the memo entries this round created to
            // the persistent store. Serial point, after the charge — a
            // publication failure is contained in the store and cannot
            // perturb the budget stream or the round's results.
            if (engine.warm_start) engine.warm_start->flush_round();

            // Report contained faults at the same serial point, in task
            // order, stamping each record with its cone — deterministic for
            // every job count, memo hits included.
            for (std::size_t i = 0; i < tasks.size(); ++i) {
                if (!evaluations[i].fault) continue;
                FaultRecord record = *evaluations[i].fault;
                record.cone = static_cast<int>(tasks[i].po);
                record.cone_name = current.po_name(tasks[i].po);
                fault_records.add();
                local.faults.push_back(std::move(record));
            }

            // Serial commit in PO order: rebuild the circuit output by
            // output, splicing in the verified candidates. The order is
            // fixed, so the result is identical for every job count.
            Aig next;
            int improved_outputs = 0;
            {
                const ScopedTimer commit_scope(commit_timer);
                std::vector<AigLit> pi_map;
                pi_map.reserve(current.num_pis());
                for (std::size_t i = 0; i < current.num_pis(); ++i)
                    pi_map.push_back(next.add_pi(current.pi_name(i)));
                const auto original_pos = append_aig(next, current, pi_map);

                // Literal of the *uncomplemented* driver function per task,
                // valid once the task's outcome has been appended.
                std::vector<AigLit> task_base(tasks.size());
                std::vector<bool> task_appended(tasks.size(), false);
                for (std::size_t o = 0; o < current.num_pos(); ++o) {
                    AigLit po_lit = original_pos[o];
                    const AigLit driver = current.po(o);
                    const auto it = levels[driver.node()] == depth
                                        ? driver_task.find(driver.node())
                                        : driver_task.end();
                    if (it != driver_task.end() && evaluations[it->second].outcome) {
                        const std::size_t t = it->second;
                        const DecomposeOutcome& outcome = *evaluations[t].outcome;
                        if (!task_appended[t]) {
                            const auto new_outs = append_aig(next, outcome.aig, pi_map);
                            const bool first_complemented =
                                current.po(tasks[t].po).complemented();
                            task_base[t] = first_complemented ? !new_outs[0] : new_outs[0];
                            task_appended[t] = true;
                            local.log.push_back(
                                "iter " + std::to_string(iter) + " po " +
                                current.po_name(tasks[t].po) + ": depth " +
                                std::to_string(outcome.old_depth) + " -> " +
                                std::to_string(outcome.new_depth) + " (" +
                                std::to_string(outcome.num_windows) + " windows, " +
                                outcome.reconstruction + ")");
                        }
                        po_lit = driver.complemented() ? !task_base[t] : task_base[t];
                        ++improved_outputs;
                    }
                    next.add_po(po_lit, current.po_name(o));
                }
            }

            Aig candidate = next.cleanup();
            if (params.baseline_preoptimize) {
                const ScopedTimer restructure_scope(restructure_timer);
                for (int r = 0; r < 10; ++r) {
                    Aig restructured = restructure_round(candidate);
                    if (restructured.depth() >= candidate.depth()) break;
                    candidate = std::move(restructured);
                }
            }
            const bool small = candidate.count_reachable_ands() <= kPerIterationCheckLimit;
            if (params.area_recovery && small) candidate = sweep(candidate);

            const int candidate_depth = candidate.depth();
            if (candidate_depth > depth) break;  // regression: keep the best seen
            if (candidate_depth == depth) {
                if (improved_outputs == 0 || ++plateau > kMaxPlateau) break;
            } else {
                plateau = 0;
            }
            if (candidate.count_reachable_ands() > and_budget) break;  // runaway duplication

            // An untrusted round keeps the last verified circuit.
            if (params.verify_each_iteration && small &&
                !proven_equivalent(candidate, current, /*conflict_limit=*/1000000,
                                   "per-iteration"))
                break;

            local.outputs_decomposed += improved_outputs;
            ++local.iterations;
            touched = true;
            current = std::move(candidate);
            if (better(current, best)) best = current;
        }

        // Pass-level area recovery and verification for circuits that were
        // too large for per-iteration checks.
        if (touched && best.count_reachable_ands() > kPerIterationCheckLimit) {
            if (params.area_recovery) {
                Aig swept = sweep(best);
                if (!better(best, swept)) best = std::move(swept);
            }
            // An untrusted pass cannot keep anything it produced.
            if (params.verify_each_iteration &&
                !proven_equivalent(best, original, /*conflict_limit=*/4000000, "pass-level"))
                best = original;
        }
    };

    // The passes run under a graceful-shutdown boundary: a Cancelled error
    // raised by a poll in the *serial* stages (SAT sweeping, CEC,
    // restructuring's solver work) unwinds to here and the run returns the
    // best verified circuit so far. Anything else propagates unchanged.
    try {
        // Pass 1: decomposition starting from the raw circuit (deep chains
        // are where the windows are easiest to find).
        run_decomposition_loop(original);

        // Pass 2: conventional restructuring alone, then decomposition on
        // top of it — the paper's deployment ("complements existing logic
        // optimization algorithms"). Whichever pass wins is returned.
        if (params.baseline_preoptimize && !shutdown_requested()) {
            Aig preopt = balance(original);
            if (better(preopt, best)) best = preopt;
            for (int r = 0; r < 10 && !shutdown_requested(); ++r) {
                Aig restructured;
                {
                    const ScopedTimer restructure_scope(restructure_timer);
                    restructured = restructure_round(preopt);
                }
                if (params.area_recovery) restructured = sweep(restructured);
                if (restructured.depth() >= preopt.depth()) break;
                preopt = std::move(restructured);
            }
            if (params.verify_each_iteration &&
                !proven_equivalent(preopt, original, /*conflict_limit=*/1000000,
                                   "restructure-only"))
                preopt = original;
            if (better(preopt, best)) best = preopt;
            if (preopt.depth() < original.depth() && !shutdown_requested())
                run_decomposition_loop(preopt);
        }
    } catch (const std::exception& e) {
        if (error_kind_of(e) != ErrorKind::Cancelled || !shutdown_requested()) throw;
    }

    local.cancelled = shutdown_requested();
    if (local.cancelled) shutdown_stops.add();
    local.final_depth = best.depth();
    local.final_ands = best.count_reachable_ands();
    local.work_units = budget.spent();
    local.budget_exhausted = budget.exhausted();
    local.wall_clock_interrupted = wall_clock_interrupted;
    if (local.budget_exhausted) budget_stops.add();
    if (local.wall_clock_interrupted) wall_clock_stops.add();
    rounds_run.add(static_cast<std::uint64_t>(local.iterations));
    cones_improved.add(static_cast<std::uint64_t>(local.outputs_decomposed));
    // Indices an exception-aborted fan-out skipped. A run-private pool is
    // exported here; a shared pool is exported once by the batch that owns
    // it (the counter is pool-cumulative).
    if (own_pool && own_pool->aborted_indices() > 0)
        metrics.counter("engine.pool.aborted_indices").add(own_pool->aborted_indices());
    // Time a run-private pool's threads spent waiting idle across this
    // run's fan-outs (cone rounds and intra-cone proof batches) — the cost
    // help-while-waiting exists to shrink. A shared pool's wait is exported
    // by the batch as engine.steal.idle_wait instead.
    if (own_pool && own_pool->size() > 0)
        metrics.timer("engine.intracone.idle_wait").add_nanos(own_pool->idle_wait_nanos());
    if (stats) *stats = local;
    return best;
}

}  // namespace

Aig optimize_timing_engine(const Aig& input, const LookaheadParams& params,
                           const EngineOptions& engine, OptimizeStats* stats) {
    return run_engine(input, params, engine, /*shared_pool=*/nullptr, stats);
}

Aig optimize_timing(const Aig& input, const LookaheadParams& params, OptimizeStats* stats) {
    return optimize_timing_engine(input, params, EngineOptions{}, stats);
}

std::vector<BatchOutcome> optimize_timing_batch(
    const std::vector<BatchItem>& items, const LookaheadParams& params,
    const EngineOptions& engine,
    const std::function<void(const BatchOutcome&, std::size_t)>& on_complete) {
    std::vector<BatchOutcome> outcomes(items.size());
    const std::size_t jobs = static_cast<std::size_t>(std::max(1, engine.jobs));
    // Two-level scheduling: every item starts at jobs=1, but the items share
    // one pool, so the per-round cone fan-out of an in-flight item is
    // published to the same queue the item-level parallel_for drains. Early
    // in the batch every worker owns a whole circuit; as items complete,
    // freed workers pick up the donated cone ranges of the stragglers
    // instead of idling — which is why the pool keeps all jobs-1 workers
    // even when fewer items than workers remain. A single item has no
    // siblings to steal from and runs serially, like any jobs=1 run.
    ThreadPool pool(items.size() > 1 ? jobs - 1 : 0);
    EngineOptions per_item = engine;
    per_item.jobs = 1;  // item-level parallelism still dominates a full batch
    std::mutex complete_mutex;
    const auto batch_cancelled = [&engine]() {
        return engine.cancel != nullptr && engine.cancel->requested();
    };
    // An item that never ran to completion keeps its cleaned input, with
    // fresh stats marked unverified.
    const auto keep_input = [&](std::size_t i) {
        outcomes[i].output = items[i].input.cleanup();
        outcomes[i].stats = OptimizeStats{};
        outcomes[i].stats.verified = false;
    };
    pool.parallel_for(0, items.size(), [&](std::size_t i) {
        Stopwatch item_clock;
        outcomes[i].name = items[i].name;
        // Graceful shutdown: once the token is requested, items that have
        // not started are never dispatched — they are marked cancelled with
        // their input unchanged so the CLI neither journals nor writes
        // them, and `--resume` re-runs them from scratch.
        if (batch_cancelled()) {
            outcomes[i].cancelled = true;
            keep_input(i);
            Metrics::global().counter("engine.cancel.batch_items_cancelled").add();
            if (on_complete) {
                const std::lock_guard<std::mutex> lock(complete_mutex);
                on_complete(outcomes[i], i);
            }
            return;
        }
        // Item-level fault boundary: one failing circuit must not abort the
        // other 99. The failed item degrades to its unmodified input — the
        // same keep-original rule the per-cone boundary applies — and is
        // reported through `failed`/`error` and the metrics registry.
        try {
            outcomes[i].output = run_engine(items[i].input, params, per_item, &pool,
                                            &outcomes[i].stats);
            // An in-flight shutdown returns gracefully with stats.cancelled;
            // the item is demoted to cancelled (not finished, not failed).
            if (outcomes[i].stats.cancelled) {
                outcomes[i].cancelled = true;
                Metrics::global().counter("engine.cancel.batch_items_cancelled").add();
            }
        } catch (const std::exception& e) {
            if (error_kind_of(e) == ErrorKind::Cancelled && batch_cancelled()) {
                outcomes[i].cancelled = true;
                keep_input(i);
                Metrics::global().counter("engine.cancel.batch_items_cancelled").add();
            } else {
                outcomes[i].failed = true;
                outcomes[i].error = e.what();
                keep_input(i);
                Metrics::global().counter("engine.batch.item_failures").add();
            }
        }
        outcomes[i].seconds = item_clock.elapsed_seconds();
        if (on_complete) {
            const std::lock_guard<std::mutex> lock(complete_mutex);
            on_complete(outcomes[i], i);
        }
    });
    // Pool-lifetime observability: time threads spent waiting idle in
    // parallel_for (the cost stealing exists to shrink) and indices any
    // aborted fan-out skipped.
    if (pool.size() > 0)
        Metrics::global().timer("engine.steal.idle_wait").add_nanos(pool.idle_wait_nanos());
    if (pool.aborted_indices() > 0)
        Metrics::global().counter("engine.pool.aborted_indices").add(pool.aborted_indices());
    return outcomes;
}

std::uint64_t lookahead_params_fingerprint(const LookaheadParams& params) {
    return params_fingerprint(params);
}

std::vector<CacheStatsSnapshot> all_cache_stats() {
    return {decompose_memo().stats(), cec_memo().stats()};
}

void clear_engine_caches() {
    decompose_memo().clear();
    cec_memo().clear();
}

}  // namespace lls
