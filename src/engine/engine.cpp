#include "engine/engine.hpp"

#include <algorithm>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>

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

/// Equivalence check with the structural-hash verdict memo in front. Only
/// resolved verdicts are stored; a memo hit returns no counterexample
/// (engine callers only branch on resolved/equivalent). `ctx.cost` meters
/// the SAT work actually performed — a memo hit honestly reports zero,
/// which is why serial-stage CEC work feeds --metrics but is never charged
/// against the deterministic budget (docs/ENGINE.md, "Budget semantics").
/// A hit on a verdict imported from the persistent store is noted against
/// `warm` (may be null) for the `persist.warm_hits` split.
CecResult check_equivalence_memo(const Aig& a, const Aig& b, std::int64_t conflict_limit,
                                 const RunContext& ctx, WarmStart* warm) {
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

bool shutdown_requested(const CancelToken* cancel) {
    return cancel != nullptr && cancel->requested();
}

/// A shutdown unwinding the run: a Cancelled error while the shutdown token
/// is requested. An injected `cancel` fault raises the same kind with no
/// request pending; it is an ordinary contained fault.
bool is_shutdown(const std::exception& e, const CancelToken* cancel) {
    return error_kind_of(e) == ErrorKind::Cancelled && shutdown_requested(cancel);
}

}  // namespace

std::uint64_t lookahead_params_fingerprint(const LookaheadParams& p) {
    // Each cone's RNG is seeded from this and the cone's structural hash, so
    // its outcome depends on nothing but (cone, params) — the root of the
    // jobs-invariance guarantee. The wall-clock rail changes no completed
    // evaluation, so it stays out.
    std::uint64_t h = 0x6c6f6f6b61686561ULL;  // "lookahea"
    h = hash_mix(h, static_cast<std::uint64_t>(p.cut_size));
    h = hash_mix(h, static_cast<std::uint64_t>(p.max_cuts));
    h = hash_mix(h, p.num_random_patterns);
    h = hash_mix(h, p.force_random_patterns);
    h = hash_mix(h, p.seed);
    h = hash_mix(h, static_cast<std::uint64_t>(static_cast<std::int64_t>(p.spcf_slack)));
    // The retired sat_conflict_limit field's value: keeps every fingerprint,
    // RNG stream, memo key and stored record as it was.
    h = hash_mix(h, std::uint64_t{2000});
    h = hash_mix(h, p.use_implication_rules);
    h = hash_mix(h, p.secondary_simplification);
    // A non-empty fault plan changes what the evaluations compute, so it
    // must change the memo key; an empty plan adds nothing, keeping every
    // fault-free fingerprint (and so every RNG stream) exactly as before.
    if (!p.fault_plan.empty()) h = hash_mix(h, p.fault_plan.fingerprint());
    return h;
}

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

// Above this size, SAT sweeping and CEC run per *pass* instead of per
// iteration (every per-cone decomposition is CEC-verified regardless, and
// the returned circuit is always verified against the input).
constexpr std::size_t kPerIterationCheckLimit = 1500;
// Iterations in a row that may keep the depth flat: the rewrite into window
// form often pays off only once a later round flattens the nested windows.
constexpr int kMaxPlateau = 2;

/// One round's cone tasks: one per distinct timing-critical driver node,
/// keyed to the first PO that references it (a complemented sibling PO
/// reuses the result with an inverted output).
struct Round {
    std::vector<std::size_t> task_po;
    std::unordered_map<std::uint32_t, std::size_t> driver_task;  ///< critical drivers only
    std::vector<ConeEvaluation> evaluations;  ///< per task; empty keeps the cone's logic
};

/// One engine run: the state the paper's loop carries across rounds, with
/// each stage of a round as a member function. `optimize_timing_engine` and
/// each batch item construct one and call `run()` once. `evaluate` runs
/// `evaluate_cone` on the pool's workers, which only read the run's state
/// and bump its atomic counters; every member is written at serial points.
class EngineRun {
public:
    EngineRun(const Aig& input, const LookaheadParams& params, const EngineOptions& engine);

    /// Both passes; returns the best verified circuit and spends the run.
    Aig run(OptimizeStats* stats) &&;

private:
    static Round gather(const Aig& current, int depth);
    void evaluate(const Aig& current, Round& round) const;
    ConeEvaluation evaluate_cone(const Aig& current, std::size_t po) const;
    void charge(const Aig& current, const Round& round);
    Aig commit(const Aig& current, const Round& round, int iter, int& improved_outputs);
    Aig restructure(Aig candidate);
    Aig sweep(const Aig& aig);
    bool verify(const Aig& a, const Aig& b, std::int64_t conflict_limit, const char* check);
    void decomposition_pass(Aig current);
    void restructure_pass();

    bool time_budget_expired() const {
        return params_.time_budget_seconds > 0.0 &&
               run_clock_.elapsed_seconds() >= params_.time_budget_seconds;
    }
    /// Serial-point check of both stop sources; flags the run when the
    /// wall-clock rail is what fired.
    bool stop_requested() {
        if (time_budget_expired()) wall_clock_interrupted_ = true;
        return wall_clock_interrupted_ || shutdown_requested(engine_.cancel);
    }
    /// Context of the *serial* stages (SAT sweeping, CEC): a cost sink for
    /// --metrics, never an executor.
    RunContext serial_context(WorkCost& cost) const {
        RunContext ctx;
        ctx.cost = &cost;
        ctx.metrics = &metrics_;
        return ctx;
    }

    const LookaheadParams& params_;
    const EngineOptions& engine_;
    Metrics& metrics_ = Metrics::global();
    MetricCounter& cones_evaluated_ = metrics_.counter("engine.cones_evaluated");
    MetricCounter& cones_improved_ = metrics_.counter("engine.cones_improved");
    MetricCounter& rounds_run_ = metrics_.counter("engine.rounds");
    MetricTimer& evaluate_timer_ = metrics_.timer("engine.evaluate");
    MetricTimer& commit_timer_ = metrics_.timer("engine.commit");
    MetricTimer& restructure_timer_ = metrics_.timer("engine.restructure");
    MetricTimer& sweep_timer_ = metrics_.timer("engine.sat_sweep");
    MetricTimer& cec_timer_ = metrics_.timer("engine.cec");
    MetricTimer& total_timer_ = metrics_.timer("engine.total");
    // Work-unit meters: `work.evaluate.*` is what the deterministic budget
    // charges (memo hits replay the stored cost, so the charge stream is
    // cache-invariant); the serial-stage meters report work actually
    // performed and are observability-only.
    MetricCounter& work_decompositions_ = metrics_.counter("engine.work.evaluate.decompositions");
    MetricCounter& work_eval_conflicts_ = metrics_.counter("engine.work.evaluate.sat_conflicts");
    MetricCounter& work_sweep_conflicts_ = metrics_.counter("engine.work.sat_sweep.sat_conflicts");
    MetricCounter& work_cec_conflicts_ = metrics_.counter("engine.work.cec.sat_conflicts");
    MetricCounter& budget_stops_ = metrics_.counter("engine.budget_exhausted");
    MetricCounter& wall_clock_stops_ = metrics_.counter("engine.wall_clock_interrupts");
    MetricCounter& fault_records_ = metrics_.counter("engine.fault.records");
    MetricCounter& shutdown_stops_ = metrics_.counter("engine.cancel.shutdowns");
    MetricCounter& runs_ = metrics_.counter("engine.runs");
    const ScopedTimer total_scope_{total_timer_};

    // The calling thread participates in parallel_for, so a pool of
    // jobs - 1 workers applies exactly `jobs` threads to the cone fan-out.
    // Mutable: the const fan-out stages dispatch onto it.
    mutable ThreadPool pool_{static_cast<std::size_t>(std::max(1, engine_.jobs) - 1)};
    std::uint64_t fingerprint_ = 0;
    // Master RNG for the *serial* stages (SAT sweeping). Candidate
    // evaluation never draws from it: each cone gets its own generator
    // seeded from (params fingerprint, cone hash), so the fan-out order —
    // and therefore the job count — cannot influence any outcome.
    Rng rng_{params_.seed};
    const Aig original_;
    // Deterministic work budget: charged only at serial points with the
    // per-cone costs of each round's evaluations, so `budget_.exhausted()`
    // is a pure function of work performed — identical on every thread
    // schedule. The wall-clock rail stays as a nondeterministic emergency
    // stop: the run's elapsed time, checked against `time_budget_seconds`
    // before each round, before each cone task, and after each round's
    // fan-out. Once it has run out the in-flight round is discarded and
    // the run is flagged. Elapsed time is monotone, so a task that skipped
    // on it guarantees the post-fan-out check fires too.
    WorkBudget budget_{params_.work_budget};
    const Stopwatch run_clock_;
    bool wall_clock_interrupted_ = false;
    // The serial stages run under the shutdown token, so a SIGTERM reaches
    // the polls in SAT sweeping and CEC too; `run` catches the Cancelled
    // error and returns the best verified circuit so far.
    const CancelScope serial_cancel_scope_{engine_.cancel};
    OptimizeStats stats_;
    std::size_t and_budget_ = 0;
    Aig best_ = original_;
};

EngineRun::EngineRun(const Aig& input, const LookaheadParams& params,
                     const EngineOptions& engine)
    : params_(params), engine_(engine), original_(input.cleanup()) {
    runs_.add();
    // Run-entry fault site: `oom@run` (or any kind at site "run") fires
    // here, before any per-cone work — in batch mode the exception crosses
    // the item boundary, proving a run-level allocation failure degrades
    // that item to `failed` without tearing down its siblings.
    params_.fault_plan.check("run", "engine");
    fingerprint_ = lookahead_params_fingerprint(params);
    stats_.initial_depth = original_.depth();
    stats_.initial_ands = original_.count_reachable_ands();
    and_budget_ = 8 * std::max<std::size_t>(stats_.initial_ands, 64);
}

/// Gather: the POs whose driver sits at the critical depth, one task per
/// distinct driver.
Round EngineRun::gather(const Aig& current, int depth) {
    const auto levels = current.compute_levels();
    Round round;
    for (std::size_t o = 0; o < current.num_pos(); ++o) {
        const AigLit driver = current.po(o);
        if (levels[driver.node()] != depth) continue;
        if (round.driver_task.emplace(driver.node(), round.task_po.size()).second)
            round.task_po.push_back(o);
    }
    return round;
}

/// Evaluate: fans the round's cone evaluations across the workers. Workers
/// only read `current` (cone extraction copies what they need) and build
/// private cones, simulators and SAT solvers. The work budget is never
/// consulted here — every admitted task runs to completion, so the set of
/// evaluated cones cannot depend on the schedule. Only the wall-clock rail
/// or a shutdown may abandon a round, and then the caller discards it.
void EngineRun::evaluate(const Aig& current, Round& round) const {
    const ScopedTimer evaluate_scope(evaluate_timer_);
    round.evaluations.resize(round.task_po.size());
    pool_.parallel_for(0, round.task_po.size(), [&](std::size_t i) {
        // Stop dispatching: a task that has not started is skipped.
        if (time_budget_expired() || shutdown_requested(engine_.cancel)) return;
        // Task-boundary backstop for what escaped the per-cone boundary
        // (cone extraction, the memo itself, allocation): the cone keeps its
        // original structure and the round continues. A shutdown leaves the
        // slot empty, with no fault record.
        try {
            round.evaluations[i] = evaluate_cone(current, round.task_po[i]);
        } catch (const std::exception& e) {
            if (is_shutdown(e, engine_.cancel)) return;
            ConeEvaluation degraded;
            degraded.fault = fault_record_of(e);
            round.evaluations[i] = std::move(degraded);
        }
    });
}

/// One candidate, memoized by (cone structural hash, params fingerprint):
/// a pure function of (cone, params), its work cost and fault record
/// included. The per-cone fault boundary runs *inside* the memoized
/// computation: any exception other than a shutdown becomes the fault
/// record, the cone keeps its original structure, and the work spent before
/// the throw is still charged — bit-identical across job counts and
/// replayed verbatim on a memo hit. A shutdown propagates unrecorded and
/// unmemoized: the round is discarded, and `--resume` re-evaluates the cone.
ConeEvaluation EngineRun::evaluate_cone(const Aig& current, std::size_t po) const {
    const Aig cone = extract_cone(current, po);
    const std::uint64_t cone_hash = cone.hash();
    // Explicit get/put instead of get_or_compute so a hit on an entry the
    // persistent store imported can be metered as a warm hit.
    const std::pair<std::uint64_t, std::uint64_t> key{cone_hash, fingerprint_};
    if (auto cached = decompose_memo().get(key)) {
        if (engine_.warm_start) engine_.warm_start->note_decompose_hit(cone_hash, fingerprint_);
        return std::move(*cached);
    }
    cones_evaluated_.add();
    ConeEvaluation evaluation;
    {
        // The scope puts the token in front of every poll of this
        // evaluation, and the proof tasks it fans out install it on
        // whichever worker runs them. The context carries the evaluation's
        // own cost sink (the memo stores and replays every unit spent) and
        // the run's pool as the executor of the per-cube SAT don't-care
        // fan-out.
        const CancelScope cancel_scope(engine_.cancel);
        RunContext ctx;
        ctx.cost = &evaluation.cost;
        ctx.metrics = &metrics_;
        ctx.executor = pool_.size() > 0 ? &pool_ : nullptr;
        Rng cone_rng(hash_mix(fingerprint_, cone_hash));
        try {
            if (auto outcome = decompose_output(cone, params_, cone_rng, ctx))
                evaluation.outcome = std::make_shared<const DecomposeOutcome>(std::move(*outcome));
        } catch (const std::exception& e) {
            if (is_shutdown(e, engine_.cancel)) throw;
            evaluation.fault = fault_record_of(e);
        }
    }
    decompose_memo().put(key, evaluation);
    return evaluation;
}

/// Charge, at a serial point after the round's join and in task order: the
/// round's deterministic cost to the budget and the work meters, then its
/// contained faults, each stamped with its cone — the same for every job
/// count, memo hits included. The round will be fully committed;
/// exhaustion takes effect before the *next* round. The round's new memo
/// entries go to the persistent store, which contains its own failures.
void EngineRun::charge(const Aig& current, const Round& round) {
    WorkCost round_cost;
    for (const auto& evaluation : round.evaluations) round_cost += evaluation.cost;
    budget_.charge(round_cost);
    work_decompositions_.add(round_cost.decompositions);
    work_eval_conflicts_.add(round_cost.sat_conflicts);

    if (engine_.warm_start) engine_.warm_start->flush_round();

    for (std::size_t i = 0; i < round.task_po.size(); ++i) {
        if (!round.evaluations[i].fault) continue;
        FaultRecord record = *round.evaluations[i].fault;
        record.cone = static_cast<int>(round.task_po[i]);
        record.cone_name = current.po_name(round.task_po[i]);
        fault_records_.add();
        stats_.faults.push_back(std::move(record));
    }
}

/// Commit: rebuilds the circuit output by output in PO order, splicing in
/// each critical driver's new cone. The order is fixed, so the result is
/// identical for every job count. `improved_outputs` counts the POs that
/// took a new cone.
Aig EngineRun::commit(const Aig& current, const Round& round, int iter, int& improved_outputs) {
    const ScopedTimer commit_scope(commit_timer_);
    Aig next;
    std::vector<AigLit> pi_map;
    pi_map.reserve(current.num_pis());
    for (std::size_t i = 0; i < current.num_pis(); ++i)
        pi_map.push_back(next.add_pi(current.pi_name(i)));
    const auto original_pos = append_aig(next, current, pi_map);

    // Literal of the *uncomplemented* driver function per task, valid once
    // the task's outcome has been appended.
    std::vector<AigLit> task_base(round.task_po.size());
    std::vector<bool> task_appended(round.task_po.size(), false);
    improved_outputs = 0;
    for (std::size_t o = 0; o < current.num_pos(); ++o) {
        AigLit po_lit = original_pos[o];
        const AigLit driver = current.po(o);
        const auto it = round.driver_task.find(driver.node());
        if (it != round.driver_task.end() && round.evaluations[it->second].outcome) {
            const std::size_t t = it->second;
            const std::size_t first_po = round.task_po[t];
            const DecomposeOutcome& outcome = *round.evaluations[t].outcome;
            if (!task_appended[t]) {
                const auto new_outs = append_aig(next, outcome.aig, pi_map);
                task_base[t] = current.po(first_po).complemented() ? !new_outs[0] : new_outs[0];
                task_appended[t] = true;
                stats_.log.push_back("iter " + std::to_string(iter) + " po " +
                                     current.po_name(first_po) + ": depth " +
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
    return next;
}

/// Restructure: up to 10 rounds of conventional restructuring that flatten
/// a round's freshly built window/mux logic, while each lowers the depth —
/// the step that turns iterated single-level decompositions into the
/// prefix-style trees of the paper's Eqn. 2.
Aig EngineRun::restructure(Aig candidate) {
    const ScopedTimer restructure_scope(restructure_timer_);
    for (int r = 0; r < 10; ++r) {
        Aig restructured = restructure_round(candidate);
        if (restructured.depth() >= candidate.depth()) break;
        candidate = std::move(restructured);
    }
    return candidate;
}

/// Sweep: depth-aware SAT sweeping as area recovery, drawing on the serial
/// RNG; metered for --metrics but never charged to the budget.
Aig EngineRun::sweep(const Aig& aig) {
    const ScopedTimer sweep_scope(sweep_timer_);
    WorkCost sweep_cost;
    Aig swept = sat_sweep(aig, rng_, /*conflict_limit=*/2000, /*num_patterns=*/1024,
                          /*depth_aware=*/true, serial_context(sweep_cost));
    work_sweep_conflicts_.add(sweep_cost.sat_conflicts);
    return swept;
}

/// Verify: whole-circuit CEC against the verdict memo, metered for
/// --metrics but never charged to the budget. A failed or unresolved check
/// means the candidate cannot be trusted (callers revert); an unresolved
/// one also marks the run unverified. A proven difference is a bug — every
/// committed cone passed its own CEC — so it is also recorded as a
/// whole-circuit fault (`cone` = -1) naming `check` and, unless the verdict
/// came from the memo, the counterexample.
bool EngineRun::verify(const Aig& a, const Aig& b, std::int64_t conflict_limit,
                       const char* check) {
    const ScopedTimer cec_scope(cec_timer_);
    WorkCost cec_cost;
    const CecResult cec = check_equivalence_memo(a, b, conflict_limit,
                                                 serial_context(cec_cost), engine_.warm_start);
    work_cec_conflicts_.add(cec_cost.sat_conflicts);
    stats_.verified = stats_.verified && cec.resolved;
    if (cec.resolved && !cec.equivalent) {
        FaultRecord record;
        record.kind = ErrorKind::VerificationFailed;
        record.stage = "cec";
        record.detail = std::string(check) + " CEC proved the candidate non-equivalent";
        if (!cec.counterexample.empty()) {
            record.detail += " at PI assignment ";
            for (const bool bit : cec.counterexample) record.detail += bit ? '1' : '0';
        }
        fault_records_.add();
        stats_.faults.push_back(std::move(record));
    }
    return cec.resolved && cec.equivalent;
}

/// One pass of the paper's loop from `current`: each iteration applies one
/// level of lookahead decomposition to every critical output, then
/// restructures, recovers area and verifies. An iteration that keeps the
/// depth flat is tolerated up to kMaxPlateau times in a row; the best
/// circuit seen anywhere is what `run` returns.
void EngineRun::decomposition_pass(Aig current) {
    int plateau = 0;
    bool touched = false;
    for (int iter = 0; iter < params_.max_iterations && !budget_.exhausted(); ++iter) {
        if (stop_requested()) break;
        const int depth = current.depth();
        if (depth < 2) break;
        Round round = gather(current, depth);
        evaluate(current, round);
        // Wall-clock interruption or shutdown: the partially evaluated round
        // is discarded — never charged, never committed — so a resumed run
        // retraces the uninterrupted trajectory exactly.
        if (stop_requested()) break;
        charge(current, round);
        int improved_outputs = 0;
        Aig candidate = commit(current, round, iter, improved_outputs).cleanup();
        if (params_.baseline_preoptimize) candidate = restructure(std::move(candidate));
        const bool small = candidate.count_reachable_ands() <= kPerIterationCheckLimit;
        if (params_.area_recovery && small) candidate = sweep(candidate);

        const int candidate_depth = candidate.depth();
        if (candidate_depth > depth) break;  // regression: keep the best seen
        if (candidate_depth == depth) {
            if (improved_outputs == 0 || ++plateau > kMaxPlateau) break;
        } else {
            plateau = 0;
        }
        if (candidate.count_reachable_ands() > and_budget_) break;  // runaway duplication
        // An untrusted round keeps the last verified circuit.
        if (small && !verify(candidate, current, /*conflict_limit=*/1000000, "per-iteration"))
            break;

        stats_.outputs_decomposed += improved_outputs;
        ++stats_.iterations;
        touched = true;
        current = std::move(candidate);
        if (better(current, best_)) best_ = current;
    }

    // Pass-level area recovery and verification for circuits that were too
    // large for per-iteration checks. An untrusted pass cannot keep
    // anything it produced.
    if (touched && best_.count_reachable_ands() > kPerIterationCheckLimit) {
        if (params_.area_recovery) {
            Aig swept = sweep(best_);
            if (!better(best_, swept)) best_ = std::move(swept);
        }
        if (!verify(best_, original_, /*conflict_limit=*/4000000, "pass-level")) best_ = original_;
    }
}

/// Pass 2: conventional restructuring alone, then decomposition on top of
/// it — the paper's deployment ("complements existing logic optimization
/// algorithms"). Whichever pass wins is returned.
void EngineRun::restructure_pass() {
    Aig preopt = balance(original_);
    if (better(preopt, best_)) best_ = preopt;
    for (int r = 0; r < 10 && !shutdown_requested(engine_.cancel); ++r) {
        Aig restructured;
        {
            const ScopedTimer restructure_scope(restructure_timer_);
            restructured = restructure_round(preopt);
        }
        if (params_.area_recovery) restructured = sweep(restructured);
        if (restructured.depth() >= preopt.depth()) break;
        preopt = std::move(restructured);
    }
    if (!verify(preopt, original_, /*conflict_limit=*/1000000, "restructure-only"))
        preopt = original_;
    if (better(preopt, best_)) best_ = preopt;
    if (preopt.depth() < original_.depth() && !shutdown_requested(engine_.cancel))
        decomposition_pass(std::move(preopt));
}

Aig EngineRun::run(OptimizeStats* stats) && {
    // The passes run under a graceful-shutdown boundary: a Cancelled error
    // raised by a poll in the *serial* stages (SAT sweeping, CEC,
    // restructuring's solver work) unwinds to here and the run returns the
    // best verified circuit so far. Anything else propagates unchanged.
    try {
        // Pass 1: decomposition starting from the raw circuit (deep chains
        // are where the windows are easiest to find).
        decomposition_pass(original_);
        if (params_.baseline_preoptimize && !shutdown_requested(engine_.cancel))
            restructure_pass();
    } catch (const std::exception& e) {
        if (!is_shutdown(e, engine_.cancel)) throw;
    }

    stats_.cancelled = shutdown_requested(engine_.cancel);
    if (stats_.cancelled) shutdown_stops_.add();
    stats_.final_depth = best_.depth();
    stats_.final_ands = best_.count_reachable_ands();
    stats_.work_units = budget_.spent();
    stats_.budget_exhausted = budget_.exhausted();
    stats_.wall_clock_interrupted = wall_clock_interrupted_;
    if (stats_.budget_exhausted) budget_stops_.add();
    if (stats_.wall_clock_interrupted) wall_clock_stops_.add();
    rounds_run_.add(static_cast<std::uint64_t>(stats_.iterations));
    cones_improved_.add(static_cast<std::uint64_t>(stats_.outputs_decomposed));
    // The time the pool's threads spent waiting idle across this run's
    // fan-outs (cone rounds and intra-cone proof batches) — the cost
    // help-while-waiting exists to shrink.
    if (pool_.size() > 0)
        metrics_.timer("engine.intracone.idle_wait").add_nanos(pool_.idle_wait_nanos());
    if (stats) *stats = stats_;
    return std::move(best_);
}

}  // namespace

Aig optimize_timing_engine(const Aig& input, const LookaheadParams& params,
                           const EngineOptions& engine, OptimizeStats* stats) {
    return EngineRun(input, params, engine).run(stats);
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
    // `concurrent` items run at a time, each a standalone run with
    // `jobs / concurrent` threads on a pool of its own, so a batch smaller
    // than `jobs` spends its threads inside its items. The clamp keeps an
    // empty batch (every item already journaled) at one slot.
    const std::size_t concurrent = std::clamp<std::size_t>(items.size(), 1, jobs);
    ThreadPool pool(concurrent - 1);
    EngineOptions per_item = engine;
    per_item.jobs = static_cast<int>(jobs / concurrent);
    std::mutex complete_mutex;
    pool.parallel_for(0, items.size(), [&](std::size_t i) {
        const Stopwatch item_clock;
        BatchOutcome& outcome = outcomes[i];
        outcome.name = items[i].name;
        // Item-level fault boundary: one failing circuit must not abort the
        // other 99; it is reported through `failed`/`error` and the metrics
        // registry. Once a shutdown is requested, no item starts.
        bool returned = false;
        if (!shutdown_requested(engine.cancel)) {
            try {
                outcome.output = EngineRun(items[i].input, params, per_item).run(&outcome.stats);
                returned = true;
            } catch (const std::exception& e) {
                if (!is_shutdown(e, engine.cancel)) {
                    outcome.failed = true;
                    outcome.error = e.what();
                    Metrics::global().counter("engine.batch.item_failures").add();
                }
            }
        }
        // An item that did not run to completion keeps its cleaned input —
        // the per-cone boundary's keep-original rule — with fresh stats
        // marked unverified.
        if (!returned) {
            outcome.output = items[i].input.cleanup();
            outcome.stats = OptimizeStats{};
            outcome.stats.verified = false;
        }
        // A shutdown before the item started, or while it ran (the run then
        // returns its best verified circuit with stats.cancelled), cancels
        // it: the CLI neither journals nor writes it, and `--resume` re-runs
        // it from scratch.
        outcome.cancelled = returned ? outcome.stats.cancelled : !outcome.failed;
        if (outcome.cancelled)
            Metrics::global().counter("engine.cancel.batch_items_cancelled").add();
        outcome.seconds = item_clock.elapsed_seconds();
        if (on_complete) {
            const std::lock_guard<std::mutex> lock(complete_mutex);
            on_complete(outcome, i);
        }
    });
    return outcomes;
}

std::vector<CacheStatsSnapshot> all_cache_stats() {
    return {decompose_memo().stats(), cec_memo().stats()};
}

void clear_engine_caches() {
    decompose_memo().clear();
    cec_memo().clear();
}

}  // namespace lls
