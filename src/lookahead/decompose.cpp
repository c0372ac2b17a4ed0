#include "lookahead/decompose.hpp"

#include <algorithm>
#include <bit>
#include <exception>
#include <optional>

#include "aig/aig_build.hpp"
#include "cec/cec.hpp"
#include "common/bitops.hpp"
#include "common/cancel.hpp"
#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "engine/metrics.hpp"
#include "lookahead/reduce.hpp"
#include "lookahead/simplify.hpp"
#include "network/network.hpp"
#include "spcf/spcf.hpp"

namespace lls {

namespace {

/// Conflict limit of each SAT query a cone evaluation makes: the secondary
/// simplification's don't-care proofs and the implication-rule premises.
constexpr std::int64_t kSatConflictLimit = 2000;

/// Two-input AND truth table (minterm 3 only).
TruthTable and2_tt() {
    TruthTable tt(2);
    tt.set_bit(3, true);
    return tt;
}

Signature complement_signature(Signature s, std::size_t num_patterns) {
    for (auto& w : s) w = ~w;
    s.back() &= tail_mask(num_patterns);
    return s;
}

bool signature_implies(const Signature& a, const Signature& b) {
    for (std::size_t w = 0; w < a.size(); ++w)
        if (a[w] & ~b[w]) return false;
    return true;
}

Metrics& metrics_of(const RunContext& ctx) {
    return ctx.metrics != nullptr ? *ctx.metrics : Metrics::global();
}

/// One node's don't-care proof obligation in secondary simplification: the
/// candidate minterms no !Sigma_1 pattern reached, to be proven genuinely
/// unreachable by SAT (one independent query per minterm). Tasks are
/// self-contained — each runs against its own copy of one solver encoding
/// of the pre-simplification network snapshot — so they can execute in any
/// order, on any thread, and still produce identical verdicts and identical
/// per-task conflict counts. That purity is the whole determinism argument
/// of the intra-cone fan-out: the joined results are a function of the
/// task list, never of the schedule.
struct DcProofTask {
    std::uint32_t node = 0;
    TruthTable dc;                        ///< proven don't-cares (pre-filled when exhaustive)
    std::vector<std::uint32_t> queries;   ///< minterms still needing a SAT proof
    std::vector<char> verdicts;           ///< parallel to `queries`; 1 = proven unreachable
    std::uint64_t conflicts = 0;          ///< this task's solver conflicts
    std::exception_ptr error;             ///< contained failure, rethrown at the join
};

/// The decomposition body; `ctx.cost` (non-null here — the public wrapper
/// guarantees it) collects work units on every exit path.
std::optional<DecomposeOutcome> decompose_output_impl(const Aig& cone,
                                                      const LookaheadParams& params, Rng& rng,
                                                      const RunContext& ctx) {
    LLS_REQUIRE(cone.num_pos() == 1);
    WorkCost& cost = *ctx.cost;
    poll_cancellation("decompose");
    params.fault_plan.check("decompose", "decompose");
    const int old_depth = cone.depth();
    if (old_depth < 2) return std::nullopt;

    // --- 1. SPCF from floating-mode timing simulation -----------------------
    const bool exhaustive =
        cone.num_pis() <= SimPatterns::kMaxExhaustivePis && !params.force_random_patterns;
    const SimPatterns patterns =
        exhaustive ? SimPatterns::exhaustive(cone.num_pis())
                   : SimPatterns::random(cone.num_pis(), params.num_random_patterns, rng);
    const auto aig_sigs = simulate(cone, patterns);
    const Spcf spcf = compute_spcf(cone, patterns, aig_sigs, /*delta=*/0);
    const std::int32_t delta = std::max<std::int32_t>(1, spcf.max_arrival - params.spcf_slack);
    const Spcf spcf_at_delta = delta == spcf.delta
                                   ? spcf
                                   : compute_spcf(cone, patterns, aig_sigs, delta);
    const Signature& spcf_sig = spcf_at_delta.po_spcf[0];
    params.fault_plan.check("spcf", "spcf");
    if (spcf_at_delta.empty(0)) return std::nullopt;

    // --- 2. cluster into a technology-independent network -------------------
    Network net = Network::from_aig(cone, params.cut_size, params.max_cuts);
    std::vector<Signature> sigs = net.simulate(patterns);
    const std::uint32_t y_orig = net.po(0).node;
    if (!net.is_internal(y_orig)) return std::nullopt;

    auto extend_sigs_for_copies = [&](const std::vector<std::uint32_t>& mapping,
                                      std::size_t old_size) {
        sigs.resize(net.num_nodes());
        for (std::uint32_t old_id = 0; old_id < old_size; ++old_id) {
            const std::uint32_t new_id = mapping[old_id];
            if (new_id != old_id) sigs[new_id] = sigs[old_id];
        }
    };

    // --- 3. primary simplification -> y0 and the windows --------------------
    std::vector<std::uint32_t> primary_map;
    const std::size_t size_before_primary = net.num_nodes();
    const std::uint32_t y0_root = net.duplicate_cone(y_orig, &primary_map);
    extend_sigs_for_copies(primary_map, size_before_primary);

    const ReduceResult reduced =
        reduce_cone(net, y0_root, sigs, patterns.num_patterns(), spcf_sig, ctx);
    if (!reduced.improved || reduced.windows.empty()) return std::nullopt;

    // Window nodes: one agreement node per marked node, conjoined by a
    // balanced AND tree into Sigma_1.
    std::vector<std::uint32_t> window_nodes;
    window_nodes.reserve(reduced.windows.size());
    for (const auto& [marked_node, window_tt] : reduced.windows) {
        std::vector<std::uint32_t> fanins = net.fanins(marked_node);
        const std::uint32_t w = net.add_node(std::move(fanins), window_tt);
        sigs.resize(net.num_nodes());
        sigs[w] = net.eval_node_signature(w, sigs, patterns.num_patterns());
        window_nodes.push_back(w);
    }
    while (window_nodes.size() > 1) {
        std::vector<std::uint32_t> next;
        for (std::size_t i = 0; i + 1 < window_nodes.size(); i += 2) {
            const std::uint32_t a =
                net.add_node({window_nodes[i], window_nodes[i + 1]}, and2_tt());
            sigs.resize(net.num_nodes());
            sigs[a] = net.eval_node_signature(a, sigs, patterns.num_patterns());
            next.push_back(a);
        }
        if (window_nodes.size() % 2) next.push_back(window_nodes.back());
        window_nodes = std::move(next);
    }
    const std::uint32_t sigma = window_nodes[0];
    const Signature not_sigma = complement_signature(sigs[sigma], patterns.num_patterns());

    // --- 4. secondary simplification -> y1 ---------------------------------
    std::vector<std::uint32_t> secondary_map;
    const std::size_t size_before_secondary = net.num_nodes();
    const std::uint32_t y1_root = net.duplicate_cone(y_orig, &secondary_map);
    extend_sigs_for_copies(secondary_map, size_before_secondary);

    if (params.secondary_simplification) {
        params.fault_plan.check("sat", "simplify");
        // With random patterns a zero sampled weight is only evidence; every
        // cube drop must be proven unreachable under !Sigma_1 by SAT before
        // it becomes a don't-care (DESIGN.md, "Key algorithmic decisions").
        const bool need_sat = !patterns.is_exhaustive();
        std::vector<AigLit> node_map;
        Aig snapshot;
        if (need_sat) snapshot = net.to_aig_with_map(&node_map);

        // Phase A (serial): collect per-node don't-care candidates from the
        // sampled signatures. Node functions are untouched during this and
        // the proof phase, so `net`, `snapshot`, and `sigs` are read-only
        // shared state for the tasks below.
        std::vector<DcProofTask> proof_tasks;
        const auto y1_levels = net.compute_sop_levels();
        for (const auto node : net.cone_of(y1_root)) {
            poll_cancellation("simplify");
            if (y1_levels[node] == 0) continue;  // already a literal/constant
            const TruthTable& f = net.function(node);
            const int k = f.num_vars();
            const auto& fanins = net.fanins(node);

            // Fanin-space minterms that some !Sigma_1 pattern actually
            // reaches; everything else is a don't-care candidate.
            TruthTable reached(k);
            for (std::size_t w = 0; w < not_sigma.size(); ++w) {
                std::uint64_t bits = not_sigma[w];
                while (bits) {
                    const int b = std::countr_zero(bits);
                    bits &= bits - 1;
                    std::uint32_t minterm = 0;
                    for (std::size_t fi = 0; fi < fanins.size(); ++fi)
                        if ((sigs[fanins[fi]][w] >> b) & 1) minterm |= 1u << fi;
                    reached.set_bit(minterm, true);
                }
            }
            DcProofTask task;
            task.node = node;
            task.dc = TruthTable(k);
            for (std::uint32_t m = 0; m < (1u << k); ++m) {
                if (reached.get_bit(m)) continue;
                // Exhaustive patterns make sampled absence a proof already.
                if (need_sat) task.queries.push_back(m);
                else task.dc.set_bit(m, true);
            }
            if (task.queries.empty() && task.dc.is_const0()) continue;
            proof_tasks.push_back(std::move(task));
        }

        // Phase B: prove the candidates. The snapshot is encoded once, and
        // each task copies that encoding and runs its minterm queries in
        // minterm order. A copy is in exactly the state a fresh encoding
        // would be in, so the work is structurally identical whether the
        // tasks run serially here or fanned out across the pool, which is
        // what keeps every --jobs value byte-identical.
        // Errors are contained per task, every index always executes, and
        // the join below charges conflicts in task order up to the first
        // error — so the charge stream cannot depend on the schedule.
        if (need_sat && !proof_tasks.empty()) {
            sat::Solver encoding;
            std::vector<sat::Lit> aig_lits;
            try {
                std::vector<int> pi_vars(snapshot.num_pis());
                for (auto& v : pi_vars) v = encoding.new_var();
                aig_lits = encode_aig_nodes(snapshot, encoding, pi_vars);
            } catch (...) {
                // Every task would fail here alike: surface it as the join
                // surfaces the first task's error, with that task's queries
                // counted (and no conflicts to charge: nothing was solved).
                metrics_of(ctx)
                    .counter("engine.intracone.queries")
                    .add(proof_tasks[0].queries.size());
                throw;
            }

            // A pool worker may arrive at a task from another cone's work;
            // each task installs the evaluating thread's token so the
            // thread-local polls inside the solver see the right one
            // (nesting-safe: CancelScope saves/restores).
            const CancelToken* cancel = current_cancel_token();
            auto run_task = [&](std::size_t t) {
                DcProofTask& task = proof_tasks[t];
                const CancelScope task_scope(cancel);
                std::optional<sat::Solver> solver;
                try {
                    solver.emplace(encoding);
                    const sat::Lit sigma_lit = sat_lit_of(aig_lits, node_map[sigma]);
                    const auto& fanins = net.fanins(task.node);
                    task.verdicts.assign(task.queries.size(), 0);
                    for (std::size_t q = 0; q < task.queries.size(); ++q) {
                        // Between-queries poll: a shutdown stops the task
                        // at the next query boundary instead of grinding
                        // through the rest of the proof batch.
                        poll_cancellation("simplify");
                        const std::uint32_t minterm = task.queries[q];
                        std::vector<sat::Lit> assumptions{!sigma_lit};
                        for (std::size_t f = 0; f < fanins.size(); ++f) {
                            const sat::Lit l = sat_lit_of(aig_lits, node_map[fanins[f]]);
                            assumptions.push_back(((minterm >> f) & 1) ? l : !l);
                        }
                        task.verdicts[q] = solver->solve(assumptions, kSatConflictLimit) ==
                                           sat::Status::Unsat;
                    }
                } catch (...) {
                    task.error = std::current_exception();
                }
                if (solver) task.conflicts = static_cast<std::uint64_t>(solver->num_conflicts());
            };

            if (ctx.executor != nullptr && proof_tasks.size() > 1) {
                metrics_of(ctx).counter("engine.intracone.parallel_batches").add();
                // run_task never throws (errors are recorded per task), so
                // the fan-out always executes every index — required: the
                // join must see a verdict-or-error for each task.
                ctx.executor->parallel_for(0, proof_tasks.size(), run_task);
            } else {
                for (std::size_t t = 0; t < proof_tasks.size(); ++t) run_task(t);
            }

            // Deterministic join: resolve verdicts and charge conflicts in
            // fixed task order. On error, charge through the first failing
            // task (its partial conflicts are a pure function of the task
            // for deterministic kinds like ResourceExhausted) and rethrow;
            // later tasks ran but stay uncharged in both execution modes.
            std::uint64_t sat_queries = 0;
            std::exception_ptr first_error;
            for (DcProofTask& task : proof_tasks) {
                cost.sat_conflicts += task.conflicts;
                sat_queries += task.queries.size();
                if (task.error) {
                    first_error = task.error;
                    break;
                }
                for (std::size_t q = 0; q < task.queries.size(); ++q)
                    if (task.verdicts[q]) task.dc.set_bit(task.queries[q], true);
            }
            metrics_of(ctx).counter("engine.intracone.queries").add(sat_queries);
            if (first_error) std::rethrow_exception(first_error);
        }

        // Phase C (serial): commit the proven don't-cares in cone order.
        for (const DcProofTask& task : proof_tasks) {
            if (task.dc.is_const0()) continue;
            const TruthTable& f = net.function(task.node);
            const TruthTable new_f = minimum_sop(f & ~task.dc, task.dc).to_truth_table();
            if (!(new_f == f)) net.set_function(task.node, new_f);
        }
    }

    // --- 5. reconstruction with implication rules ---------------------------
    std::vector<AigLit> node_map;
    Aig full = net.to_aig_with_map(&node_map);
    const AigLit s = node_map[sigma];
    const AigLit a = node_map[y0_root];  // equals y when Sigma_1 = 1
    const AigLit b = node_map[y1_root];  // equals y when Sigma_1 = 0
    const AigLit base = full.lmux(s, a, b);

    const auto full_sigs = simulate(full, patterns);
    auto lit_sig = [&](AigLit lit) {
        return literal_signature(full, lit, full_sigs, patterns.num_patterns());
    };

    // Implication oracle: signature screen first (sound for refutation),
    // exhaustive patterns prove directly, otherwise SAT proves.
    sat::Solver impl_solver;
    std::vector<sat::Lit> full_sat;
    bool impl_solver_ready = false;
    auto ensure_impl_solver = [&]() {
        if (impl_solver_ready) return;
        std::vector<int> pi_vars(full.num_pis());
        for (auto& v : pi_vars) v = impl_solver.new_var();
        full_sat = encode_aig_nodes(full, impl_solver, pi_vars);
        impl_solver_ready = true;
    };
    auto implies = [&](AigLit x, AigLit y) {
        if (!signature_implies(lit_sig(x), lit_sig(y))) return false;
        if (patterns.is_exhaustive()) return true;
        ensure_impl_solver();
        return impl_solver.solve({sat_lit_of(full_sat, x), sat_lit_of(full_sat, !y)},
                                 kSatConflictLimit) == sat::Status::Unsat;
    };

    struct Candidate {
        AigLit lit;
        std::string rule;
    };
    std::vector<Candidate> candidates{{base, "base mux"}};
    if (params.use_implication_rules) {
        if (a == b) candidates.push_back({a, "y0 == y1"});
        if (a == AigLit::constant(false)) candidates.push_back({full.land(!s, b), "y0 == 0"});
        if (a == AigLit::constant(true)) candidates.push_back({full.lor(s, b), "y0 == 1"});
        if (b == AigLit::constant(false)) candidates.push_back({full.land(s, a), "y1 == 0"});
        if (b == AigLit::constant(true)) candidates.push_back({full.lor(!s, a), "y1 == 1"});
        const bool a_implies_f = implies(a, base);
        const bool b_implies_f = implies(b, base);
        const bool f_implies_a = implies(base, a);
        const bool f_implies_b = implies(base, b);
        if (a_implies_f) candidates.push_back({full.lor(a, full.land(!s, b)), "y0 => y"});
        if (b_implies_f) candidates.push_back({full.lor(b, full.land(s, a)), "y1 => y"});
        if (a_implies_f && b_implies_f) candidates.push_back({full.lor(a, b), "y0+y1"});
        if (f_implies_a) candidates.push_back({full.land(a, full.lor(s, b)), "y => y0"});
        if (f_implies_b) candidates.push_back({full.land(b, full.lor(!s, a)), "y => y1"});
        if (f_implies_a && f_implies_b) candidates.push_back({full.land(a, b), "y0*y1"});
        // Rules relating the window itself to the branch functions:
        //   S => y0   : S*y0 = S,         y = S + y1   (window forces y0)
        //   S => !y0  : S*y0 = 0,         y = !S*y1
        //   !S => y1  : !S*y1 = !S,       y = !S + y0
        //   !S => !y1 : !S*y1 = 0,        y = S*y0
        if (implies(s, a)) candidates.push_back({full.lor(s, b), "S => y0"});
        if (implies(s, !a)) candidates.push_back({full.land(!s, b), "S => !y0"});
        if (implies(!s, b)) candidates.push_back({full.lor(!s, a), "!S => y1"});
        if (implies(!s, !b)) candidates.push_back({full.land(s, a), "!S => !y1"});
    }
    cost.sat_conflicts += static_cast<std::uint64_t>(impl_solver.num_conflicts());

    const auto levels = full.compute_levels();
    std::size_t best = 0;
    for (std::size_t i = 1; i < candidates.size(); ++i)
        if (levels[candidates[i].lit.node()] < levels[candidates[best].lit.node()]) best = i;

    const AigLit chosen = net.po(0).complemented ? !candidates[best].lit : candidates[best].lit;
    full.add_po(chosen, cone.po_name(0));
    Aig result = extract_cone(full, full.num_pos() - 1);

    // --- 6. verify and accept ------------------------------------------------
    // Equal-depth results are accepted too: they re-express the cone in
    // window/mux form, which the interleaved restructuring rounds of
    // optimize_timing can then flatten across decomposition levels
    // (the telescoping of the paper's Eqn. 2).
    const int new_depth = result.depth();
    if (new_depth > old_depth) return std::nullopt;
    params.fault_plan.check("cec", "cec");
    const CecResult cec = check_equivalence(result, cone, /*conflict_limit=*/500000, ctx);
    if (!cec.resolved) return std::nullopt;  // unresolved: a plain reject
    if (!cec.equivalent) {
        // Reduce, Simplify and reconstruction make y0 = y on Sigma_1 and
        // y1 = y on !Sigma_1 by construction (DESIGN.md §5), so a proven
        // difference is a bug, never "no improvement": it faults loudly and
        // the engine keeps the cone's original structure.
        std::string cex;
        for (const bool bit : cec.counterexample) cex += bit ? '1' : '0';
        throw LlsError(ErrorKind::VerificationFailed,
                       "decomposed cone (" + candidates[best].rule +
                           ") differs from the original at PI assignment " + cex,
                       "cec");
    }

    DecomposeOutcome outcome;
    outcome.aig = std::move(result);
    outcome.old_depth = old_depth;
    outcome.new_depth = new_depth;
    outcome.num_windows = static_cast<int>(reduced.windows.size());
    outcome.reconstruction = candidates[best].rule;
    return outcome;
}

}  // namespace

std::optional<DecomposeOutcome> decompose_output(const Aig& cone, const LookaheadParams& params,
                                                 Rng& rng, const RunContext& ctx) {
    WorkCost local;
    local.decompositions = 1;  // the attempt itself, even when it bails early
    RunContext inner = ctx;
    inner.cost = &local;
    try {
        auto result = decompose_output_impl(cone, params, rng, inner);
        ctx.charge(local);
        return result;
    } catch (...) {
        // A faulted attempt charges the budget exactly like a completed
        // one — budgeted determinism must hold on the fault path too.
        ctx.charge(local);
        throw;
    }
}

}  // namespace lls
