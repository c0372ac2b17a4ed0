#include "cec/cec.hpp"

#include "aig/aig_build.hpp"

#include <algorithm>
#include <unordered_map>

#include "common/bitops.hpp"
#include "common/cancel.hpp"
#include "sim/simulation.hpp"

namespace lls {

std::vector<sat::Lit> encode_aig_nodes(const Aig& aig, sat::Solver& solver,
                                       const std::vector<int>& pi_vars) {
    LLS_REQUIRE(pi_vars.size() == aig.num_pis());
    // node_lit[id] = SAT literal equal to the node's (uncomplemented) value.
    std::vector<sat::Lit> node_lit(aig.num_nodes());

    // Constant node: a dedicated variable forced to 0.
    const int const_var = solver.new_var();
    solver.add_clause(sat::Lit(const_var, true));
    node_lit[0] = sat::Lit(const_var, false);

    for (std::size_t i = 0; i < aig.num_pis(); ++i)
        node_lit[aig.pi(i)] = sat::Lit(pi_vars[i], false);

    auto lit_of = [&](AigLit l) {
        const sat::Lit s = node_lit[l.node()];
        return l.complemented() ? !s : s;
    };

    for (std::uint32_t id = 1; id < aig.num_nodes(); ++id) {
        if (!aig.is_and(id)) continue;
        const auto& n = aig.node(id);
        const sat::Lit a = lit_of(n.fanin0);
        const sat::Lit b = lit_of(n.fanin1);
        const sat::Lit c = sat::Lit(solver.new_var(), false);
        solver.add_clause(!c, a);
        solver.add_clause(!c, b);
        solver.add_clause(c, !a, !b);
        node_lit[id] = c;
    }
    return node_lit;
}

std::vector<sat::Lit> encode_aig(const Aig& aig, sat::Solver& solver,
                                 const std::vector<int>& pi_vars) {
    const auto node_lit = encode_aig_nodes(aig, solver, pi_vars);
    std::vector<sat::Lit> pos;
    pos.reserve(aig.num_pos());
    for (std::size_t i = 0; i < aig.num_pos(); ++i) pos.push_back(sat_lit_of(node_lit, aig.po(i)));
    return pos;
}

namespace {

/// Random-simulation pre-pass: returns a counterexample pattern index if
/// some PO differs, together with the pattern set used.
std::optional<std::vector<bool>> simulation_counterexample(const Aig& a, const Aig& b) {
    Rng rng(0x5eedu);
    SimPatterns patterns =
        a.num_pis() <= SimPatterns::kMaxExhaustivePis
            ? SimPatterns::exhaustive(a.num_pis())
            : SimPatterns::random(a.num_pis(), 2048, rng);
    const auto sa = simulate(a, patterns);
    const auto sb = simulate(b, patterns);
    for (std::size_t o = 0; o < a.num_pos(); ++o) {
        const Signature va = literal_signature(a, a.po(o), sa, patterns.num_patterns());
        const Signature vb = literal_signature(b, b.po(o), sb, patterns.num_patterns());
        for (std::size_t w = 0; w < va.size(); ++w) {
            const std::uint64_t diff = va[w] ^ vb[w];
            if (!diff) continue;
            const std::size_t p = w * 64 + static_cast<std::size_t>(std::countr_zero(diff));
            std::vector<bool> cex(a.num_pis());
            for (std::size_t i = 0; i < a.num_pis(); ++i) cex[i] = patterns.pi_value(i, p);
            return cex;
        }
    }
    return std::nullopt;
}

}  // namespace

CecResult check_equivalence(const Aig& a, const Aig& b, std::int64_t conflict_limit,
                            const RunContext& ctx) {
    LLS_REQUIRE(a.num_pis() == b.num_pis());
    LLS_REQUIRE(a.num_pos() == b.num_pos());

    CecResult result;
    if (auto cex = simulation_counterexample(a, b)) {
        result.equivalent = false;
        result.counterexample = std::move(*cex);
        return result;
    }
    // For exhaustively simulated interfaces the pre-pass is already a proof.
    if (a.num_pis() <= SimPatterns::kMaxExhaustivePis) {
        result.equivalent = true;
        return result;
    }

    // Fraiging-based CEC: sweep the joint circuit so internal equivalences
    // between the two versions are merged bottom-up (cheap local SAT
    // proofs); most output pairs then collapse onto the same literal, and
    // only the leftovers go to a monolithic miter.
    Aig joint;
    std::vector<AigLit> pi_map;
    pi_map.reserve(a.num_pis());
    for (std::size_t i = 0; i < a.num_pis(); ++i) joint.add_pi(a.pi_name(i));
    for (std::size_t i = 0; i < a.num_pis(); ++i) pi_map.push_back(joint.pi_lit(i));
    const auto pos_a_lits = append_aig(joint, a, pi_map);
    const auto pos_b_lits = append_aig(joint, b, pi_map);
    for (std::size_t o = 0; o < a.num_pos(); ++o) joint.add_po(pos_a_lits[o]);
    for (std::size_t o = 0; o < b.num_pos(); ++o) joint.add_po(pos_b_lits[o]);

    Rng rng(0xfaced5eedULL);
    const Aig swept = sat_sweep(joint, rng, /*conflict_limit=*/5000, /*num_patterns=*/2048,
                                /*depth_aware=*/false, ctx);

    std::vector<std::size_t> unresolved;
    for (std::size_t o = 0; o < a.num_pos(); ++o)
        if (swept.po(o) != swept.po(a.num_pos() + o)) unresolved.push_back(o);
    if (unresolved.empty()) {
        result.equivalent = true;
        return result;
    }

    sat::Solver solver;
    std::vector<int> pi_vars(swept.num_pis());
    for (auto& v : pi_vars) v = solver.new_var();
    const auto node_lits = encode_aig_nodes(swept, solver, pi_vars);

    // Miter over the unresolved pairs: OR of XORs must be UNSAT.
    std::vector<sat::Lit> xor_lits;
    for (const auto o : unresolved) {
        const sat::Lit x = sat::Lit(solver.new_var(), false);
        const sat::Lit p = sat_lit_of(node_lits, swept.po(o));
        const sat::Lit q = sat_lit_of(node_lits, swept.po(a.num_pos() + o));
        solver.add_clause(!x, p, q);
        solver.add_clause(!x, !p, !q);
        solver.add_clause(x, !p, q);
        solver.add_clause(x, p, !q);
        xor_lits.push_back(x);
    }
    solver.add_clause(std::move(xor_lits));

    const sat::Status status = solver.solve({}, conflict_limit);
    if (ctx.cost != nullptr)
        ctx.cost->sat_conflicts += static_cast<std::uint64_t>(solver.num_conflicts());
    if (status == sat::Status::Unknown) {
        result.resolved = false;
        return result;
    }
    if (status == sat::Status::Unsat) {
        result.equivalent = true;
        return result;
    }
    result.equivalent = false;
    result.counterexample.resize(a.num_pis());
    for (std::size_t i = 0; i < a.num_pis(); ++i)
        result.counterexample[i] = solver.model_value(pi_vars[i]);
    return result;
}

Aig sat_sweep(const Aig& aig, Rng& rng, std::int64_t conflict_limit, std::size_t num_patterns,
              bool depth_aware, const RunContext& ctx) {
    const SimPatterns patterns =
        aig.num_pis() <= SimPatterns::kMaxExhaustivePis
            ? SimPatterns::exhaustive(aig.num_pis())
            : SimPatterns::random(aig.num_pis(), num_patterns, rng);
    // Node signatures; refined with counterexample patterns as SAT disproves
    // candidate equivalences (classic fraiging refinement). simulate() masks
    // the tail bits of the last base word to zero for every node, so plain
    // word-wise comparison and hashing stay consistent as words are appended.
    std::vector<Signature> sigs = simulate(aig, patterns);

    Aig out;
    AigLevelTracker out_levels(out);
    std::vector<AigLit> remap(aig.num_nodes(), AigLit::constant(false));
    for (std::size_t i = 0; i < aig.num_pis(); ++i) remap[aig.pi(i)] = out.add_pi(aig.pi_name(i));

    // --- the CNF of `out`, encoded on demand ----------------------------------
    // Queries are asked about the AIG being built, where every merged node is
    // one node and so one SAT variable, and only the transitive fanin of a
    // queried literal is encoded. out_var[n] is the variable of `out` node n,
    // or -1 while no query has reached it.
    sat::Solver solver;
    std::vector<int> out_var(out.num_nodes(), -1);
    std::vector<std::uint32_t> stack;
    auto encode_and = [&](std::uint32_t n) {
        const auto& node = out.node(n);
        const int v0 = out_var[node.fanin0.node()];
        const int v1 = out_var[node.fanin1.node()];
        LLS_DCHECK(v0 >= 0 && v1 >= 0 && "a node is encoded after both of its fanins");
        const sat::Lit a(v0, node.fanin0.complemented());
        const sat::Lit b(v1, node.fanin1.complemented());
        const sat::Lit c(solver.new_var(), false);
        solver.add_clause(!c, a);
        solver.add_clause(!c, b);
        solver.add_clause(c, !a, !b);
        out_var[n] = c.var();
    };
    auto encode = [&](AigLit lit) {
        out_var.resize(out.num_nodes(), -1);
        stack.push_back(lit.node());
        while (!stack.empty()) {
            const std::uint32_t n = stack.back();
            if (out_var[n] < 0 && out.is_and(n)) {
                const auto& node = out.node(n);
                if (out_var[node.fanin0.node()] < 0) {
                    stack.push_back(node.fanin0.node());
                    continue;
                }
                if (out_var[node.fanin1.node()] < 0) {
                    stack.push_back(node.fanin1.node());
                    continue;
                }
                encode_and(n);
            } else if (out_var[n] < 0) {  // a PI, or the constant node
                out_var[n] = solver.new_var();
                if (n == 0) solver.add_clause(sat::Lit(out_var[n], true));
            }
            stack.pop_back();
        }
        return sat::Lit(out_var[lit.node()], lit.complemented());
    };

    // --- counterexample refinement ------------------------------------------
    // valid_mask[w] marks the bits of signature word w that correspond to
    // real patterns (the base pattern set's last word may be partial; the
    // appended counterexample words are zero-padded with the all-zero input,
    // which is itself a real, consistently simulated pattern).
    std::vector<std::uint64_t> valid_mask(patterns.num_words(), ~0ULL);
    valid_mask.back() = tail_mask(patterns.num_patterns());

    std::vector<std::uint32_t> reps;  // node ids currently present in buckets
    std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> buckets;
    // Complement-invariant bucket key: normalize so that the first valid bit
    // is 0, and mask out invalid bits before hashing.
    auto canon_hash = [&](const Signature& s) {
        const bool flip = s[0] & 1;  // bit 0 is always a valid pattern
        std::uint64_t h = 0x9e3779b97f4a7c15ULL;
        for (std::size_t w = 0; w < s.size(); ++w) {
            const std::uint64_t word = (flip ? ~s[w] : s[w]) & valid_mask[w];
            h ^= word;
            h *= 0x100000001b3ULL;
            h ^= h >> 31;
        }
        return h;
    };

    auto sig_relation = [&](const Signature& a, const Signature& b) -> int {
        // 1: equal on all valid patterns; -1: complementary; 0: neither.
        bool eq = true, comp = true;
        for (std::size_t w = 0; w < a.size() && (eq || comp); ++w) {
            if ((a[w] ^ b[w]) & valid_mask[w]) eq = false;
            if ((a[w] ^ ~b[w]) & valid_mask[w]) comp = false;
        }
        return eq ? 1 : (comp ? -1 : 0);
    };

    std::vector<std::vector<bool>> pending_cex;
    auto refine = [&]() {
        // Simulate one 64-bit word of counterexample patterns (zero-padded:
        // the pad positions consistently simulate the all-zero input).
        std::vector<std::uint64_t> word(aig.num_nodes(), 0);
        for (std::size_t i = 0; i < aig.num_pis(); ++i) {
            std::uint64_t w = 0;
            for (std::size_t c = 0; c < pending_cex.size(); ++c)
                if (pending_cex[c][i]) w |= 1ULL << c;
            word[aig.pi(i)] = w;
        }
        for (std::uint32_t id = 1; id < aig.num_nodes(); ++id) {
            if (!aig.is_and(id)) continue;
            const auto& n = aig.node(id);
            const std::uint64_t f0 =
                n.fanin0.complemented() ? ~word[n.fanin0.node()] : word[n.fanin0.node()];
            const std::uint64_t f1 =
                n.fanin1.complemented() ? ~word[n.fanin1.node()] : word[n.fanin1.node()];
            word[id] = f0 & f1;
        }
        for (std::uint32_t id = 0; id < aig.num_nodes(); ++id) sigs[id].push_back(word[id]);
        valid_mask.push_back(~0ULL);  // pads are themselves consistent patterns
        buckets.clear();
        for (const auto id : reps) buckets[canon_hash(sigs[id])].push_back(id);
        pending_cex.clear();
    };
    auto record_cex = [&]() {
        // A PI outside every encoded cone has no variable and reads 0.
        std::vector<bool> cex(aig.num_pis());
        for (std::size_t i = 0; i < aig.num_pis(); ++i) {
            const int v = out_var[out.pi(i)];
            cex[i] = v >= 0 && solver.model_value(v);
        }
        pending_cex.push_back(std::move(cex));
    };

    // Returns 1 if (x=1 and y=1) proven impossible, 0 if satisfiable (the
    // model is recorded as a refinement pattern), -1 if unresolved.
    // Cancellation is polled here, between queries, as well as inside
    // each solve.
    auto try_impossible = [&](sat::Lit x, sat::Lit y) -> int {
        poll_cancellation("sweep");
        const sat::Status status = solver.solve({x, y}, conflict_limit);
        if (status == sat::Status::Unsat) return 1;
        if (status == sat::Status::Sat) {
            record_cex();
            return 0;
        }
        return -1;
    };
    auto proved_equal = [&](AigLit x, AigLit y) {
        if (x == y) return true;
        const sat::Lit a = encode(x);
        const sat::Lit b = encode(y);
        return try_impossible(a, !b) == 1 && try_impossible(!a, b) == 1;
    };

    // PIs seed the buckets so internal nodes can merge into them too.
    for (std::size_t i = 0; i < aig.num_pis(); ++i) {
        reps.push_back(aig.pi(i));
        buckets[canon_hash(sigs[aig.pi(i)])].push_back(aig.pi(i));
    }

    auto is_zero_sig = [&](const Signature& s) {
        for (std::size_t w = 0; w < s.size(); ++w)
            if (s[w] & valid_mask[w]) return false;
        return true;
    };

    for (std::uint32_t id = 1; id < aig.num_nodes(); ++id) {
        if (!aig.is_and(id)) continue;
        const auto& n = aig.node(id);
        const AigLit f0 = n.fanin0.complemented() ? !remap[n.fanin0.node()] : remap[n.fanin0.node()];
        const AigLit f1 = n.fanin1.complemented() ? !remap[n.fanin1.node()] : remap[n.fanin1.node()];
        const AigLit lit = out.land(f0, f1);

        // Constant-candidate check.
        if (is_zero_sig(sigs[id])) {
            const sat::Lit x = encode(lit);
            if (try_impossible(x, x) == 1) {
                remap[id] = AigLit::constant(false);
                continue;
            }
        }

        bool merged = false;
        const auto it = buckets.find(canon_hash(sigs[id]));
        if (it != buckets.end()) {
            for (const auto cand : it->second) {
                const int rel = sig_relation(sigs[cand], sigs[id]);
                if (rel == 0) continue;
                // Never merge into a *deeper* representative: area recovery
                // must not undo the depth gains of the synthesis flow.
                if (depth_aware && out_levels.level(remap[cand]) > out_levels.level(lit)) continue;
                const AigLit target = rel == -1 ? !remap[cand] : remap[cand];
                if (proved_equal(lit, target)) {
                    remap[id] = target;
                    merged = true;
                    break;
                }
            }
        }
        if (!merged) {
            remap[id] = lit;
            reps.push_back(id);
            buckets[canon_hash(sigs[id])].push_back(id);
        }
        if (pending_cex.size() >= 64) refine();
    }

    for (std::size_t i = 0; i < aig.num_pos(); ++i) {
        const AigLit po = aig.po(i);
        out.add_po(po.complemented() ? !remap[po.node()] : remap[po.node()], aig.po_name(i));
    }
    if (ctx.cost != nullptr)
        ctx.cost->sat_conflicts += static_cast<std::uint64_t>(solver.num_conflicts());
    return out.cleanup();
}

}  // namespace lls
