#include "cec/cec.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <unordered_map>

#include "aig/aig_build.hpp"
#include "baseline/restructure.hpp"
#include "common/bitops.hpp"
#include "io/generators.hpp"
#include "sim/simulation.hpp"

namespace lls {
namespace {

TEST(Cec, IdenticalCircuitsAreEquivalent) {
    const Aig a = ripple_carry_adder(4);
    const CecResult r = check_equivalence(a, a);
    EXPECT_TRUE(r.resolved);
    EXPECT_TRUE(r.equivalent);
}

TEST(Cec, AddersOfDifferentArchitecturesAreEquivalent) {
    // The strongest functional test available: three structurally different
    // adders computing the same arithmetic.
    const Aig rca = ripple_carry_adder(6);
    const Aig cla = carry_lookahead_adder(6);
    const Aig csa = carry_select_adder(6, 2);
    EXPECT_TRUE(check_equivalence(rca, cla).equivalent);
    EXPECT_TRUE(check_equivalence(rca, csa).equivalent);
    EXPECT_TRUE(check_equivalence(cla, csa).equivalent);
}

TEST(Cec, DetectsSingleOutputDifference) {
    Aig a, b;
    for (int i = 0; i < 3; ++i) {
        a.add_pi();
        b.add_pi();
    }
    a.add_po(a.land(a.pi_lit(0), a.pi_lit(1)), "y");
    b.add_po(b.lor(b.pi_lit(0), b.pi_lit(1)), "y");
    const CecResult r = check_equivalence(a, b);
    ASSERT_TRUE(r.resolved);
    EXPECT_FALSE(r.equivalent);
    // The counterexample must actually distinguish the two circuits.
    ASSERT_EQ(r.counterexample.size(), 3u);
    const bool va = r.counterexample[0], vb = r.counterexample[1];
    EXPECT_NE(va && vb, va || vb);
}

TEST(Cec, SatPathOnWideCircuits) {
    // > 14 PIs forces the SAT path (no exhaustive shortcut).
    const Aig rca = ripple_carry_adder(8);  // 17 PIs
    const Aig cla = carry_lookahead_adder(8);
    const CecResult r = check_equivalence(rca, cla);
    EXPECT_TRUE(r.resolved);
    EXPECT_TRUE(r.equivalent);

    // And a deliberately broken copy must be caught.
    Aig broken = ripple_carry_adder(8);
    broken.set_po(0, !broken.po(0));
    const CecResult r2 = check_equivalence(rca, broken);
    EXPECT_TRUE(r2.resolved);
    EXPECT_FALSE(r2.equivalent);
}

TEST(EncodeAig, MiterSemantics) {
    Aig a;
    const AigLit x = a.add_pi();
    const AigLit y = a.add_pi();
    a.add_po(a.lxor(x, y), "x^y");

    sat::Solver solver;
    std::vector<int> pi_vars{solver.new_var(), solver.new_var()};
    const auto pos = encode_aig(a, solver, pi_vars);
    ASSERT_EQ(pos.size(), 1u);
    // Force output 1 with x = y: UNSAT.
    EXPECT_EQ(solver.solve({pos[0], sat::Lit(pi_vars[0], false), sat::Lit(pi_vars[1], false)}),
              sat::Status::Unsat);
    // Force output 1 with x != y: SAT.
    EXPECT_EQ(solver.solve({pos[0], sat::Lit(pi_vars[0], false), sat::Lit(pi_vars[1], true)}),
              sat::Status::Sat);
}

/// The pinned draw: 200 queries of three random node assumptions each.
/// Returns the number of SAT answers.
int run_pinned_queries(sat::Solver& solver, const std::vector<sat::Lit>& node_lits) {
    Rng rng(7);
    int sat_answers = 0;
    for (int q = 0; q < 200; ++q) {
        std::vector<sat::Lit> assumptions;
        for (int k = 0; k < 3; ++k) {
            const sat::Lit node = node_lits[rng.next_below(node_lits.size())];
            assumptions.push_back(rng.next_bool() ? !node : node);
        }
        if (solver.solve(assumptions, /*conflict_limit=*/1000) == sat::Status::Sat) ++sat_answers;
    }
    return sat_answers;
}

TEST(EncodeAig, AssumptionQueriesPinTheSearch) {
    // Many short queries on one solver, most of them SAT, as SAT sweeping
    // issues them: each SAT answer assigns every variable, so this drives
    // the decision order through thousands of decisions and backtracks.
    // The cumulative counts pin the search.
    const Aig adder = ripple_carry_adder(16);
    sat::Solver solver;
    std::vector<int> pi_vars(adder.num_pis());
    for (auto& v : pi_vars) v = solver.new_var();
    const auto node_lits = encode_aig_nodes(adder, solver, pi_vars);
    EXPECT_EQ(run_pinned_queries(solver, node_lits), 192);
    EXPECT_EQ(solver.num_conflicts(), 8);
    EXPECT_EQ(solver.num_decisions(), 5697);
    EXPECT_EQ(solver.num_propagations(), 34262);
}

TEST(EncodeAig, CopiedSolverSearchesLikeAFreshEncoding) {
    // Secondary simplification encodes its proof snapshot once and hands
    // each don't-care task a copy. The copy must search exactly as a fresh
    // encoding does, and must not lean on its source: the source dies first
    // (a heap still bound to it would be a use-after-free under ASan).
    const Aig adder = ripple_carry_adder(16);
    auto source = std::make_unique<sat::Solver>();
    std::vector<int> pi_vars(adder.num_pis());
    for (auto& v : pi_vars) v = source->new_var();
    const auto node_lits = encode_aig_nodes(adder, *source, pi_vars);
    sat::Solver solver(*source);
    source.reset();

    EXPECT_EQ(run_pinned_queries(solver, node_lits), 192);
    EXPECT_EQ(solver.num_conflicts(), 8);
    EXPECT_EQ(solver.num_decisions(), 5697);
    EXPECT_EQ(solver.num_propagations(), 34262);
}

/// The sweep as it was before it encoded the swept AIG on demand, kept as
/// the oracle of `Cec.SweepMatchesFullEncodingReference`: the whole input
/// AIG is encoded up front and each candidate is proven between two input
/// nodes. Every output must be the same as long as no query is unresolved.
Aig reference_sat_sweep(const Aig& aig, Rng& rng, std::int64_t conflict_limit,
                        std::size_t num_patterns, bool depth_aware) {
    const SimPatterns patterns =
        aig.num_pis() <= SimPatterns::kMaxExhaustivePis
            ? SimPatterns::exhaustive(aig.num_pis())
            : SimPatterns::random(aig.num_pis(), num_patterns, rng);
    std::vector<Signature> sigs = simulate(aig, patterns);

    sat::Solver solver;
    std::vector<int> pi_vars(aig.num_pis());
    for (auto& v : pi_vars) v = solver.new_var();
    const std::vector<sat::Lit> node_lit = encode_aig_nodes(aig, solver, pi_vars);

    std::vector<std::uint64_t> valid_mask(patterns.num_words(), ~0ULL);
    valid_mask.back() = tail_mask(patterns.num_patterns());

    std::vector<std::uint32_t> reps;
    std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> buckets;
    auto canon_hash = [&](const Signature& s) {
        const bool flip = s[0] & 1;
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
        bool eq = true, comp = true;
        for (std::size_t w = 0; w < a.size() && (eq || comp); ++w) {
            if ((a[w] ^ b[w]) & valid_mask[w]) eq = false;
            if ((a[w] ^ ~b[w]) & valid_mask[w]) comp = false;
        }
        return eq ? 1 : (comp ? -1 : 0);
    };

    std::vector<std::vector<bool>> pending_cex;
    auto refine = [&]() {
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
        valid_mask.push_back(~0ULL);
        buckets.clear();
        for (const auto id : reps) buckets[canon_hash(sigs[id])].push_back(id);
        pending_cex.clear();
    };
    auto try_impossible = [&](sat::Lit x, sat::Lit y) -> int {
        const sat::Status status = solver.solve({x, y}, conflict_limit);
        if (status == sat::Status::Unsat) return 1;
        if (status == sat::Status::Sat) {
            std::vector<bool> cex(aig.num_pis());
            for (std::size_t i = 0; i < aig.num_pis(); ++i) cex[i] = solver.model_value(pi_vars[i]);
            pending_cex.push_back(std::move(cex));
            return 0;
        }
        return -1;
    };
    auto proved_equal = [&](std::uint32_t n1, std::uint32_t n2, bool complemented) {
        const sat::Lit a = node_lit[n1];
        const sat::Lit b = complemented ? !node_lit[n2] : node_lit[n2];
        return try_impossible(a, !b) == 1 && try_impossible(!a, b) == 1;
    };

    Aig out;
    AigLevelTracker out_levels(out);
    std::vector<AigLit> remap(aig.num_nodes(), AigLit::constant(false));
    for (std::size_t i = 0; i < aig.num_pis(); ++i) remap[aig.pi(i)] = out.add_pi(aig.pi_name(i));
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
        if (is_zero_sig(sigs[id]) && try_impossible(node_lit[id], node_lit[id]) == 1) {
            remap[id] = AigLit::constant(false);
            continue;
        }
        bool merged = false;
        const auto it = buckets.find(canon_hash(sigs[id]));
        if (it != buckets.end()) {
            for (const auto cand : it->second) {
                const int rel = sig_relation(sigs[cand], sigs[id]);
                if (rel == 0) continue;
                const bool invert = rel == -1;
                if (depth_aware && out_levels.level(remap[cand]) > out_levels.level(lit)) continue;
                if (proved_equal(id, cand, invert)) {
                    remap[id] = invert ? !remap[cand] : remap[cand];
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
    return out.cleanup();
}

/// The joint circuit check_equivalence sweeps: both sides over shared PIs,
/// the POs of `a` followed by those of `b`.
Aig joint_miter(const Aig& a, const Aig& b) {
    Aig joint;
    std::vector<AigLit> pi_map;
    for (std::size_t i = 0; i < a.num_pis(); ++i) pi_map.push_back(joint.add_pi(a.pi_name(i)));
    const auto pos_a = append_aig(joint, a, pi_map);
    const auto pos_b = append_aig(joint, b, pi_map);
    for (const AigLit po : pos_a) joint.add_po(po);
    for (const AigLit po : pos_b) joint.add_po(po);
    return joint;
}

TEST(Cec, SweepMatchesFullEncodingReference) {
    // Proving each merge on the AIG being built asks the same functional
    // question as proving it between two input nodes, so the swept AIG is
    // the one the full up-front encoding gives, in both of the sweep's
    // uses: area recovery (depth-aware) and the CEC's joint miter.
    std::vector<std::pair<std::string, Aig>> inputs;
    for (const int bits : {8, 16, 32})
        inputs.emplace_back("rca" + std::to_string(bits), ripple_carry_adder(bits));
    for (const BenchmarkProfile& profile : table2_profiles())
        for (const char* name : {"C432", "C880", "dalu", "sparc_tlu_intctl_flat", "rot"})
            if (profile.name == name) inputs.emplace_back(name, synthetic_control_circuit(profile));
    ASSERT_EQ(inputs.size(), 8u);

    RestructureOptions round;
    round.cut_size = 8;
    round.delay_oriented = true;
    for (const auto& [name, input] : inputs) {
        const Aig restructured = balance(restructure(input, round));
        const std::pair<std::string, Aig> cases[] = {
            {name, input},
            {name + " round", restructured},
            {name + " miter", joint_miter(input, restructured)},
        };
        for (const auto& [label, aig] : cases) {
            for (const bool depth_aware : {true, false}) {
                const std::int64_t limit = depth_aware ? 2000 : 5000;
                const std::size_t patterns = depth_aware ? 1024 : 2048;
                Rng expected_rng(0xfaced5eedULL);
                Rng actual_rng(0xfaced5eedULL);
                const Aig expected =
                    reference_sat_sweep(aig, expected_rng, limit, patterns, depth_aware);
                const Aig actual = sat_sweep(aig, actual_rng, limit, patterns, depth_aware);
                EXPECT_EQ(actual.hash(), expected.hash())
                    << label << (depth_aware ? " depth-aware" : " cec");
            }
        }
    }
}

TEST(SatSweep, MergesDuplicatedLogic) {
    Aig aig;
    const AigLit a = aig.add_pi();
    const AigLit b = aig.add_pi();
    const AigLit c = aig.add_pi();
    // Build XOR twice with different structures; the sweep must share them.
    const AigLit x1 = aig.lor(aig.land(a, !b), aig.land(!a, b));
    const AigLit x2 = !aig.lor(aig.land(a, b), aig.land(!a, !b));  // xnor complemented
    aig.add_po(aig.land(x1, c), "y0");
    aig.add_po(aig.land(x2, c), "y1");

    Rng rng(1);
    const Aig swept = sat_sweep(aig, rng);
    EXPECT_TRUE(check_equivalence(aig, swept).equivalent);
    EXPECT_LT(swept.count_reachable_ands(), aig.count_reachable_ands());
    // After merging x1 == x2 the two POs share a single driver.
    EXPECT_EQ(swept.po(0), swept.po(1));
}

TEST(SatSweep, DetectsConstantNodes) {
    Aig aig;
    const AigLit a = aig.add_pi();
    const AigLit b = aig.add_pi();
    // (a & b) & (a & !b) == 0, hidden behind two levels.
    const AigLit z = aig.land(aig.land(a, b), aig.land(a, !b));
    aig.add_po(aig.lor(z, b), "y");
    Rng rng(2);
    const Aig swept = sat_sweep(aig, rng);
    EXPECT_TRUE(check_equivalence(aig, swept).equivalent);
    EXPECT_EQ(swept.count_reachable_ands(), 0u);  // y collapses to just b
}

TEST(SatSweep, PreservesEquivalenceOnAdders) {
    Rng rng(3);
    for (int bits : {3, 5, 8}) {
        const Aig adder = ripple_carry_adder(bits);
        const Aig swept = sat_sweep(adder, rng);
        EXPECT_TRUE(check_equivalence(adder, swept).equivalent) << bits;
        EXPECT_LE(swept.count_reachable_ands(), adder.count_reachable_ands());
    }
}

}  // namespace
}  // namespace lls
