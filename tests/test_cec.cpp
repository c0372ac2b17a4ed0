#include "cec/cec.hpp"

#include <gtest/gtest.h>

#include <memory>

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
