#include "sop/sop.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "sop/factor.hpp"

namespace lls {
namespace {

TruthTable random_tt(int num_vars, Rng& rng) {
    TruthTable tt(num_vars);
    for (std::uint64_t m = 0; m < tt.num_minterms(); ++m) tt.set_bit(m, rng.next_bool());
    return tt;
}

TEST(Cube, LiteralManipulation) {
    Cube c;
    EXPECT_EQ(c.num_literals(), 0);
    c = c.with_literal(2, true).with_literal(5, false);
    EXPECT_EQ(c.num_literals(), 2);
    EXPECT_TRUE(c.has_literal(2));
    EXPECT_TRUE(c.literal_polarity(2));
    EXPECT_TRUE(c.has_literal(5));
    EXPECT_FALSE(c.literal_polarity(5));
    EXPECT_EQ(c.to_string(6), "--1--0");
    EXPECT_EQ(c.without_literal(2).num_literals(), 1);
}

TEST(Cube, ContainmentAndIntersection) {
    const Cube big = Cube{}.with_literal(0, true);           // x0
    const Cube small = big.with_literal(1, false);           // x0 !x1
    const Cube other = Cube{}.with_literal(0, false);        // !x0
    EXPECT_TRUE(big.contains_cube(small));
    EXPECT_FALSE(small.contains_cube(big));
    EXPECT_TRUE(big.intersects(small));
    EXPECT_FALSE(big.intersects(other));
    EXPECT_TRUE(Cube::tautology().contains_cube(other));
}

TEST(Cube, MintermContainment) {
    const Cube c = Cube{}.with_literal(1, true).with_literal(3, false);
    for (std::uint32_t m = 0; m < 16; ++m)
        EXPECT_EQ(c.contains_minterm(m), ((m >> 1) & 1) == 1 && ((m >> 3) & 1) == 0);
}

TEST(Sop, EvaluateMatchesTruthTable) {
    Sop s(3);
    s.add_cube(Cube{}.with_literal(0, true).with_literal(1, true));   // x0 x1
    s.add_cube(Cube{}.with_literal(2, false));                        // !x2
    const TruthTable tt = s.to_truth_table();
    for (std::uint32_t m = 0; m < 8; ++m) EXPECT_EQ(s.evaluate(m), tt.get_bit(m));
}

TEST(Sop, ContainedCubeRemoval) {
    Sop s(3);
    s.add_cube(Cube{}.with_literal(0, true));
    s.add_cube(Cube{}.with_literal(0, true).with_literal(1, true));  // contained
    s.add_cube(Cube{}.with_literal(0, true));                        // duplicate
    const TruthTable before = s.to_truth_table();
    s.remove_contained_cubes();
    EXPECT_EQ(s.num_cubes(), 1u);
    EXPECT_EQ(s.to_truth_table(), before);
}

TEST(Isop, ExactOnConstants) {
    EXPECT_TRUE(isop(TruthTable::constant(4, false)).empty());
    const Sop one = isop(TruthTable::constant(4, true));
    EXPECT_EQ(one.num_cubes(), 1u);
    EXPECT_EQ(one.cubes()[0].num_literals(), 0);
}

TEST(Isop, CoverIsExactWithoutDontCares) {
    Rng rng(21);
    for (int n = 1; n <= 8; ++n) {
        for (int trial = 0; trial < 10; ++trial) {
            const TruthTable f = random_tt(n, rng);
            EXPECT_EQ(isop(f).to_truth_table(), f) << "n=" << n;
        }
    }
}

TEST(Isop, RespectsBounds) {
    Rng rng(22);
    for (int trial = 0; trial < 30; ++trial) {
        const TruthTable a = random_tt(6, rng);
        const TruthTable b = random_tt(6, rng);
        const TruthTable lower = a & b;
        const TruthTable upper = a | b;
        const TruthTable cover = isop(lower, upper).to_truth_table();
        EXPECT_TRUE(lower.implies(cover));
        EXPECT_TRUE(cover.implies(upper));
    }
}

TEST(Isop, IrredundantCubes) {
    Rng rng(23);
    for (int trial = 0; trial < 20; ++trial) {
        const TruthTable f = random_tt(5, rng);
        const Sop s = isop(f);
        // Dropping any single cube must lose some on-set minterm.
        for (std::size_t i = 0; i < s.num_cubes(); ++i) {
            Sop rest(5);
            for (std::size_t j = 0; j < s.num_cubes(); ++j)
                if (j != i) rest.add_cube(s.cubes()[j]);
            EXPECT_FALSE(f.implies(rest.to_truth_table()))
                << "cube " << i << " is redundant in " << s.to_string();
        }
    }
}

// The Sop-per-node Minato-Morreale recursion, which copies each branch's
// cubes up one level: the oracle for the cubes isop returns and their
// order (restructuring builds AIG nodes in that order).
Sop isop_by_copy(const TruthTable& lower, const TruthTable& upper, int top_var, TruthTable* cover) {
    const int n = lower.num_vars();
    if (lower.is_const0()) {
        *cover = TruthTable::constant(n, false);
        return Sop(n);
    }
    if (upper.is_const1()) {
        *cover = TruthTable::constant(n, true);
        Sop s(n);
        s.add_cube(Cube::tautology());
        return s;
    }
    int var = top_var;
    while (var >= 0 && !lower.has_var(var) && !upper.has_var(var)) --var;
    const TruthTable l0 = lower.cofactor(var, false);
    const TruthTable l1 = lower.cofactor(var, true);
    const TruthTable u0 = upper.cofactor(var, false);
    const TruthTable u1 = upper.cofactor(var, true);
    TruthTable cover0, cover1, cover_rest;
    const Sop s0 = isop_by_copy(l0 & ~u1, u0, var - 1, &cover0);
    const Sop s1 = isop_by_copy(l1 & ~u0, u1, var - 1, &cover1);
    const Sop s_rest =
        isop_by_copy((l0 & ~cover0) | (l1 & ~cover1), u0 & u1, var - 1, &cover_rest);
    const TruthTable xv = TruthTable::variable(n, var);
    *cover = (~xv & cover0) | (xv & cover1) | cover_rest;
    Sop result(n);
    for (const auto& c : s0.cubes()) result.add_cube(c.with_literal(var, false));
    for (const auto& c : s1.cubes()) result.add_cube(c.with_literal(var, true));
    for (const auto& c : s_rest.cubes()) result.add_cube(c);
    return result;
}

void expect_isop_pinned(const TruthTable& lower, const TruthTable& upper, const std::string& what) {
    TruthTable cover;
    const Sop expected = isop_by_copy(lower, upper, lower.num_vars() - 1, &cover);
    const Sop got = isop(lower, upper);
    EXPECT_EQ(got.num_vars(), lower.num_vars()) << what;
    EXPECT_EQ(got.cubes(), expected.cubes()) << what << ": " << got.to_string() << " vs "
                                              << expected.to_string();
}

TEST(Isop, CubesArePinned) {
    // Every 3-variable interval: each minterm is off, don't-care or on.
    int intervals = 0;
    for (int code = 0; code < 6561; ++code, ++intervals) {
        TruthTable lower(3), upper(3);
        for (int m = 0, c = code; m < 8; ++m, c /= 3) {
            lower.set_bit(static_cast<std::uint64_t>(m), c % 3 == 2);
            upper.set_bit(static_cast<std::uint64_t>(m), c % 3 >= 1);
        }
        expect_isop_pinned(lower, upper, "3-var code " + std::to_string(code));
    }
    EXPECT_EQ(intervals, 6561);
    // Random intervals of 4-8 variables.
    Rng rng(24);
    for (int trial = 0; trial < 2000; ++trial) {
        const int n = 4 + static_cast<int>(rng.next_below(5));
        const TruthTable f = random_tt(n, rng);
        TruthTable dc = random_tt(n, rng);
        if (trial % 2) dc &= random_tt(n, rng);  // sparser don't-cares
        expect_isop_pinned(f & ~dc, f | dc, "trial " + std::to_string(trial));
    }
}

TEST(PrimeImplicants, AllPrimeAndCovering) {
    Rng rng(24);
    for (int trial = 0; trial < 15; ++trial) {
        const TruthTable f = random_tt(4, rng);
        if (f.is_const0()) continue;
        const auto primes = prime_implicants(f);
        // Every prime is an implicant, and dropping any literal breaks that.
        for (const auto& p : primes) {
            Sop sp(4);
            sp.add_cube(p);
            EXPECT_TRUE(sp.to_truth_table().implies(f));
            for (int v = 0; v < 4; ++v) {
                if (!p.has_literal(v)) continue;
                Sop wider(4);
                wider.add_cube(p.without_literal(v));
                EXPECT_FALSE(wider.to_truth_table().implies(f));
            }
        }
        // The union of all primes covers f exactly.
        Sop all(4, primes);
        EXPECT_EQ(all.to_truth_table(), f);
    }
}

TEST(MinimumSop, ExactCoverAndNoRedundantCube) {
    Rng rng(25);
    for (int n = 1; n <= 7; ++n) {
        for (int trial = 0; trial < 8; ++trial) {
            const TruthTable f = random_tt(n, rng);
            Sop s = minimum_sop(f);
            EXPECT_EQ(s.to_truth_table(), f);
            for (std::size_t i = 0; i < s.num_cubes(); ++i) {
                Sop rest(n);
                for (std::size_t j = 0; j < s.num_cubes(); ++j)
                    if (j != i) rest.add_cube(s.cubes()[j]);
                EXPECT_FALSE(f.implies(rest.to_truth_table()));
            }
        }
    }
}

TEST(MinimumSop, UsesDontCares) {
    // f = x0 x1, dc = x0 !x1: a single-literal cover x0 becomes possible.
    const TruthTable x0 = TruthTable::variable(2, 0);
    const TruthTable x1 = TruthTable::variable(2, 1);
    const Sop s = minimum_sop(x0 & x1, x0 & ~x1);
    EXPECT_EQ(s.num_cubes(), 1u);
    EXPECT_EQ(s.num_literals(), 1);
    const TruthTable cover = s.to_truth_table();
    EXPECT_TRUE((x0 & x1).implies(cover));
    EXPECT_TRUE(cover.implies(x0));
}

TEST(Factor, EquivalentToSop) {
    Rng rng(26);
    for (int n = 1; n <= 7; ++n) {
        for (int trial = 0; trial < 10; ++trial) {
            const TruthTable f = random_tt(n, rng);
            const Sop s = isop(f);
            const FactorExpr e = factor(s);
            for (std::uint32_t m = 0; m < (1u << n); ++m)
                EXPECT_EQ(evaluate(e, m), f.get_bit(m)) << e.to_string();
        }
    }
}

TEST(Factor, SharesCommonLiterals) {
    // ab + ac + ad factors as a(b + c + d): 4 literals instead of 6.
    Sop s(4);
    s.add_cube(Cube{}.with_literal(0, true).with_literal(1, true));
    s.add_cube(Cube{}.with_literal(0, true).with_literal(2, true));
    s.add_cube(Cube{}.with_literal(0, true).with_literal(3, true));
    const FactorExpr e = factor(s);
    EXPECT_EQ(e.num_literals(), 4);
}

TEST(Factor, Constants) {
    EXPECT_EQ(factor(Sop(3)).kind, FactorExpr::Kind::Const0);
    Sop taut(3);
    taut.add_cube(Cube::tautology());
    EXPECT_EQ(factor(taut).kind, FactorExpr::Kind::Const1);
}

// Property sweep: ISOP with random don't-care sets stays within bounds and
// is irredundant, across variable counts.
class IsopSweep : public ::testing::TestWithParam<int> {};

TEST_P(IsopSweep, DontCareCoversAreIrredundant) {
    const int n = GetParam();
    Rng rng(300 + n);
    for (int trial = 0; trial < 10; ++trial) {
        const TruthTable f = random_tt(n, rng);
        const TruthTable dc = random_tt(n, rng) & ~f;
        const Sop s = isop(f, f | dc);
        const TruthTable cover = s.to_truth_table();
        EXPECT_TRUE(f.implies(cover));
        EXPECT_TRUE(cover.implies(f | dc));
        for (std::size_t i = 0; i < s.num_cubes(); ++i) {
            Sop rest(n);
            for (std::size_t j = 0; j < s.num_cubes(); ++j)
                if (j != i) rest.add_cube(s.cubes()[j]);
            EXPECT_FALSE(f.implies(rest.to_truth_table()));
        }
    }
}

INSTANTIATE_TEST_SUITE_P(VarCounts, IsopSweep, ::testing::Values(2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace lls
