#include "sat/solver.hpp"

#include <gtest/gtest.h>

#include <array>

#include "common/cancel.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"

namespace lls::sat {
namespace {

TEST(SatSolver, TrivialSat) {
    Solver s;
    const int a = s.new_var();
    const int b = s.new_var();
    s.add_clause(Lit(a, false), Lit(b, false));
    EXPECT_EQ(s.solve(), Status::Sat);
    EXPECT_TRUE(s.model_value(a) || s.model_value(b));
}

TEST(SatSolver, TrivialUnsat) {
    Solver s;
    const int a = s.new_var();
    s.add_clause(Lit(a, false));
    EXPECT_FALSE(s.add_clause(Lit(a, true)));
    EXPECT_EQ(s.solve(), Status::Unsat);
}

TEST(SatSolver, UnitPropagationChain) {
    Solver s;
    std::vector<int> vars;
    for (int i = 0; i < 20; ++i) vars.push_back(s.new_var());
    // x0, and x_i -> x_{i+1}; finally !x19: unsat.
    s.add_clause(Lit(vars[0], false));
    for (int i = 0; i + 1 < 20; ++i) s.add_clause(Lit(vars[i], true), Lit(vars[i + 1], false));
    s.add_clause(Lit(vars[19], true));
    EXPECT_EQ(s.solve(), Status::Unsat);
}

TEST(SatSolver, XorChainSat) {
    Solver s;
    // x ^ y = 1 encoded by clauses; two chained xors.
    const int x = s.new_var(), y = s.new_var(), z = s.new_var();
    // x ^ y = 1
    s.add_clause(Lit(x, false), Lit(y, false));
    s.add_clause(Lit(x, true), Lit(y, true));
    // y ^ z = 1
    s.add_clause(Lit(y, false), Lit(z, false));
    s.add_clause(Lit(y, true), Lit(z, true));
    ASSERT_EQ(s.solve(), Status::Sat);
    EXPECT_NE(s.model_value(x), s.model_value(y));
    EXPECT_NE(s.model_value(y), s.model_value(z));
}

TEST(SatSolver, PigeonholeUnsat) {
    // 4 pigeons in 3 holes: classic small UNSAT with real conflict analysis.
    Solver s;
    const int pigeons = 4, holes = 3;
    std::vector<std::vector<int>> v(pigeons, std::vector<int>(holes));
    for (auto& row : v)
        for (auto& x : row) x = s.new_var();
    for (int p = 0; p < pigeons; ++p) {
        std::vector<Lit> clause;
        for (int h = 0; h < holes; ++h) clause.push_back(Lit(v[p][h], false));
        s.add_clause(clause);
    }
    for (int h = 0; h < holes; ++h)
        for (int p1 = 0; p1 < pigeons; ++p1)
            for (int p2 = p1 + 1; p2 < pigeons; ++p2)
                s.add_clause(Lit(v[p1][h], true), Lit(v[p2][h], true));
    EXPECT_EQ(s.solve(), Status::Unsat);
    EXPECT_GT(s.num_conflicts(), 0);
}

TEST(SatSolver, Assumptions) {
    Solver s;
    const int a = s.new_var();
    const int b = s.new_var();
    s.add_clause(Lit(a, true), Lit(b, false));  // a -> b
    EXPECT_EQ(s.solve({Lit(a, false), Lit(b, true)}), Status::Unsat);
    EXPECT_EQ(s.solve({Lit(a, false)}), Status::Sat);
    EXPECT_TRUE(s.model_value(b));
    // The solver must remain reusable after assumption-based calls.
    EXPECT_EQ(s.solve({Lit(b, true)}), Status::Sat);
    EXPECT_FALSE(s.model_value(a));
}

TEST(SatSolver, ClausesCanBeAddedBetweenSolves) {
    // solve() returns at decision level 0 whatever its answer, so a caller
    // can grow the instance between queries, as SAT sweeping does when it
    // encodes the cone of each new query.
    Solver s;
    const int a = s.new_var(), b = s.new_var(), free = s.new_var();
    s.add_clause(Lit(a, false), Lit(b, false));                // a | b
    ASSERT_EQ(s.solve({Lit(free, false), Lit(a, true)}), Status::Sat);
    EXPECT_TRUE(s.model_value(b));

    // After a SAT answer: b -> c -> a makes a unconditional.
    const int c = s.new_var();
    s.add_clause(Lit(b, true), Lit(c, false));
    s.add_clause(Lit(c, true), Lit(a, false));
    // The first assumption holds, so the second is refuted one level up.
    EXPECT_EQ(s.solve({Lit(free, false), Lit(a, true)}), Status::Unsat);

    // After an UNSAT-under-assumptions answer: a -> d -> !b.
    const int d = s.new_var();
    s.add_clause(Lit(a, true), Lit(d, false));
    s.add_clause(Lit(d, true), Lit(b, true));
    ASSERT_EQ(s.solve(), Status::Sat);
    EXPECT_TRUE(s.model_value(a));
    EXPECT_TRUE(s.model_value(d));
    EXPECT_FALSE(s.model_value(b));
    EXPECT_FALSE(s.model_value(c) && !s.model_value(a));
    EXPECT_EQ(s.solve({Lit(b, false)}), Status::Unsat);
    EXPECT_EQ(s.solve({Lit(c, false)}), Status::Sat);
    EXPECT_TRUE(s.model_value(a) && s.model_value(d) && !s.model_value(b));
}

/// php(7,6): 7 pigeons in 6 holes, unsatisfiable and hard enough that a
/// search cannot finish in a handful of conflicts.
Solver hard_pigeonhole() {
    Solver s;
    const int pigeons = 7, holes = 6;
    std::vector<std::vector<int>> v(pigeons, std::vector<int>(holes));
    for (auto& row : v)
        for (auto& x : row) x = s.new_var();
    for (int p = 0; p < pigeons; ++p) {
        std::vector<Lit> clause;
        for (int h = 0; h < holes; ++h) clause.push_back(Lit(v[p][h], false));
        s.add_clause(clause);
    }
    for (int h = 0; h < holes; ++h)
        for (int p1 = 0; p1 < pigeons; ++p1)
            for (int p2 = p1 + 1; p2 < pigeons; ++p2)
                s.add_clause(Lit(v[p1][h], true), Lit(v[p2][h], true));
    return s;
}

TEST(SatSolver, ConflictLimitReturnsUnknown) {
    // A hard pigeonhole instance with a 1-conflict budget cannot finish.
    Solver s = hard_pigeonhole();
    EXPECT_EQ(s.solve({}, 1), Status::Unknown);
}

TEST(SatSolver, RequestedTokenStopsTheSearch) {
    // The decide loop polls the thread's CancelScope once per iteration;
    // that poll is the solver's only cancellation path. The finite conflict
    // limit makes a missing poll fail this test instead of hanging it.
    Solver s = hard_pigeonhole();
    CancelToken token;
    token.request();
    const CancelScope scope(&token);
    try {
        s.solve({}, 1000000);
        FAIL() << "solve() ignored the requested token";
    } catch (const LlsError& e) {
        EXPECT_EQ(e.kind(), ErrorKind::Cancelled);
        EXPECT_EQ(e.stage(), "sat");
    }
}

TEST(SatSolver, LiteralLimitRaisesResourceExhausted) {
    // The clause database's allocation guard: a clause that would grow the
    // literal arena past the limit raises ResourceExhausted before it is
    // stored, and the solver stays usable. First from add_clause...
    Solver s = hard_pigeonhole();
    const std::size_t default_limit = s.literal_limit();
    const std::size_t problem = s.num_literals();
    s.set_literal_limit(problem);
    const int x = s.new_var(), y = s.new_var();
    try {
        s.add_clause(Lit(x, false), Lit(y, false));
        FAIL() << "add_clause() stored a clause past the literal limit";
    } catch (const LlsError& e) {
        EXPECT_EQ(e.kind(), ErrorKind::ResourceExhausted);
        EXPECT_EQ(e.stage(), "sat");
    }
    // ...then from the first learned clause the search would store.
    try {
        s.solve({}, 1000000);
        FAIL() << "solve() stored a learned clause past the literal limit";
    } catch (const LlsError& e) {
        EXPECT_EQ(e.kind(), ErrorKind::ResourceExhausted);
    }
    EXPECT_EQ(s.num_literals(), problem);
    // With the limit raised again, the same solver finishes the proof.
    s.set_literal_limit(default_limit);
    EXPECT_EQ(s.solve({}, 1000000), Status::Unsat);
}

TEST(SatSolver, HardPigeonholeExercisesClauseDatabaseReduction) {
    // php(9,8) needs ~20k conflicts, well past the learned-clause reduction
    // threshold, so this covers restart + reduce_learned + reason remapping.
    Solver s;
    const int holes = 8, pigeons = 9;
    std::vector<std::vector<int>> v(pigeons, std::vector<int>(holes));
    for (auto& row : v)
        for (auto& x : row) x = s.new_var();
    for (int p = 0; p < pigeons; ++p) {
        std::vector<Lit> clause;
        for (int h = 0; h < holes; ++h) clause.push_back(Lit(v[p][h], false));
        s.add_clause(clause);
    }
    for (int h = 0; h < holes; ++h)
        for (int p1 = 0; p1 < pigeons; ++p1)
            for (int p2 = p1 + 1; p2 < pigeons; ++p2)
                s.add_clause(Lit(v[p1][h], true), Lit(v[p2][h], true));
    EXPECT_EQ(s.solve(), Status::Unsat);
    // The exact counts pin the search through many restarts, reductions and
    // activity rescales: the solver's data structures may change only if
    // every decision, propagation and conflict stays the same.
    EXPECT_EQ(s.num_conflicts(), 19046);
    EXPECT_EQ(s.num_decisions(), 22662);
    EXPECT_EQ(s.num_propagations(), 242272);
}

std::uint64_t model_hash(const Solver& s) {
    std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a over the model bits
    for (int v = 0; v < s.num_vars(); ++v) {
        h ^= s.model_value(v) ? 1u : 0u;
        h *= 0x100000001b3ULL;
    }
    return h;
}

TEST(SatSolver, Random3SatSearchIsPinned) {
    // 150 variables and 600 random 3-clauses: satisfiable, but each instance
    // takes hundreds of conflicts and many SAT-answer decisions. The counts
    // and the model pin the search, like the pigeonhole test above.
    struct Expected {
        std::uint64_t seed;
        std::int64_t conflicts, decisions, propagations;
        std::uint64_t model;
    };
    const Expected expected[] = {
        {1, 237, 323, 7720, 0x030b4743200dfbffULL},
        {2, 495, 639, 16024, 0x54df93a2d800852eULL},
        {3, 165, 245, 5516, 0x24f54b541ac89db9ULL},
        {4, 2023, 2509, 66649, 0xb8221c63c1214c9bULL},
    };
    for (const Expected& e : expected) {
        Rng rng(e.seed);
        Solver s;
        for (int v = 0; v < 150; ++v) s.new_var();
        for (int c = 0; c < 600; ++c) {
            std::array<Lit, 3> lits;
            for (Lit& l : lits) {
                const bool negated = rng.next_below(2) != 0;  // the sign is drawn first
                l = Lit(static_cast<int>(rng.next_below(150)), negated);
            }
            s.add_clause(lits[0], lits[1], lits[2]);
        }
        ASSERT_EQ(s.solve(), Status::Sat) << "seed " << e.seed;
        EXPECT_EQ(s.num_conflicts(), e.conflicts) << "seed " << e.seed;
        EXPECT_EQ(s.num_decisions(), e.decisions) << "seed " << e.seed;
        EXPECT_EQ(s.num_propagations(), e.propagations) << "seed " << e.seed;
        EXPECT_EQ(model_hash(s), e.model) << "seed " << e.seed;
    }
}

TEST(SatSolver, RejectsUndefinedLiteral) {
    // A default-constructed Lit has no variable (var() == -1).
    Solver s;
    const int a = s.new_var();
    EXPECT_THROW(s.add_clause(Lit{}, Lit(a, false)), ContractViolation);
    EXPECT_THROW(s.solve({Lit{}}), ContractViolation);
}

TEST(SatSolver, TautologyAndDuplicateLiterals) {
    Solver s;
    const int a = s.new_var();
    const int b = s.new_var();
    EXPECT_TRUE(s.add_clause({Lit(a, false), Lit(a, true)}));          // tautology dropped
    EXPECT_TRUE(s.add_clause({Lit(b, false), Lit(b, false)}));         // dedup to unit
    EXPECT_EQ(s.solve(), Status::Sat);
    EXPECT_TRUE(s.model_value(b));
}

// Random 3-SAT cross-checked against brute force.
class RandomSat : public ::testing::TestWithParam<int> {};

TEST_P(RandomSat, AgreesWithBruteForce) {
    Rng rng(static_cast<std::uint64_t>(GetParam()));
    const int num_vars = 10;
    const int num_clauses = 3 + static_cast<int>(rng.next_below(50));

    std::vector<std::array<int, 3>> clauses;  // encoded literals 2v+neg
    for (int c = 0; c < num_clauses; ++c) {
        std::array<int, 3> cl{};
        for (auto& l : cl)
            l = static_cast<int>(rng.next_below(num_vars)) * 2 +
                static_cast<int>(rng.next_below(2));
        clauses.push_back(cl);
    }

    bool brute_sat = false;
    for (std::uint32_t m = 0; m < (1u << num_vars) && !brute_sat; ++m) {
        bool all = true;
        for (const auto& cl : clauses) {
            bool any = false;
            for (const int l : cl) {
                const bool val = ((m >> (l >> 1)) & 1) != 0;
                if (val != ((l & 1) != 0)) any = true;
            }
            if (!any) {
                all = false;
                break;
            }
        }
        brute_sat = all;
    }

    Solver s;
    for (int v = 0; v < num_vars; ++v) s.new_var();
    bool consistent = true;
    for (const auto& cl : clauses) {
        std::vector<Lit> lits;
        for (const int l : cl) lits.push_back(Lit(l >> 1, (l & 1) != 0));
        consistent = s.add_clause(lits) && consistent;
    }
    const Status st = consistent ? s.solve() : Status::Unsat;
    EXPECT_EQ(st == Status::Sat, brute_sat);

    if (st == Status::Sat) {
        // The model must actually satisfy all clauses.
        for (const auto& cl : clauses) {
            bool any = false;
            for (const int l : cl)
                if (s.model_value(l >> 1) != ((l & 1) != 0)) any = true;
            EXPECT_TRUE(any);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomSat, ::testing::Range(1, 40));

}  // namespace
}  // namespace lls::sat
