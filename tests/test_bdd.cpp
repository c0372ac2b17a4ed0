#include "bdd/bdd.hpp"

#include <gtest/gtest.h>

#include "bdd/aig_bdd.hpp"
#include "bdd/spcf_bdd.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "io/generators.hpp"
#include "spcf/spcf.hpp"
#include "tt/truth_table.hpp"

namespace lls {
namespace {

TruthTable random_tt(int num_vars, Rng& rng) {
    TruthTable tt(num_vars);
    for (std::uint64_t m = 0; m < tt.num_minterms(); ++m) tt.set_bit(m, rng.next_bool());
    return tt;
}

/// Builds the BDD of a truth table bottom-up (used as a reference).
BddManager::Ref bdd_from_tt(BddManager& m, const TruthTable& tt) {
    BddManager::Ref f = m.bdd_false();
    for (std::uint64_t minterm = 0; minterm < tt.num_minterms(); ++minterm) {
        if (!tt.get_bit(minterm)) continue;
        BddManager::Ref cube = m.bdd_true();
        for (int v = 0; v < tt.num_vars(); ++v) {
            const BddManager::Ref x = m.variable(v);
            cube = m.band(cube, ((minterm >> v) & 1) ? x : m.bnot(x));
        }
        f = m.bor(f, cube);
    }
    return f;
}

TEST(Bdd, TerminalsAndVariables) {
    BddManager m(3);
    EXPECT_TRUE(m.is_false(m.bdd_false()));
    EXPECT_TRUE(m.is_true(m.bdd_true()));
    const auto x0 = m.variable(0);
    EXPECT_EQ(m.variable(0), x0);  // canonical
    EXPECT_TRUE(m.evaluate(x0, 0b001));
    EXPECT_FALSE(m.evaluate(x0, 0b110));
}

TEST(Bdd, OperationsMatchTruthTables) {
    Rng rng(41);
    for (int n = 1; n <= 6; ++n) {
        BddManager m(n);
        for (int trial = 0; trial < 6; ++trial) {
            const TruthTable a = random_tt(n, rng);
            const TruthTable b = random_tt(n, rng);
            const auto fa = bdd_from_tt(m, a);
            const auto fb = bdd_from_tt(m, b);
            const auto f_and = m.band(fa, fb);
            const auto f_or = m.bor(fa, fb);
            const auto f_xor = m.bxor(fa, fb);
            const auto f_not = m.bnot(fa);
            for (std::uint64_t x = 0; x < (1ULL << n); ++x) {
                EXPECT_EQ(m.evaluate(f_and, x), a.get_bit(x) && b.get_bit(x));
                EXPECT_EQ(m.evaluate(f_or, x), a.get_bit(x) || b.get_bit(x));
                EXPECT_EQ(m.evaluate(f_xor, x), a.get_bit(x) != b.get_bit(x));
                EXPECT_EQ(m.evaluate(f_not, x), !a.get_bit(x));
            }
        }
    }
}

TEST(Bdd, CanonicityGivesEqualityTesting) {
    BddManager m(4);
    Rng rng(42);
    const TruthTable a = random_tt(4, rng);
    // Build the same function two different ways; refs must coincide.
    const auto f1 = bdd_from_tt(m, a);
    const auto f2 = m.bnot(bdd_from_tt(m, ~a));
    EXPECT_EQ(f1, f2);
}

TEST(Bdd, CofactorAndQuantification) {
    BddManager m(4);
    Rng rng(43);
    const TruthTable a = random_tt(4, rng);
    const auto f = bdd_from_tt(m, a);
    for (int v = 0; v < 4; ++v) {
        const auto c0 = m.cofactor(f, v, false);
        const auto c1 = m.cofactor(f, v, true);
        const auto ex = m.exists(f, v);
        const auto fa = m.forall(f, v);
        for (std::uint64_t x = 0; x < 16; ++x) {
            const std::uint64_t x0 = x & ~(1ULL << v);
            const std::uint64_t x1 = x | (1ULL << v);
            EXPECT_EQ(m.evaluate(c0, x), a.get_bit(x0));
            EXPECT_EQ(m.evaluate(c1, x), a.get_bit(x1));
            EXPECT_EQ(m.evaluate(ex, x), a.get_bit(x0) || a.get_bit(x1));
            EXPECT_EQ(m.evaluate(fa, x), a.get_bit(x0) && a.get_bit(x1));
        }
    }
}

TEST(Bdd, CountMinterms) {
    BddManager m(10);
    EXPECT_DOUBLE_EQ(m.count_minterms(m.bdd_false()), 0.0);
    EXPECT_DOUBLE_EQ(m.count_minterms(m.bdd_true()), 1024.0);
    EXPECT_DOUBLE_EQ(m.count_minterms(m.variable(3)), 512.0);
    const auto f = m.band(m.variable(0), m.bnot(m.variable(9)));
    EXPECT_DOUBLE_EQ(m.count_minterms(f), 256.0);
}

TEST(Bdd, NodeLimitIsEnforced) {
    constexpr std::size_t kLimit = 64;
    BddManager m(16, kLimit);
    const BddManager::Ref x0 = m.variable(0);
    const BddManager::Ref x1 = m.variable(1);
    const BddManager::Ref warm = m.band(x0, x1);
    Rng rng(44);
    bool threw = false;
    try {
        BddManager::Ref f = m.bdd_false();
        for (int i = 0; i < 8; ++i) {
            const TruthTable t = random_tt(8, rng);
            f = m.bxor(f, bdd_from_tt(m, t.extend(16).permute({8, 9, 10, 11, 12, 13, 14, 15,
                                                                0, 1, 2, 3, 4, 5, 6, 7})));
        }
    } catch (const LlsError& e) {
        threw = true;
        EXPECT_EQ(e.kind(), ErrorKind::ResourceExhausted);
        EXPECT_EQ(e.stage(), "bdd");
    }
    EXPECT_TRUE(threw);
    // The failed allocation leaves the count at (or below) the threshold,
    // and the manager stays usable: existing nodes are readable and
    // hit-only operations succeed.
    EXPECT_LE(m.num_nodes(), kLimit);
    EXPECT_EQ(m.band(x0, x1), warm);
    EXPECT_TRUE(m.evaluate(warm, 0b11));
    EXPECT_FALSE(m.evaluate(warm, 0b01));
}

// The computed table is lossy and capacity-bounded: more distinct ITE calls
// than slots force direct-mapped overwrites (counted as evictions), and a
// recomputation after eviction returns the identical canonical ref.
TEST(Bdd, ComputedTableIsLossyNotUnbounded) {
    // node_limit 2048 -> 1024 computed-table slots; 60 variables give
    // 1770 ordered conjunction pairs, so evictions follow by pigeonhole.
    constexpr int kVars = 60;
    BddManager m(kVars, 2048);

    std::vector<BddManager::Ref> first;
    for (int i = 0; i < kVars; ++i)
        for (int j = i + 1; j < kVars; ++j) first.push_back(m.band(m.variable(i), m.variable(j)));

    const BddStats stats = m.stats();
    EXPECT_GT(stats.ite_evictions, 0u);
    EXPECT_GT(stats.ite_misses, stats.ite_hits);  // mostly distinct calls

    std::size_t k = 0;
    for (int i = 0; i < kVars; ++i)
        for (int j = i + 1; j < kVars; ++j)
            EXPECT_EQ(m.band(m.variable(i), m.variable(j)), first[k++]);
}

// Counter sanity: a repeated operation is a computed-table hit, a repeated
// node a unique-table hit.
TEST(Bdd, StatsCountHitsAndMisses) {
    BddManager m(4);
    const BddManager::Ref f = m.band(m.variable(0), m.variable(1));
    // Identical call: satisfied by the computed table.
    EXPECT_EQ(m.band(m.variable(0), m.variable(1)), f);
    // Commuted operands: a different ITE key, so the recursion reruns and
    // rediscovers the existing node in the unique table.
    EXPECT_EQ(m.band(m.variable(1), m.variable(0)), f);
    const BddStats stats = m.stats();
    EXPECT_GE(stats.ite_misses, 1u);
    EXPECT_GE(stats.ite_hits, 1u);
    EXPECT_GE(stats.nodes_created, 3u);  // two variables + the conjunction
    EXPECT_GE(stats.unique_hits, 1u);
}

TEST(AigBdd, NodeBddsMatchSimulation) {
    const Aig adder = ripple_carry_adder(4);
    BddManager m(static_cast<int>(adder.num_pis()));
    const auto refs = build_node_bdds(adder, m);
    const SimPatterns patterns = SimPatterns::exhaustive(adder.num_pis());
    const auto sigs = simulate(adder, patterns);
    for (std::uint32_t id = 1; id < adder.num_nodes(); ++id) {
        for (std::size_t p = 0; p < patterns.num_patterns(); ++p) {
            const bool sim = (sigs[id][p >> 6] >> (p & 63)) & 1;
            EXPECT_EQ(m.evaluate(refs[id], p), sim) << "node " << id << " pattern " << p;
        }
    }
}

// The decisive cross-validation: exact BDD SPCF == exhaustive-simulation
// SPCF, pattern by pattern, for every PO and multiple thresholds.
class SpcfCrossCheck : public ::testing::TestWithParam<int> {};

TEST_P(SpcfCrossCheck, BddAndSimulationAgree) {
    const int bits = GetParam();
    const Aig adder = ripple_carry_adder(bits);
    const SimPatterns patterns = SimPatterns::exhaustive(adder.num_pis());
    const auto sigs = simulate(adder, patterns);

    for (const std::int32_t delta : {0, 3, 5}) {
        const Spcf sim_spcf = compute_spcf(adder, patterns, sigs, delta);
        const auto exact = compute_spcf_exact(adder, delta);
        ASSERT_TRUE(exact.has_value());
        EXPECT_EQ(exact->max_arrival, sim_spcf.max_arrival);
        EXPECT_EQ(exact->delta, sim_spcf.delta);
        for (std::size_t o = 0; o < adder.num_pos(); ++o) {
            EXPECT_EQ(exact->po_max_arrival[o], sim_spcf.po_max_arrival[o]) << "po " << o;
            const Signature from_bdd =
                bdd_to_signature(*exact->manager, exact->po_spcf[o], patterns);
            EXPECT_EQ(from_bdd, sim_spcf.po_spcf[o]) << "po " << o << " delta " << delta;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(AdderSizes, SpcfCrossCheck, ::testing::Values(2, 3, 4));

TEST(SpcfExact, ControlLogicAgreesWithSimulation) {
    const Aig circuit = synthetic_control_circuit({"x", 10, 4, 8, 6, 55});
    const SimPatterns patterns = SimPatterns::exhaustive(circuit.num_pis());
    const auto sigs = simulate(circuit, patterns);
    const Spcf sim_spcf = compute_spcf(circuit, patterns, sigs);
    const auto exact = compute_spcf_exact(circuit);
    ASSERT_TRUE(exact.has_value());
    EXPECT_EQ(exact->max_arrival, sim_spcf.max_arrival);
    for (std::size_t o = 0; o < circuit.num_pos(); ++o)
        EXPECT_EQ(bdd_to_signature(*exact->manager, exact->po_spcf[o], patterns),
                  sim_spcf.po_spcf[o]);
}

TEST(SpcfExact, FractionMatchesCount) {
    const Aig adder = ripple_carry_adder(3);
    const auto exact = compute_spcf_exact(adder);
    ASSERT_TRUE(exact.has_value());
    const std::size_t cout = adder.num_pos() - 1;
    const double frac = exact->fraction(cout);
    EXPECT_GE(frac, 0.0);
    EXPECT_LE(frac, 1.0);
    // The critical carry chain needs specific propagate values, so the SPCF
    // is a strict subset of the input space.
    EXPECT_LT(frac, 0.5);
}

TEST(SpcfExact, DecliningGracefullyOnTinyBudget) {
    const Aig adder = ripple_carry_adder(12);
    EXPECT_FALSE(compute_spcf_exact(adder, 0, /*bdd_node_limit=*/64).has_value());
}

}  // namespace
}  // namespace lls
