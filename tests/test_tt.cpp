#include "tt/truth_table.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "tt/npn.hpp"

namespace lls {
namespace {

TruthTable random_tt(int num_vars, Rng& rng) {
    TruthTable tt(num_vars);
    for (std::uint64_t m = 0; m < tt.num_minterms(); ++m) tt.set_bit(m, rng.next_bool());
    return tt;
}

TEST(TruthTable, ConstantsAndVariables) {
    const TruthTable zero = TruthTable::constant(3, false);
    const TruthTable one = TruthTable::constant(3, true);
    EXPECT_TRUE(zero.is_const0());
    EXPECT_TRUE(one.is_const1());
    EXPECT_EQ(zero.count_ones(), 0u);
    EXPECT_EQ(one.count_ones(), 8u);

    for (int v = 0; v < 3; ++v) {
        const TruthTable x = TruthTable::variable(3, v);
        EXPECT_EQ(x.count_ones(), 4u);
        for (std::uint64_t m = 0; m < 8; ++m) EXPECT_EQ(x.get_bit(m), ((m >> v) & 1) != 0);
    }
}

TEST(TruthTable, VariableAboveWordBoundary) {
    // 8 variables: variable 7 spans whole words.
    const TruthTable x7 = TruthTable::variable(8, 7);
    for (std::uint64_t m = 0; m < 256; ++m) EXPECT_EQ(x7.get_bit(m), ((m >> 7) & 1) != 0);
    EXPECT_TRUE(x7.has_var(7));
    EXPECT_FALSE(x7.has_var(3));
}

TEST(TruthTable, BooleanOperators) {
    const TruthTable a = TruthTable::variable(2, 0);
    const TruthTable b = TruthTable::variable(2, 1);
    EXPECT_EQ((a & b).to_binary(), "1000");
    EXPECT_EQ((a | b).to_binary(), "1110");
    EXPECT_EQ((a ^ b).to_binary(), "0110");
    EXPECT_EQ((~a).to_binary(), "0101");
}

TEST(TruthTable, ImpliesIsPartialOrder) {
    Rng rng(11);
    for (int trial = 0; trial < 50; ++trial) {
        const TruthTable f = random_tt(5, rng);
        const TruthTable g = random_tt(5, rng);
        EXPECT_TRUE(f.implies(f));
        EXPECT_TRUE((f & g).implies(f));
        EXPECT_TRUE(f.implies(f | g));
        EXPECT_EQ(f.implies(g), (f & ~g).is_const0());
    }
}

TEST(TruthTable, CofactorShannonExpansion) {
    Rng rng(12);
    for (int n = 1; n <= 8; ++n) {
        const TruthTable f = random_tt(n, rng);
        for (int v = 0; v < n; ++v) {
            const TruthTable c0 = f.cofactor(v, false);
            const TruthTable c1 = f.cofactor(v, true);
            EXPECT_FALSE(c0.has_var(v));
            EXPECT_FALSE(c1.has_var(v));
            const TruthTable x = TruthTable::variable(n, v);
            EXPECT_EQ(f, (x & c1) | (~x & c0)) << "n=" << n << " v=" << v;
        }
    }
}

TEST(TruthTable, SwapAndPermute) {
    Rng rng(13);
    const TruthTable f = random_tt(4, rng);
    const TruthTable swapped = f.swap_vars(1, 3);
    for (std::uint64_t m = 0; m < 16; ++m) {
        std::uint64_t sm = m & ~0xaULL;  // clear bits 1 and 3
        if ((m >> 1) & 1) sm |= 8;
        if ((m >> 3) & 1) sm |= 2;
        EXPECT_EQ(swapped.get_bit(m), f.get_bit(sm));
    }
    EXPECT_EQ(swapped.swap_vars(1, 3), f);

    // Identity permutation is a no-op; a rotation applied num_vars times is
    // the identity.
    EXPECT_EQ(f.permute({0, 1, 2, 3}), f);
    TruthTable rotated = f;
    for (int i = 0; i < 4; ++i) rotated = rotated.permute({1, 2, 3, 0});
    EXPECT_EQ(rotated, f);
}

TEST(TruthTable, SwapVarsMatchesPermute) {
    // Every pair on 1-10 variables covers the three kernel cases: both
    // variables inside a word, one inside and one across words, both across.
    Rng rng(18);
    for (int n = 1; n <= 10; ++n) {
        const TruthTable f = random_tt(n, rng);
        for (int a = 0; a < n; ++a)
            for (int b = 0; b < n; ++b) {
                std::vector<int> perm(n);
                for (int i = 0; i < n; ++i) perm[i] = i;
                std::swap(perm[a], perm[b]);
                EXPECT_EQ(f.swap_vars(a, b), f.permute(perm)) << "n=" << n << " a=" << a << " b=" << b;
            }
    }
}

TEST(TruthTable, ExtendAndShrink) {
    Rng rng(14);
    const TruthTable f = random_tt(3, rng);
    const TruthTable g = f.extend(7);
    EXPECT_EQ(g.num_vars(), 7);
    for (int v = 3; v < 7; ++v) EXPECT_FALSE(g.has_var(v));
    for (std::uint64_t m = 0; m < 128; ++m) EXPECT_EQ(g.get_bit(m), f.get_bit(m & 7));
    EXPECT_EQ(g.shrink(3), f);
}

TEST(TruthTable, ShrinkRejectsSupportVariable) {
    const TruthTable x2 = TruthTable::variable(3, 2);
    EXPECT_THROW((void)x2.shrink(2), ContractViolation);
}

TEST(TruthTable, HexRoundTrip) {
    Rng rng(15);
    for (int n = 0; n <= 9; ++n) {
        const TruthTable f = random_tt(n, rng);
        EXPECT_EQ(TruthTable::from_hex(n, f.to_hex()), f) << "n=" << n;
    }
}

TEST(TruthTable, HashDiscriminates) {
    Rng rng(16);
    const TruthTable f = random_tt(6, rng);
    TruthTable g = f;
    g.set_bit(17, !g.get_bit(17));
    EXPECT_NE(f.hash(), g.hash());
    EXPECT_EQ(f.hash(), TruthTable(f).hash());
}

// Checks `tt` minterm by minterm against `expected(m)`.
template <class F>
void expect_minterms(const TruthTable& tt, int num_vars, F expected, const std::string& what) {
    ASSERT_EQ(tt.num_vars(), num_vars) << what;
    for (std::uint64_t m = 0; m < tt.num_minterms(); ++m)
        ASSERT_EQ(tt.get_bit(m), expected(m)) << what << " minterm " << m;
}

TEST(TruthTable, InlineAndHeapStorageAgree) {
    // Tables of up to 8 variables keep their words inline, larger ones on
    // the heap; 0-10 variables cover both sides of the limit.
    Rng rng(19);
    for (int n = 0; n <= 10; ++n) {
        const std::string at = "n=" + std::to_string(n);
        const TruthTable a = random_tt(n, rng);
        const TruthTable b = random_tt(n, rng);
        EXPECT_EQ(a.words().size(), a.word_count()) << at;

        // Copies and moves, from and into a table across the limit.
        const TruthTable across = random_tt(n <= TruthTable::kInlineVars ? 10 : 3, rng);
        const TruthTable copied(a);
        EXPECT_EQ(copied, a) << at;
        TruthTable assigned = across;
        assigned = a;
        EXPECT_EQ(assigned, a) << at;
        assigned = across;
        EXPECT_EQ(assigned, across) << at;
        TruthTable source = a;
        TruthTable moved = across;
        moved = std::move(source);
        EXPECT_EQ(moved, a) << at;
        source = across;
        moved = std::move(source);
        EXPECT_EQ(moved, across) << at;
        TruthTable move_constructed(std::move(moved));
        EXPECT_EQ(move_constructed, across) << at;
        TruthTable self = a;
        TruthTable& alias = self;
        self = alias;
        EXPECT_EQ(self, a) << at;
        self = std::move(alias);
        EXPECT_EQ(self, a) << at;

        expect_minterms(~a, n, [&](std::uint64_t m) { return !a.get_bit(m); }, "~ " + at);
        expect_minterms(a & b, n, [&](std::uint64_t m) { return a.get_bit(m) && b.get_bit(m); },
                        "& " + at);
        expect_minterms(a | b, n, [&](std::uint64_t m) { return a.get_bit(m) || b.get_bit(m); },
                        "| " + at);
        expect_minterms(a ^ b, n, [&](std::uint64_t m) { return a.get_bit(m) != b.get_bit(m); },
                        "^ " + at);
        EXPECT_TRUE(TruthTable::constant(n, true).is_const1()) << at;
        EXPECT_TRUE((a | ~a).is_const1()) << at;
        EXPECT_EQ(a.is_const1(), a.count_ones() == a.num_minterms()) << at;
        for (int v = 0; v < n; ++v)
            for (const bool polarity : {false, true}) {
                const std::uint64_t bit = std::uint64_t{1} << v;
                expect_minterms(
                    a.cofactor(v, polarity), n,
                    [&](std::uint64_t m) { return a.get_bit(polarity ? m | bit : m & ~bit); },
                    "cofactor " + std::to_string(v) + " " + at);
            }
        for (int u = 0; u < n; ++u)
            for (int v = u + 1; v < n; ++v)
                expect_minterms(
                    a.swap_vars(u, v), n,
                    [&](std::uint64_t m) {
                        const std::uint64_t bu = (m >> u) & 1, bv = (m >> v) & 1;
                        return a.get_bit((m & ~((1ULL << u) | (1ULL << v))) | (bu << v) | (bv << u));
                    },
                    "swap " + std::to_string(u) + "," + std::to_string(v) + " " + at);
    }

    // extend and shrink across the limit.
    for (const auto& [from, to] : {std::pair{7, 9}, std::pair{8, 10}}) {
        const TruthTable f = random_tt(from, rng);
        const std::uint64_t mask = (std::uint64_t{1} << from) - 1;
        expect_minterms(f.extend(to), to, [&](std::uint64_t m) { return f.get_bit(m & mask); },
                        "extend " + std::to_string(from) + "->" + std::to_string(to));
    }
    const TruthTable g = random_tt(8, rng);
    const TruthTable wide = g.extend(10);
    expect_minterms(wide.shrink(8), 8, [&](std::uint64_t m) { return g.get_bit(m); }, "shrink 10->8");
    EXPECT_EQ(wide.shrink(8), g);

    // Equal tables built two ways compare and hash equal, inline and heap.
    for (const auto& [from, to] : {std::pair{5, 8}, std::pair{7, 9}, std::pair{8, 10}}) {
        const TruthTable f = random_tt(from, rng);
        std::string hex;
        for (int copy = 0; copy < (1 << (to - from)); ++copy) hex += f.to_hex();
        const TruthTable extended = f.extend(to);
        const TruthTable parsed = TruthTable::from_hex(to, hex);
        EXPECT_EQ(extended, parsed) << from << "->" << to;
        EXPECT_EQ(extended.hash(), parsed.hash()) << from << "->" << to;
    }
}

TEST(Npn, ApplyInvertsConsistently) {
    Rng rng(17);
    for (int trial = 0; trial < 20; ++trial) {
        const TruthTable f = random_tt(3, rng);
        const NpnResult r = npn_canonize(f);
        // Re-applying the recorded transform to f must give the canonical form.
        EXPECT_EQ(npn_apply(f, r.perm, r.input_negation, r.output_negation), r.canonical);
    }
}

TEST(Npn, EquivalentFunctionsShareCanonicalForm) {
    Rng rng(18);
    for (int trial = 0; trial < 20; ++trial) {
        const TruthTable f = random_tt(4, rng);
        // Scramble f by a random NPN transform; canonical forms must agree.
        std::vector<int> perm{0, 1, 2, 3};
        for (int i = 3; i > 0; --i)
            std::swap(perm[static_cast<std::size_t>(i)],
                      perm[rng.next_below(static_cast<std::uint64_t>(i) + 1)]);
        const unsigned neg = static_cast<unsigned>(rng.next_below(16));
        const bool oneg = rng.next_bool();
        const TruthTable g = npn_apply(f, perm, neg, oneg);
        EXPECT_EQ(npn_canonize(f).canonical, npn_canonize(g).canonical);
    }
}

TEST(Npn, DistinguishesInequivalentClasses) {
    const TruthTable and2 = TruthTable::variable(2, 0) & TruthTable::variable(2, 1);
    const TruthTable xor2 = TruthTable::variable(2, 0) ^ TruthTable::variable(2, 1);
    EXPECT_NE(npn_canonize(and2).canonical, npn_canonize(xor2).canonical);
}

// Parameterized sweep: cofactor/smooth algebra over many variable counts.
class TruthTableSweep : public ::testing::TestWithParam<int> {};

TEST_P(TruthTableSweep, SmoothRemovesVariable) {
    Rng rng(100 + GetParam());
    const int n = GetParam();
    const TruthTable f = random_tt(n, rng);
    for (int v = 0; v < n; ++v) {
        const TruthTable s = f.smooth(v);
        EXPECT_FALSE(s.has_var(v));
        EXPECT_TRUE(f.implies(s));  // existential abstraction is an upper bound
    }
}

TEST_P(TruthTableSweep, DeMorgan) {
    Rng rng(200 + GetParam());
    const int n = GetParam();
    const TruthTable f = random_tt(n, rng);
    const TruthTable g = random_tt(n, rng);
    EXPECT_EQ(~(f & g), ~f | ~g);
    EXPECT_EQ(~(f | g), ~f & ~g);
    EXPECT_EQ(f ^ g, (f & ~g) | (~f & g));
}

INSTANTIATE_TEST_SUITE_P(VarCounts, TruthTableSweep, ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 10));

}  // namespace
}  // namespace lls
