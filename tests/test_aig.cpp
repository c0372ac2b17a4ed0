#include "aig/aig.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "aig/aig_build.hpp"
#include "aig/cuts.hpp"
#include "common/rng.hpp"
#include "io/generators.hpp"
#include "sim/simulation.hpp"

namespace lls {
namespace {

TEST(Aig, ConstantRules) {
    Aig aig;
    const AigLit a = aig.add_pi("a");
    EXPECT_EQ(aig.land(a, AigLit::constant(false)), AigLit::constant(false));
    EXPECT_EQ(aig.land(a, AigLit::constant(true)), a);
    EXPECT_EQ(aig.land(a, a), a);
    EXPECT_EQ(aig.land(a, !a), AigLit::constant(false));
    EXPECT_EQ(aig.num_ands(), 0u);
}

TEST(Aig, StructuralHashing) {
    Aig aig;
    const AigLit a = aig.add_pi("a");
    const AigLit b = aig.add_pi("b");
    const AigLit x = aig.land(a, b);
    const AigLit y = aig.land(b, a);  // commuted
    EXPECT_EQ(x, y);
    EXPECT_EQ(aig.num_ands(), 1u);
    const AigLit z = aig.land(!a, b);
    EXPECT_NE(x, z);
    EXPECT_EQ(aig.num_ands(), 2u);
}

TEST(Aig, DerivedOperators) {
    Aig aig;
    const AigLit a = aig.add_pi("a");
    const AigLit b = aig.add_pi("b");
    const AigLit s = aig.add_pi("s");
    aig.add_po(aig.lor(a, b), "or");
    aig.add_po(aig.lxor(a, b), "xor");
    aig.add_po(aig.lmux(s, a, b), "mux");

    const SimPatterns patterns = SimPatterns::exhaustive(3);
    const auto sigs = simulate(aig, patterns);
    for (std::size_t p = 0; p < 8; ++p) {
        const bool va = patterns.pi_value(0, p);
        const bool vb = patterns.pi_value(1, p);
        const bool vs = patterns.pi_value(2, p);
        const auto po_val = [&](std::size_t o) {
            const Signature sig = literal_signature(aig, aig.po(o), sigs, 8);
            return ((sig[0] >> p) & 1) != 0;
        };
        EXPECT_EQ(po_val(0), va || vb);
        EXPECT_EQ(po_val(1), va != vb);
        EXPECT_EQ(po_val(2), vs ? va : vb);
    }
}

TEST(Aig, LevelsAndDepth) {
    Aig aig;
    const AigLit a = aig.add_pi("a");
    const AigLit b = aig.add_pi("b");
    const AigLit c = aig.add_pi("c");
    const AigLit ab = aig.land(a, b);
    const AigLit abc = aig.land(ab, c);
    aig.add_po(abc, "y");
    const auto levels = aig.compute_levels();
    EXPECT_EQ(levels[ab.node()], 1);
    EXPECT_EQ(levels[abc.node()], 2);
    EXPECT_EQ(aig.depth(), 2);
}

TEST(Aig, BalancedManyInputAnd) {
    Aig aig;
    std::vector<AigLit> lits;
    for (int i = 0; i < 16; ++i) lits.push_back(aig.add_pi());
    aig.add_po(aig.land_many(lits), "y");
    EXPECT_EQ(aig.depth(), 4);  // ceil(log2(16))
}

TEST(Aig, CleanupRemovesDanglingKeepsInterface) {
    Aig aig;
    const AigLit a = aig.add_pi("a");
    const AigLit b = aig.add_pi("b");
    const AigLit unused_pi = aig.add_pi("c");
    (void)unused_pi;
    const AigLit keep = aig.land(a, b);
    (void)aig.land(!a, !b);  // dangling
    aig.add_po(!keep, "y");

    const Aig clean = aig.cleanup();
    EXPECT_EQ(clean.num_pis(), 3u);  // interface preserved
    EXPECT_EQ(clean.num_ands(), 1u);
    EXPECT_EQ(clean.pi_name(2), "c");
    EXPECT_TRUE(clean.po(0).complemented());
}

TEST(Aig, CountReachableAnds) {
    Aig aig;
    const AigLit a = aig.add_pi();
    const AigLit b = aig.add_pi();
    const AigLit x = aig.land(a, b);
    (void)aig.land(!a, b);  // unreachable from POs
    aig.add_po(x);
    EXPECT_EQ(aig.num_ands(), 2u);
    EXPECT_EQ(aig.count_reachable_ands(), 1u);
}

TEST(AigBuild, TruthTableConstruction) {
    Rng rng(31);
    for (int n = 1; n <= 6; ++n) {
        for (int trial = 0; trial < 8; ++trial) {
            TruthTable tt(n);
            for (std::uint64_t m = 0; m < tt.num_minterms(); ++m) tt.set_bit(m, rng.next_bool());

            Aig aig;
            std::vector<AigLit> pis;
            for (int i = 0; i < n; ++i) pis.push_back(aig.add_pi());
            aig.add_po(build_truth_table(aig, tt, pis), "y");

            const SimPatterns patterns = SimPatterns::exhaustive(static_cast<std::size_t>(n));
            const auto sigs = simulate(aig, patterns);
            const Signature out = literal_signature(aig, aig.po(0), sigs, patterns.num_patterns());
            for (std::uint64_t m = 0; m < tt.num_minterms(); ++m)
                EXPECT_EQ(((out[m >> 6] >> (m & 63)) & 1) != 0, tt.get_bit(m));
        }
    }
}

TEST(AigBuild, ExtractConeMatchesOutput) {
    Aig aig;
    const AigLit a = aig.add_pi("a");
    const AigLit b = aig.add_pi("b");
    const AigLit c = aig.add_pi("c");
    aig.add_po(aig.land(a, b), "y0");
    aig.add_po(aig.lxor(b, c), "y1");

    const Aig cone = extract_cone(aig, 1);
    EXPECT_EQ(cone.num_pos(), 1u);
    EXPECT_EQ(cone.num_pis(), 3u);
    EXPECT_EQ(cone.po_name(0), "y1");

    const SimPatterns patterns = SimPatterns::exhaustive(3);
    const auto sig_full = simulate(aig, patterns);
    const auto sig_cone = simulate(cone, patterns);
    EXPECT_EQ(literal_signature(aig, aig.po(1), sig_full, 8),
              literal_signature(cone, cone.po(0), sig_cone, 8));
}

TEST(AigBuild, AppendPreservesFunction) {
    Aig src;
    const AigLit a = src.add_pi("a");
    const AigLit b = src.add_pi("b");
    src.add_po(src.lxor(a, b), "x");

    Aig dst;
    const AigLit p = dst.add_pi("p");
    const AigLit q = dst.add_pi("q");
    const auto outs = append_aig(dst, src, {p, !q});  // note complemented mapping
    dst.add_po(outs[0], "y");

    const SimPatterns patterns = SimPatterns::exhaustive(2);
    const auto sigs = simulate(dst, patterns);
    const Signature out = literal_signature(dst, dst.po(0), sigs, 4);
    for (std::uint64_t m = 0; m < 4; ++m) {
        const bool vp = (m >> 0) & 1, vq = (m >> 1) & 1;
        EXPECT_EQ(((out[0] >> m) & 1) != 0, vp != !vq);
    }
}

// Every enumerated cut's function must agree with simulation of the root in
// terms of the cut leaves. Returns the most leaves of any cut.
std::size_t check_cut_truth_tables(const Aig& aig, int cut_size, int max_cuts) {
    const SimPatterns patterns = SimPatterns::exhaustive(aig.num_pis());
    const auto sigs = simulate(aig, patterns);
    const CutEnumerator cuts(aig, cut_size, max_cuts);
    std::size_t widest = 0;
    for (std::uint32_t id = 1; id < aig.num_nodes(); ++id) {
        if (!aig.is_and(id)) continue;
        for (const auto& cut : cuts.cuts(id)) {
            widest = std::max(widest, cut.leaves.size());
            for (std::size_t p = 0; p < patterns.num_patterns(); ++p) {
                std::uint32_t minterm = 0;
                for (std::size_t li = 0; li < cut.leaves.size(); ++li)
                    if ((sigs[cut.leaves[li]][p >> 6] >> (p & 63)) & 1)
                        minterm |= 1u << li;
                const bool expected = ((sigs[id][p >> 6] >> (p & 63)) & 1) != 0;
                EXPECT_EQ(cut.tt.get_bit(minterm), expected)
                    << "node " << id << " cut size " << cut.leaves.size();
            }
        }
    }
    return widest;
}

TEST(Cuts, TruthTablesMatchSimulation) {
    Rng rng(32);
    // Random small circuit.
    Aig aig;
    std::vector<AigLit> pool;
    for (int i = 0; i < 6; ++i) pool.push_back(aig.add_pi());
    for (int i = 0; i < 30; ++i) {
        AigLit x = pool[rng.next_below(pool.size())];
        AigLit y = pool[rng.next_below(pool.size())];
        if (rng.next_bool()) x = !x;
        if (rng.next_bool()) y = !y;
        pool.push_back(aig.land(x, y));
    }
    aig.add_po(pool.back(), "y");
    check_cut_truth_tables(aig, 4, 6);

    // A deep random circuit on 12 PIs: each AND joins one of the three newest
    // nodes with a PI, so some nodes keep 7-leaf cuts, whose truth tables
    // span two words. (Ranked by leaf count, 8-leaf cuts rarely survive
    // max cuts 6.)
    Aig deep;
    std::vector<AigLit> pis;
    for (int i = 0; i < 12; ++i) pis.push_back(deep.add_pi());
    std::vector<AigLit> nodes = pis;
    for (int i = 0; i < 40; ++i) {
        AigLit x = nodes[nodes.size() - 1 - rng.next_below(3)];
        AigLit y = pis[rng.next_below(pis.size())];
        if (rng.next_bool()) x = !x;
        if (rng.next_bool()) y = !y;
        nodes.push_back(deep.land(x, y));
    }
    deep.add_po(nodes.back(), "y");
    EXPECT_GE(check_cut_truth_tables(deep, 8, 6), 7u);
}

// expand_truth_table's definition: extend, then permute old variable i to
// the slot of old_leaves[i] (added variables fill the other slots in order).
TruthTable expand_by_permute(const TruthTable& tt, const std::vector<std::uint32_t>& old_leaves,
                             const std::vector<std::uint32_t>& new_leaves) {
    const std::size_t n = new_leaves.size();
    std::vector<int> perm(n, -1);
    std::vector<bool> used(n, false);
    for (std::size_t i = 0; i < old_leaves.size(); ++i) {
        const auto pos = static_cast<std::size_t>(
            std::find(new_leaves.begin(), new_leaves.end(), old_leaves[i]) - new_leaves.begin());
        perm[pos] = static_cast<int>(i);
        used[i] = true;
    }
    std::size_t next = 0;
    for (auto& p : perm) {
        if (p >= 0) continue;
        while (used[next]) ++next;
        used[next] = true;
        p = static_cast<int>(next);
    }
    return tt.extend(static_cast<int>(n)).permute(perm);
}

TEST(Cuts, ExpandTruthTableMatchesPermute) {
    Rng rng(33);
    for (int trial = 0; trial < 300; ++trial) {
        // A random sorted superset of up to 8 leaves and a random subset of it.
        std::vector<std::uint32_t> new_leaves, old_leaves;
        const std::size_t n_new = rng.next_below(9);
        for (std::uint32_t id = 1; new_leaves.size() < n_new; ++id)
            if (rng.next_below(3) == 0) new_leaves.push_back(id);
        for (auto l : new_leaves)
            if (rng.next_bool()) old_leaves.push_back(l);
        TruthTable tt(static_cast<int>(old_leaves.size()));
        for (std::uint64_t m = 0; m < tt.num_minterms(); ++m) tt.set_bit(m, rng.next_bool());
        EXPECT_EQ(expand_truth_table(tt, old_leaves, new_leaves),
                  expand_by_permute(tt, old_leaves, new_leaves))
            << "trial " << trial;
    }
    // Every old leaf must be among the new ones.
    const TruthTable f = TruthTable::variable(2, 0) & TruthTable::variable(2, 1);
    EXPECT_THROW((void)expand_truth_table(f, {3, 5}, {3, 4, 6}), ContractViolation);
    EXPECT_THROW((void)expand_truth_table(f, {3, 5}, {1, 5, 6}), ContractViolation);
}

TEST(Cuts, RespectsSizeLimit) {
    Aig aig;
    std::vector<AigLit> lits;
    for (int i = 0; i < 8; ++i) lits.push_back(aig.add_pi());
    aig.add_po(aig.land_many(lits), "y");
    const CutEnumerator cuts(aig, 4, 10);
    for (std::uint32_t id = 1; id < aig.num_nodes(); ++id)
        for (const auto& cut : cuts.cuts(id)) EXPECT_LE(cut.leaves.size(), 4u);
}

// FNV-1a over every node's cuts in enumeration order: the cut count, then
// per cut its leaf count, leaves, variable count and table words.
std::uint64_t cut_enumeration_hash(const Aig& aig, int cut_size, int max_cuts) {
    const CutEnumerator cuts(aig, cut_size, max_cuts);
    std::uint64_t h = 0xcbf29ce484222325ULL;
    const auto mix = [&](std::uint64_t v) { h = (h ^ v) * 0x100000001b3ULL; };
    for (std::uint32_t id = 0; id < aig.num_nodes(); ++id) {
        mix(cuts.cuts(id).size());
        for (const auto& cut : cuts.cuts(id)) {
            mix(cut.leaves.size());
            for (const auto leaf : cut.leaves) mix(leaf);
            mix(static_cast<std::uint64_t>(cut.tt.num_vars()));
            for (const auto w : cut.tt.words()) mix(w);
        }
    }
    return h;
}

TEST(Cuts, EnumerationIsPinned) {
    // Clustering's (5, 8) and restructuring's (8, 6) settings. The values
    // were taken from the enumerator that kept leaves and truth-table words
    // in std::vectors; restructure, clustering and mapping read these cuts
    // in this order, so any change here moves their outputs.
    const Aig rca = ripple_carry_adder(16);
    EXPECT_EQ(cut_enumeration_hash(rca, 5, 8), 2986394606150479359u);
    EXPECT_EQ(cut_enumeration_hash(rca, 8, 6), 18035687168575564094u);
    const auto profiles = table2_profiles();
    const auto it = std::find_if(profiles.begin(), profiles.end(), [](const BenchmarkProfile& p) {
        return p.name == "sparc_ifu_dcl_flat";
    });
    ASSERT_NE(it, profiles.end());
    EXPECT_EQ(cut_enumeration_hash(synthetic_control_circuit(*it), 8, 6), 11671255495166758011u);
}

TEST(Aig, HashChangesWithStructure) {
    Aig a;
    const AigLit x = a.add_pi();
    const AigLit y = a.add_pi();
    a.add_po(a.land(x, y));
    Aig b;
    const AigLit p = b.add_pi();
    const AigLit q = b.add_pi();
    b.add_po(b.lor(p, q));
    EXPECT_NE(a.hash(), b.hash());
}

}  // namespace
}  // namespace lls
