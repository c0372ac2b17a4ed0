#include "network/network.hpp"

#include <gtest/gtest.h>

#include <queue>

#include "aig/aig_build.hpp"
#include "cec/cec.hpp"
#include "common/bitops.hpp"
#include "common/rng.hpp"
#include "io/generators.hpp"

namespace lls {
namespace {

/// f = (x0 & x1) as a 2-var table.
TruthTable and2() {
    TruthTable tt(2);
    tt.set_bit(3, true);
    return tt;
}

TruthTable xor2() {
    TruthTable tt(2);
    tt.set_bit(1, true);
    tt.set_bit(2, true);
    return tt;
}

TEST(Network, BasicConstruction) {
    Network net;
    const auto a = net.add_pi("a");
    const auto b = net.add_pi("b");
    const auto n1 = net.add_node({a, b}, and2());
    net.add_po(n1, false, "y");
    EXPECT_EQ(net.num_pis(), 2u);
    EXPECT_EQ(net.num_pos(), 1u);
    EXPECT_TRUE(net.is_internal(n1));
    EXPECT_EQ(net.fanins(n1).size(), 2u);
    EXPECT_EQ(net.pi_index(a), 0u);
}

TEST(Network, SopLevelMetricBalancedTrees) {
    Network net;
    std::vector<std::uint32_t> pis;
    for (int i = 0; i < 8; ++i) pis.push_back(net.add_pi());
    // 8-input AND as one node: optimal AND tree has level 3.
    TruthTable tt = TruthTable::constant(8, true);
    for (int i = 0; i < 8; ++i) tt &= TruthTable::variable(8, i);
    const auto n = net.add_node(pis, tt);
    net.add_po(n, false, "y");
    const auto levels = net.compute_sop_levels();
    EXPECT_EQ(levels[n], 3);
    EXPECT_EQ(net.sop_depth(), 3);
}

TEST(Network, SopLevelUsesCheaperPhase) {
    // f = x0 + x1 + ... + x7 : on-set SOP has 8 cubes (level 3 OR tree) and
    // the off-set is a single 8-literal cube (level 3) -- both give 3; but
    // a function whose off-set is a single literal must get level 0+.
    Network net;
    std::vector<std::uint32_t> pis;
    for (int i = 0; i < 4; ++i) pis.push_back(net.add_pi());
    // f = !(x0) -> off-set SOP = {x0}: single-literal cube, level = fanin level.
    TruthTable tt = ~TruthTable::variable(4, 0);
    const auto n = net.add_node(pis, tt);
    net.add_po(n, false, "y");
    const auto levels = net.compute_sop_levels();
    EXPECT_EQ(levels[n], 0);  // inversion is free in the level metric
}

TEST(Network, SopLevelRespectsArrivalSkew) {
    // Node g = AND(a, b); node h = AND(g, c, d) -- the balanced combine must
    // hide the late g behind the early c*d pairing: level(h) = 2, not 3.
    Network net;
    const auto a = net.add_pi();
    const auto b = net.add_pi();
    const auto c = net.add_pi();
    const auto d = net.add_pi();
    const auto g = net.add_node({a, b}, and2());
    TruthTable and3 = TruthTable::constant(3, true);
    for (int i = 0; i < 3; ++i) and3 &= TruthTable::variable(3, i);
    const auto h = net.add_node({g, c, d}, and3);
    net.add_po(h, false, "y");
    const auto levels = net.compute_sop_levels();
    EXPECT_EQ(levels[g], 1);
    EXPECT_EQ(levels[h], 2);
}

// The priority-queue merge sop_tree_level computed with before it sorted
// and merged in place: the oracle for its value.
int heap_tree_level(const std::vector<int>& levels) {
    if (levels.empty()) return 0;
    std::priority_queue<int, std::vector<int>, std::greater<>> heap(levels.begin(), levels.end());
    while (heap.size() > 1) {
        const int a = heap.top();
        heap.pop();
        const int b = heap.top();
        heap.pop();
        heap.push(std::max(a, b) + 1);
    }
    return heap.top();
}

int heap_sop_tree_level(const Sop& sop, const std::vector<int>& fanin_levels) {
    if (sop.empty()) return 0;
    std::vector<int> cube_levels;
    for (const auto& cube : sop.cubes()) {
        std::vector<int> lit_levels;
        for (int v = 0; v < sop.num_vars(); ++v)
            if (cube.has_literal(v)) lit_levels.push_back(fanin_levels[static_cast<std::size_t>(v)]);
        cube_levels.push_back(heap_tree_level(lit_levels));
    }
    return heap_tree_level(cube_levels);
}

TEST(Network, SopTreeLevelMatchesHeapMerge) {
    Rng rng(51);
    for (int trial = 0; trial < 3000; ++trial) {
        const int n = 1 + static_cast<int>(rng.next_below(8));
        std::vector<int> fanin_levels(static_cast<std::size_t>(n));
        // Narrow level ranges give many ties, wide ones long skews.
        const std::uint64_t range = trial % 3 == 0 ? 4 : 201;
        for (auto& l : fanin_levels) l = static_cast<int>(rng.next_below(range));
        Sop sop(n);
        const std::uint64_t cubes = rng.next_below(65);
        for (std::uint64_t c = 0; c < cubes; ++c) {
            Cube cube;
            for (int v = 0; v < n; ++v) {
                const std::uint64_t pick = rng.next_below(3);
                if (pick == 1) cube = cube.with_literal(v, true);
                if (pick == 2) cube = cube.with_literal(v, false);
            }
            sop.add_cube(cube);
        }
        EXPECT_EQ(Network::sop_tree_level(sop, fanin_levels), heap_sop_tree_level(sop, fanin_levels))
            << "trial " << trial << ": " << sop.to_string();
    }
    // The empty SOP (constant 0) and the tautology cube (constant 1).
    const std::vector<int> levels = {7, 3, 5};
    EXPECT_EQ(Network::sop_tree_level(Sop(3), levels), 0);
    Sop tautology(3);
    tautology.add_cube(Cube::tautology());
    EXPECT_EQ(Network::sop_tree_level(tautology, levels), heap_sop_tree_level(tautology, levels));
    EXPECT_EQ(Network::sop_tree_level(tautology, levels), 0);
}

TEST(Network, CriticalFanins) {
    Network net;
    const auto a = net.add_pi();
    const auto b = net.add_pi();
    const auto c = net.add_pi();
    const auto deep = net.add_node({a, b}, xor2());  // level 1 (xor is 2-cube SOP)
    // h = deep & c: the deep fanin is critical, c is not.
    const auto h = net.add_node({deep, c}, and2());
    net.add_po(h, false, "y");
    const auto levels = net.compute_sop_levels();
    const auto crit = net.critical_fanins(h, levels);
    ASSERT_EQ(crit.size(), 1u);
    EXPECT_EQ(crit[0], deep);
}

TEST(Network, FromAigToAigRoundTrip) {
    for (int bits : {2, 3, 4}) {
        const Aig adder = ripple_carry_adder(bits);
        const Network net = Network::from_aig(adder, 4, 6);
        EXPECT_EQ(net.num_pis(), adder.num_pis());
        EXPECT_EQ(net.num_pos(), adder.num_pos());
        const Aig back = net.to_aig();
        EXPECT_TRUE(check_equivalence(adder, back).equivalent) << bits << " bits";
    }
}

TEST(Network, ClusteringReducesNodeCount) {
    const Aig adder = ripple_carry_adder(8);
    const Network net = Network::from_aig(adder, 5, 8);
    // Clusters swallow multiple AND nodes each.
    std::size_t internal = 0;
    for (std::uint32_t id = 0; id < net.num_nodes(); ++id)
        if (net.is_internal(id)) ++internal;
    EXPECT_LT(internal, adder.num_ands());
}

TEST(Network, AreaRebuildIsEquivalentAndSmaller) {
    const Aig adder = ripple_carry_adder(5);
    const Network net = Network::from_aig(adder, 5, 8);
    const Aig timed = net.to_aig();
    const Aig area = net.to_aig_area();
    EXPECT_TRUE(check_equivalence(adder, timed).equivalent);
    EXPECT_TRUE(check_equivalence(adder, area).equivalent);
    // The factored rebuild never uses more nodes than the timed one.
    EXPECT_LE(area.count_reachable_ands(), timed.count_reachable_ands());
    EXPECT_LE(timed.depth(), area.depth());
}

TEST(Network, SimulateMatchesAig) {
    const Aig adder = ripple_carry_adder(4);
    const Network net = Network::from_aig(adder, 4, 6);
    Rng rng(9);
    // 1000 random patterns leave the last word partial.
    for (const SimPatterns& patterns : {SimPatterns::exhaustive(adder.num_pis()),
                                        SimPatterns::random(adder.num_pis(), 1000, rng)}) {
        const auto aig_sigs = simulate(adder, patterns);
        const auto net_sigs = net.simulate(patterns);
        const std::uint64_t tail = tail_mask(patterns.num_patterns());
        for (std::uint32_t id = 0; id < net.num_nodes(); ++id)
            EXPECT_EQ(net_sigs[id].back() & ~tail, 0u) << "bits past the last pattern, node " << id;
        for (std::size_t o = 0; o < adder.num_pos(); ++o) {
            const Signature aig_out =
                literal_signature(adder, adder.po(o), aig_sigs, patterns.num_patterns());
            Signature net_out = net_sigs[net.po(o).node];
            if (net.po(o).complemented) {
                for (auto& w : net_out) w = ~w;
                net_out.back() &= tail;
            }
            EXPECT_EQ(aig_out, net_out) << "po " << o;
        }
    }
}

TEST(Network, SetFunctionInvalidatesSops) {
    Network net;
    const auto a = net.add_pi();
    const auto b = net.add_pi();
    const auto n = net.add_node({a, b}, and2());
    net.add_po(n, false, "y");
    EXPECT_EQ(net.on_sop(n).num_cubes(), 1u);
    net.set_function(n, xor2());
    EXPECT_EQ(net.on_sop(n).num_cubes(), 2u);
}

TEST(Network, DuplicateConeIsIndependent) {
    Network net;
    const auto a = net.add_pi();
    const auto b = net.add_pi();
    const auto g = net.add_node({a, b}, and2());
    const auto h = net.add_node({g, a}, xor2());
    net.add_po(h, false, "y");

    std::vector<std::uint32_t> mapping;
    const auto h2 = net.duplicate_cone(h, &mapping);
    EXPECT_NE(h2, h);
    EXPECT_EQ(mapping[h], h2);
    EXPECT_NE(mapping[g], g);
    EXPECT_EQ(mapping[a], a);  // PIs are shared

    // Modifying the copy leaves the original untouched.
    net.set_function(mapping[g], xor2());
    EXPECT_EQ(net.function(g), and2());
    EXPECT_EQ(net.function(mapping[g]), xor2());
}

TEST(Network, EvalNodeSignatureIncremental) {
    Network net;
    const auto a = net.add_pi();
    const auto b = net.add_pi();
    const auto n = net.add_node({a, b}, xor2());
    net.add_po(n, false, "y");
    const SimPatterns patterns = SimPatterns::exhaustive(2);
    auto sigs = net.simulate(patterns);
    const Signature fresh = net.eval_node_signature(n, sigs, patterns.num_patterns());
    EXPECT_EQ(fresh, sigs[n]);
    EXPECT_EQ(fresh[0] & 0xf, 0x6u);  // xor pattern over minterms 0..3
}

TEST(Network, ToAigWithMapIsPinned) {
    // decompose_output's shape: a clustered cone plus two duplicate_cone
    // copies of it, so every node function recurs three times. The AIG hash
    // covers every node in creation order; the map hash pins the literal of
    // every network node.
    const Aig rca = ripple_carry_adder(8);
    Network net = Network::from_aig(extract_cone(rca, rca.num_pos() - 1), 5, 8);
    const std::uint32_t y = net.po(0).node;
    net.duplicate_cone(y);
    net.duplicate_cone(y);
    std::vector<AigLit> map;
    const Aig aig = net.to_aig_with_map(&map);
    std::uint64_t map_hash = 0xcbf29ce484222325ULL;
    for (const AigLit lit : map) map_hash = (map_hash ^ lit.value) * 0x100000001b3ULL;
    EXPECT_EQ(aig.hash(), 7702041345742776654u);
    EXPECT_EQ(aig.num_ands(), 117u);
    EXPECT_EQ(map.size(), net.num_nodes());
    EXPECT_EQ(map_hash, 1685323963866276593u);
}

TEST(Network, ToAigWithMapExposesInternalSignals) {
    Network net;
    const auto a = net.add_pi();
    const auto b = net.add_pi();
    const auto g = net.add_node({a, b}, and2());
    net.add_po(g, true, "y");  // complemented PO
    std::vector<AigLit> map;
    const Aig aig = net.to_aig_with_map(&map);
    EXPECT_EQ(aig.num_pos(), 1u);
    // PO must be the complement of node g's literal.
    EXPECT_EQ(aig.po(0), !map[g]);
}

}  // namespace
}  // namespace lls
