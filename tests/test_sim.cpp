#include "sim/simulation.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "io/generators.hpp"

namespace lls {
namespace {

/// The per-pattern floating-mode loop timing_simulate replaces with a
/// bit-sliced kernel: one integer arrival per node, one pattern at a time.
TimingSimResult scalar_timing_simulate(const Aig& aig, const SimPatterns& patterns,
                                       const std::vector<Signature>& node_sigs) {
    TimingSimResult result;
    result.po_arrival.assign(aig.num_pos(),
                             std::vector<std::int32_t>(patterns.num_patterns(), 0));
    std::vector<std::int32_t> arrival(aig.num_nodes(), 0);
    for (std::size_t p = 0; p < patterns.num_patterns(); ++p) {
        const std::size_t word = p >> 6;
        const std::uint64_t bit = 1ULL << (p & 63);
        for (std::uint32_t id = 1; id < aig.num_nodes(); ++id) {
            if (!aig.is_and(id)) continue;
            const auto& n = aig.node(id);
            const bool v0 =
                ((node_sigs[n.fanin0.node()][word] & bit) != 0) != n.fanin0.complemented();
            const bool v1 =
                ((node_sigs[n.fanin1.node()][word] & bit) != 0) != n.fanin1.complemented();
            const std::int32_t a0 = arrival[n.fanin0.node()];
            const std::int32_t a1 = arrival[n.fanin1.node()];
            std::int32_t a;
            if (v0 && v1)
                a = std::max(a0, a1);
            else if (!v0 && !v1)
                a = std::min(a0, a1);
            else
                a = v0 ? a1 : a0;  // the controlling (0-valued) fanin decides
            arrival[id] = a + 1;
        }
        for (std::size_t o = 0; o < aig.num_pos(); ++o) {
            const std::int32_t a = arrival[aig.po(o).node()];
            result.po_arrival[o][p] = a;
            result.max_arrival = std::max(result.max_arrival, a);
        }
    }
    return result;
}

/// A random AIG in which every AND takes one fanin from the last few
/// signals (so paths grow deep) and one from anywhere (so they reconverge).
/// Its POs include a PI and the constant, which arrive at 0.
Aig random_aig(std::uint64_t seed, std::size_t num_pis, std::size_t num_ands) {
    Rng rng(seed);
    Aig aig;
    std::vector<AigLit> pool;
    for (std::size_t i = 0; i < num_pis; ++i) pool.push_back(aig.add_pi());
    auto polarity = [&](AigLit l) { return rng.next_bool() ? !l : l; };
    for (std::size_t i = 0; i < num_ands; ++i) {
        const std::size_t back = rng.next_below(std::min<std::size_t>(pool.size(), 4));
        const AigLit recent = polarity(pool[pool.size() - 1 - back]);
        const AigLit any = polarity(pool[rng.next_below(pool.size())]);
        pool.push_back(aig.land(recent, any));
    }
    for (std::size_t o = 0; o < 6; ++o) aig.add_po(polarity(pool[pool.size() - 1 - 7 * o]));
    aig.add_po(pool[0]);
    aig.add_po(AigLit::constant(true));
    return aig;
}

TEST(SimPatterns, ExhaustiveEnumeratesAllMinterm) {
    const SimPatterns p = SimPatterns::exhaustive(4);
    EXPECT_EQ(p.num_patterns(), 16u);
    EXPECT_TRUE(p.is_exhaustive());
    for (std::size_t m = 0; m < 16; ++m)
        for (std::size_t i = 0; i < 4; ++i)
            EXPECT_EQ(p.pi_value(i, m), ((m >> i) & 1) != 0);
}

TEST(SimPatterns, RandomIsDeterministicPerSeed) {
    Rng rng1(42), rng2(42), rng3(43);
    const SimPatterns a = SimPatterns::random(5, 256, rng1);
    const SimPatterns b = SimPatterns::random(5, 256, rng2);
    const SimPatterns c = SimPatterns::random(5, 256, rng3);
    EXPECT_EQ(a.pi_bits(3), b.pi_bits(3));
    EXPECT_NE(a.pi_bits(3), c.pi_bits(3));
    EXPECT_FALSE(a.is_exhaustive());
}

TEST(SimPatterns, TailBitsAreMasked) {
    Rng rng(7);
    const SimPatterns p = SimPatterns::random(3, 100, rng);
    EXPECT_EQ(p.num_words(), 2u);
    for (std::size_t i = 0; i < 3; ++i)
        EXPECT_EQ(p.pi_bits(i)[1] >> (100 - 64), 0u) << "pattern bits beyond count must be zero";
}

TEST(Simulate, MatchesSemanticsExhaustively) {
    Aig aig;
    const AigLit a = aig.add_pi();
    const AigLit b = aig.add_pi();
    const AigLit c = aig.add_pi();
    const AigLit f = aig.lor(aig.land(a, !b), aig.lxor(b, c));
    aig.add_po(f, "y");

    const SimPatterns patterns = SimPatterns::exhaustive(3);
    const auto sigs = simulate(aig, patterns);
    const Signature out = literal_signature(aig, aig.po(0), sigs, 8);
    for (std::uint64_t m = 0; m < 8; ++m) {
        const bool va = m & 1, vb = (m >> 1) & 1, vc = (m >> 2) & 1;
        EXPECT_EQ(((out[0] >> m) & 1) != 0, (va && !vb) || (vb != vc));
    }
}

TEST(TimingSim, ConstantInputsGiveZeroArrival) {
    // A chain of buffers-of-ANDs: with both fanins non-controlling the
    // arrival accumulates; a controlling zero resets it to the zero's arrival.
    Aig aig;
    const AigLit a = aig.add_pi();
    const AigLit b = aig.add_pi();
    AigLit chain = aig.land(a, b);
    for (int i = 0; i < 5; ++i) chain = aig.land(chain, b);
    aig.add_po(chain, "y");

    const SimPatterns patterns = SimPatterns::exhaustive(2);
    const auto sigs = simulate(aig, patterns);
    const auto timing = timing_simulate(aig, patterns, sigs);
    // Pattern a=1,b=1 (minterm 3): all non-controlling -> full chain length 6.
    EXPECT_EQ(timing.po_arrival[0][3], 6);
    // Pattern a=0,b=0 (minterm 0): every AND has an immediately-arriving
    // controlling 0 -> the whole chain settles at arrival 1.
    EXPECT_EQ(timing.po_arrival[0][0], 1);
    // Pattern a=1,b=0 (minterm 1): b kills the first AND at arrival 0 and
    // every later AND too -> arrival stays 1.
    EXPECT_EQ(timing.po_arrival[0][1], 1);
    // Pattern a=0,b=1 (minterm 2): only the first AND is controlled; its 0
    // then *ripples* down the chain (a late controlling value still delays).
    EXPECT_EQ(timing.po_arrival[0][2], 6);
    EXPECT_EQ(timing.max_arrival, 6);
}

TEST(TimingSim, RippleCarryWorstCaseIsCarryPropagation) {
    // 8-bit RCA: the all-propagate pattern (a=0xFF, b=0x00 or 0x01, cin=1)
    // must sensitize a much longer path than a=0,b=0.
    const Aig adder = ripple_carry_adder(8);
    // PIs: a0..a7, b0..b7, cin => 17 PIs; use targeted patterns via random
    // set replaced by a tiny custom exhaustive check over chosen vectors:
    // build patterns manually through Rng-free construction is not exposed,
    // so probe with exhaustive simulation of a 4-bit adder instead.
    const Aig small = ripple_carry_adder(4);
    const SimPatterns patterns = SimPatterns::exhaustive(9);
    const auto sigs = simulate(small, patterns);
    const auto timing = timing_simulate(small, patterns, sigs);

    // cout is the last PO.
    const auto& cout_arrival = timing.po_arrival[4];
    // Pattern: a=1111 (PIs 0..3 set), b=0000, cin=1 (PI 8) -> full ripple.
    const std::size_t ripple = 0b1'0000'1111;
    // Pattern: a=0, b=0, cin=0 -> carry chain killed at every stage.
    const std::size_t quiet = 0;
    EXPECT_GT(cout_arrival[ripple], cout_arrival[quiet]);
    // Floating-mode arrival is bounded by the topological depth and the
    // ripple pattern must sensitize a substantial fraction of it.
    EXPECT_LE(timing.max_arrival, small.depth());
    EXPECT_GE(timing.max_arrival, small.depth() / 2);
    (void)adder;
}

TEST(TimingSim, ArrivalNeverExceedsTopologicalLevel) {
    const Aig adder = ripple_carry_adder(5);
    const SimPatterns patterns = SimPatterns::exhaustive(11);
    const auto sigs = simulate(adder, patterns);
    const auto timing = timing_simulate(adder, patterns, sigs);
    const auto levels = adder.compute_levels();
    for (std::size_t o = 0; o < adder.num_pos(); ++o) {
        const int topo = levels[adder.po(o).node()];
        for (const auto a : timing.po_arrival[o]) EXPECT_LE(a, topo);
    }
}

TEST(TimingSim, MatchesScalarReference) {
    const Aig rca32 = ripple_carry_adder(32);
    ASSERT_GT(rca32.depth(), 63);  // arrivals need 7 bit-planes
    const Aig random = random_aig(11, 9, 400);
    ASSERT_GT(random.depth(), 63);
    Aig wires;  // no AND at all: zero bit-planes
    wires.add_po(wires.add_pi());
    wires.add_po(!wires.add_pi());
    wires.add_po(AigLit::constant(false));
    Rng rng(3);
    std::vector<std::pair<const Aig*, SimPatterns>> cases;
    for (const Aig* aig : {&rca32, &random})
        for (const std::size_t count : {1000, 1024})  // 1000: the last word is partial
            cases.emplace_back(aig, SimPatterns::random(aig->num_pis(), count, rng));
    cases.emplace_back(&random, SimPatterns::exhaustive(9));
    cases.emplace_back(&wires, SimPatterns::exhaustive(2));
    for (const auto& [aig, patterns] : cases) {
        const auto sigs = simulate(*aig, patterns);
        const TimingSimResult got = timing_simulate(*aig, patterns, sigs);
        const TimingSimResult want = scalar_timing_simulate(*aig, patterns, sigs);
        EXPECT_EQ(got.po_arrival, want.po_arrival)
            << aig->num_pis() << " PIs, " << patterns.num_patterns() << " patterns";
        EXPECT_EQ(got.max_arrival, want.max_arrival);
    }
}

TEST(LiteralSignature, ComplementIsMasked) {
    Aig aig;
    const AigLit a = aig.add_pi();
    aig.add_po(!a, "y");
    Rng rng(5);
    const SimPatterns patterns = SimPatterns::random(1, 70, rng);
    const auto sigs = simulate(aig, patterns);
    const Signature out = literal_signature(aig, aig.po(0), sigs, 70);
    EXPECT_EQ(out[1] >> (70 - 64), 0u);  // no stray bits beyond the pattern count
}

}  // namespace
}  // namespace lls
