#include "baseline/flows.hpp"

#include <gtest/gtest.h>

#include "baseline/restructure.hpp"
#include "cec/cec.hpp"
#include "io/generators.hpp"

namespace lls {
namespace {

TEST(Balance, LinearAndChainBecomesLogDepth) {
    Aig aig;
    std::vector<AigLit> pis;
    for (int i = 0; i < 16; ++i) pis.push_back(aig.add_pi());
    AigLit chain = pis[0];
    for (int i = 1; i < 16; ++i) chain = aig.land(chain, pis[i]);  // depth 15
    aig.add_po(chain, "y");
    EXPECT_EQ(aig.depth(), 15);

    const Aig balanced = balance(aig);
    EXPECT_EQ(balanced.depth(), 4);
    EXPECT_TRUE(check_equivalence(aig, balanced).equivalent);
}

TEST(Balance, RespectsArrivalSkew) {
    // (((a&b)&c)&d) where a&b is shared elsewhere: the shared node stays a
    // leaf and the tree re-associates around it.
    Aig aig;
    const AigLit a = aig.add_pi();
    const AigLit b = aig.add_pi();
    const AigLit c = aig.add_pi();
    const AigLit d = aig.add_pi();
    const AigLit ab = aig.land(a, b);
    aig.add_po(aig.land(aig.land(ab, c), d), "y");
    aig.add_po(aig.lxor(ab, c), "shared");
    const Aig balanced = balance(aig);
    EXPECT_TRUE(check_equivalence(aig, balanced).equivalent);
    EXPECT_LE(balanced.depth(), aig.depth());
}

TEST(Balance, HandlesComplementedEdgesAndConstants) {
    Aig aig;
    const AigLit a = aig.add_pi();
    const AigLit b = aig.add_pi();
    aig.add_po(aig.land(!a, !b), "nor");
    aig.add_po(AigLit::constant(true), "one");
    const Aig balanced = balance(aig);
    EXPECT_TRUE(check_equivalence(aig, balanced).equivalent);
}

TEST(Restructure, DelayModePreservesFunction) {
    const Aig rca = ripple_carry_adder(6);
    RestructureOptions opt;
    opt.delay_oriented = true;
    const Aig out = restructure(rca, opt);
    EXPECT_TRUE(check_equivalence(rca, out).equivalent);
    EXPECT_LE(out.depth(), rca.depth());
}

TEST(Restructure, AreaModePreservesFunction) {
    const Aig rca = ripple_carry_adder(6);
    RestructureOptions opt;
    opt.delay_oriented = false;
    const Aig out = restructure(rca, opt);
    EXPECT_TRUE(check_equivalence(rca, out).equivalent);
}

TEST(Restructure, CriticalOnlyModeTouchesOnlyCriticalPaths) {
    const Aig rca = ripple_carry_adder(6);
    RestructureOptions opt;
    opt.delay_oriented = true;
    opt.only_critical = true;
    const Aig out = restructure(rca, opt);
    EXPECT_TRUE(check_equivalence(rca, out).equivalent);
    EXPECT_LE(out.depth(), rca.depth());
}

TEST(Restructure, BalanceIsPinned) {
    // balance() joins each conjunction's leaves in heap order, ties
    // included, which fixes the node numbering: one delay-oriented round
    // must keep its hash.
    Aig dcl;
    for (const BenchmarkProfile& profile : table2_profiles())
        if (profile.name == "sparc_ifu_dcl_flat") dcl = synthetic_control_circuit(profile);
    RestructureOptions opt;
    opt.cut_size = 8;
    opt.delay_oriented = true;
    EXPECT_EQ(balance(restructure(ripple_carry_adder(32), opt)).hash(), 0x2d5de022b9a07abbULL);
    EXPECT_EQ(balance(restructure(dcl, opt)).hash(), 0xcf2e3c86c59bce5aULL);
}

class FlowTest : public ::testing::TestWithParam<int> {};

TEST_P(FlowTest, AllFlowsPreserveEquivalenceOnAdders) {
    const int bits = GetParam();
    const Aig rca = ripple_carry_adder(bits);
    Rng rng(77);
    const Aig sis = flow_sis(rca, rng);
    const Aig abc = flow_abc(rca, rng);
    const Aig dc = flow_dc(rca, rng);
    EXPECT_TRUE(check_equivalence(rca, sis).equivalent) << "sis " << bits;
    EXPECT_TRUE(check_equivalence(rca, abc).equivalent) << "abc " << bits;
    EXPECT_TRUE(check_equivalence(rca, dc).equivalent) << "dc " << bits;
    // The delay-oriented DC stand-in must not be worse than plain ABC-style
    // area optimization on depth.
    EXPECT_LE(dc.depth(), abc.depth());
}

INSTANTIATE_TEST_SUITE_P(AdderSizes, FlowTest, ::testing::Values(2, 4, 6));

TEST(Flows, PreserveEquivalenceOnControlLogic) {
    BenchmarkProfile profile{"t", 12, 4, 8, 8, 5};
    const Aig circuit = synthetic_control_circuit(profile);
    Rng rng(78);
    EXPECT_TRUE(check_equivalence(circuit, flow_sis(circuit, rng)).equivalent);
    EXPECT_TRUE(check_equivalence(circuit, flow_abc(circuit, rng)).equivalent);
    EXPECT_TRUE(check_equivalence(circuit, flow_dc(circuit, rng)).equivalent);
}

}  // namespace
}  // namespace lls
