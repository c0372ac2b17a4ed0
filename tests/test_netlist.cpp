#include "mapping/netlist.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "io/generators.hpp"
#include "mapping/mapper.hpp"
#include "sim/simulation.hpp"

namespace lls {
namespace {

/// The central mapping property: the gate-level netlist computes exactly
/// the same function as the AIG it was mapped from.
void expect_netlist_matches_aig(const Aig& aig, const Netlist& netlist,
                                std::size_t max_patterns = 4096) {
    Rng rng(99);
    const SimPatterns patterns =
        aig.num_pis() <= SimPatterns::kMaxExhaustivePis
            ? SimPatterns::exhaustive(aig.num_pis())
            : SimPatterns::random(aig.num_pis(), max_patterns, rng);
    const auto sigs = simulate(aig, patterns);
    std::vector<bool> inputs(aig.num_pis());
    for (std::size_t p = 0; p < patterns.num_patterns(); ++p) {
        for (std::size_t i = 0; i < aig.num_pis(); ++i) inputs[i] = patterns.pi_value(i, p);
        const std::vector<bool> outs = netlist.evaluate(inputs);
        ASSERT_EQ(outs.size(), aig.num_pos());
        for (std::size_t o = 0; o < aig.num_pos(); ++o) {
            const Signature sig = literal_signature(aig, aig.po(o), sigs, patterns.num_patterns());
            ASSERT_EQ(outs[o], ((sig[p >> 6] >> (p & 63)) & 1) != 0)
                << "pattern " << p << " po " << o;
        }
    }
}

/// Word-parallel simulate() must agree with the per-pattern evaluate_nets()
/// on every net under every pattern; tail bits past num_patterns are not
/// compared (simulate leaves them unspecified).
void expect_simulate_matches_evaluate_nets(const Netlist& netlist, const SimPatterns& patterns) {
    const std::vector<Signature> sigs = netlist.simulate(patterns);
    ASSERT_EQ(sigs.size(), netlist.num_nets());
    std::vector<bool> inputs(netlist.num_inputs());
    for (std::size_t p = 0; p < patterns.num_patterns(); ++p) {
        for (std::size_t i = 0; i < inputs.size(); ++i) inputs[i] = patterns.pi_value(i, p);
        const std::vector<bool> values = netlist.evaluate_nets(inputs);
        for (std::uint32_t n = 0; n < netlist.num_nets(); ++n) {
            ASSERT_EQ(sigs[n].size(), patterns.num_words());
            ASSERT_EQ(((sigs[n][p >> 6] >> (p & 63)) & 1) != 0, values[n])
                << "pattern " << p << " net " << netlist.net_name(n);
        }
    }
}

TEST(Netlist, SimulateMatchesEvaluateNetsExhaustiveThreeInputs) {
    const CellLibrary lib = CellLibrary::generic_70nm();
    Aig aig;
    const AigLit a = aig.add_pi("a");
    const AigLit b = aig.add_pi("b");
    const AigLit c = aig.add_pi("c");
    aig.add_po(aig.lmux(a, b, c), "mux");
    aig.add_po(aig.lxor(a, !b), "xnor");
    aig.add_po(!aig.land(aig.lor(a, b), c), "oai");
    aig.add_po(!c, "nc");
    const SimPatterns patterns = SimPatterns::exhaustive(3);  // 8 patterns in one word
    expect_simulate_matches_evaluate_nets(map_to_netlist(aig, lib), patterns);
}

TEST(Netlist, SimulateMatchesEvaluateNetsOnPartialRandomWord) {
    const CellLibrary lib = CellLibrary::generic_70nm();
    const Aig circuit = synthetic_control_circuit({"nl", 12, 6, 10, 8, 77});
    Rng rng(5);
    const SimPatterns patterns = SimPatterns::random(circuit.num_pis(), 100, rng);  // 36-bit tail
    expect_simulate_matches_evaluate_nets(map_to_netlist(circuit, lib), patterns);
}

TEST(Netlist, SimulateMatchesEvaluateNetsOnDegenerateOutputs) {
    // Constant-1 and inverted-PI nets: the nets whose words carry set bits
    // past the last pattern.
    const CellLibrary lib = CellLibrary::generic_70nm();
    Aig aig;
    const AigLit a = aig.add_pi("a");
    aig.add_po(AigLit::constant(false), "zero");
    aig.add_po(AigLit::constant(true), "one");
    aig.add_po(a, "pass");
    aig.add_po(!a, "npass");
    expect_simulate_matches_evaluate_nets(map_to_netlist(aig, lib), SimPatterns::exhaustive(1));
}

TEST(Netlist, SimulateMatchesEvaluateNetsOnTable2StandIn) {
    const CellLibrary lib = CellLibrary::generic_70nm();
    const Aig circuit = synthetic_control_circuit(table2_profiles()[3]);  // C432
    Rng rng(11);
    const SimPatterns patterns = SimPatterns::random(circuit.num_pis(), 256, rng);
    expect_simulate_matches_evaluate_nets(map_to_netlist(circuit, lib), patterns);
}

TEST(Netlist, MappedAdderComputesAddition) {
    const CellLibrary lib = CellLibrary::generic_70nm();
    const Aig rca = ripple_carry_adder(5);
    const Netlist netlist = map_to_netlist(rca, lib);
    expect_netlist_matches_aig(rca, netlist);
}

TEST(Netlist, MappedClaAndWideCircuits) {
    const CellLibrary lib = CellLibrary::generic_70nm();
    const Aig cla = carry_lookahead_adder(12);  // 25 PIs -> sampled check
    expect_netlist_matches_aig(cla, map_to_netlist(cla, lib), 2048);
}

TEST(Netlist, MappedControlLogic) {
    const CellLibrary lib = CellLibrary::generic_70nm();
    const Aig circuit = synthetic_control_circuit({"nl", 12, 6, 10, 8, 77});
    expect_netlist_matches_aig(circuit, map_to_netlist(circuit, lib));
}

TEST(Netlist, DegenerateOutputs) {
    const CellLibrary lib = CellLibrary::generic_70nm();
    Aig aig;
    const AigLit a = aig.add_pi("a");
    aig.add_po(AigLit::constant(false), "zero");
    aig.add_po(AigLit::constant(true), "one");
    aig.add_po(a, "pass");
    aig.add_po(!a, "npass");
    const Netlist netlist = map_to_netlist(aig, lib);
    EXPECT_EQ(netlist.evaluate({false}), (std::vector<bool>{false, true, false, true}));
    EXPECT_EQ(netlist.evaluate({true}), (std::vector<bool>{false, true, true, false}));
}

TEST(Netlist, StaMatchesMapperDelay) {
    const CellLibrary lib = CellLibrary::generic_70nm();
    const Aig rca = ripple_carry_adder(8);
    const Netlist netlist = map_to_netlist(rca, lib);
    const MappedCircuit mapped = map_circuit(rca, lib);
    EXPECT_DOUBLE_EQ(netlist.critical_delay_ps(), mapped.delay_ps);
    EXPECT_DOUBLE_EQ(netlist.total_area(), mapped.area);
    EXPECT_EQ(netlist.num_gates(), mapped.num_gates);
}

TEST(Netlist, ArrivalTimesAreMonotone) {
    const CellLibrary lib = CellLibrary::generic_70nm();
    const Aig rca = ripple_carry_adder(6);
    const Netlist netlist = map_to_netlist(rca, lib);
    const auto arrival = netlist.arrival_times();
    for (const auto& g : netlist.gates())
        for (const auto in : g.inputs)
            EXPECT_GT(arrival[g.output], arrival[in]);
}

TEST(Netlist, SlacksAreNonNegativeAtCriticalTarget) {
    const CellLibrary lib = CellLibrary::generic_70nm();
    const Aig rca = ripple_carry_adder(8);
    const Netlist netlist = map_to_netlist(rca, lib);
    const auto slack = netlist.slacks();
    for (const auto& g : netlist.gates())
        EXPECT_GE(slack[g.output], -1e-9);
    // At the critical target the worst slack is exactly zero.
    double worst = 1e18;
    for (std::size_t o = 0; o < netlist.num_outputs(); ++o)
        worst = std::min(worst, slack[netlist.output_net(o)]);
    EXPECT_NEAR(worst, 0.0, 1e-9);
}

TEST(Netlist, CriticalPathIsConnectedAndZeroSlack) {
    const CellLibrary lib = CellLibrary::generic_70nm();
    const Aig rca = ripple_carry_adder(10);
    const Netlist netlist = map_to_netlist(rca, lib);
    const auto path = netlist.critical_path();
    ASSERT_FALSE(path.empty());
    const auto slack = netlist.slacks();
    const auto arrival = netlist.arrival_times();
    double sum = 0.0;
    for (std::size_t i = 0; i < path.size(); ++i) {
        const auto& g = netlist.gates()[path[i]];
        sum += lib.cell(g.cell).delay_ps;
        EXPECT_NEAR(slack[g.output], 0.0, 1e-9) << "gate " << i << " off the critical path";
        if (i + 1 < path.size()) {
            // Consecutive path gates must be connected output -> input.
            const auto& next = netlist.gates()[path[i + 1]];
            EXPECT_NE(std::find(next.inputs.begin(), next.inputs.end(), g.output),
                      next.inputs.end());
        }
    }
    EXPECT_NEAR(sum, netlist.critical_delay_ps(), 1e-9);
    EXPECT_NEAR(arrival[netlist.gates()[path.back()].output], netlist.critical_delay_ps(), 1e-9);
}

TEST(Netlist, RelaxedTargetGivesUniformExtraSlack) {
    const CellLibrary lib = CellLibrary::generic_70nm();
    const Aig rca = ripple_carry_adder(4);
    const Netlist netlist = map_to_netlist(rca, lib);
    const double target = netlist.critical_delay_ps() + 100.0;
    const auto tight = netlist.slacks();
    const auto relaxed = netlist.slacks(target);
    for (const auto& g : netlist.gates())
        EXPECT_NEAR(relaxed[g.output] - tight[g.output], 100.0, 1e-9);
}

TEST(Netlist, InvertersAreShared) {
    // Two POs needing the complement of the same signal must share one INV.
    const CellLibrary lib = CellLibrary::generic_70nm();
    Aig aig;
    const AigLit a = aig.add_pi("a");
    const AigLit b = aig.add_pi("b");
    const AigLit x = aig.land(a, b);
    aig.add_po(!x, "y0");
    aig.add_po(!x, "y1");
    const Netlist netlist = map_to_netlist(aig, lib);
    int inverters = 0;
    for (const auto& g : netlist.gates())
        if (lib.cell(g.cell).name == "INV") ++inverters;
    EXPECT_LE(inverters, 1);  // NAND2 mapping may even avoid it entirely
}

TEST(Netlist, VerilogDumpIsWellFormed) {
    const CellLibrary lib = CellLibrary::generic_70nm();
    const Aig rca = ripple_carry_adder(3);
    const Netlist netlist = map_to_netlist(rca, lib);
    std::stringstream ss;
    netlist.write_verilog(ss, "adder3");
    const std::string text = ss.str();
    EXPECT_NE(text.find("module adder3"), std::string::npos);
    EXPECT_NE(text.find("endmodule"), std::string::npos);
    EXPECT_NE(text.find("input a0;"), std::string::npos);
    EXPECT_NE(text.find("output cout;"), std::string::npos);
    // One instance line per gate.
    std::size_t instances = 0, pos = 0;
    while ((pos = text.find(" g", pos)) != std::string::npos) {
        ++instances;
        ++pos;
    }
    EXPECT_GE(instances, netlist.num_gates());
}

}  // namespace
}  // namespace lls
