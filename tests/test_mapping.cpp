#include "mapping/mapper.hpp"

#include <gtest/gtest.h>

#include "io/generators.hpp"
#include "mapping/netlist.hpp"
#include "sim/simulation.hpp"

namespace lls {
namespace {

TEST(Library, ContainsBasicCells) {
    const CellLibrary lib = CellLibrary::generic_70nm();
    EXPECT_GE(lib.cells().size(), 15u);
    EXPECT_GE(lib.inverter_index(), 0);
    EXPECT_EQ(lib.cell(lib.inverter_index()).name, "INV");
}

TEST(Library, MatchesAndFamilies) {
    const CellLibrary lib = CellLibrary::generic_70nm();
    // a & b
    TruthTable and2(2);
    and2.set_bit(3, true);
    const auto m = lib.match(and2);
    ASSERT_TRUE(m.has_value());
    // Whatever cell is chosen, applying the recorded transform must
    // reproduce the requested function.
    const Cell& cell = lib.cell(m->cell);
    for (std::uint32_t minterm = 0; minterm < 4; ++minterm) {
        std::uint32_t cm = 0;
        for (int pin = 0; pin < cell.num_inputs; ++pin) {
            bool v = (minterm >> m->leaf_of_pin[static_cast<std::size_t>(pin)]) & 1;
            if ((m->input_neg >> pin) & 1) v = !v;
            if (v) cm |= 1u << pin;
        }
        EXPECT_EQ(cell.function.get_bit(cm) != m->output_neg, and2.get_bit(minterm));
    }
}

TEST(Library, MatchesXorAndMux) {
    const CellLibrary lib = CellLibrary::generic_70nm();
    TruthTable x(2);
    x.set_bit(1, true);
    x.set_bit(2, true);
    ASSERT_TRUE(lib.match(x).has_value());
    EXPECT_EQ(lib.cell(lib.match(x)->cell).name, "XOR2");

    TruthTable mux = TruthTable::from_hex(3, "ca");
    ASSERT_TRUE(lib.match(mux).has_value());
    EXPECT_EQ(lib.cell(lib.match(mux)->cell).name, "MUX2");
}

TEST(Library, MatchRespectsPermutationAndNegation) {
    const CellLibrary lib = CellLibrary::generic_70nm();
    // !(a + b + c + d) = NOR4 regardless of literal polarities tested.
    TruthTable f = TruthTable::constant(4, true);
    for (int v = 0; v < 4; ++v) f &= ~TruthTable::variable(4, v);
    const auto m = lib.match(f);
    ASSERT_TRUE(m.has_value());
    // NAND4 with negated inputs and output also realizes this function and
    // is faster than NOR4; accept either, but the transform must be exact.
    const Cell& cell = lib.cell(m->cell);
    for (std::uint32_t minterm = 0; minterm < 16; ++minterm) {
        std::uint32_t cm = 0;
        for (int pin = 0; pin < cell.num_inputs; ++pin) {
            bool v = (minterm >> m->leaf_of_pin[static_cast<std::size_t>(pin)]) & 1;
            if ((m->input_neg >> pin) & 1) v = !v;
            if (v) cm |= 1u << pin;
        }
        EXPECT_EQ(cell.function.get_bit(cm) != m->output_neg, f.get_bit(minterm));
    }
    // AOI21 with permuted pins.
    TruthTable aoi = TruthTable::from_hex(3, "07").swap_vars(0, 2);
    const auto m2 = lib.match(aoi);
    ASSERT_TRUE(m2.has_value());
}

TEST(Library, NoMatchForExoticFourInput) {
    const CellLibrary lib = CellLibrary::generic_70nm();
    // 4-input XOR is not in the library and is NPN-inequivalent to all cells.
    TruthTable x4(4);
    for (std::uint64_t m = 0; m < 16; ++m)
        x4.set_bit(m, (__builtin_popcountll(m) & 1) != 0);
    EXPECT_FALSE(lib.match(x4).has_value());
}

TEST(Library, TabulatedMatchesRealizeEveryFunctionTheyClaim) {
    // All functions of 0..4 variables: every returned transform must
    // reproduce its function, and exactly the 228 functions the exhaustive
    // per-function search finds matchable are covered.
    const CellLibrary lib = CellLibrary::generic_70nm();
    int matchable = 0;
    for (int k = 0; k <= 4; ++k) {
        for (std::uint64_t f = 0; f < (std::uint64_t{1} << (1u << k)); ++f) {
            TruthTable tt(k);
            for (std::uint64_t m = 0; m < tt.num_minterms(); ++m) tt.set_bit(m, (f >> m) & 1);
            const auto match = lib.match(tt);
            if (!match) continue;
            ++matchable;
            const Cell& cell = lib.cell(match->cell);
            ASSERT_EQ(cell.num_inputs, k);
            for (std::uint32_t minterm = 0; minterm < tt.num_minterms(); ++minterm) {
                std::uint32_t cm = 0;
                for (int pin = 0; pin < k; ++pin) {
                    bool v = (minterm >> match->leaf_of_pin[static_cast<std::size_t>(pin)]) & 1;
                    if ((match->input_neg >> pin) & 1) v = !v;
                    if (v) cm |= 1u << pin;
                }
                ASSERT_EQ(cell.function.get_bit(cm) != match->output_neg, tt.get_bit(minterm))
                    << "k=" << k << " f=" << f;
            }
        }
    }
    EXPECT_EQ(matchable, 228);
}

TEST(Mapper, MapsAddersWithSaneMetrics) {
    const CellLibrary lib = CellLibrary::generic_70nm();
    const Aig rca = ripple_carry_adder(8);
    const MappedCircuit mapped = map_circuit(rca, lib);
    EXPECT_GT(mapped.num_gates, 0u);
    EXPECT_GT(mapped.delay_ps, 0.0);
    EXPECT_GT(mapped.area, 0.0);
    EXPECT_GT(mapped.power_mw, 0.0);
    std::size_t histogram_total = 0;
    for (const auto& [name, count] : mapped.cell_histogram)
        histogram_total += static_cast<std::size_t>(count);
    EXPECT_EQ(histogram_total, mapped.num_gates);
}

TEST(Mapper, ShallowCircuitMapsFaster) {
    const CellLibrary lib = CellLibrary::generic_70nm();
    const Aig rca = ripple_carry_adder(16);
    const Aig cla = carry_lookahead_adder(16);
    const MappedCircuit m_rca = map_circuit(rca, lib);
    const MappedCircuit m_cla = map_circuit(cla, lib);
    EXPECT_LT(m_cla.delay_ps, m_rca.delay_ps);
}

TEST(Mapper, SingleXorMapsToAnXorFamilyCell) {
    const CellLibrary lib = CellLibrary::generic_70nm();
    Aig aig;
    const AigLit a = aig.add_pi();
    const AigLit b = aig.add_pi();
    aig.add_po(aig.lxor(a, b), "x");
    const MappedCircuit mapped = map_circuit(aig, lib);
    // The AIG realization of XOR has a complemented output edge, so the
    // node itself is an XNOR; a single-phase mapper emits XNOR2 (+ one
    // inverter for the output polarity).
    EXPECT_LE(mapped.num_gates, 2u);
    EXPECT_EQ(mapped.cell_histogram.count("XOR2") + mapped.cell_histogram.count("XNOR2"), 1u);
}

TEST(Mapper, ParityChainBeatsNaiveXorCascade) {
    // A linear 8-input parity chain costs 7 XOR2 delays naively; the
    // delay-oriented mapper must do at least as well (it may legally prefer
    // faster NOR/NAND networks over the slow XOR cells).
    const CellLibrary lib = CellLibrary::generic_70nm();
    Aig aig;
    std::vector<AigLit> pis;
    for (int i = 0; i < 8; ++i) pis.push_back(aig.add_pi());
    AigLit parity = pis[0];
    for (int i = 1; i < 8; ++i) parity = aig.lxor(parity, pis[i]);
    aig.add_po(parity, "p");
    const MappedCircuit mapped = map_circuit(aig, lib);
    EXPECT_LE(mapped.delay_ps, 7 * 120.0);
    EXPECT_GT(mapped.num_gates, 6u);
}

TEST(Mapper, ComplementedPoCostsAnInverter) {
    const CellLibrary lib = CellLibrary::generic_70nm();
    Aig aig;
    const AigLit a = aig.add_pi();
    const AigLit b = aig.add_pi();
    aig.add_po(aig.land(a, b), "y");
    Aig neg;
    const AigLit p = neg.add_pi();
    const AigLit q = neg.add_pi();
    neg.add_po(!neg.land(p, q), "y");
    const MappedCircuit m_pos = map_circuit(aig, lib);
    const MappedCircuit m_neg = map_circuit(neg, lib);
    // NAND2 (one cell) vs AND2, or AND2+INV vs NAND2 -- either way the
    // delays differ and both map to >= 1 gate.
    EXPECT_GE(m_pos.num_gates, 1u);
    EXPECT_GE(m_neg.num_gates, 1u);
}

/// map_circuit's power recomputed the slow way: one evaluate_nets call per
/// pattern, counting each net's ones, summed over gates in netlist order.
double reference_power_mw(const Aig& aig, const CellLibrary& lib, const MapperOptions& options) {
    const Netlist netlist = map_to_netlist(aig, lib, options.cut_size, options.max_cuts);
    Rng rng(options.seed);
    const SimPatterns patterns =
        aig.num_pis() <= SimPatterns::kMaxExhaustivePis
            ? SimPatterns::exhaustive(aig.num_pis())
            : SimPatterns::random(aig.num_pis(), options.activity_patterns, rng);
    std::vector<std::uint64_t> ones(netlist.num_nets(), 0);
    std::vector<bool> inputs(netlist.num_inputs());
    for (std::size_t p = 0; p < patterns.num_patterns(); ++p) {
        for (std::size_t i = 0; i < inputs.size(); ++i) inputs[i] = patterns.pi_value(i, p);
        const std::vector<bool> values = netlist.evaluate_nets(inputs);
        for (std::uint32_t n = 0; n < netlist.num_nets(); ++n)
            if (values[n]) ++ones[n];
    }
    const double freq_hz = options.clock_ghz * 1e9;
    const double v2 = options.supply_voltage * options.supply_voltage;
    double power_mw = 0.0;
    for (const auto& gate : netlist.gates()) {
        const double p =
            static_cast<double>(ones[gate.output]) / static_cast<double>(patterns.num_patterns());
        const double activity = 2.0 * p * (1.0 - p);
        power_mw += activity * lib.cell(gate.cell).energy_fj * 1e-15 * v2 * freq_hz * 1e3;
    }
    return power_mw;
}

TEST(Mapper, PowerIsExactlyThePerPatternReference) {
    const CellLibrary lib = CellLibrary::generic_70nm();
    const MapperOptions options;
    // 5 PIs: 32 exhaustive patterns, half a word.
    const Aig small = ripple_carry_adder(2);
    EXPECT_EQ(map_circuit(small, lib, options).power_mw, reference_power_mw(small, lib, options));
    // 17 PIs: 2048 random patterns.
    const Aig rca = ripple_carry_adder(8);
    EXPECT_EQ(map_circuit(rca, lib, options).power_mw, reference_power_mw(rca, lib, options));
}

TEST(Mapper, PowerIsExactlyThePerPatternReferenceOnPartialRandomWord) {
    const CellLibrary lib = CellLibrary::generic_70nm();
    const Aig circuit = synthetic_control_circuit({"ctl", 20, 8, 10, 12, 5});
    MapperOptions options;
    options.activity_patterns = 100;  // 36 bits in the last word
    EXPECT_EQ(map_circuit(circuit, lib, options).power_mw,
              reference_power_mw(circuit, lib, options));
    options.activity_patterns = 2048;
    EXPECT_EQ(map_circuit(circuit, lib, options).power_mw,
              reference_power_mw(circuit, lib, options));
}

TEST(Mapper, PowerScalesWithClock) {
    const CellLibrary lib = CellLibrary::generic_70nm();
    const Aig rca = ripple_carry_adder(6);
    MapperOptions one_ghz;
    MapperOptions two_ghz;
    two_ghz.clock_ghz = 2.0;
    const double p1 = map_circuit(rca, lib, one_ghz).power_mw;
    const double p2 = map_circuit(rca, lib, two_ghz).power_mw;
    EXPECT_NEAR(p2, 2.0 * p1, 1e-9);
}

}  // namespace
}  // namespace lls
