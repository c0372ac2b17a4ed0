#include "mapping/mapper.hpp"

#include "common/bitops.hpp"
#include "engine/metrics.hpp"
#include "mapping/netlist.hpp"
#include "sim/simulation.hpp"

namespace lls {

MappedCircuit map_circuit(const Aig& aig, const CellLibrary& library,
                          const MapperOptions& options) {
    static MetricTimer& mapping_timer = Metrics::global().timer("mapping.map");
    const ScopedTimer timer_scope(mapping_timer);
    const Netlist netlist = map_to_netlist(aig, library, options.cut_size, options.max_cuts);

    MappedCircuit result;
    result.num_gates = netlist.num_gates();
    result.area = netlist.total_area();
    result.delay_ps = netlist.critical_delay_ps();
    for (const auto& gate : netlist.gates()) ++result.cell_histogram[library.cell(gate.cell).name];

    // Switching activity by word-parallel simulation of the mapped netlist.
    Rng rng(options.seed);
    const SimPatterns patterns =
        aig.num_pis() <= SimPatterns::kMaxExhaustivePis
            ? SimPatterns::exhaustive(aig.num_pis())
            : SimPatterns::random(aig.num_pis(), options.activity_patterns, rng);
    const std::vector<Signature> sigs = netlist.simulate(patterns);
    const std::uint64_t tail = tail_mask(patterns.num_patterns());
    auto ones = [&](std::uint32_t net) {
        const Signature& s = sigs[net];
        std::uint64_t count = popcount64(s.back() & tail);
        for (std::size_t w = 0; w + 1 < s.size(); ++w) count += popcount64(s[w]);
        return count;
    };

    const double freq_hz = options.clock_ghz * 1e9;
    const double v2 = options.supply_voltage * options.supply_voltage;
    for (const auto& gate : netlist.gates()) {
        const double p =
            static_cast<double>(ones(gate.output)) / static_cast<double>(patterns.num_patterns());
        const double activity = 2.0 * p * (1.0 - p);  // transitions per cycle, random data
        result.power_mw +=
            activity * library.cell(gate.cell).energy_fj * 1e-15 * v2 * freq_hz * 1e3;
    }
    return result;
}

}  // namespace lls
