#pragma once

#include <map>
#include <string>

#include "aig/aig.hpp"
#include "common/rng.hpp"
#include "mapping/library.hpp"

namespace lls {

/// Result of technology mapping a circuit (the "Gates / Delay / Power"
/// columns of the paper's Table 2).
struct MappedCircuit {
    double delay_ps = 0.0;    ///< critical-path pin-to-pin delay
    double area = 0.0;        ///< total cell area
    double power_mw = 0.0;    ///< dynamic power at the given clock
    std::size_t num_gates = 0;
    std::map<std::string, int> cell_histogram;
};

struct MapperOptions {
    int cut_size = 4;   ///< match cuts of up to this many leaves (<= 4)
    int max_cuts = 8;
    double clock_ghz = 1.0;       ///< the paper reports power at 1 GHz
    double supply_voltage = 1.0;  ///< normalized
    std::size_t activity_patterns = 2048;  ///< simulation length for switching activity
    std::uint64_t seed = 7;
};

/// Delay-oriented cut-based technology mapping onto `library`:
/// for every node the fastest matching cut/cell pair is chosen; leaf or
/// output polarity mismatches are repaired with explicit inverters. Power
/// is alpha * E_cell * f summed over mapped gates, with switching activity
/// alpha = 2p(1-p) from each gate output's signal probability p, measured by
/// simulating the mapped netlist 64 patterns per word (Netlist::simulate)
/// over all input patterns up to 14 PIs, `activity_patterns` random ones
/// beyond.
MappedCircuit map_circuit(const Aig& aig, const CellLibrary& library,
                          const MapperOptions& options = {});

}  // namespace lls
