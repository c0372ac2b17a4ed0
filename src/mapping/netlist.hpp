#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "aig/aig.hpp"
#include "common/rng.hpp"
#include "mapping/library.hpp"
#include "sim/simulation.hpp"

namespace lls {

/// A mapped gate-level netlist: cell instances over named nets.
///
/// Net 0 is constant 0 and net 1 constant 1; nets 2..2+num_inputs-1 are the
/// primary inputs; the remaining nets are gate outputs. This is the concrete
/// artifact behind the mapper's summary numbers — it can be simulated,
/// timed, and exported as structural Verilog.
class Netlist {
public:
    struct Gate {
        int cell = -1;                   ///< index into the library
        std::vector<std::uint32_t> inputs;  ///< one net per cell pin
        std::uint32_t output = 0;        ///< driven net
    };

    explicit Netlist(const CellLibrary& library) : library_(&library) {}

    const CellLibrary& library() const { return *library_; }

    std::uint32_t add_input(std::string name);
    std::uint32_t add_net(std::string name = {});
    void add_gate(int cell, std::vector<std::uint32_t> inputs, std::uint32_t output);
    void add_output(std::uint32_t net, std::string name);

    static constexpr std::uint32_t kConst0 = 0;
    static constexpr std::uint32_t kConst1 = 1;

    std::size_t num_nets() const { return net_names_.size(); }
    std::size_t num_inputs() const { return inputs_.size(); }
    std::size_t num_outputs() const { return outputs_.size(); }
    std::size_t num_gates() const { return gates_.size(); }
    const std::vector<Gate>& gates() const { return gates_; }
    std::uint32_t input_net(std::size_t i) const { return inputs_[i]; }
    std::uint32_t output_net(std::size_t o) const { return outputs_[o]; }
    const std::string& net_name(std::uint32_t net) const { return net_names_[net]; }
    const std::string& output_name(std::size_t o) const { return output_names_[o]; }

    double total_area() const;

    /// Per-output static timing analysis: arrival = max over paths of the
    /// sum of pin-to-pin cell delays (load-independent model). Returns the
    /// arrival of every net; gates must be in topological order (they are,
    /// by construction from the mapper).
    std::vector<double> arrival_times() const;
    double critical_delay_ps() const;

    /// Required time of every net against a target (default: the critical
    /// delay, so the worst slack is exactly zero).
    std::vector<double> required_times(double target_ps = -1.0) const;

    /// Per-net slack = required - arrival.
    std::vector<double> slacks(double target_ps = -1.0) const;

    /// One critical path as a sequence of gate indices from a primary
    /// input/constant up to the latest output (empty for gateless netlists).
    std::vector<std::size_t> critical_path() const;

    /// Gate-level simulation of one input vector (PO values only).
    std::vector<bool> evaluate(const std::vector<bool>& input_values) const;

    /// Gate-level simulation returning the value of every net (the
    /// per-pattern reference for simulate()).
    std::vector<bool> evaluate_nets(const std::vector<bool>& input_values) const;

    /// Word-parallel gate-level simulation, 64 patterns per word: result[n]
    /// is net n's signature, PI i driven by `patterns.pi_bits(i)`. Bits past
    /// `patterns.num_patterns()` in the last word are unspecified (constant-1
    /// and inverted nets set them), so callers must mask them.
    std::vector<Signature> simulate(const SimPatterns& patterns) const;

    /// Structural Verilog dump.
    void write_verilog(std::ostream& out, const std::string& module_name = "lls_mapped") const;

private:
    const CellLibrary* library_;
    std::vector<Gate> gates_;
    std::vector<std::uint32_t> inputs_;
    std::vector<std::uint32_t> outputs_;
    std::vector<std::string> net_names_;
    std::vector<std::string> output_names_;
};

/// Technology mapping that materializes the netlist (same covering
/// algorithm as map_circuit; in fact map_circuit's numbers are derived from
/// this object). The returned netlist is functionally equivalent to `aig`
/// (see tests/test_netlist.cpp for the property check).
Netlist map_to_netlist(const Aig& aig, const CellLibrary& library, int cut_size = 4,
                       int max_cuts = 8);

}  // namespace lls
