#include "mapping/netlist.hpp"

#include <algorithm>
#include <array>
#include <limits>
#include <ostream>
#include <unordered_map>

#include "aig/cuts.hpp"
#include "common/check.hpp"

namespace lls {

std::uint32_t Netlist::add_input(std::string name) {
    const std::uint32_t net = add_net(std::move(name));
    inputs_.push_back(net);
    return net;
}

std::uint32_t Netlist::add_net(std::string name) {
    const auto net = static_cast<std::uint32_t>(net_names_.size());
    if (name.empty()) name = "n" + std::to_string(net);
    net_names_.push_back(std::move(name));
    return net;
}

void Netlist::add_gate(int cell, std::vector<std::uint32_t> inputs, std::uint32_t output) {
    LLS_REQUIRE(cell >= 0 && cell < static_cast<int>(library_->cells().size()));
    LLS_REQUIRE(static_cast<int>(inputs.size()) == library_->cell(cell).num_inputs);
    for (const auto n : inputs) LLS_REQUIRE(n < num_nets());
    LLS_REQUIRE(output < num_nets());
    gates_.push_back(Gate{cell, std::move(inputs), output});
}

void Netlist::add_output(std::uint32_t net, std::string name) {
    LLS_REQUIRE(net < num_nets());
    outputs_.push_back(net);
    output_names_.push_back(std::move(name));
}

double Netlist::total_area() const {
    double area = 0.0;
    for (const auto& g : gates_) area += library_->cell(g.cell).area;
    return area;
}

std::vector<double> Netlist::arrival_times() const {
    std::vector<double> arrival(num_nets(), 0.0);
    for (const auto& g : gates_) {
        double in = 0.0;
        for (const auto n : g.inputs) in = std::max(in, arrival[n]);
        arrival[g.output] = in + library_->cell(g.cell).delay_ps;
    }
    return arrival;
}

double Netlist::critical_delay_ps() const {
    const auto arrival = arrival_times();
    double delay = 0.0;
    for (const auto n : outputs_) delay = std::max(delay, arrival[n]);
    return delay;
}

std::vector<double> Netlist::required_times(double target_ps) const {
    if (target_ps < 0.0) target_ps = critical_delay_ps();
    std::vector<double> required(num_nets(), std::numeric_limits<double>::infinity());
    for (const auto n : outputs_) required[n] = std::min(required[n], target_ps);
    // Backward pass over the (topologically ordered) gate list.
    for (auto it = gates_.rbegin(); it != gates_.rend(); ++it) {
        const double at_inputs = required[it->output] - library_->cell(it->cell).delay_ps;
        for (const auto in : it->inputs) required[in] = std::min(required[in], at_inputs);
    }
    return required;
}

std::vector<double> Netlist::slacks(double target_ps) const {
    const auto arrival = arrival_times();
    const auto required = required_times(target_ps);
    std::vector<double> slack(num_nets());
    for (std::uint32_t n = 0; n < num_nets(); ++n) slack[n] = required[n] - arrival[n];
    return slack;
}

std::vector<std::size_t> Netlist::critical_path() const {
    const auto arrival = arrival_times();
    // Driver gate of each net (inputs/constants have none).
    std::vector<std::size_t> driver(num_nets(), static_cast<std::size_t>(-1));
    for (std::size_t g = 0; g < gates_.size(); ++g) driver[gates_[g].output] = g;

    std::uint32_t net = outputs_.empty() ? kConst0 : outputs_[0];
    for (const auto o : outputs_)
        if (arrival[o] > arrival[net]) net = o;

    std::vector<std::size_t> path;
    while (driver[net] != static_cast<std::size_t>(-1)) {
        const std::size_t g = driver[net];
        path.push_back(g);
        // Continue through the latest-arriving input pin.
        std::uint32_t next = gates_[g].inputs[0];
        for (const auto in : gates_[g].inputs)
            if (arrival[in] > arrival[next]) next = in;
        net = next;
    }
    std::reverse(path.begin(), path.end());
    return path;
}

std::vector<bool> Netlist::evaluate_nets(const std::vector<bool>& input_values) const {
    LLS_REQUIRE(input_values.size() == inputs_.size());
    std::vector<bool> value(num_nets(), false);
    value[kConst1] = true;
    for (std::size_t i = 0; i < inputs_.size(); ++i) value[inputs_[i]] = input_values[i];
    for (const auto& g : gates_) {
        std::uint32_t minterm = 0;
        for (std::size_t pin = 0; pin < g.inputs.size(); ++pin)
            if (value[g.inputs[pin]]) minterm |= 1u << pin;
        value[g.output] = library_->cell(g.cell).function.get_bit(minterm);
    }
    return value;
}

std::vector<Signature> Netlist::simulate(const SimPatterns& patterns) const {
    LLS_REQUIRE(patterns.num_pis() == inputs_.size());
    const std::size_t words = patterns.num_words();
    std::vector<Signature> sig(num_nets(), Signature(words, 0));
    sig[kConst1].assign(words, ~0ULL);
    for (std::size_t i = 0; i < inputs_.size(); ++i) sig[inputs_[i]] = patterns.pi_bits(i);

    // Each cell as an OR of minterms over its pin words: the on-set, or the
    // complemented off-set when that is smaller (NAND4 is one minterm).
    struct Cover {
        std::vector<std::uint32_t> minterms;
        bool complement = false;
    };
    std::vector<Cover> covers(library_->cells().size());
    for (std::size_t c = 0; c < covers.size(); ++c) {
        const TruthTable& f = library_->cells()[c].function;
        covers[c].complement = 2 * f.count_ones() > f.num_minterms();
        for (std::uint32_t m = 0; m < f.num_minterms(); ++m)
            if (f.get_bit(m) != covers[c].complement) covers[c].minterms.push_back(m);
    }

    for (const auto& g : gates_) {
        const Cover& cover = covers[static_cast<std::size_t>(g.cell)];
        const std::size_t k = g.inputs.size();
        std::array<const std::uint64_t*, 4> pin{};
        LLS_REQUIRE(k <= pin.size());
        for (std::size_t p = 0; p < k; ++p) pin[p] = sig[g.inputs[p]].data();
        std::uint64_t* out = sig[g.output].data();
        std::fill(out, out + words, 0);
        for (const std::uint32_t m : cover.minterms) {
            std::array<std::uint64_t, 4> flip{};
            for (std::size_t p = 0; p < k; ++p) flip[p] = ((m >> p) & 1) ? 0 : ~0ULL;
            for (std::size_t w = 0; w < words; ++w) {
                std::uint64_t term = ~0ULL;
                for (std::size_t p = 0; p < k; ++p) term &= pin[p][w] ^ flip[p];
                out[w] |= term;
            }
        }
        if (cover.complement)
            for (std::size_t w = 0; w < words; ++w) out[w] = ~out[w];
    }
    return sig;
}

std::vector<bool> Netlist::evaluate(const std::vector<bool>& input_values) const {
    const std::vector<bool> value = evaluate_nets(input_values);
    std::vector<bool> outs(outputs_.size());
    for (std::size_t o = 0; o < outputs_.size(); ++o) outs[o] = value[outputs_[o]];
    return outs;
}

void Netlist::write_verilog(std::ostream& out, const std::string& module_name) const {
    out << "module " << module_name << " (";
    for (std::size_t i = 0; i < inputs_.size(); ++i) out << net_name(inputs_[i]) << ", ";
    for (std::size_t o = 0; o < outputs_.size(); ++o)
        out << output_names_[o] << (o + 1 < outputs_.size() ? ", " : "");
    out << ");\n";
    for (std::size_t i = 0; i < inputs_.size(); ++i)
        out << "  input " << net_name(inputs_[i]) << ";\n";
    for (std::size_t o = 0; o < outputs_.size(); ++o)
        out << "  output " << output_names_[o] << ";\n";

    std::vector<char> is_io(num_nets(), 0);
    for (const auto n : inputs_) is_io[n] = 1;
    for (std::uint32_t n = 2; n < num_nets(); ++n)
        if (!is_io[n]) out << "  wire " << net_name(n) << ";\n";
    out << "  wire " << net_name(kConst0) << " = 1'b0;\n";
    out << "  wire " << net_name(kConst1) << " = 1'b1;\n";

    static const char* kPins = "ABCD";
    for (std::size_t gi = 0; gi < gates_.size(); ++gi) {
        const Gate& g = gates_[gi];
        const Cell& cell = library_->cell(g.cell);
        out << "  " << cell.name << " g" << gi << " (";
        for (std::size_t pin = 0; pin < g.inputs.size(); ++pin)
            out << "." << kPins[pin] << "(" << net_name(g.inputs[pin]) << "), ";
        out << ".Y(" << net_name(g.output) << "));\n";
    }
    for (std::size_t o = 0; o < outputs_.size(); ++o)
        out << "  assign " << output_names_[o] << " = " << net_name(outputs_[o]) << ";\n";
    out << "endmodule\n";
}

Netlist map_to_netlist(const Aig& aig, const CellLibrary& library, int cut_size, int max_cuts) {
    LLS_REQUIRE(cut_size >= 2 && cut_size <= 4);
    const CutEnumerator cuts(aig, cut_size, max_cuts);
    const double inv_delay = library.inverter_delay_ps();
    // Two-phase (polarity-aware) mapping: every node carries an arrival and
    // a best realization for both its positive and its negative phase. A
    // match whose cell output is the complement of the requested function
    // (output_neg) is simply a realization of the *other* phase — no
    // inverter needed; explicit inverters only appear when one phase is
    // best derived from the other.
    struct PhaseChoice {
        double arrival = std::numeric_limits<double>::infinity();
        int cut_index = -1;
        CellMatch match;     // realizes this phase directly when cut_index >= 0
        bool from_inverter = false;  // realized as INV(other phase)
    };
    std::vector<std::array<PhaseChoice, 2>> choice(aig.num_nodes());

    auto leaf_arrival = [&](std::uint32_t leaf, bool negated) {
        if (aig.is_const(leaf)) return 0.0;
        if (aig.is_pi(leaf)) return negated ? inv_delay : 0.0;
        return choice[leaf][negated ? 1 : 0].arrival;
    };

    for (std::uint32_t id = 1; id < aig.num_nodes(); ++id) {
        if (!aig.is_and(id)) continue;
        auto& ph = choice[id];
        const auto& node_cuts = cuts.cuts(id);
        for (int ci = 0; ci < static_cast<int>(node_cuts.size()); ++ci) {
            const auto& cut = node_cuts[ci];
            if (cut.leaves.size() == 1 && cut.leaves[0] == id) continue;
            if (cut.tt.num_vars() > 4) continue;
            for (const bool want_neg : {false, true}) {
                const auto match = library.match(want_neg ? ~cut.tt : cut.tt);
                if (!match) continue;
                const Cell& cell = library.cell(match->cell);
                double arrival = 0.0;
                for (int pin = 0; pin < cell.num_inputs; ++pin) {
                    const std::uint32_t leaf =
                        cut.leaves[static_cast<std::size_t>(match->leaf_of_pin[pin])];
                    arrival = std::max(arrival, leaf_arrival(leaf, (match->input_neg >> pin) & 1));
                }
                arrival += cell.delay_ps;
                // The cell's output realizes (want_neg ^ output_neg) applied
                // to the node's function.
                const int phase = (want_neg != match->output_neg) ? 1 : 0;
                if (arrival < ph[static_cast<std::size_t>(phase)].arrival) {
                    auto& slot = ph[static_cast<std::size_t>(phase)];
                    slot.arrival = arrival;
                    slot.cut_index = ci;
                    slot.match = *match;
                    slot.from_inverter = false;
                }
            }
        }
        LLS_ENSURE((ph[0].cut_index >= 0 || ph[1].cut_index >= 0) &&
                   "every AND node must be mappable in at least one phase");
        // Phase relaxation: derive a missing/slow phase through an inverter.
        for (const int p : {0, 1}) {
            const double via_inv = ph[static_cast<std::size_t>(1 - p)].arrival + inv_delay;
            if (via_inv < ph[static_cast<std::size_t>(p)].arrival) {
                ph[static_cast<std::size_t>(p)].arrival = via_inv;
                ph[static_cast<std::size_t>(p)].cut_index = -1;
                ph[static_cast<std::size_t>(p)].from_inverter = true;
            }
        }
    }

    // Emission with per-(node, phase) memoized nets.
    Netlist netlist(library);
    const std::uint32_t const0 = netlist.add_net("const0_");
    const std::uint32_t const1 = netlist.add_net("const1_");
    LLS_ENSURE(const0 == Netlist::kConst0 && const1 == Netlist::kConst1);

    constexpr std::uint32_t kUnset = ~std::uint32_t{0};
    std::vector<std::array<std::uint32_t, 2>> net_of(aig.num_nodes(), {kUnset, kUnset});
    net_of[0] = {Netlist::kConst0, Netlist::kConst1};
    for (std::size_t i = 0; i < aig.num_pis(); ++i)
        net_of[aig.pi(i)][0] = netlist.add_input(aig.pi_name(i));

    // Recursive emission (depth bounded by the mapping DAG).
    auto emit = [&](auto&& self, std::uint32_t node, bool negated) -> std::uint32_t {
        const std::size_t phase = negated ? 1 : 0;
        if (net_of[node][phase] != kUnset) return net_of[node][phase];
        std::uint32_t net;
        if (aig.is_pi(node)) {
            // Only the negated phase can be missing for a PI.
            net = netlist.add_net();
            netlist.add_gate(library.inverter_index(), {net_of[node][0]}, net);
        } else {
            const PhaseChoice& pc = choice[node][phase];
            if (pc.from_inverter || pc.cut_index < 0) {
                const std::uint32_t other = self(self, node, !negated);
                net = netlist.add_net();
                netlist.add_gate(library.inverter_index(), {other}, net);
            } else {
                const auto& cut = cuts.cuts(node)[static_cast<std::size_t>(pc.cut_index)];
                const Cell& cell = library.cell(pc.match.cell);
                std::vector<std::uint32_t> pin_nets(static_cast<std::size_t>(cell.num_inputs));
                for (int pin = 0; pin < cell.num_inputs; ++pin) {
                    const std::uint32_t leaf =
                        cut.leaves[static_cast<std::size_t>(pc.match.leaf_of_pin[pin])];
                    pin_nets[static_cast<std::size_t>(pin)] =
                        self(self, leaf, (pc.match.input_neg >> pin) & 1);
                }
                net = netlist.add_net();
                netlist.add_gate(pc.match.cell, std::move(pin_nets), net);
            }
        }
        net_of[node][phase] = net;
        return net;
    };

    for (std::size_t o = 0; o < aig.num_pos(); ++o) {
        const AigLit po = aig.po(o);
        netlist.add_output(emit(emit, po.node(), po.complemented()), aig.po_name(o));
    }
    return netlist;
}

}  // namespace lls
