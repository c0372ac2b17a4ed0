#include "io/blif.hpp"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <unordered_map>
#include <vector>

#include "aig/aig_build.hpp"
#include "common/error.hpp"
#include "sop/sop.hpp"

namespace lls {

namespace {

std::vector<std::string> tokenize(const std::string& line) {
    std::istringstream ss(line);
    std::vector<std::string> tokens;
    std::string t;
    while (ss >> t) tokens.push_back(t);
    return tokens;
}

/// A logical line plus the physical line number where it started, so every
/// diagnostic can point at the offending source line even across
/// '\'-continuations.
struct BlifLine {
    std::string text;
    int number = 0;
};

/// Reads logical lines, joining '\'-continued lines and stripping comments.
std::vector<BlifLine> logical_lines(std::istream& in) {
    std::vector<BlifLine> lines;
    std::string line, pending;
    int number = 0, pending_start = 0;
    while (std::getline(in, line)) {
        ++number;
        if (const auto hash = line.find('#'); hash != std::string::npos) line.resize(hash);
        while (!line.empty() && (line.back() == '\r' || line.back() == ' ')) line.pop_back();
        if (pending.empty()) pending_start = number;
        if (!line.empty() && line.back() == '\\') {
            line.pop_back();
            pending += line;
            continue;
        }
        pending += line;
        if (!pending.empty()) lines.push_back(BlifLine{pending, pending_start});
        pending.clear();
    }
    if (!pending.empty()) lines.push_back(BlifLine{pending, pending_start});
    return lines;
}

struct BlifGate {
    std::vector<std::string> inputs;
    std::string output;
    std::vector<std::string> cover;  // raw cover lines ("10-1 1")
    int line = 0;                    // .names line, for diagnostics
};

[[noreturn]] void parse_fail(int line, const std::string& message) {
    throw LlsError(ErrorKind::ParseError, "line " + std::to_string(line) + ": " + message,
                   "blif");
}

/// A malformed AIGER file: a parse error, like malformed BLIF.
LlsError aiger_error(const std::string& message) {
    return LlsError(ErrorKind::ParseError, "AIGER: " + message, "aiger");
}

}  // namespace

Aig read_blif(std::istream& in) {
    const auto lines = logical_lines(in);
    std::vector<std::string> input_names;
    std::vector<std::pair<std::string, int>> output_names;  // name, .outputs line
    std::vector<BlifGate> gates;
    BlifGate* current = nullptr;
    // First definition line of every signal (PI declaration or .names
    // output) — the duplicate-driver diagnostic names both sites.
    std::unordered_map<std::string, int> defined_at;
    bool saw_end = false;
    int last_line = 0;

    for (const auto& logical : lines) {
        const std::string& line = logical.text;
        last_line = logical.number;
        auto tokens = tokenize(line);
        if (tokens.empty()) continue;
        const std::string& head = tokens[0];
        if (head == ".model") {
            current = nullptr;
        } else if (head == ".end") {
            current = nullptr;
            saw_end = true;
        } else if (head == ".inputs") {
            current = nullptr;
            for (auto it = tokens.begin() + 1; it != tokens.end(); ++it) {
                const auto [prev, inserted] = defined_at.emplace(*it, logical.number);
                if (!inserted)
                    parse_fail(logical.number, "signal '" + *it +
                                                   "' already declared at line " +
                                                   std::to_string(prev->second));
                input_names.push_back(*it);
            }
        } else if (head == ".outputs") {
            current = nullptr;
            for (auto it = tokens.begin() + 1; it != tokens.end(); ++it)
                output_names.emplace_back(*it, logical.number);
        } else if (head == ".names") {
            if (tokens.size() < 2) parse_fail(logical.number, ".names without signals");
            const std::string& output = tokens.back();
            const auto [prev, inserted] = defined_at.emplace(output, logical.number);
            if (!inserted)
                parse_fail(logical.number,
                           "duplicate driver for signal '" + output + "' (first defined at line " +
                               std::to_string(prev->second) + ")");
            gates.push_back(BlifGate{});
            current = &gates.back();
            current->output = output;
            current->inputs.assign(tokens.begin() + 1, tokens.end() - 1);
            current->line = logical.number;
        } else if (head == ".latch" || head == ".subckt" || head == ".gate") {
            parse_fail(logical.number, "only combinational .names models are supported (" +
                                           head + ")");
        } else if (head[0] == '.') {
            current = nullptr;  // ignore other directives (.default_input_arrival etc.)
        } else {
            if (!current) parse_fail(logical.number, "cover line outside .names");
            current->cover.push_back(line);
        }
    }
    if (!lines.empty() && !saw_end)
        parse_fail(last_line, "missing .end (truncated model?)");

    // Every referenced signal must be declared (a PI) or driven by a gate
    // — resolving against an absent signal would otherwise either hang the
    // iterative pass or build a silently-wrong network.
    for (const auto& g : gates)
        for (const auto& s : g.inputs)
            if (!defined_at.count(s))
                parse_fail(g.line, "reference to undeclared signal '" + s + "'");
    for (const auto& [name, line] : output_names)
        if (!defined_at.count(name))
            parse_fail(line, "output '" + name + "' is never driven");

    Aig aig;
    std::unordered_map<std::string, AigLit> signals;
    for (const auto& name : input_names) signals[name] = aig.add_pi(name);

    // Gates may be listed in any order; resolve iteratively.
    std::vector<bool> done(gates.size(), false);
    std::size_t remaining = gates.size();
    bool progress = true;
    while (remaining > 0 && progress) {
        progress = false;
        for (std::size_t gi = 0; gi < gates.size(); ++gi) {
            if (done[gi]) continue;
            const auto& g = gates[gi];
            const bool ready = std::all_of(g.inputs.begin(), g.inputs.end(),
                                           [&](const std::string& s) { return signals.count(s); });
            if (!ready) continue;

            const int k = static_cast<int>(g.inputs.size());
            if (k > Cube::kMaxVars)
                parse_fail(g.line, ".names with more than " + std::to_string(Cube::kMaxVars) +
                                       " inputs");
            Sop on(k);
            bool off_phase = false, phase_known = false;
            for (const auto& raw : g.cover) {
                const auto tokens = tokenize(raw);
                std::string bits, out;
                if (k == 0) {
                    if (tokens.size() != 1) parse_fail(g.line, "bad constant cover");
                    out = tokens[0];
                } else {
                    if (tokens.size() != 2) parse_fail(g.line, "bad cover line");
                    bits = tokens[0];
                    out = tokens[1];
                    if (static_cast<int>(bits.size()) != k)
                        parse_fail(g.line, "cover width mismatch");
                }
                const bool this_off = out == "0";
                if (phase_known && this_off != off_phase)
                    parse_fail(g.line, "mixed cover phases");
                off_phase = this_off;
                phase_known = true;
                Cube c;
                for (int v = 0; v < k; ++v) {
                    if (bits[static_cast<std::size_t>(v)] == '1') c = c.with_literal(v, true);
                    else if (bits[static_cast<std::size_t>(v)] == '0') c = c.with_literal(v, false);
                    else if (bits[static_cast<std::size_t>(v)] != '-')
                        parse_fail(g.line, "bad cover character");
                }
                on.add_cube(c);
            }

            std::vector<AigLit> fanins;
            fanins.reserve(g.inputs.size());
            for (const auto& s : g.inputs) fanins.push_back(signals.at(s));
            AigLit lit = build_sop(aig, on, fanins);
            if (phase_known && off_phase) lit = !lit;
            if (g.cover.empty()) lit = AigLit::constant(false);  // empty cover = constant 0
            signals[g.output] = lit;
            done[gi] = true;
            --remaining;
            progress = true;
        }
    }
    if (remaining > 0) {
        for (std::size_t gi = 0; gi < gates.size(); ++gi)
            if (!done[gi])
                parse_fail(gates[gi].line,
                           "signal '" + gates[gi].output + "' is part of a combinational cycle");
    }

    for (const auto& [name, line] : output_names) {
        const auto it = signals.find(name);
        if (it == signals.end()) parse_fail(line, "output '" + name + "' is never driven");
        aig.add_po(it->second, name);
    }
    return aig.cleanup();
}

Aig read_blif_file(const std::string& path) {
    std::ifstream in(path);
    if (!in) throw LlsError(ErrorKind::IoError, "cannot open " + path, "blif");
    return read_blif(in);
}

void write_blif(std::ostream& out, const Aig& aig, const std::string& model_name) {
    out << ".model " << model_name << "\n.inputs";
    for (std::size_t i = 0; i < aig.num_pis(); ++i) out << " " << aig.pi_name(i);
    out << "\n.outputs";
    for (std::size_t o = 0; o < aig.num_pos(); ++o) out << " " << aig.po_name(o);
    out << "\n";

    auto signal_name = [&](std::uint32_t id) {
        if (aig.is_pi(id)) return aig.pi_name(aig.pi_index(id));
        return "n" + std::to_string(id);
    };

    out << ".names zero__\n";  // constant-0 driver for node 0
    for (std::uint32_t id = 1; id < aig.num_nodes(); ++id) {
        if (!aig.is_and(id)) continue;
        const auto& n = aig.node(id);
        const std::string a =
            aig.is_const(n.fanin0.node()) ? "zero__" : signal_name(n.fanin0.node());
        const std::string b =
            aig.is_const(n.fanin1.node()) ? "zero__" : signal_name(n.fanin1.node());
        out << ".names " << a << " " << b << " " << signal_name(id) << "\n";
        out << (n.fanin0.complemented() ? '0' : '1') << (n.fanin1.complemented() ? '0' : '1')
            << " 1\n";
    }
    for (std::size_t o = 0; o < aig.num_pos(); ++o) {
        const AigLit po = aig.po(o);
        const std::string driver =
            aig.is_const(po.node()) ? "zero__" : signal_name(po.node());
        out << ".names " << driver << " " << aig.po_name(o) << "\n"
            << (po.complemented() ? '0' : '1') << " 1\n";
    }
    out << ".end\n";
}

void write_blif_file(const std::string& path, const Aig& aig, const std::string& model_name) {
    std::ofstream out(path);
    if (!out) throw LlsError(ErrorKind::IoError, "cannot open " + path, "blif");
    write_blif(out, aig, model_name);
    // A full disk (or any other stream error) must not leave a silently
    // truncated netlist behind: flush and check before declaring success.
    out.flush();
    if (!out)
        throw LlsError(ErrorKind::IoError, "error writing " + path + " (truncated output)",
                       "blif");
}

void write_aiger(std::ostream& out, const Aig& aig) {
    // ASCII AIGER: node i gets variable index i (literal 2i / 2i+1), which
    // matches our internal encoding exactly (node 0 = constant false).
    const std::size_t m = aig.num_nodes() - 1;
    out << "aag " << m << " " << aig.num_pis() << " 0 " << aig.num_pos() << " " << aig.num_ands()
        << "\n";
    for (std::size_t i = 0; i < aig.num_pis(); ++i) out << (2 * aig.pi(i)) << "\n";
    for (std::size_t o = 0; o < aig.num_pos(); ++o) out << aig.po(o).value << "\n";
    for (std::uint32_t id = 1; id < aig.num_nodes(); ++id) {
        if (!aig.is_and(id)) continue;
        const auto& n = aig.node(id);
        out << (2 * id) << " " << n.fanin0.value << " " << n.fanin1.value << "\n";
    }
    for (std::size_t i = 0; i < aig.num_pis(); ++i) out << "i" << i << " " << aig.pi_name(i) << "\n";
    for (std::size_t o = 0; o < aig.num_pos(); ++o) out << "o" << o << " " << aig.po_name(o) << "\n";
}

void write_aiger_file(const std::string& path, const Aig& aig) {
    std::ofstream out(path);
    if (!out) throw LlsError(ErrorKind::IoError, "cannot open " + path, "aiger");
    write_aiger(out, aig);
    out.flush();
    if (!out)
        throw LlsError(ErrorKind::IoError, "error writing " + path + " (truncated output)",
                       "aiger");
}

Aig read_aiger(std::istream& in) {
    std::string magic;
    std::size_t m = 0, i = 0, l = 0, o = 0, a = 0;
    if (in >> magic && magic == "aig")
        throw aiger_error(
            "binary format (\"aig\" header) is not supported; convert to ASCII (\"aag\")");
    if (magic != "aag" || !(in >> m >> i >> l >> o >> a))
        throw aiger_error("bad header");
    if (l != 0) throw aiger_error("latches are not supported");

    Aig aig;
    // lit_map[aiger variable] -> our literal (variable v = aiger literal 2v).
    std::vector<AigLit> var_map(m + 1, AigLit::constant(false));
    var_map[0] = AigLit::constant(false);

    std::vector<std::size_t> input_vars;
    for (std::size_t k = 0; k < i; ++k) {
        std::size_t lit = 0;
        if (!(in >> lit) || (lit & 1) || lit / 2 > m)
            throw aiger_error("bad input literal");
        var_map[lit / 2] = aig.add_pi();
        input_vars.push_back(lit / 2);
    }

    std::vector<std::size_t> output_lits(o);
    for (auto& lit : output_lits)
        if (!(in >> lit) || lit / 2 > m) throw aiger_error("bad output literal");

    auto resolve = [&](std::size_t lit) {
        const AigLit base = var_map[lit / 2];
        return (lit & 1) ? !base : base;
    };

    for (std::size_t k = 0; k < a; ++k) {
        std::size_t out_lit = 0, in0 = 0, in1 = 0;
        if (!(in >> out_lit >> in0 >> in1) || (out_lit & 1) || out_lit / 2 > m ||
            in0 / 2 > m || in1 / 2 > m)
            throw aiger_error("bad and line");
        // AIGER requires fanin variables to be defined before use
        // (out_lit > in0 >= in1 in the standard ordering).
        var_map[out_lit / 2] = aig.land(resolve(in0), resolve(in1));
    }

    for (const auto lit : output_lits) aig.add_po(resolve(lit));

    // Optional symbol table: iN / oN lines.
    std::string token;
    std::vector<std::string> po_names(o);
    bool have_po_names = false;
    while (in >> token) {
        if (token == "c") break;  // comment section
        if (token.size() < 2) continue;
        std::string name;
        if (!std::getline(in, name)) break;
        if (!name.empty() && name[0] == ' ') name.erase(0, 1);
        const std::size_t index = std::strtoull(token.c_str() + 1, nullptr, 10);
        if (token[0] == 'o' && index < o) {
            po_names[index] = name;
            have_po_names = true;
        }
        // PI names are informational; our PIs keep positional names so the
        // interface stays aligned with the literal order.
    }
    if (have_po_names) {
        Aig renamed;
        std::vector<AigLit> pi_map;
        for (std::size_t k = 0; k < aig.num_pis(); ++k) pi_map.push_back(renamed.add_pi());
        const auto outs = append_aig(renamed, aig, pi_map);
        for (std::size_t k = 0; k < outs.size(); ++k)
            renamed.add_po(outs[k], po_names[k].empty() ? "po" + std::to_string(k) : po_names[k]);
        return renamed.cleanup();
    }
    return aig.cleanup();
}

}  // namespace lls
