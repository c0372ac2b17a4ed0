#include "exact/exact_synthesis.hpp"

#include <algorithm>

#include "sat/solver.hpp"

namespace lls {

bool ExactStructure::evaluate(std::uint32_t row) const {
    if (output_constant) return output_complemented;
    std::vector<bool> value(static_cast<std::size_t>(num_inputs) + gates.size());
    for (int i = 0; i < num_inputs; ++i) value[static_cast<std::size_t>(i)] = (row >> i) & 1;
    for (std::size_t g = 0; g < gates.size(); ++g) {
        const bool a = value[static_cast<std::size_t>(gates[g].fanin0)] != gates[g].complement0;
        const bool b = value[static_cast<std::size_t>(gates[g].fanin1)] != gates[g].complement1;
        value[static_cast<std::size_t>(num_inputs) + g] = a && b;
    }
    return value[static_cast<std::size_t>(output_signal)] != output_complemented;
}

namespace {

/// Sequential at-most-one encoding (Sinz): O(k) clauses and aux vars.
/// `prev` tracks "some literal among the processed prefix is set".
void add_at_most_one(sat::Solver& solver, const std::vector<sat::Lit>& lits) {
    if (lits.size() <= 1) return;
    sat::Lit prev = lits[0];
    for (std::size_t i = 1; i < lits.size(); ++i) {
        solver.add_clause(!prev, !lits[i]);  // prefix set -> lits[i] unset
        if (i + 1 == lits.size()) break;
        const sat::Lit aux = sat::Lit(solver.new_var(), false);
        solver.add_clause(!prev, aux);
        solver.add_clause(!lits[i], aux);
        prev = aux;
    }
}

struct Candidate {
    int fanin0, fanin1;  // signal indices, fanin0 < fanin1
    bool c0, c1;
};

/// Attempts synthesis with exactly `r` gates. Returns the structure on SAT.
std::optional<ExactStructure> try_with_gates(const TruthTable& tt, int r,
                                             std::int64_t conflict_limit) {
    const int n = tt.num_vars();
    const std::uint32_t rows = 1u << n;
    sat::Solver solver;

    // val[i][t]: value of gate i on input row t.
    std::vector<std::vector<sat::Lit>> val(static_cast<std::size_t>(r));
    for (auto& row_vars : val) {
        row_vars.resize(rows);
        for (auto& v : row_vars) v = sat::Lit(solver.new_var(), false);
    }
    // Output polarity.
    const sat::Lit out_neg = sat::Lit(solver.new_var(), false);

    // Row value of signal s (input or earlier gate) as a function of row t:
    // inputs give compile-time constants, gates give variables.
    auto input_value = [&](int s, std::uint32_t t) { return ((t >> s) & 1) != 0; };

    std::vector<std::vector<Candidate>> candidates(static_cast<std::size_t>(r));
    std::vector<std::vector<sat::Lit>> sel(static_cast<std::size_t>(r));
    for (int i = 0; i < r; ++i) {
        const int num_signals = n + i;
        for (int a = 0; a < num_signals; ++a)
            for (int b = a + 1; b < num_signals; ++b)
                for (int pol = 0; pol < 4; ++pol)
                    candidates[static_cast<std::size_t>(i)].push_back(
                        Candidate{a, b, (pol & 1) != 0, (pol & 2) != 0});
        auto& s = sel[static_cast<std::size_t>(i)];
        s.resize(candidates[static_cast<std::size_t>(i)].size());
        std::vector<sat::Lit> all;
        for (auto& v : s) {
            v = sat::Lit(solver.new_var(), false);
            all.push_back(v);
        }
        solver.add_clause(all);  // at least one candidate
        add_at_most_one(solver, all);
    }

    // Semantics: sel -> (val[i][t] == (A & B)).
    for (int i = 0; i < r; ++i) {
        for (std::size_t c = 0; c < candidates[static_cast<std::size_t>(i)].size(); ++c) {
            const Candidate& cand = candidates[static_cast<std::size_t>(i)][c];
            const sat::Lit s = sel[static_cast<std::size_t>(i)][c];
            for (std::uint32_t t = 0; t < rows; ++t) {
                const sat::Lit x = val[static_cast<std::size_t>(i)][t];
                // Literal (or constant) of each fanin on this row.
                auto fanin_lit = [&](int signal, bool comp,
                                     bool* is_const, bool* const_val) -> sat::Lit {
                    if (signal < n) {
                        *is_const = true;
                        *const_val = input_value(signal, t) != comp;
                        return sat::Lit{};
                    }
                    *is_const = false;
                    sat::Lit l = val[static_cast<std::size_t>(signal - n)][t];
                    return comp ? !l : l;
                };
                bool a_const = false, a_val = false, b_const = false, b_val = false;
                const sat::Lit la = fanin_lit(cand.fanin0, cand.c0, &a_const, &a_val);
                const sat::Lit lb = fanin_lit(cand.fanin1, cand.c1, &b_const, &b_val);

                if (a_const && b_const) {
                    const bool result = a_val && b_val;
                    solver.add_clause(!s, result ? x : !x);
                } else if (a_const || b_const) {
                    const bool known = a_const ? a_val : b_val;
                    const sat::Lit other = a_const ? lb : la;
                    if (!known) {
                        solver.add_clause(!s, !x);  // constant-0 fanin
                    } else {
                        solver.add_clause(!s, !x, other);
                        solver.add_clause(!s, x, !other);
                    }
                } else {
                    solver.add_clause(!s, !x, la);
                    solver.add_clause(!s, !x, lb);
                    solver.add_clause({!s, x, !la, !lb});
                }
            }
        }
    }

    // Output constraint: val[r-1][t] XOR out_neg == tt[t].
    for (std::uint32_t t = 0; t < rows; ++t) {
        const sat::Lit x = val[static_cast<std::size_t>(r - 1)][t];
        if (tt.get_bit(t)) {
            solver.add_clause(out_neg, x);
            solver.add_clause(!out_neg, !x);
        } else {
            solver.add_clause(out_neg, !x);
            solver.add_clause(!out_neg, x);
        }
    }

    if (solver.solve({}, conflict_limit) != sat::Status::Sat) return std::nullopt;

    ExactStructure structure;
    structure.num_inputs = n;
    for (int i = 0; i < r; ++i) {
        for (std::size_t c = 0; c < candidates[static_cast<std::size_t>(i)].size(); ++c) {
            if (!solver.model_value(sel[static_cast<std::size_t>(i)][c].var())) continue;
            const Candidate& cand = candidates[static_cast<std::size_t>(i)][c];
            structure.gates.push_back(
                ExactStructure::Gate{cand.fanin0, cand.fanin1, cand.c0, cand.c1});
            break;
        }
    }
    LLS_ENSURE(static_cast<int>(structure.gates.size()) == r);
    structure.output_signal = n + r - 1;
    structure.output_complemented = solver.model_value(out_neg.var());
    return structure;
}

}  // namespace

std::optional<ExactStructure> exact_synthesize(const TruthTable& tt, int max_gates,
                                               std::int64_t conflict_limit) {
    const int n = tt.num_vars();
    LLS_REQUIRE(n >= 0 && n <= 5);

    // Zero-gate cases: constants and (complemented) input passthroughs.
    ExactStructure trivial;
    trivial.num_inputs = n;
    if (tt.is_const0() || tt.is_const1()) {
        trivial.output_constant = true;
        trivial.output_complemented = tt.is_const1();
        return trivial;
    }
    for (int v = 0; v < n; ++v) {
        const TruthTable x = TruthTable::variable(n, v);
        if (tt == x || tt == ~x) {
            trivial.output_signal = v;
            trivial.output_complemented = tt == ~x;
            return trivial;
        }
    }

    for (int r = 1; r <= max_gates; ++r) {
        if (auto result = try_with_gates(tt, r, conflict_limit)) {
            // Sanity: the decoded structure must realize tt exactly.
            for (std::uint32_t t = 0; t < tt.num_minterms(); ++t)
                LLS_ENSURE(result->evaluate(t) == tt.get_bit(t));
            return result;
        }
    }
    return std::nullopt;
}

AigLit build_exact_structure(Aig& aig, const ExactStructure& structure,
                             const std::vector<AigLit>& fanins) {
    LLS_REQUIRE(static_cast<int>(fanins.size()) >= structure.num_inputs);
    if (structure.output_constant) return AigLit::constant(structure.output_complemented);
    std::vector<AigLit> signal(static_cast<std::size_t>(structure.num_inputs) +
                               structure.gates.size());
    for (int i = 0; i < structure.num_inputs; ++i)
        signal[static_cast<std::size_t>(i)] = fanins[static_cast<std::size_t>(i)];
    for (std::size_t g = 0; g < structure.gates.size(); ++g) {
        const auto& gate = structure.gates[g];
        AigLit a = signal[static_cast<std::size_t>(gate.fanin0)];
        AigLit b = signal[static_cast<std::size_t>(gate.fanin1)];
        if (gate.complement0) a = !a;
        if (gate.complement1) b = !b;
        signal[static_cast<std::size_t>(structure.num_inputs) + g] = aig.land(a, b);
    }
    const AigLit out = signal[static_cast<std::size_t>(structure.output_signal)];
    return structure.output_complemented ? !out : out;
}

}  // namespace lls
