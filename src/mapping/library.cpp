#include "mapping/library.hpp"

#include <algorithm>
#include <numeric>

namespace lls {

namespace {

TruthTable tt_of(int num_vars, const std::string& hex) {
    return TruthTable::from_hex(num_vars, hex);
}

}  // namespace

int CellLibrary::add_cell(Cell cell) {
    cells_.push_back(std::move(cell));
    return static_cast<int>(cells_.size()) - 1;
}

CellLibrary CellLibrary::generic_70nm() {
    CellLibrary lib;
    // Single-input cells. INV: f = !a -> truth table "1" over bit pattern 01.
    lib.inverter_ = lib.add_cell({"INV", 1, tt_of(1, "1"), 1.0, 35.0, 0.40});
    lib.add_cell({"BUF", 1, tt_of(1, "2"), 1.3, 60.0, 0.55});

    // Two-input cells (minterm order x1 x0 = 11,10,01,00 -> hex nibble).
    lib.add_cell({"NAND2", 2, tt_of(2, "7"), 1.3, 50.0, 0.70});
    lib.add_cell({"NOR2", 2, tt_of(2, "1"), 1.3, 55.0, 0.80});
    lib.add_cell({"AND2", 2, tt_of(2, "8"), 1.7, 80.0, 0.90});
    lib.add_cell({"OR2", 2, tt_of(2, "e"), 1.7, 85.0, 1.00});
    lib.add_cell({"XOR2", 2, tt_of(2, "6"), 3.0, 120.0, 1.80});
    lib.add_cell({"XNOR2", 2, tt_of(2, "9"), 3.0, 120.0, 1.80});

    // Three-input cells.
    lib.add_cell({"NAND3", 3, tt_of(3, "7f"), 1.8, 70.0, 1.00});
    lib.add_cell({"NOR3", 3, tt_of(3, "01"), 1.8, 80.0, 1.20});
    lib.add_cell({"AND3", 3, tt_of(3, "80"), 2.2, 95.0, 1.10});
    lib.add_cell({"OR3", 3, tt_of(3, "fe"), 2.2, 100.0, 1.30});
    // AOI21: !(a*b + c)  (a=var0, b=var1, c=var2)
    lib.add_cell({"AOI21", 3, tt_of(3, "07"), 2.0, 75.0, 1.00});
    // OAI21: !((a+b) * c)
    lib.add_cell({"OAI21", 3, tt_of(3, "1f"), 2.0, 75.0, 1.00});
    // MUX2: s ? b : a  (a=var0, b=var1, s=var2)
    lib.add_cell({"MUX2", 3, tt_of(3, "ca"), 3.3, 110.0, 1.60});

    // Four-input cells.
    lib.add_cell({"NAND4", 4, tt_of(4, "7fff"), 2.3, 90.0, 1.30});
    lib.add_cell({"NOR4", 4, tt_of(4, "0001"), 2.3, 100.0, 1.50});
    // AOI22: !(a*b + c*d)
    lib.add_cell({"AOI22", 4, tt_of(4, "0777"), 2.7, 95.0, 1.30});
    // OAI22: !((a+b) * (c+d))
    lib.add_cell({"OAI22", 4, tt_of(4, "111f"), 2.7, 95.0, 1.30});
    lib.tabulate_matches();
    return lib;
}

std::uint64_t CellLibrary::match_key(std::uint64_t word, int num_vars) {
    const std::uint64_t minterm_mask = (std::uint64_t{1} << (1u << num_vars)) - 1;
    return ((word & minterm_mask) << 3) | static_cast<std::uint64_t>(num_vars);
}

void CellLibrary::tabulate_matches() {
    // Every function each cell realizes under a pin permutation, input
    // negation and output negation. An output negation costs a real
    // inverter downstream, so the score charges it; any input negation is
    // charged one inverter. Candidates are visited by cell, output
    // negation, input negation, permutation (lexicographic) and negation
    // mask; a later one replaces an earlier only if strictly faster. With
    // at most 4 inputs that is 4! * 2^4 * 2 = 768 transforms per cell.
    std::unordered_map<std::uint64_t, double> best_score;
    const double inv_delay = inverter_delay_ps();
    for (int ci = 0; ci < static_cast<int>(cells_.size()); ++ci) {
        const Cell& cell = cells_[static_cast<std::size_t>(ci)];
        const int k = cell.num_inputs;
        const unsigned num_minterms = 1u << k;
        for (int oneg = 0; oneg < 2; ++oneg) {
            for (int with_input_neg = 0; with_input_neg < 2; ++with_input_neg) {
                const double score = cell.delay_ps + (oneg ? inv_delay : 0.0) +
                                     (with_input_neg ? inv_delay : 0.0);
                std::vector<int> leaf_of_pin(static_cast<std::size_t>(k));
                std::iota(leaf_of_pin.begin(), leaf_of_pin.end(), 0);
                do {
                    const unsigned neg_begin = with_input_neg ? 1 : 0;
                    const unsigned neg_end = with_input_neg ? num_minterms : 1;
                    for (unsigned neg = neg_begin; neg < neg_end; ++neg) {
                        // Function realized: out = oneg ^ cell(pins), pin j =
                        // leaf leaf_of_pin[j] ^ (neg >> j).
                        std::uint64_t word = 0;
                        for (unsigned m = 0; m < num_minterms; ++m) {
                            std::uint32_t cell_minterm = 0;
                            for (int j = 0; j < k; ++j) {
                                const unsigned leaf = static_cast<unsigned>(
                                    leaf_of_pin[static_cast<std::size_t>(j)]);
                                if (((m >> leaf) & 1) != ((neg >> j) & 1)) cell_minterm |= 1u << j;
                            }
                            if (cell.function.get_bit(cell_minterm) != (oneg != 0))
                                word |= std::uint64_t{1} << m;
                        }
                        const std::uint64_t key = match_key(word, k);
                        const auto [it, fresh] = best_score.try_emplace(key, score);
                        if (fresh || score < it->second) {
                            it->second = score;
                            matches_[key] = CellMatch{ci, leaf_of_pin, neg, oneg != 0};
                        }
                    }
                } while (std::next_permutation(leaf_of_pin.begin(), leaf_of_pin.end()));
            }
        }
    }
}

std::optional<CellMatch> CellLibrary::match(const TruthTable& tt) const {
    LLS_REQUIRE(tt.num_vars() <= 4);
    const auto it = matches_.find(match_key(tt.words()[0], tt.num_vars()));
    if (it == matches_.end()) return std::nullopt;
    return it->second;
}

}  // namespace lls
