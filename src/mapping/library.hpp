#pragma once

#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "tt/truth_table.hpp"

namespace lls {

/// A combinational standard cell. Delays are pin-to-pin and load-independent
/// (a deliberate simplification: the paper's comparisons are relative, and a
/// load-independent model preserves ordering between flows).
struct Cell {
    std::string name;
    int num_inputs = 0;
    TruthTable function;    ///< over inputs (var i = pin i)
    double area = 0.0;      ///< normalized area units
    double delay_ps = 0.0;  ///< pin-to-pin delay
    double energy_fj = 0.0; ///< switching energy per output transition
};

/// A match of a cut function onto a cell: pin j of the cell is driven by
/// cut leaf `leaf_of_pin[j]`, complemented when bit j of `input_neg` is set;
/// the cell output is complemented when `output_neg` is set.
struct CellMatch {
    int cell = -1;
    std::vector<int> leaf_of_pin;
    unsigned input_neg = 0;
    bool output_neg = false;
};

/// A small technology library ("generic 70 nm"), with exhaustive
/// permutation/negation matching of cut functions.
///
/// Every function of at most 4 variables that some cell realizes is
/// tabulated with its best match when the library is built, so a library
/// is immutable and may be shared across threads.
class CellLibrary {
public:
    /// The library used by all experiments: INV/BUF, NAND/NOR/AND/OR 2-4,
    /// XOR/XNOR, MUX, AOI/OAI 21 and 22.
    static CellLibrary generic_70nm();

    const std::vector<Cell>& cells() const { return cells_; }
    const Cell& cell(int index) const { return cells_[static_cast<std::size_t>(index)]; }

    int inverter_index() const { return inverter_; }
    double inverter_delay_ps() const { return cells_[static_cast<std::size_t>(inverter_)].delay_ps; }

    /// Finds the cheapest-delay cell realizing `tt` (up to input
    /// permutation/negation and output negation). Returns nullopt when no
    /// cell matches. Ties in delay go to the earliest cell, output polarity,
    /// pin permutation and input negation, in that order.
    std::optional<CellMatch> match(const TruthTable& tt) const;

private:
    int add_cell(Cell cell);
    void tabulate_matches();

    /// (truth-table word << 3) | num_vars, for tables of <= 4 variables.
    static std::uint64_t match_key(std::uint64_t word, int num_vars);

    std::vector<Cell> cells_;
    int inverter_ = -1;
    std::unordered_map<std::uint64_t, CellMatch> matches_;
};

}  // namespace lls
