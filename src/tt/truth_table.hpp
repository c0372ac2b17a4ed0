#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/check.hpp"

namespace lls {

/// Bit-packed truth table over `num_vars` Boolean variables.
///
/// Bit `m` holds f(x) for the minterm whose binary encoding is `m`
/// (variable 0 is the least significant bit of the minterm index).
/// Supports up to 20 variables (1 Mi bits = 16 Ki words); the synthesis
/// algorithms only ever build local functions of at most ~12 variables.
class TruthTable {
public:
    static constexpr int kMaxVars = 20;

    TruthTable() : num_vars_(0), words_(1, 0) {}

    explicit TruthTable(int num_vars) : num_vars_(num_vars) {
        LLS_REQUIRE(num_vars >= 0 && num_vars <= kMaxVars);
        words_.assign(word_count(num_vars), 0);
    }

    /// Truth table of constant `value` over `num_vars` variables.
    static TruthTable constant(int num_vars, bool value) {
        TruthTable tt(num_vars);
        if (value) {
            for (auto& w : tt.words_) w = ~0ULL;
            tt.mask_tail();
        }
        return tt;
    }

    /// Truth table of the projection x_var over `num_vars` variables.
    static TruthTable variable(int num_vars, int var) {
        LLS_REQUIRE(var >= 0 && var < num_vars);
        TruthTable tt(num_vars);
        if (var < 6) {
            // Periodic pattern within one word.
            std::uint64_t pattern = 0;
            const int period = 1 << (var + 1);
            for (int b = 0; b < 64; ++b)
                if (b % period >= (1 << var)) pattern |= 1ULL << b;
            for (auto& w : tt.words_) w = pattern;
        } else {
            const std::size_t stride = std::size_t{1} << (var - 6);
            for (std::size_t i = 0; i < tt.words_.size(); ++i)
                if ((i / stride) & 1) tt.words_[i] = ~0ULL;
        }
        tt.mask_tail();
        return tt;
    }

    /// Parses a hex string (most significant minterms first, as printed by
    /// to_hex). The string must have exactly the right number of digits.
    static TruthTable from_hex(int num_vars, const std::string& hex);

    int num_vars() const { return num_vars_; }
    std::uint64_t num_minterms() const { return std::uint64_t{1} << num_vars_; }
    std::size_t word_count() const { return words_.size(); }
    const std::vector<std::uint64_t>& words() const { return words_; }

    bool get_bit(std::uint64_t minterm) const {
        LLS_DCHECK(minterm < num_minterms());
        return (words_[minterm >> 6] >> (minterm & 63)) & 1;
    }

    void set_bit(std::uint64_t minterm, bool value) {
        LLS_DCHECK(minterm < num_minterms());
        if (value)
            words_[minterm >> 6] |= 1ULL << (minterm & 63);
        else
            words_[minterm >> 6] &= ~(1ULL << (minterm & 63));
    }

    bool is_const0() const;
    bool is_const1() const;
    std::uint64_t count_ones() const;

    /// True if the function depends on variable `var`.
    bool has_var(int var) const;

    TruthTable operator~() const;
    TruthTable operator&(const TruthTable& other) const;
    TruthTable operator|(const TruthTable& other) const;
    TruthTable operator^(const TruthTable& other) const;
    bool operator==(const TruthTable& other) const = default;

    TruthTable& operator&=(const TruthTable& o) { return *this = *this & o; }
    TruthTable& operator|=(const TruthTable& o) { return *this = *this | o; }
    TruthTable& operator^=(const TruthTable& o) { return *this = *this ^ o; }

    /// True if this function implies `other` (this <= other pointwise).
    bool implies(const TruthTable& other) const;

    /// Positive/negative Shannon cofactor with respect to `var`; the result
    /// keeps the same variable count (the cofactored variable becomes
    /// vacuous).
    TruthTable cofactor(int var, bool polarity) const;

    /// Existential quantification: cofactor0 | cofactor1.
    TruthTable smooth(int var) const { return cofactor(var, false) | cofactor(var, true); }

    /// Swaps two variables (word-level kernel).
    TruthTable swap_vars(int a, int b) const;

    /// Reorders variables: new variable i is old variable perm[i]. The
    /// per-minterm reference implementation.
    TruthTable permute(const std::vector<int>& perm) const;

    /// Extends to `new_num_vars` variables (added variables are vacuous).
    TruthTable extend(int new_num_vars) const;

    /// Removes vacuous trailing variables down to `new_num_vars`
    /// (all removed variables must be vacuous).
    TruthTable shrink(int new_num_vars) const;

    /// Hex dump, most significant minterm first.
    std::string to_hex() const;

    /// Binary dump, minterm 2^n-1 first (matches common textbook layout).
    std::string to_binary() const;

    std::uint64_t hash() const;

private:
    static std::size_t word_count(int num_vars) {
        return num_vars <= 6 ? 1 : (std::size_t{1} << (num_vars - 6));
    }

    void mask_tail() {
        if (num_vars_ < 6) words_[0] &= (1ULL << (1 << num_vars_)) - 1;
    }

    void check_compatible(const TruthTable& other) const {
        LLS_REQUIRE(num_vars_ == other.num_vars_);
    }

    int num_vars_;
    std::vector<std::uint64_t> words_;
};

/// Hash functor for unordered containers keyed by truth table.
struct TruthTableHash {
    std::size_t operator()(const TruthTable& tt) const { return tt.hash(); }
};

}  // namespace lls
