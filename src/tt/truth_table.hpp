#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/check.hpp"

namespace lls {

/// Bit-packed truth table over `num_vars` Boolean variables.
///
/// Bit `m` holds f(x) for the minterm whose binary encoding is `m`
/// (variable 0 is the least significant bit of the minterm index).
/// Supports up to 20 variables (1 Mi bits = 16 Ki words); the synthesis
/// algorithms only ever build local functions of at most ~12 variables.
///
/// Tables of up to kInlineVars variables (restructuring's cut size) keep
/// their words inline, so copies and operators on them never allocate;
/// larger ones own a heap array. The variable count fixes the word count,
/// and inline words past it stay zero.
class TruthTable {
public:
    static constexpr int kMaxVars = 20;
    static constexpr int kInlineVars = 8;

    TruthTable() : num_vars_(0), inline_{} {}

    explicit TruthTable(int num_vars) : num_vars_(num_vars), inline_{} {
        LLS_REQUIRE(num_vars >= 0 && num_vars <= kMaxVars);
        if (on_heap()) heap_ = new std::uint64_t[word_count()]();
    }

    TruthTable(const TruthTable& other) : num_vars_(other.num_vars_) {
        if (on_heap()) {
            heap_ = new std::uint64_t[word_count()];
            std::copy_n(other.heap_, word_count(), heap_);
        } else {
            inline_ = other.inline_;
        }
    }

    /// A moved-from table of more than kInlineVars variables is the
    /// constant 0 of 0 variables; a smaller one keeps its value.
    TruthTable(TruthTable&& other) noexcept : num_vars_(other.num_vars_) {
        if (on_heap()) {
            heap_ = other.heap_;
            other.num_vars_ = 0;
            other.inline_ = {};
        } else {
            inline_ = other.inline_;
        }
    }

    TruthTable& operator=(const TruthTable& other) {
        if (this == &other) return *this;
        if (other.on_heap()) {
            if (!on_heap() || word_count() != other.word_count()) {
                std::uint64_t* words = new std::uint64_t[other.word_count()];
                release();
                heap_ = words;
            }
            std::copy_n(other.heap_, other.word_count(), heap_);
        } else {
            release();
            inline_ = other.inline_;
        }
        num_vars_ = other.num_vars_;
        return *this;
    }

    TruthTable& operator=(TruthTable&& other) noexcept {
        if (this == &other) return *this;
        release();
        num_vars_ = other.num_vars_;
        if (on_heap()) {
            heap_ = other.heap_;
            other.num_vars_ = 0;
            other.inline_ = {};
        } else {
            inline_ = other.inline_;
        }
        return *this;
    }

    ~TruthTable() { release(); }

    /// Truth table of constant `value` over `num_vars` variables.
    static TruthTable constant(int num_vars, bool value) {
        TruthTable tt(num_vars);
        if (value) {
            std::fill_n(tt.data(), tt.word_count(), ~0ULL);
            tt.mask_tail();
        }
        return tt;
    }

    /// Truth table of the projection x_var over `num_vars` variables.
    static TruthTable variable(int num_vars, int var) {
        LLS_REQUIRE(var >= 0 && var < num_vars);
        TruthTable tt(num_vars);
        std::uint64_t* words = tt.data();
        if (var < 6) {
            // Periodic pattern within one word.
            std::uint64_t pattern = 0;
            const int period = 1 << (var + 1);
            for (int b = 0; b < 64; ++b)
                if (b % period >= (1 << var)) pattern |= 1ULL << b;
            std::fill_n(words, tt.word_count(), pattern);
        } else {
            const std::size_t stride = std::size_t{1} << (var - 6);
            for (std::size_t i = 0; i < tt.word_count(); ++i)
                if ((i / stride) & 1) words[i] = ~0ULL;
        }
        tt.mask_tail();
        return tt;
    }

    /// Parses a hex string (most significant minterms first, as printed by
    /// to_hex). The string must have exactly the right number of digits.
    static TruthTable from_hex(int num_vars, const std::string& hex);

    int num_vars() const { return num_vars_; }
    std::uint64_t num_minterms() const { return std::uint64_t{1} << num_vars_; }
    std::size_t word_count() const { return word_count(num_vars_); }
    std::span<const std::uint64_t> words() const { return {data(), word_count()}; }

    /// Word `i` of the table (minterms 64i .. 64i+63).
    std::uint64_t word(std::size_t i) const {
        LLS_DCHECK(i < word_count());
        return data()[i];
    }

    bool get_bit(std::uint64_t minterm) const {
        LLS_DCHECK(minterm < num_minterms());
        return (data()[minterm >> 6] >> (minterm & 63)) & 1;
    }

    void set_bit(std::uint64_t minterm, bool value) {
        LLS_DCHECK(minterm < num_minterms());
        if (value)
            data()[minterm >> 6] |= 1ULL << (minterm & 63);
        else
            data()[minterm >> 6] &= ~(1ULL << (minterm & 63));
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
    bool operator==(const TruthTable& other) const {
        return num_vars_ == other.num_vars_ &&
               std::equal(data(), data() + word_count(), other.data());
    }

    TruthTable& operator&=(const TruthTable& other);
    TruthTable& operator|=(const TruthTable& other);
    TruthTable& operator^=(const TruthTable& other);

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
    static constexpr std::size_t kInlineWords = std::size_t{1} << (kInlineVars - 6);

    static std::size_t word_count(int num_vars) {
        return num_vars <= 6 ? 1 : (std::size_t{1} << (num_vars - 6));
    }

    bool on_heap() const { return num_vars_ > kInlineVars; }
    const std::uint64_t* data() const { return on_heap() ? heap_ : inline_.data(); }
    std::uint64_t* data() { return on_heap() ? heap_ : inline_.data(); }
    /// The table's own words; the kernels index through it, so the
    /// bounds-checked standard library build checks every word index.
    std::span<std::uint64_t> mutable_words() { return {data(), word_count()}; }

    /// Frees the heap words, if any; the caller then sets the storage.
    void release() {
        if (on_heap()) delete[] heap_;
    }

    void mask_tail() {
        if (num_vars_ < 6) data()[0] &= (1ULL << (1 << num_vars_)) - 1;
    }

    void check_compatible(const TruthTable& other) const {
        LLS_REQUIRE(num_vars_ == other.num_vars_);
    }

    int num_vars_;
    union {
        std::array<std::uint64_t, kInlineWords> inline_;  ///< num_vars_ <= kInlineVars
        std::uint64_t* heap_;                              ///< num_vars_ > kInlineVars
    };
};

static_assert(sizeof(TruthTable) <= 40, "a truth table of <= 8 variables is 4 inline words");

/// Hash functor for unordered containers keyed by truth table.
struct TruthTableHash {
    std::size_t operator()(const TruthTable& tt) const { return tt.hash(); }
};

}  // namespace lls
