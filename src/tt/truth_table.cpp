#include "tt/truth_table.hpp"

#include <algorithm>

#include "common/bitops.hpp"

namespace lls {

namespace {

// Masks for sub-word variable manipulation: kVarMask[v] has bit b set iff
// bit v of b is 1, i.e. the truth table of variable v within one word.
constexpr std::uint64_t kVarMask[6] = {
    0xaaaaaaaaaaaaaaaaULL, 0xccccccccccccccccULL, 0xf0f0f0f0f0f0f0f0ULL,
    0xff00ff00ff00ff00ULL, 0xffff0000ffff0000ULL, 0xffffffff00000000ULL,
};

int hex_digit(char c) {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    if (c >= 'A' && c <= 'F') return c - 'A' + 10;
    LLS_REQUIRE(false && "invalid hex digit");
    return 0;
}

}  // namespace

TruthTable TruthTable::from_hex(int num_vars, const std::string& hex) {
    TruthTable tt(num_vars);
    const std::size_t digits =
        std::max<std::size_t>(1, (std::size_t{1} << num_vars) / 4);
    LLS_REQUIRE(hex.size() == digits);
    // hex[0] is the most significant nibble.
    const auto words = tt.mutable_words();
    for (std::size_t i = 0; i < digits; ++i) {
        const std::uint64_t nibble = static_cast<std::uint64_t>(hex_digit(hex[digits - 1 - i]));
        words[i / 16] |= nibble << (4 * (i % 16));
    }
    tt.mask_tail();
    return tt;
}

bool TruthTable::is_const0() const {
    const auto w = words();
    return std::all_of(w.begin(), w.end(), [](std::uint64_t x) { return x == 0; });
}

bool TruthTable::is_const1() const {
    const std::uint64_t ones = num_vars_ < 6 ? (1ULL << (1 << num_vars_)) - 1 : ~0ULL;
    const auto w = words();
    return std::all_of(w.begin(), w.end(), [&](std::uint64_t x) { return x == ones; });
}

std::uint64_t TruthTable::count_ones() const {
    std::uint64_t n = 0;
    for (auto w : words()) n += static_cast<std::uint64_t>(popcount64(w));
    return n;
}

bool TruthTable::has_var(int var) const {
    LLS_REQUIRE(var >= 0 && var < std::max(num_vars_, 1));
    if (var >= num_vars_) return false;
    const auto words = this->words();
    if (var < 6) {
        const int shift = 1 << var;
        for (auto w : words)
            if (((w >> shift) ^ w) & ~kVarMask[var]) return true;
        return false;
    }
    const std::size_t stride = std::size_t{1} << (var - 6);
    for (std::size_t base = 0; base < words.size(); base += 2 * stride)
        for (std::size_t i = 0; i < stride; ++i)
            if (words[base + i] != words[base + stride + i]) return true;
    return false;
}

TruthTable TruthTable::operator~() const {
    TruthTable r(*this);
    for (auto& w : r.mutable_words()) w = ~w;
    r.mask_tail();
    return r;
}

TruthTable& TruthTable::operator&=(const TruthTable& other) {
    check_compatible(other);
    const auto words = mutable_words();
    const auto o = other.words();
    for (std::size_t i = 0; i < words.size(); ++i) words[i] &= o[i];
    return *this;
}

TruthTable& TruthTable::operator|=(const TruthTable& other) {
    check_compatible(other);
    const auto words = mutable_words();
    const auto o = other.words();
    for (std::size_t i = 0; i < words.size(); ++i) words[i] |= o[i];
    return *this;
}

TruthTable& TruthTable::operator^=(const TruthTable& other) {
    check_compatible(other);
    const auto words = mutable_words();
    const auto o = other.words();
    for (std::size_t i = 0; i < words.size(); ++i) words[i] ^= o[i];
    return *this;
}

TruthTable TruthTable::operator&(const TruthTable& other) const {
    TruthTable r(*this);
    r &= other;
    return r;
}

TruthTable TruthTable::operator|(const TruthTable& other) const {
    TruthTable r(*this);
    r |= other;
    return r;
}

TruthTable TruthTable::operator^(const TruthTable& other) const {
    TruthTable r(*this);
    r ^= other;
    return r;
}

bool TruthTable::implies(const TruthTable& other) const {
    check_compatible(other);
    const auto words = this->words();
    const auto o = other.words();
    for (std::size_t i = 0; i < words.size(); ++i)
        if (words[i] & ~o[i]) return false;
    return true;
}

TruthTable TruthTable::cofactor(int var, bool polarity) const {
    LLS_REQUIRE(var >= 0 && var < num_vars_);
    TruthTable r(*this);
    const auto words = r.mutable_words();
    if (var < 6) {
        const int shift = 1 << var;
        for (auto& w : words) {
            if (polarity) {
                const std::uint64_t hi = w & kVarMask[var];
                w = hi | (hi >> shift);
            } else {
                const std::uint64_t lo = w & ~kVarMask[var];
                w = lo | (lo << shift);
            }
        }
    } else {
        const std::size_t stride = std::size_t{1} << (var - 6);
        for (std::size_t base = 0; base < words.size(); base += 2 * stride)
            for (std::size_t i = 0; i < stride; ++i) {
                const std::uint64_t v = polarity ? words[base + stride + i] : words[base + i];
                words[base + i] = v;
                words[base + stride + i] = v;
            }
    }
    return r;
}

TruthTable TruthTable::swap_vars(int a, int b) const {
    LLS_REQUIRE(a >= 0 && a < num_vars_ && b >= 0 && b < num_vars_);
    TruthTable r(*this);
    if (a == b) return r;
    if (a > b) std::swap(a, b);
    const auto words = r.mutable_words();
    if (b < 6) {
        // Delta swap inside each word: the bits with x_a = 1, x_b = 0 trade
        // places with their partners `shift` bits up (x_a = 0, x_b = 1).
        const int shift = (1 << b) - (1 << a);
        const std::uint64_t mask = kVarMask[a] & ~kVarMask[b];
        for (auto& w : words) {
            const std::uint64_t t = (w ^ (w >> shift)) & mask;
            w ^= t ^ (t << shift);
        }
    } else if (a < 6) {
        // x_b selects the word: in each pair of words (x_b = 0, x_b = 1) the
        // x_a = 1 half of the low word trades with the x_a = 0 half of the
        // high word.
        const int shift = 1 << a;
        const std::size_t stride = std::size_t{1} << (b - 6);
        for (std::size_t base = 0; base < words.size(); base += 2 * stride)
            for (std::size_t i = base; i < base + stride; ++i) {
                const std::uint64_t t = ((words[i] >> shift) ^ words[i + stride]) & ~kVarMask[a];
                words[i + stride] ^= t;
                words[i] ^= t << shift;
            }
    } else {
        // Both select words: the words with x_a = 1, x_b = 0 trade with
        // those with x_a = 0, x_b = 1.
        const std::size_t sa = std::size_t{1} << (a - 6);
        const std::size_t sb = std::size_t{1} << (b - 6);
        for (std::size_t i = 0; i < words.size(); ++i)
            if ((i & sa) && !(i & sb)) std::swap(words[i], words[i - sa + sb]);
    }
    return r;
}

TruthTable TruthTable::permute(const std::vector<int>& perm) const {
    LLS_REQUIRE(static_cast<int>(perm.size()) == num_vars_);
    TruthTable r(num_vars_);
    // The per-minterm reference: visits every minterm with an inner loop
    // over the variables. swap_vars, the word-level kernel, is tested
    // against it.
    const std::uint64_t n = num_minterms();
    for (std::uint64_t m = 0; m < n; ++m) {
        if (!get_bit(m)) continue;
        // Minterm m assigns old variable perm[i] the bit that the new table
        // reads as variable i; build the new index from the old assignment.
        std::uint64_t nm = 0;
        for (int i = 0; i < num_vars_; ++i)
            if ((m >> perm[i]) & 1) nm |= std::uint64_t{1} << i;
        r.set_bit(nm, true);
    }
    return r;
}

TruthTable TruthTable::extend(int new_num_vars) const {
    LLS_REQUIRE(new_num_vars >= num_vars_ && new_num_vars <= kMaxVars);
    if (new_num_vars == num_vars_) return *this;
    TruthTable r(new_num_vars);
    const auto words = this->words();
    const auto out = r.mutable_words();
    if (num_vars_ < 6) {
        // Replicate the low 2^num_vars_ bits across the first word, then all
        // words.
        std::uint64_t w = words[0];
        for (int width = 1 << num_vars_; width < 64; width *= 2) w |= w << width;
        std::fill(out.begin(), out.end(), w);
    } else {
        for (std::size_t i = 0; i < out.size(); ++i) out[i] = words[i % words.size()];
    }
    r.mask_tail();
    return r;
}

TruthTable TruthTable::shrink(int new_num_vars) const {
    LLS_REQUIRE(new_num_vars >= 0 && new_num_vars <= num_vars_);
    for (int v = new_num_vars; v < num_vars_; ++v)
        LLS_REQUIRE(!has_var(v) && "cannot shrink away a support variable");
    TruthTable r(new_num_vars);
    const auto out = r.mutable_words();
    std::copy_n(words().begin(), out.size(), out.begin());
    r.mask_tail();
    return r;
}

std::string TruthTable::to_hex() const {
    const std::size_t digits =
        std::max<std::size_t>(1, (std::size_t{1} << num_vars_) / 4);
    std::string s(digits, '0');
    static const char* kHex = "0123456789abcdef";
    for (std::size_t i = 0; i < digits; ++i) {
        const int nibble = static_cast<int>((word(i / 16) >> (4 * (i % 16))) & 0xf);
        s[digits - 1 - i] = kHex[nibble];
    }
    return s;
}

std::string TruthTable::to_binary() const {
    const std::uint64_t n = num_minterms();
    std::string s(n, '0');
    for (std::uint64_t m = 0; m < n; ++m)
        if (get_bit(m)) s[n - 1 - m] = '1';
    return s;
}

std::uint64_t TruthTable::hash() const {
    std::uint64_t h = 0xcbf29ce484222325ULL ^ static_cast<std::uint64_t>(num_vars_);
    for (auto w : words()) {
        h ^= w;
        h *= 0x100000001b3ULL;
        h ^= h >> 29;
    }
    return h;
}

}  // namespace lls
