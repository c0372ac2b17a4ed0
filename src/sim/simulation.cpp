#include "sim/simulation.hpp"

#include <algorithm>
#include <bit>

#include "common/bitops.hpp"

namespace lls {

SimPatterns SimPatterns::exhaustive(std::size_t num_pis) {
    LLS_REQUIRE(num_pis <= kMaxExhaustivePis);
    SimPatterns p;
    p.num_patterns_ = std::size_t{1} << num_pis;
    p.words_ = words_for_bits(p.num_patterns_);
    p.exhaustive_ = true;
    p.pi_bits_.resize(num_pis);
    for (std::size_t i = 0; i < num_pis; ++i) {
        auto& bits = p.pi_bits_[i];
        bits.assign(p.words_, 0);
        for (std::size_t m = 0; m < p.num_patterns_; ++m)
            if ((m >> i) & 1) bits[m >> 6] |= 1ULL << (m & 63);
    }
    return p;
}

SimPatterns SimPatterns::random(std::size_t num_pis, std::size_t num_patterns, Rng& rng) {
    LLS_REQUIRE(num_patterns >= 64);
    SimPatterns p;
    p.num_patterns_ = num_patterns;
    p.words_ = words_for_bits(num_patterns);
    p.exhaustive_ = false;
    p.pi_bits_.resize(num_pis);
    const std::uint64_t tail = tail_mask(num_patterns);
    for (std::size_t i = 0; i < num_pis; ++i) {
        auto& bits = p.pi_bits_[i];
        bits.resize(p.words_);
        for (auto& w : bits) w = rng.next_u64();
        bits.back() &= tail;
    }
    return p;
}

std::vector<Signature> simulate(const Aig& aig, const SimPatterns& patterns) {
    LLS_REQUIRE(patterns.num_pis() == aig.num_pis());
    const std::size_t words = patterns.num_words();
    std::vector<Signature> sigs(aig.num_nodes(), Signature(words, 0));
    for (std::size_t i = 0; i < aig.num_pis(); ++i) sigs[aig.pi(i)] = patterns.pi_bits(i);
    const std::uint64_t tail = tail_mask(patterns.num_patterns());
    for (std::uint32_t id = 1; id < aig.num_nodes(); ++id) {
        if (!aig.is_and(id)) continue;
        const auto& n = aig.node(id);
        const auto& s0 = sigs[n.fanin0.node()];
        const auto& s1 = sigs[n.fanin1.node()];
        auto& out = sigs[id];
        const std::uint64_t c0 = n.fanin0.complemented() ? ~0ULL : 0ULL;
        const std::uint64_t c1 = n.fanin1.complemented() ? ~0ULL : 0ULL;
        for (std::size_t w = 0; w < words; ++w) out[w] = (s0[w] ^ c0) & (s1[w] ^ c1);
        out.back() &= tail;
    }
    return sigs;
}

Signature literal_signature(const Aig& aig, AigLit lit, const std::vector<Signature>& node_sigs,
                            std::size_t num_patterns) {
    (void)aig;
    Signature s = node_sigs[lit.node()];
    if (lit.complemented()) {
        for (auto& w : s) w = ~w;
        s.back() &= tail_mask(num_patterns);
    }
    return s;
}

TimingSimResult timing_simulate(const Aig& aig, const SimPatterns& patterns,
                                const std::vector<Signature>& node_sigs) {
    const std::size_t num_patterns = patterns.num_patterns();
    TimingSimResult result;
    result.po_arrival.assign(aig.num_pos(), std::vector<std::int32_t>(num_patterns, 0));

    // Bit-sliced arrivals, one 64-pattern word at a time: node id's arrival
    // under the word's patterns is the number whose bit b is the word
    // arrival[id * planes + b]. An arrival never exceeds its node's level,
    // so bit_width(max level) planes hold every one. PIs and the constant
    // arrive at 0 and are never written.
    const auto level = aig.compute_levels();
    const std::size_t planes =
        std::bit_width(static_cast<unsigned>(*std::max_element(level.begin(), level.end())));
    std::vector<std::uint64_t> arrival(aig.num_nodes() * planes, 0);

    for (std::size_t w = 0; w < patterns.num_words(); ++w) {
        for (std::uint32_t id = 1; id < aig.num_nodes(); ++id) {
            if (!aig.is_and(id)) continue;
            const auto& n = aig.node(id);
            const std::uint64_t v0 =
                node_sigs[n.fanin0.node()][w] ^ (n.fanin0.complemented() ? ~0ULL : 0ULL);
            const std::uint64_t v1 =
                node_sigs[n.fanin1.node()][w] ^ (n.fanin1.complemented() ? ~0ULL : 0ULL);
            const std::uint64_t* a0 = arrival.data() + n.fanin0.node() * planes;
            const std::uint64_t* a1 = arrival.data() + n.fanin1.node() * planes;
            // a0 < a1 per pattern, compared from the most significant plane.
            std::uint64_t lt = 0;
            std::uint64_t eq = ~0ULL;
            for (std::size_t b = planes; b-- > 0;) {
                lt |= eq & ~a0[b] & a1[b];
                eq &= ~(a0[b] ^ a1[b]);
            }
            // The gate takes fanin 1's arrival where both fanins are 1 and it
            // is the later, where both are 0 and it is not the later (the
            // earliest controlling 0 decides), or where it alone is 0.
            const std::uint64_t take1 = (v0 & v1 & lt) | (~v0 & ~v1 & ~lt) | (v0 & ~v1);
            // Select, then add one gate delay.
            std::uint64_t* a = arrival.data() + id * planes;
            std::uint64_t carry = ~0ULL;
            for (std::size_t b = 0; b < planes; ++b) {
                const std::uint64_t selected = (take1 & a1[b]) | (~take1 & a0[b]);
                a[b] = selected ^ carry;
                carry &= selected;
            }
            LLS_DCHECK(carry == 0);  // the arrival still fits: it is at most the level
        }
        const std::size_t base = w * 64;
        const std::size_t count = std::min<std::size_t>(64, num_patterns - base);
        for (std::size_t o = 0; o < aig.num_pos(); ++o) {
            const std::uint64_t* a = arrival.data() + aig.po(o).node() * planes;
            std::int32_t* out = result.po_arrival[o].data() + base;
            for (std::size_t b = 0; b < planes; ++b)
                for (std::size_t p = 0; p < count; ++p)
                    out[p] |= static_cast<std::int32_t>((a[b] >> p) & 1) << b;
        }
    }
    for (const auto& po : result.po_arrival)
        for (const std::int32_t a : po) result.max_arrival = std::max(result.max_arrival, a);
    return result;
}

}  // namespace lls
