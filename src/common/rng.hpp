#pragma once

#include <cstdint>

namespace lls {

/// Deterministic xoshiro256** PRNG.
///
/// All stochastic parts of the library (simulation patterns, synthetic
/// benchmark generation, SAT decision jitter) draw from this generator so
/// that every run of the flow is reproducible from a single seed.
class Rng {
public:
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) {
        // splitmix64 seeding, as recommended by the xoshiro authors.
        auto next = [&seed]() {
            seed += 0x9e3779b97f4a7c15ULL;
            std::uint64_t z = seed;
            z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
            z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
            return z ^ (z >> 31);
        };
        for (auto& w : state_) w = next();
    }

    std::uint64_t next_u64() {
        const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
        const std::uint64_t t = state_[1] << 17;
        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl(state_[3], 45);
        return result;
    }

    /// Uniform integer in [0, bound). bound must be > 0.
    std::uint64_t next_below(std::uint64_t bound) {
        // Lemire's multiply-shift rejection method.
        std::uint64_t x = next_u64();
        __uint128_t m = static_cast<__uint128_t>(x) * bound;
        auto lo = static_cast<std::uint64_t>(m);
        if (lo < bound) {
            const std::uint64_t threshold = -bound % bound;
            while (lo < threshold) {
                x = next_u64();
                m = static_cast<__uint128_t>(x) * bound;
                lo = static_cast<std::uint64_t>(m);
            }
        }
        return static_cast<std::uint64_t>(m >> 64);
    }

    bool next_bool() { return (next_u64() >> 63) != 0; }

private:
    static std::uint64_t rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

    std::uint64_t state_[4];
};

}  // namespace lls
