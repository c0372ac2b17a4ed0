#include "sop/exact_cover.hpp"

#include <gtest/gtest.h>

#include <set>

#include "common/rng.hpp"

namespace lls {
namespace {

TruthTable random_tt(int num_vars, Rng& rng) {
    TruthTable tt(num_vars);
    for (std::uint64_t m = 0; m < tt.num_minterms(); ++m) tt.set_bit(m, rng.next_bool());
    return tt;
}

/// Brute-force check that no cover of the same prime set with fewer cubes
/// exists (subset enumeration; only usable for small prime counts).
bool is_minimum_cover(const TruthTable& f, const TruthTable& dc, std::size_t cubes) {
    if (cubes == 0) return true;
    const auto primes = prime_implicants(f & ~dc, dc);
    if (primes.size() > 18) return true;  // enumeration too big; trust B&B
    const TruthTable on = f & ~dc;
    for (std::uint32_t subset = 0; subset < (1u << primes.size()); ++subset) {
        if (static_cast<std::size_t>(__builtin_popcount(subset)) >= cubes) continue;
        Sop s(f.num_vars());
        for (std::size_t p = 0; p < primes.size(); ++p)
            if ((subset >> p) & 1) s.add_cube(primes[p]);
        if (on.implies(s.to_truth_table())) return false;  // smaller cover exists
    }
    return true;
}

TEST(ExactCover, Constants) {
    const auto zero = exact_minimum_sop(TruthTable::constant(4, false));
    ASSERT_TRUE(zero.has_value());
    EXPECT_TRUE(zero->empty());
    const auto one = exact_minimum_sop(TruthTable::constant(4, true));
    ASSERT_TRUE(one.has_value());
    EXPECT_EQ(one->num_cubes(), 1u);
}

TEST(ExactCover, KnownMinima) {
    // xor2 needs exactly 2 cubes; majority-of-3 needs exactly 3.
    TruthTable x(2);
    x.set_bit(1, true);
    x.set_bit(2, true);
    ASSERT_TRUE(exact_minimum_sop(x).has_value());
    EXPECT_EQ(exact_minimum_sop(x)->num_cubes(), 2u);

    TruthTable maj(3);
    for (std::uint64_t m = 0; m < 8; ++m)
        maj.set_bit(m, __builtin_popcountll(m) >= 2);
    ASSERT_TRUE(exact_minimum_sop(maj).has_value());
    EXPECT_EQ(exact_minimum_sop(maj)->num_cubes(), 3u);
}

TEST(ExactCover, CoverIsExactAndMinimal) {
    Rng rng(61);
    for (int n = 2; n <= 5; ++n) {
        for (int trial = 0; trial < 12; ++trial) {
            const TruthTable f = random_tt(n, rng);
            const auto cover = exact_minimum_sop(f);
            ASSERT_TRUE(cover.has_value()) << "n=" << n;
            EXPECT_EQ(cover->to_truth_table(), f);
            EXPECT_TRUE(is_minimum_cover(f, TruthTable::constant(n, false), cover->num_cubes()))
                << "n=" << n << " cover " << cover->to_string();
        }
    }
}

TEST(ExactCover, UsesDontCares) {
    Rng rng(62);
    for (int trial = 0; trial < 12; ++trial) {
        const TruthTable f = random_tt(4, rng);
        const TruthTable dc = random_tt(4, rng) & ~f;
        const auto cover = exact_minimum_sop(f, dc);
        ASSERT_TRUE(cover.has_value());
        const TruthTable tt = cover->to_truth_table();
        EXPECT_TRUE(f.implies(tt));
        EXPECT_TRUE(tt.implies(f | dc));
        // Never worse than the exact cover without don't-cares.
        const auto strict = exact_minimum_sop(f);
        ASSERT_TRUE(strict.has_value());
        EXPECT_LE(cover->num_cubes(), strict->num_cubes());
    }
}

TEST(ExactCover, NeverBeatenByHeuristic) {
    Rng rng(63);
    for (int n = 2; n <= 6; ++n) {
        for (int trial = 0; trial < 8; ++trial) {
            const TruthTable f = random_tt(n, rng);
            const auto exact = exact_minimum_sop(f);
            ASSERT_TRUE(exact.has_value());
            // minimum_sop now routes through the exact cover for n <= 6.
            EXPECT_EQ(minimum_sop(f).num_cubes(), exact->num_cubes());
        }
    }
}

TEST(ExactCover, HandlesCyclicCore) {
    // The classic cyclic covering core: f = sum m(0,1,2,5,6,7) has six
    // primes, no essentials, and a minimum cover of exactly 3 cubes.
    TruthTable f(3);
    for (const std::uint64_t m : {1, 2, 3, 4, 5, 6}) f.set_bit(m, true);
    const auto cover = exact_minimum_sop(f);
    ASSERT_TRUE(cover.has_value());
    EXPECT_EQ(cover->num_cubes(), 3u);
    EXPECT_EQ(cover->to_truth_table(), f);
}

TEST(ExactCover, DeclinesOnTinyBudget) {
    // With no essential primes and a zero search budget the branch-and-bound
    // cannot even certify a first solution.
    TruthTable f(3);
    for (const std::uint64_t m : {1, 2, 3, 4, 5, 6}) f.set_bit(m, true);
    EXPECT_FALSE(exact_minimum_sop(f, TruthTable::constant(3, false), /*budget=*/1).has_value());
}

// ---------------------------------------------------------------------------
// The minimum SOP as it was computed with a std::set per Quine-McCluskey
// level and a copied bitset per search branch, kept as the reference of
// `ExactCover.MinimumSopIsPinned`: the scratch-buffer search must choose
// the same primes in the same order.

std::vector<Cube> reference_prime_implicants(const TruthTable& f, const TruthTable& dc) {
    const int n = f.num_vars();
    const TruthTable care_on = f | dc;
    std::set<std::pair<std::uint32_t, std::uint32_t>> current;
    for (std::uint64_t m = 0; m < (std::uint64_t{1} << n); ++m)
        if (care_on.get_bit(m)) {
            const Cube c = Cube::minterm(static_cast<std::uint32_t>(m), n);
            current.insert({c.pos, c.neg});
        }
    std::set<std::pair<std::uint32_t, std::uint32_t>> primes_set;
    while (!current.empty()) {
        std::vector<Cube> cubes;
        for (const auto& [pos, neg] : current) cubes.emplace_back(pos, neg);
        std::vector<char> merged(cubes.size(), 0);
        std::set<std::pair<std::uint32_t, std::uint32_t>> next;
        for (std::size_t i = 0; i < cubes.size(); ++i) {
            for (std::size_t j = i + 1; j < cubes.size(); ++j) {
                if ((cubes[i].pos | cubes[i].neg) != (cubes[j].pos | cubes[j].neg)) continue;
                const std::uint32_t diff = cubes[i].pos ^ cubes[j].pos;
                if (diff == 0 || (diff & (diff - 1)) != 0) continue;
                if ((cubes[i].neg ^ cubes[j].neg) != diff) continue;
                merged[i] = merged[j] = 1;
                next.insert({cubes[i].pos & ~diff, cubes[i].neg & ~diff});
            }
        }
        for (std::size_t i = 0; i < cubes.size(); ++i)
            if (!merged[i]) primes_set.insert({cubes[i].pos, cubes[i].neg});
        current = std::move(next);
    }
    std::vector<Cube> primes;
    for (const auto& [pos, neg] : primes_set) {
        const Cube c(pos, neg);
        bool useful = false;
        for (std::uint64_t m = 0; m < (std::uint64_t{1} << n) && !useful; ++m)
            if (f.get_bit(m) && c.contains_minterm(static_cast<std::uint32_t>(m))) useful = true;
        if (useful) primes.push_back(c);
    }
    return primes;
}

struct ReferenceCoverSearch {
    std::vector<std::vector<std::uint64_t>> coverage;
    std::size_t num_minterms = 0;
    std::size_t words = 0;
    std::size_t budget = 0;
    std::vector<int> best;
    bool budget_exceeded = false;

    bool all_covered(const std::vector<std::uint64_t>& covered) const {
        for (std::size_t w = 0; w < words; ++w) {
            std::uint64_t expect = ~0ULL;
            if (w + 1 == words && num_minterms % 64) expect = (1ULL << (num_minterms % 64)) - 1;
            if ((covered[w] & expect) != expect) return false;
        }
        return true;
    }

    int lower_bound(const std::vector<std::uint64_t>& covered,
                    const std::vector<std::vector<int>>& covers_of) const {
        std::vector<char> prime_used(coverage.size(), 0);
        int bound = 0;
        for (std::size_t m = 0; m < num_minterms; ++m) {
            if ((covered[m >> 6] >> (m & 63)) & 1) continue;
            bool independent = true;
            for (const int p : covers_of[m])
                if (prime_used[static_cast<std::size_t>(p)]) {
                    independent = false;
                    break;
                }
            if (!independent) continue;
            ++bound;
            for (const int p : covers_of[m]) prime_used[static_cast<std::size_t>(p)] = 1;
        }
        return bound;
    }

    void search(std::vector<std::uint64_t>& covered, std::vector<int>& chosen,
                const std::vector<std::vector<int>>& covers_of) {
        if (budget == 0) {
            budget_exceeded = true;
            return;
        }
        --budget;
        if (all_covered(covered)) {
            if (best.empty() || chosen.size() < best.size()) best = chosen;
            return;
        }
        if (!best.empty() &&
            chosen.size() + static_cast<std::size_t>(lower_bound(covered, covers_of)) >=
                best.size())
            return;
        int branch_minterm = -1;
        std::size_t fewest = ~std::size_t{0};
        for (std::size_t m = 0; m < num_minterms; ++m) {
            if ((covered[m >> 6] >> (m & 63)) & 1) continue;
            if (covers_of[m].size() < fewest) {
                fewest = covers_of[m].size();
                branch_minterm = static_cast<int>(m);
            }
        }
        if (branch_minterm < 0) return;
        for (const int p : covers_of[static_cast<std::size_t>(branch_minterm)]) {
            std::vector<std::uint64_t> next = covered;
            for (std::size_t w = 0; w < words; ++w)
                next[w] |= coverage[static_cast<std::size_t>(p)][w];
            chosen.push_back(p);
            search(next, chosen, covers_of);
            chosen.pop_back();
            if (budget_exceeded) return;
        }
    }
};

std::optional<Sop> reference_exact_minimum_sop(const TruthTable& f, const TruthTable& dc,
                                               std::size_t budget) {
    const int n = f.num_vars();
    const TruthTable on = f & ~dc;
    if (on.is_const0()) return Sop(n);
    if ((f | dc).is_const1()) {
        Sop s(n);
        s.add_cube(Cube::tautology());
        return s;
    }
    const std::vector<Cube> primes = reference_prime_implicants(on, dc);
    std::vector<std::uint32_t> minterms;
    for (std::uint64_t m = 0; m < on.num_minterms(); ++m)
        if (on.get_bit(m)) minterms.push_back(static_cast<std::uint32_t>(m));
    ReferenceCoverSearch cs;
    cs.num_minterms = minterms.size();
    cs.words = (minterms.size() + 63) / 64;
    cs.budget = budget;
    cs.coverage.assign(primes.size(), std::vector<std::uint64_t>(cs.words, 0));
    std::vector<std::vector<int>> covers_of(minterms.size());
    for (std::size_t p = 0; p < primes.size(); ++p)
        for (std::size_t m = 0; m < minterms.size(); ++m)
            if (primes[p].contains_minterm(minterms[m])) {
                cs.coverage[p][m >> 6] |= 1ULL << (m & 63);
                covers_of[m].push_back(static_cast<int>(p));
            }
    std::vector<std::uint64_t> covered(cs.words, 0);
    std::vector<int> chosen;
    std::vector<char> taken(primes.size(), 0);
    for (std::size_t m = 0; m < minterms.size(); ++m) {
        if (covers_of[m].size() != 1) continue;
        const int p = covers_of[m][0];
        if (taken[static_cast<std::size_t>(p)]) continue;
        taken[static_cast<std::size_t>(p)] = 1;
        chosen.push_back(p);
        for (std::size_t w = 0; w < cs.words; ++w)
            covered[w] |= cs.coverage[static_cast<std::size_t>(p)][w];
    }
    cs.search(covered, chosen, covers_of);
    if (cs.budget_exceeded || cs.best.empty()) return std::nullopt;
    Sop result(n);
    for (const int p : cs.best) result.add_cube(primes[static_cast<std::size_t>(p)]);
    return result;
}

Sop reference_minimum_sop(const TruthTable& f, const TruthTable& dc) {
    const int n = f.num_vars();
    if (f.is_const0()) return Sop(n);
    if ((f | dc).is_const1() && !f.is_const0()) {
        Sop s(n);
        s.add_cube(Cube::tautology());
        return s;
    }
    if (n <= 6) {
        if (auto exact = reference_exact_minimum_sop(f, dc, /*budget=*/4000))
            return std::move(*exact);
    }
    Sop cover = isop(f & ~dc, f | dc);
    cover.remove_contained_cubes();
    const TruthTable on = f & ~dc;
    bool removed = true;
    while (removed) {
        removed = false;
        for (std::size_t i = 0; i < cover.num_cubes(); ++i) {
            Sop rest(n);
            for (std::size_t j = 0; j < cover.num_cubes(); ++j)
                if (j != i) rest.add_cube(cover.cubes()[j]);
            if (on.implies(rest.to_truth_table())) {
                cover = std::move(rest);
                removed = true;
                break;
            }
        }
    }
    return cover;
}

/// Asserts that minimum_sop and prime_implicants match the references
/// cube for cube on the on-set `f` with don't-cares `dc`.
void expect_pinned(const TruthTable& f, const TruthTable& dc) {
    const Sop actual = minimum_sop(f, dc);
    const Sop expected = reference_minimum_sop(f, dc);
    ASSERT_EQ(actual.cubes(), expected.cubes())
        << "f " << f.to_hex() << " dc " << dc.to_hex() << ": " << actual.to_string() << " vs "
        << expected.to_string();
    ASSERT_EQ(prime_implicants(f & ~dc, dc), reference_prime_implicants(f & ~dc, dc))
        << "f " << f.to_hex() << " dc " << dc.to_hex();
}

TEST(ExactCover, MinimumSopIsPinned) {
    // Every on/off/don't-care assignment of three variables (3^8 = 6,561).
    for (int code = 0; code < 6561; ++code) {
        TruthTable f(3), dc(3);
        for (int m = 0, c = code; m < 8; ++m, c /= 3) {
            if (c % 3 == 1) f.set_bit(static_cast<std::uint64_t>(m), true);
            if (c % 3 == 2) dc.set_bit(static_cast<std::uint64_t>(m), true);
        }
        expect_pinned(f, dc);
    }
    // 2,000 random 4-6-variable functions, about an eighth of their minterms don't-cares.
    Rng rng(64);
    for (int trial = 0; trial < 2000; ++trial) {
        const int n = 4 + static_cast<int>(rng.next_below(3));
        const TruthTable f = random_tt(n, rng);
        const TruthTable dc = random_tt(n, rng) & random_tt(n, rng) & ~f;
        expect_pinned(f, dc);
    }
}

}  // namespace
}  // namespace lls
