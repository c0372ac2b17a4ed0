#include "sop/exact_cover.hpp"

#include <algorithm>
#include <vector>

namespace lls {

namespace {

/// Branch-and-bound state for the unate covering problem.
struct CoverSearch {
    // coverage[p] = bitset (over minterm indices) covered by prime p.
    std::vector<std::vector<std::uint64_t>> coverage;
    std::size_t num_minterms = 0;
    std::size_t words = 0;
    std::size_t budget = 0;
    std::vector<int> best;  // best known solution (prime indices)
    bool budget_exceeded = false;
    // rows[d * words, (d + 1) * words): the covered bitset at search depth
    // d, so a branch writes its child's row instead of copying a vector.
    std::vector<std::uint64_t> rows;
    std::vector<char> prime_used;  // lower_bound's scratch

    const std::uint64_t* row(std::size_t depth) const { return rows.data() + depth * words; }

    bool all_covered(const std::uint64_t* covered) const {
        for (std::size_t w = 0; w < words; ++w) {
            std::uint64_t expect = ~0ULL;
            if (w + 1 == words && num_minterms % 64) expect = (1ULL << (num_minterms % 64)) - 1;
            if ((covered[w] & expect) != expect) return false;
        }
        return true;
    }

    /// Independent-set lower bound: greedily pick uncovered minterms whose
    /// covering primes are pairwise disjoint; each needs its own prime.
    int lower_bound(const std::uint64_t* covered, const std::vector<std::vector<int>>& covers_of) {
        prime_used.assign(coverage.size(), 0);
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

    /// Searches below the covered bitset in row `depth`.
    void search(std::size_t depth, std::vector<int>& chosen,
                const std::vector<std::vector<int>>& covers_of) {
        if (budget == 0) {
            budget_exceeded = true;
            return;
        }
        --budget;
        if (all_covered(row(depth))) {
            if (best.empty() || chosen.size() < best.size()) best = chosen;
            return;
        }
        if (!best.empty() &&
            chosen.size() + static_cast<std::size_t>(lower_bound(row(depth), covers_of)) >=
                best.size())
            return;

        // Branch on the uncovered minterm with the fewest covering primes.
        int branch_minterm = -1;
        std::size_t fewest = ~std::size_t{0};
        for (std::size_t m = 0; m < num_minterms; ++m) {
            if ((row(depth)[m >> 6] >> (m & 63)) & 1) continue;
            if (covers_of[m].size() < fewest) {
                fewest = covers_of[m].size();
                branch_minterm = static_cast<int>(m);
            }
        }
        if (branch_minterm < 0) return;  // unreachable: all_covered handled it

        if (rows.size() < (depth + 2) * words) rows.resize((depth + 2) * words);
        for (const int p : covers_of[static_cast<std::size_t>(branch_minterm)]) {
            // Deeper calls may grow `rows`: index it afresh for each branch.
            for (std::size_t w = 0; w < words; ++w)
                rows[(depth + 1) * words + w] =
                    rows[depth * words + w] | coverage[static_cast<std::size_t>(p)][w];
            chosen.push_back(p);
            search(depth + 1, chosen, covers_of);
            chosen.pop_back();
            if (budget_exceeded) return;
        }
    }
};

}  // namespace

std::optional<Sop> exact_minimum_sop(const TruthTable& f, const TruthTable& dc,
                                     std::size_t budget) {
    LLS_REQUIRE(f.num_vars() == dc.num_vars());
    const int n = f.num_vars();
    const TruthTable on = f & ~dc;
    if (on.is_const0()) return Sop(n);
    if ((f | dc).is_const1()) {
        Sop s(n);
        s.add_cube(Cube::tautology());
        return s;
    }

    const std::vector<Cube> primes = prime_implicants(on, dc);
    // Indices of care on-set minterms.
    std::vector<std::uint32_t> minterms;
    for (std::uint64_t m = 0; m < on.num_minterms(); ++m)
        if (on.get_bit(m)) minterms.push_back(static_cast<std::uint32_t>(m));

    CoverSearch cs;
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

    // Essential primes: a minterm covered by exactly one prime forces it.
    // Their union is the covered row of search depth 0.
    cs.rows.assign(cs.words, 0);
    std::vector<int> chosen;
    std::vector<char> taken(primes.size(), 0);
    for (std::size_t m = 0; m < minterms.size(); ++m) {
        if (covers_of[m].size() != 1) continue;
        const int p = covers_of[m][0];
        if (taken[static_cast<std::size_t>(p)]) continue;
        taken[static_cast<std::size_t>(p)] = 1;
        chosen.push_back(p);
        for (std::size_t w = 0; w < cs.words; ++w)
            cs.rows[w] |= cs.coverage[static_cast<std::size_t>(p)][w];
    }

    cs.search(0, chosen, covers_of);
    // A truncated search may hold a feasible but unproven cover; "exact"
    // semantics require declining in that case.
    if (cs.budget_exceeded || cs.best.empty()) return std::nullopt;

    Sop result(n);
    for (const int p : cs.best) result.add_cube(primes[static_cast<std::size_t>(p)]);
    return result;
}

}  // namespace lls
