#include "sop/sop.hpp"

#include "sop/exact_cover.hpp"

#include <algorithm>
#include <utility>

namespace lls {

int Sop::num_literals() const {
    int n = 0;
    for (const auto& c : cubes_) n += c.num_literals();
    return n;
}

bool Sop::evaluate(std::uint32_t minterm) const {
    return std::any_of(cubes_.begin(), cubes_.end(),
                       [&](const Cube& c) { return c.contains_minterm(minterm); });
}

TruthTable Sop::to_truth_table() const {
    TruthTable tt(num_vars_);
    for (const auto& c : cubes_) {
        TruthTable cube_tt = TruthTable::constant(num_vars_, true);
        for (int v = 0; v < num_vars_; ++v) {
            if ((c.pos >> v) & 1) cube_tt &= TruthTable::variable(num_vars_, v);
            if ((c.neg >> v) & 1) cube_tt &= ~TruthTable::variable(num_vars_, v);
        }
        tt |= cube_tt;
    }
    return tt;
}

void Sop::remove_contained_cubes() {
    std::vector<Cube> kept;
    for (std::size_t i = 0; i < cubes_.size(); ++i) {
        bool contained = false;
        for (std::size_t j = 0; j < cubes_.size() && !contained; ++j) {
            if (i == j) continue;
            // Break ties by index so that two identical cubes keep exactly one.
            if (cubes_[j].contains_cube(cubes_[i]) &&
                (!cubes_[i].contains_cube(cubes_[j]) || j < i))
                contained = true;
        }
        if (!contained) kept.push_back(cubes_[i]);
    }
    cubes_ = std::move(kept);
}

std::string Sop::to_string() const {
    if (cubes_.empty()) return "0";
    std::string s;
    for (std::size_t i = 0; i < cubes_.size(); ++i) {
        if (i) s += " + ";
        if (cubes_[i].num_literals() == 0) {
            s += "1";
            continue;
        }
        bool first = true;
        for (int v = 0; v < num_vars_; ++v) {
            if (!cubes_[i].has_literal(v)) continue;
            if (!first) s += "*";
            first = false;
            if (!cubes_[i].literal_polarity(v)) s += "!";
            s += "x" + std::to_string(v);
        }
    }
    return s;
}

namespace {

// Minato-Morreale ISOP on truth tables. Appends the cubes of an
// irredundant SOP g with lower <= g <= upper to `cubes` and stores the
// truth table of g in `cover`. The cubes come in a fixed order: those of
// the x_var = 0 branch (given literal !x_var), then those of the x_var = 1
// branch (given x_var), then those of the remainder.
void isop_rec(const TruthTable& lower, const TruthTable& upper, int top_var, TruthTable* cover,
              std::vector<Cube>& cubes) {
    LLS_DCHECK(lower.implies(upper));
    const int n = lower.num_vars();
    if (lower.is_const0()) {
        *cover = TruthTable::constant(n, false);
        return;
    }
    if (upper.is_const1()) {
        *cover = TruthTable::constant(n, true);
        cubes.push_back(Cube::tautology());
        return;
    }
    // Find the top-most variable in the support of lower or upper.
    int var = top_var;
    while (var >= 0 && !lower.has_var(var) && !upper.has_var(var)) --var;
    LLS_ENSURE(var >= 0 && "non-constant function must have support");

    const TruthTable l0 = lower.cofactor(var, false);
    const TruthTable l1 = lower.cofactor(var, true);
    const TruthTable u0 = upper.cofactor(var, false);
    const TruthTable u1 = upper.cofactor(var, true);

    // Cubes that must contain literal !x_var / x_var.
    TruthTable cover0, cover1;
    const std::size_t begin0 = cubes.size();
    isop_rec(l0 & ~u1, u0, var - 1, &cover0, cubes);
    const std::size_t begin1 = cubes.size();
    for (std::size_t i = begin0; i < begin1; ++i) cubes[i] = cubes[i].with_literal(var, false);
    isop_rec(l1 & ~u0, u1, var - 1, &cover1, cubes);
    for (std::size_t i = begin1; i < cubes.size(); ++i) cubes[i] = cubes[i].with_literal(var, true);

    // Remaining minterms to cover, independent of x_var.
    const TruthTable l_rest = (l0 & ~cover0) | (l1 & ~cover1);
    TruthTable cover_rest;
    isop_rec(l_rest, u0 & u1, var - 1, &cover_rest, cubes);

    const TruthTable xv = TruthTable::variable(n, var);
    *cover = (~xv & cover0) | (xv & cover1) | cover_rest;
}

}  // namespace

Sop isop(const TruthTable& lower, const TruthTable& upper) {
    LLS_REQUIRE(lower.num_vars() == upper.num_vars());
    LLS_REQUIRE(lower.implies(upper));
    // One cube buffer per thread, reused across calls; the result gets an
    // exactly sized copy.
    thread_local std::vector<Cube> cubes;
    cubes.clear();
    TruthTable cover;
    isop_rec(lower, upper, lower.num_vars() - 1, &cover, cubes);
    LLS_ENSURE(lower.implies(cover) && cover.implies(upper));
    return Sop(lower.num_vars(), std::vector<Cube>(cubes.begin(), cubes.end()));
}

std::vector<Cube> prime_implicants(const TruthTable& f, const TruthTable& dc) {
    LLS_REQUIRE(f.num_vars() == dc.num_vars());
    LLS_REQUIRE(f.num_vars() <= 12 && "prime generation is exponential; cap the fan-in");
    const int n = f.num_vars();
    const TruthTable care_on = f | dc;

    // Quine-McCluskey: start from all care minterm cubes, repeatedly merge
    // pairs that differ in exactly one variable's polarity; implicants that
    // never merge are prime. This enumerates *all* primes, which exact
    // covering requires (a greedy per-minterm expansion misses some). Each
    // level is a sorted, duplicate-free vector of (pos, neg) pairs.
    using Implicant = std::pair<std::uint32_t, std::uint32_t>;
    std::vector<Implicant> current, next, primes_found;
    for (std::uint64_t m = 0; m < (std::uint64_t{1} << n); ++m)
        if (care_on.get_bit(m)) {
            const Cube c = Cube::minterm(static_cast<std::uint32_t>(m), n);
            current.emplace_back(c.pos, c.neg);  // ascending m: ascending pos
        }

    std::vector<char> merged;
    while (!current.empty()) {
        merged.assign(current.size(), 0);
        next.clear();
        for (std::size_t i = 0; i < current.size(); ++i) {
            const auto [pos_i, neg_i] = current[i];
            for (std::size_t j = i + 1; j < current.size(); ++j) {
                const auto [pos_j, neg_j] = current[j];
                // Mergeable: same variable support, identical literals
                // except exactly one variable with opposite polarity.
                if ((pos_i | neg_i) != (pos_j | neg_j)) continue;
                const std::uint32_t diff = pos_i ^ pos_j;
                if (diff == 0 || (diff & (diff - 1)) != 0) continue;
                if ((neg_i ^ neg_j) != diff) continue;
                merged[i] = merged[j] = 1;
                next.emplace_back(pos_i & ~diff, neg_i & ~diff);
            }
        }
        for (std::size_t i = 0; i < current.size(); ++i)
            if (!merged[i]) primes_found.push_back(current[i]);
        std::sort(next.begin(), next.end());
        next.erase(std::unique(next.begin(), next.end()), next.end());
        current.swap(next);
    }
    // Levels differ in literal count, so no prime repeats across them.
    std::sort(primes_found.begin(), primes_found.end());

    // Keep only primes that cover at least one true on-set minterm.
    std::vector<Cube> primes;
    for (const auto& [pos, neg] : primes_found) {
        const Cube c(pos, neg);
        bool useful = false;
        for (std::uint64_t m = 0; m < (std::uint64_t{1} << n) && !useful; ++m)
            if (f.get_bit(m) && c.contains_minterm(static_cast<std::uint32_t>(m))) useful = true;
        if (useful) primes.push_back(c);
    }
    return primes;
}

Sop minimum_sop(const TruthTable& f, const TruthTable& dc) {
    const int n = f.num_vars();
    if (f.is_const0()) return Sop(n);
    if ((f | dc).is_const1() && !f.is_const0()) {
        // Tautology is allowed; if the care on-set fills everything outside
        // dc the single universal cube is the minimum cover.
        Sop s(n);
        s.add_cube(Cube::tautology());
        return s;
    }

    // Exact Quine-McCluskey covering for the small functions the synthesis
    // algorithms actually manipulate (it is what the paper's "minimum SOP"
    // means); the branch-and-bound declines on a budget and we fall back to
    // the heuristic below.
    if (n <= 6) {
        if (auto exact = exact_minimum_sop(f, dc, /*budget=*/4000)) return std::move(*exact);
    }

    // ISOP seeded cover, then greedy irredundant pass. For larger functions
    // (<= ~12 inputs) this is close to minimal and orders of magnitude
    // cheaper than exact covering.
    Sop cover = isop(f & ~dc, f | dc);
    cover.remove_contained_cubes();

    // Greedy removal of redundant cubes (those whose on-set minterms are all
    // covered by the rest).
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

}  // namespace lls
