#include "lookahead/simplify.hpp"

#include <algorithm>
#include <bit>

#include "common/bitops.hpp"

namespace lls {

std::uint64_t cube_weight(const Network& net, std::uint32_t node, const Cube& cube,
                          const std::vector<Signature>& sigs, const Signature& target) {
    const auto& fanins = net.fanins(node);
    std::uint64_t weight = 0;
    for (std::size_t w = 0; w < target.size(); ++w) {
        std::uint64_t match = target[w];
        if (!match) continue;
        for (std::size_t f = 0; f < fanins.size() && match; ++f) {
            if (!cube.has_literal(static_cast<int>(f))) continue;
            const std::uint64_t v = sigs[fanins[f]][w];
            match &= cube.literal_polarity(static_cast<int>(f)) ? v : ~v;
        }
        weight += static_cast<std::uint64_t>(popcount64(match));
    }
    return weight;
}

namespace {

TruthTable cube_truth_table(const Cube& cube, int num_vars) {
    Sop s(num_vars);
    s.add_cube(cube);
    return s.to_truth_table();
}

struct WeightedCube {
    Cube cube;
    bool on_set;  ///< true if from the on-set SOP
    std::uint64_t weight;
};

}  // namespace

std::optional<SimplifyOutcome> simplify_node(const Network& net, std::uint32_t node,
                                             const std::vector<int>& levels,
                                             const std::vector<Signature>& sigs,
                                             const Signature& spcf, int window_budget,
                                             const RunContext& ctx) {
    if (ctx.cost != nullptr) ++ctx.cost->decompositions;
    if (!net.is_internal(node)) return std::nullopt;
    const TruthTable& old_tt = net.function(node);
    const int k = old_tt.num_vars();

    std::vector<int> fl;
    fl.reserve(net.fanins(node).size());
    for (const auto f : net.fanins(node)) fl.push_back(levels[f]);

    const Sop& s_on = net.on_sop(node);
    const Sop& s_off = net.off_sop(node);
    const int l_j = Network::sop_level_of(s_on, s_off, fl);
    if (l_j == 0) return std::nullopt;  // nothing to gain

    auto weigh = [&](const Sop& sop, bool on_set) {
        std::vector<WeightedCube> result;
        result.reserve(sop.num_cubes());
        for (const auto& c : sop.cubes())
            result.push_back(WeightedCube{c, on_set, cube_weight(net, node, c, sigs, spcf)});
        return result;
    };
    std::vector<WeightedCube> on_cubes = weigh(s_on, true);
    std::vector<WeightedCube> off_cubes = weigh(s_off, false);

    const bool off_all_zero = std::all_of(off_cubes.begin(), off_cubes.end(),
                                          [](const WeightedCube& w) { return w.weight == 0; });
    const bool on_all_zero = std::all_of(on_cubes.begin(), on_cubes.end(),
                                         [](const WeightedCube& w) { return w.weight == 0; });
    if (off_all_zero && on_all_zero) return std::nullopt;  // no SPCF activity here

    auto by_weight_desc = [](const WeightedCube& a, const WeightedCube& b) {
        return a.weight > b.weight;
    };

    TruthTable new_tt(k);
    if (off_all_zero || on_all_zero) {
        // One-sided case of Fig. 1: all timing-critical activity lies in one
        // phase. Start from the constant of the *other* phase and re-admit
        // cubes of the active phase in decreasing weight order, as long as
        // the node's level stays below the original.
        const bool grow_on_set = off_all_zero;  // critical minterms are in the on-set
        std::vector<WeightedCube>& order = grow_on_set ? on_cubes : off_cubes;
        std::sort(order.begin(), order.end(), by_weight_desc);

        TruthTable accepted(k);  // union of accepted cubes of the active phase
        for (const auto& wc : order) {
            if (wc.weight == 0) continue;
            const TruthTable cand = accepted | cube_truth_table(wc.cube, k);
            const TruthTable cand_fn = grow_on_set ? cand : ~cand;
            if (Network::sop_level_of(cand_fn, fl) < l_j) accepted = cand;
        }
        new_tt = grow_on_set ? accepted : ~accepted;
    } else {
        // Two-sided case: both phases carry critical minterms. Start from an
        // unconstrained function and pin cube regions to their original
        // values in decreasing weight order, filling the rest by the
        // cheapest completion between the accumulated bounds.
        std::vector<WeightedCube> order;
        order.insert(order.end(), on_cubes.begin(), on_cubes.end());
        order.insert(order.end(), off_cubes.begin(), off_cubes.end());
        std::sort(order.begin(), order.end(), by_weight_desc);

        TruthTable lower(k);                             // must-be-1 region
        TruthTable upper = TruthTable::constant(k, true);  // may-be-1 region
        auto completion = [&](const TruthTable& lo, const TruthTable& up) {
            return minimum_sop(lo, up & ~lo).to_truth_table();
        };
        new_tt = completion(lower, upper);  // constant 0
        for (const auto& wc : order) {
            if (wc.weight == 0) continue;
            TruthTable lo = lower;
            TruthTable up = upper;
            const TruthTable region = cube_truth_table(wc.cube, k);
            if (wc.on_set)
                lo |= region;
            else
                up &= ~region;
            if (!lo.implies(up)) continue;  // overlapping cubes pinned both ways
            const TruthTable cand = completion(lo, up);
            if (Network::sop_level_of(cand, fl) < l_j) {
                lower = lo;
                upper = up;
                new_tt = cand;
            }
        }
    }

    if (new_tt == old_tt) return std::nullopt;
    const int new_level = Network::sop_level_of(new_tt, fl);
    if (new_level >= l_j) return std::nullopt;

    // Agreement window, under-approximated: universally quantify out every
    // fanin that is itself at (or beyond) the window budget, so Sigma_1 does
    // not re-introduce the deep signals the simplification just removed.
    TruthTable window = ~(new_tt ^ old_tt);
    for (int v = 0; v < k; ++v) {
        if (fl[static_cast<std::size_t>(v)] < window_budget) continue;
        if (!window.has_var(v)) continue;
        window = window.cofactor(v, false) & window.cofactor(v, true);
    }
    if (window.is_const0()) return std::nullopt;
    if (Network::sop_level_of(window, fl) > window_budget) return std::nullopt;

    // The window must retain at least part of the timing-critical input
    // space, otherwise the decomposition cannot help the speed paths.
    {
        const auto& fanins = net.fanins(node);
        bool covers_critical = false;
        for (std::size_t w = 0; w < spcf.size() && !covers_critical; ++w) {
            std::uint64_t bits = spcf[w];
            while (bits) {
                const int b = std::countr_zero(bits);
                bits &= bits - 1;
                std::uint32_t minterm = 0;
                for (std::size_t f = 0; f < fanins.size(); ++f)
                    if ((sigs[fanins[f]][w] >> b) & 1) minterm |= 1u << f;
                if (window.get_bit(minterm)) {
                    covers_critical = true;
                    break;
                }
            }
        }
        if (!covers_critical) return std::nullopt;
    }

    SimplifyOutcome outcome;
    outcome.window_tt = std::move(window);
    outcome.new_tt = std::move(new_tt);
    outcome.old_level = l_j;
    outcome.new_level = new_level;
    return outcome;
}

}  // namespace lls
