#include "baseline/restructure.hpp"

#include <algorithm>
#include <limits>
#include <unordered_map>

#include "aig/aig_build.hpp"
#include "aig/cuts.hpp"
#include "network/network.hpp"
#include "sop/factor.hpp"
#include "sop/sop.hpp"

namespace lls {

Aig balance(const Aig& aig) {
    Aig out;
    std::vector<AigLit> remap(aig.num_nodes(), AigLit::constant(false));
    for (std::size_t i = 0; i < aig.num_pis(); ++i) remap[aig.pi(i)] = out.add_pi(aig.pi_name(i));
    const auto fanout = aig.compute_fanout_counts();
    AigLevelTracker levels(out);

    // Leaves of the maximal single-fanout conjunction rooted at `root` (in
    // the original AIG), mapped into `out`. Both buffers live across the
    // node loop, so balancing allocates only while they grow.
    std::vector<AigLit> leaves, stack;
    auto collect_leaves = [&](AigLit root) {
        leaves.clear();
        stack.assign(1, root);
        while (!stack.empty()) {
            const AigLit lit = stack.back();
            stack.pop_back();
            const std::uint32_t id = lit.node();
            const bool expandable = !lit.complemented() && aig.is_and(id) &&
                                    (lit == root || fanout[id] == 1);
            if (expandable) {
                stack.push_back(aig.node(id).fanin0);
                stack.push_back(aig.node(id).fanin1);
            } else {
                const AigLit m = remap[id];
                leaves.push_back(lit.complemented() ? !m : m);
            }
        }
    };

    for (std::uint32_t id = 1; id < aig.num_nodes(); ++id) {
        if (!aig.is_and(id)) continue;
        collect_leaves(AigLit::make(id, false));
        remap[id] = land_timed(out, leaves, levels);
    }
    for (std::size_t o = 0; o < aig.num_pos(); ++o) {
        const AigLit po = aig.po(o);
        out.add_po(po.complemented() ? !remap[po.node()] : remap[po.node()], aig.po_name(o));
    }
    return out.cleanup();
}

Aig restructure(const Aig& aig, const RestructureOptions& options) {
    const CutEnumerator cuts(aig, options.cut_size, options.max_cuts);
    const auto old_levels = aig.compute_levels();
    const int depth = aig.depth();

    // Criticality: nodes on some maximal-level path (level + slack == depth).
    std::vector<int> required(aig.num_nodes(), 0);
    if (options.only_critical) {
        for (auto& r : required) r = depth;
        std::vector<int> req(aig.num_nodes(), depth);
        for (std::uint32_t id = static_cast<std::uint32_t>(aig.num_nodes()); id-- > 1;) {
            if (!aig.is_and(id)) continue;
            const auto& n = aig.node(id);
            req[n.fanin0.node()] = std::min(req[n.fanin0.node()], req[id] - 1);
            req[n.fanin1.node()] = std::min(req[n.fanin1.node()], req[id] - 1);
        }
        required = std::move(req);
    }

    // The pure functions of a cut's truth table, memoized for this call:
    // few cut functions are distinct, so most cuts reuse an earlier entry.
    struct CutFunction {
        Sop on, off;                    // ISOPs of the on-set and the off-set
        int lits_on = 0, lits_off = 0;  // their factored literal counts (area mode)
    };
    std::unordered_map<TruthTable, CutFunction, TruthTableHash> memo;
    auto function_of = [&](const TruthTable& tt) -> const CutFunction& {
        const auto [it, inserted] = memo.try_emplace(tt);
        CutFunction& f = it->second;
        if (inserted) {
            f.on = isop(tt);
            f.off = isop(~tt);
            if (!options.delay_oriented) {
                f.lits_on = factor(f.on).num_literals();
                f.lits_off = factor(f.off).num_literals();
            }
        }
        return f;
    };

    Aig out;
    std::vector<AigLit> remap(aig.num_nodes(), AigLit::constant(false));
    for (std::size_t i = 0; i < aig.num_pis(); ++i) remap[aig.pi(i)] = out.add_pi(aig.pi_name(i));
    AigLevelTracker levels(out);
    std::vector<int> leaf_levels;

    for (std::uint32_t id = 1; id < aig.num_nodes(); ++id) {
        if (!aig.is_and(id)) continue;
        const auto& n = aig.node(id);
        const AigLit f0 = n.fanin0.complemented() ? !remap[n.fanin0.node()] : remap[n.fanin0.node()];
        const AigLit f1 = n.fanin1.complemented() ? !remap[n.fanin1.node()] : remap[n.fanin1.node()];
        const AigLit plain = out.land(f0, f1);
        remap[id] = plain;

        const bool critical = !options.only_critical || old_levels[id] == required[id];
        if (!critical) continue;

        // Evaluate the enumerated cuts and keep the most promising rebuild.
        int best_score = options.delay_oriented
                             ? levels.level(plain)
                             : std::numeric_limits<int>::max();  // plain adds 1 node anyway
        const AigCut* best_cut = nullptr;
        const Sop* best_sop = nullptr;
        bool best_phase_on = true;
        for (const auto& cut : cuts.cuts(id)) {
            if (cut.leaves.size() == 1 && cut.leaves[0] == id) continue;  // trivial
            const CutFunction& f = function_of(cut.tt);
            bool phase_on;
            int score;
            if (options.delay_oriented) {
                leaf_levels.clear();
                for (const auto l : cut.leaves) leaf_levels.push_back(levels.level(remap[l]));
                const int lvl_on = Network::sop_tree_level(f.on, leaf_levels);
                const int lvl_off = Network::sop_tree_level(f.off, leaf_levels);
                phase_on = lvl_on <= lvl_off;
                score = phase_on ? lvl_on : lvl_off;
            } else {
                phase_on = f.lits_on <= f.lits_off;
                score = phase_on ? f.lits_on : f.lits_off;
            }
            if (score < best_score) {
                best_score = score;
                best_cut = &cut;
                best_sop = phase_on ? &f.on : &f.off;
                best_phase_on = phase_on;
            }
        }
        if (!best_cut) continue;

        std::vector<AigLit> leaf_lits;
        leaf_lits.reserve(best_cut->leaves.size());
        for (const auto l : best_cut->leaves) leaf_lits.push_back(remap[l]);
        AigLit rebuilt;
        if (options.delay_oriented)
            rebuilt = build_sop_timed(out, *best_sop, leaf_lits, levels);
        else
            rebuilt = build_factored(out, factor(*best_sop), leaf_lits);
        if (!best_phase_on) rebuilt = !rebuilt;

        if (options.delay_oriented) {
            if (levels.level(rebuilt) < levels.level(plain)) remap[id] = rebuilt;
        } else {
            remap[id] = rebuilt;
        }
    }

    for (std::size_t o = 0; o < aig.num_pos(); ++o) {
        const AigLit po = aig.po(o);
        out.add_po(po.complemented() ? !remap[po.node()] : remap[po.node()], aig.po_name(o));
    }
    return out.cleanup();
}

}  // namespace lls
