#include "aig/aig_build.hpp"

#include <algorithm>
#include <utility>

namespace lls {

AigLit build_factored(Aig& aig, const FactorExpr& expr, const std::vector<AigLit>& fanins) {
    switch (expr.kind) {
        case FactorExpr::Kind::Const0:
            return AigLit::constant(false);
        case FactorExpr::Kind::Const1:
            return AigLit::constant(true);
        case FactorExpr::Kind::Literal: {
            LLS_REQUIRE(expr.var >= 0 &&
                        static_cast<std::size_t>(expr.var) < fanins.size());
            const AigLit lit = fanins[static_cast<std::size_t>(expr.var)];
            return expr.polarity ? lit : !lit;
        }
        case FactorExpr::Kind::And: {
            std::vector<AigLit> kids;
            kids.reserve(expr.children.size());
            for (const auto& c : expr.children) kids.push_back(build_factored(aig, c, fanins));
            return aig.land_many(std::move(kids));
        }
        case FactorExpr::Kind::Or: {
            std::vector<AigLit> kids;
            kids.reserve(expr.children.size());
            for (const auto& c : expr.children) kids.push_back(build_factored(aig, c, fanins));
            return aig.lor_many(std::move(kids));
        }
    }
    return AigLit::constant(false);
}

AigLit build_sop(Aig& aig, const Sop& sop, const std::vector<AigLit>& fanins) {
    std::vector<AigLit> cube_lits;
    cube_lits.reserve(sop.num_cubes());
    for (const auto& cube : sop.cubes()) {
        std::vector<AigLit> lits;
        for (int v = 0; v < sop.num_vars(); ++v) {
            if (!cube.has_literal(v)) continue;
            const AigLit f = fanins[static_cast<std::size_t>(v)];
            lits.push_back(cube.literal_polarity(v) ? f : !f);
        }
        cube_lits.push_back(aig.land_many(std::move(lits)));
    }
    return aig.lor_many(std::move(cube_lits));
}

TruthTableForms truth_table_forms(const TruthTable& tt) {
    LLS_DCHECK(!tt.is_const0() && !tt.is_const1());
    TruthTableForms forms;
    forms.on = isop(tt);
    forms.off = isop(~tt);
    FactorExpr on_expr = factor(forms.on);
    FactorExpr off_expr = factor(forms.off);
    forms.factored_is_off = off_expr.num_literals() < on_expr.num_literals();
    forms.factored = forms.factored_is_off ? std::move(off_expr) : std::move(on_expr);
    return forms;
}

namespace {

AigLit build_factored_forms(Aig& aig, const TruthTableForms& forms,
                            const std::vector<AigLit>& fanins) {
    const AigLit lit = build_factored(aig, forms.factored, fanins);
    return forms.factored_is_off ? !lit : lit;
}

}  // namespace

AigLit build_truth_table(Aig& aig, const TruthTable& tt, const std::vector<AigLit>& fanins) {
    LLS_REQUIRE(static_cast<int>(fanins.size()) >= tt.num_vars());
    if (tt.is_const0()) return AigLit::constant(false);
    if (tt.is_const1()) return AigLit::constant(true);
    return build_factored_forms(aig, truth_table_forms(tt), fanins);
}

void AigLevelTracker::refresh() {
    const std::size_t old = levels_.size();
    if (old == aig_.num_nodes()) return;
    levels_.resize(aig_.num_nodes(), 0);
    for (std::uint32_t id = static_cast<std::uint32_t>(old); id < aig_.num_nodes(); ++id) {
        if (!aig_.is_and(id)) continue;
        const auto& n = aig_.node(id);
        levels_[id] = 1 + std::max(levels_[n.fanin0.node()], levels_[n.fanin1.node()]);
    }
}

AigLit land_timed(Aig& aig, std::vector<AigLit>& lits, AigLevelTracker& levels) {
    if (lits.empty()) return AigLit::constant(true);
    // The operations std::priority_queue performs, on the caller's buffer:
    // the same comparator gives the same join order, ties included.
    auto later = [&](AigLit a, AigLit b) { return levels.level(a) > levels.level(b); };
    std::make_heap(lits.begin(), lits.end(), later);
    while (lits.size() > 1) {
        std::pop_heap(lits.begin(), lits.end(), later);
        const AigLit a = lits.back();
        lits.pop_back();
        std::pop_heap(lits.begin(), lits.end(), later);
        const AigLit b = lits.back();
        lits.pop_back();
        lits.push_back(aig.land(a, b));
        std::push_heap(lits.begin(), lits.end(), later);
    }
    return lits.front();
}

AigLit lor_timed(Aig& aig, std::vector<AigLit>& lits, AigLevelTracker& levels) {
    for (auto& l : lits) l = !l;
    return !land_timed(aig, lits, levels);
}

AigLit build_sop_timed(Aig& aig, const Sop& sop, const std::vector<AigLit>& fanins,
                       AigLevelTracker& levels) {
    std::vector<AigLit> cube_lits;
    cube_lits.reserve(sop.num_cubes());
    std::vector<AigLit> lits;
    for (const auto& cube : sop.cubes()) {
        lits.clear();
        for (int v = 0; v < sop.num_vars(); ++v) {
            if (!cube.has_literal(v)) continue;
            const AigLit f = fanins[static_cast<std::size_t>(v)];
            lits.push_back(cube.literal_polarity(v) ? f : !f);
        }
        cube_lits.push_back(land_timed(aig, lits, levels));
    }
    return lor_timed(aig, cube_lits, levels);
}

AigLit build_truth_table_timed(Aig& aig, const TruthTable& tt, const std::vector<AigLit>& fanins,
                               AigLevelTracker& levels) {
    LLS_REQUIRE(static_cast<int>(fanins.size()) >= tt.num_vars());
    if (tt.is_const0()) return AigLit::constant(false);
    if (tt.is_const1()) return AigLit::constant(true);
    return build_truth_table_timed(aig, truth_table_forms(tt), fanins, levels);
}

AigLit build_truth_table_timed(Aig& aig, const TruthTableForms& forms,
                               const std::vector<AigLit>& fanins, AigLevelTracker& levels) {
    LLS_REQUIRE(static_cast<int>(fanins.size()) >= forms.on.num_vars());
    const AigLit timed_on = build_sop_timed(aig, forms.on, fanins, levels);
    const AigLit timed_off = !build_sop_timed(aig, forms.off, fanins, levels);
    const AigLit timed =
        levels.level(timed_off) < levels.level(timed_on) ? timed_off : timed_on;
    // Factored realization: usually smaller, sometimes also shallower.
    const AigLit factored = build_factored_forms(aig, forms, fanins);
    return levels.level(factored) < levels.level(timed) ? factored : timed;
}

Aig extract_cone(const Aig& aig, std::size_t po_index) {
    LLS_REQUIRE(po_index < aig.num_pos());
    Aig cone;
    std::vector<AigLit> remap(aig.num_nodes(), AigLit::constant(false));
    for (std::size_t i = 0; i < aig.num_pis(); ++i) remap[aig.pi(i)] = cone.add_pi(aig.pi_name(i));
    for (std::uint32_t id = 1; id < aig.num_nodes(); ++id) {
        if (!aig.is_and(id)) continue;
        const auto& n = aig.node(id);
        const AigLit f0 = n.fanin0.complemented() ? !remap[n.fanin0.node()] : remap[n.fanin0.node()];
        const AigLit f1 = n.fanin1.complemented() ? !remap[n.fanin1.node()] : remap[n.fanin1.node()];
        remap[id] = cone.land(f0, f1);
    }
    const AigLit po = aig.po(po_index);
    cone.add_po(po.complemented() ? !remap[po.node()] : remap[po.node()], aig.po_name(po_index));
    return cone.cleanup();
}

std::vector<AigLit> append_aig(Aig& dst, const Aig& src, const std::vector<AigLit>& pi_map,
                               std::vector<AigLit>* node_map) {
    LLS_REQUIRE(pi_map.size() == src.num_pis());
    std::vector<AigLit> remap(src.num_nodes(), AigLit::constant(false));
    for (std::size_t i = 0; i < src.num_pis(); ++i) remap[src.pi(i)] = pi_map[i];
    for (std::uint32_t id = 1; id < src.num_nodes(); ++id) {
        if (!src.is_and(id)) continue;
        const auto& n = src.node(id);
        const AigLit f0 = n.fanin0.complemented() ? !remap[n.fanin0.node()] : remap[n.fanin0.node()];
        const AigLit f1 = n.fanin1.complemented() ? !remap[n.fanin1.node()] : remap[n.fanin1.node()];
        remap[id] = dst.land(f0, f1);
    }
    std::vector<AigLit> outs;
    outs.reserve(src.num_pos());
    for (std::size_t i = 0; i < src.num_pos(); ++i) {
        const AigLit po = src.po(i);
        outs.push_back(po.complemented() ? !remap[po.node()] : remap[po.node()]);
    }
    if (node_map) *node_map = std::move(remap);
    return outs;
}

}  // namespace lls
