#include "cec/redundancy.hpp"

#include "cec/cec.hpp"
#include "sim/simulation.hpp"

namespace lls {

namespace {

/// Copy of `aig` with one fanin edge of one AND node tied to constant 1
/// (the stuck-at-1 faulty machine; the AND then passes its other input).
Aig with_edge_stuck_at_1(const Aig& aig, std::uint32_t node, int slot) {
    Aig out;
    std::vector<AigLit> remap(aig.num_nodes(), AigLit::constant(false));
    for (std::size_t i = 0; i < aig.num_pis(); ++i) remap[aig.pi(i)] = out.add_pi(aig.pi_name(i));
    for (std::uint32_t id = 1; id < aig.num_nodes(); ++id) {
        if (!aig.is_and(id)) continue;
        const auto& n = aig.node(id);
        auto lit_of = [&](AigLit l) { return l.complemented() ? !remap[l.node()] : remap[l.node()]; };
        AigLit f0 = lit_of(n.fanin0);
        AigLit f1 = lit_of(n.fanin1);
        if (id == node) (slot == 0 ? f0 : f1) = AigLit::constant(true);
        remap[id] = out.land(f0, f1);
    }
    for (std::size_t o = 0; o < aig.num_pos(); ++o) {
        const AigLit po = aig.po(o);
        out.add_po(po.complemented() ? !remap[po.node()] : remap[po.node()], aig.po_name(o));
    }
    return out;
}

}  // namespace

Aig remove_redundancies(const Aig& aig, Rng& rng, int max_removals,
                        std::int64_t conflict_limit, const RunContext& ctx) {
    Aig current = aig.cleanup();
    // Each accepted removal renumbers the graph, so the scan restarts; a
    // full scan without a find is the fixpoint. Removing one redundancy can
    // un-redundify others, which the restart handles naturally.
    for (int removals = 0; removals < max_removals; ++removals) {
        const SimPatterns patterns =
            current.num_pis() <= SimPatterns::kMaxExhaustivePis
                ? SimPatterns::exhaustive(current.num_pis())
                : SimPatterns::random(current.num_pis(), 2048, rng);
        const auto good_sigs = simulate(current, patterns);

        bool changed = false;
        for (std::uint32_t id = 1; id < current.num_nodes() && !changed; ++id) {
            if (!current.is_and(id)) continue;
            for (int slot = 0; slot < 2 && !changed; ++slot) {
                const Aig faulty = with_edge_stuck_at_1(current, id, slot);

                // Simulation screen: a pattern that detects the fault
                // proves the edge non-redundant.
                const auto faulty_sigs = simulate(faulty, patterns);
                bool detected = false;
                for (std::size_t o = 0; o < current.num_pos() && !detected; ++o) {
                    const Signature a = literal_signature(current, current.po(o), good_sigs,
                                                          patterns.num_patterns());
                    const Signature b = literal_signature(faulty, faulty.po(o), faulty_sigs,
                                                          patterns.num_patterns());
                    if (a != b) detected = true;
                }
                if (detected) continue;
                if (!patterns.is_exhaustive()) {
                    const CecResult cec = check_equivalence(current, faulty, conflict_limit, ctx);
                    if (!cec.resolved || !cec.equivalent) continue;
                }
                current = faulty.cleanup();
                changed = true;
            }
        }
        if (!changed) break;  // full scan found nothing: fixpoint reached
    }
    return current;
}

}  // namespace lls
