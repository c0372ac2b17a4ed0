#include "exact/rewrite.hpp"

#include <optional>
#include <string>

#include "aig/aig_build.hpp"
#include "aig/cuts.hpp"
#include "engine/cache.hpp"
#include "exact/exact_synthesis.hpp"
#include "tt/npn.hpp"

namespace lls {

namespace {

/// NPN-canonical cache key of a truth table: canonization maps every
/// function of an NPN equivalence class onto one representative, so memos
/// keyed this way are shared across input permutations and polarities.
std::string npn_cache_key(const TruthTable& canonical, int extra = 0) {
    std::string key = std::to_string(canonical.num_vars());
    key += ':';
    key += canonical.to_hex();
    if (extra != 0) {
        key += ':';
        key += std::to_string(extra);
    }
    return key;
}

/// Process-wide caches: NPN canonization and exact structures per canonical
/// class. Both are pure functions of the truth table, so sharing them
/// across rewrite() calls (and circuits) is sound and makes repeated flow
/// invocations cheap. Sharded + mutex-striped so concurrent rewrite() calls
/// do not race.
ShardedCache<std::string, NpnResult>& npn_memo() {
    static ShardedCache<std::string, NpnResult> instance("npn_canon");
    return instance;
}

/// Canonical class + gate bound + conflict limit -> minimal structure,
/// nullopt = none within bounds.
ShardedCache<std::string, std::optional<ExactStructure>>& exact_structure_memo() {
    static ShardedCache<std::string, std::optional<ExactStructure>> instance("exact_structures");
    return instance;
}

NpnResult canonize_cached(const TruthTable& tt) {
    return npn_memo().get_or_compute(npn_cache_key(tt), [&] { return npn_canonize(tt); });
}

std::optional<ExactStructure> structure_cached(const TruthTable& canonical, int max_gates,
                                               std::int64_t conflict_limit) {
    // The conflict limit is part of the key: a nullopt produced under a
    // small SAT budget must not shadow a realization a larger budget would
    // find, and the memo outlives any single call's options.
    return exact_structure_memo().get_or_compute(
        npn_cache_key(canonical, max_gates) + ":c" + std::to_string(conflict_limit),
        [&] { return exact_synthesize(canonical, max_gates, conflict_limit); });
}

}  // namespace

Aig rewrite(const Aig& aig, const RewriteOptions& options) {
    LLS_REQUIRE(options.cut_size >= 2 && options.cut_size <= 4);
    const CutEnumerator cuts(aig, options.cut_size, options.max_cuts);

    Aig out;
    AigLevelTracker levels(out);
    std::vector<AigLit> remap(aig.num_nodes(), AigLit::constant(false));
    for (std::size_t i = 0; i < aig.num_pis(); ++i) remap[aig.pi(i)] = out.add_pi(aig.pi_name(i));

    for (std::uint32_t id = 1; id < aig.num_nodes(); ++id) {
        if (!aig.is_and(id)) continue;
        const auto& n = aig.node(id);
        const AigLit f0 = n.fanin0.complemented() ? !remap[n.fanin0.node()] : remap[n.fanin0.node()];
        const AigLit f1 = n.fanin1.complemented() ? !remap[n.fanin1.node()] : remap[n.fanin1.node()];
        const std::size_t before_plain = out.num_nodes();
        const AigLit plain = out.land(f0, f1);

        AigLit best = plain;
        // Cost of the incremental rebuild (0 when strashing reused a node).
        std::size_t best_added = out.num_nodes() - before_plain;
        int best_level = levels.level(plain);

        for (const auto& cut : cuts.cuts(id)) {
            if (cut.leaves.size() == 1 && cut.leaves[0] == id) continue;
            if (cut.tt.num_vars() > 4) continue;
            const NpnResult& npn = canonize_cached(cut.tt);
            const auto& structure =
                structure_cached(npn.canonical, options.max_gates, options.conflict_limit);
            if (!structure) continue;

            // Instantiate: canonical input i is driven by cut leaf perm[i],
            // complemented per the input-negation mask at perm[i]; the
            // canonical output is complemented by the recorded output flag.
            std::vector<AigLit> inputs(cut.leaves.size());
            for (std::size_t i = 0; i < cut.leaves.size(); ++i) {
                const int src = npn.perm[i];
                AigLit lit = remap[cut.leaves[static_cast<std::size_t>(src)]];
                if ((npn.input_negation >> src) & 1) lit = !lit;
                inputs[i] = lit;
            }
            const std::size_t before = out.num_nodes();
            AigLit lit = build_exact_structure(out, *structure, inputs);
            if (npn.output_negation) lit = !lit;
            const std::size_t added = out.num_nodes() - before;
            const int level = levels.level(lit);

            const bool better = options.delay_oriented
                                    ? (level < best_level ||
                                       (level == best_level && added < best_added))
                                    : (added < best_added ||
                                       (added == best_added && level < best_level));
            if (better) {
                best = lit;
                best_added = added;
                best_level = level;
            }
        }
        remap[id] = best;
    }

    for (std::size_t o = 0; o < aig.num_pos(); ++o) {
        const AigLit po = aig.po(o);
        out.add_po(po.complemented() ? !remap[po.node()] : remap[po.node()], aig.po_name(o));
    }
    return out.cleanup();
}

}  // namespace lls
