#include "lookahead/reduce.hpp"

#include <algorithm>

#include "lookahead/simplify.hpp"

namespace lls {

ReduceResult reduce_cone(Network& net, std::uint32_t root, std::vector<Signature>& sigs,
                         std::size_t num_patterns, const Signature& spcf,
                         const RunContext& ctx) {
    ReduceResult result;
    std::vector<int> levels = net.compute_sop_levels();
    const int l_t = levels[root];
    result.old_level = l_t;
    result.new_level = l_t;
    if (l_t == 0) return result;

    const auto cone = net.cone_of(root);
    std::vector<char> visited(net.num_nodes(), 0);
    std::vector<char> marked(net.num_nodes(), 0);

    // Budget for the window logic: Sigma_1 plus the reconstruction mux must
    // close below the original level, so windows may not come near l_t.
    const int window_budget = std::max(1, l_t - 3);

    auto pick_start = [&]() -> std::uint32_t {
        std::uint32_t best = 0;
        int best_level = 0;
        for (const auto id : cone)
            if (!visited[id] && levels[id] > best_level) {
                best = id;
                best_level = levels[id];
            }
        return best;  // 0 (the constant node) doubles as "none"
    };

    while (levels[root] >= l_t) {
        std::uint32_t c = pick_start();
        if (c == 0) break;  // cone exhausted without reaching the target

        // Walk a critical chain downward from c (Fig. 2's inner loop).
        while (c != 0 && levels[root] >= l_t) {
            visited[c] = 1;
            if (!marked[c]) {
                if (auto outcome =
                        simplify_node(net, c, levels, sigs, spcf, window_budget, ctx)) {
                    net.set_function(c, outcome->new_tt);
                    result.windows.emplace_back(c, outcome->window_tt);
                    marked[c] = 1;
                    // Refresh the signatures of the changed node and
                    // everything downstream of it (ids are topological).
                    for (std::uint32_t id = c; id < net.num_nodes(); ++id)
                        if (net.is_internal(id))
                            sigs[id] = net.eval_node_signature(id, sigs, num_patterns);
                    levels = net.compute_sop_levels();
                    if (levels[root] < l_t) break;
                }
            }
            // Among critical fanins of c, descend into the highest unvisited
            // internal node.
            std::uint32_t next = 0;
            int next_level = 0;
            for (const auto f : net.critical_fanins(c, levels)) {
                if (!net.is_internal(f) || visited[f] || marked[f]) continue;
                if (levels[f] > next_level) {
                    next = f;
                    next_level = levels[f];
                }
            }
            c = next;
        }
    }

    result.new_level = levels[root];
    result.improved = result.new_level < l_t;
    return result;
}

}  // namespace lls
