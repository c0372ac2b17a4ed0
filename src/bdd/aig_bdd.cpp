#include "bdd/aig_bdd.hpp"

namespace lls {

std::vector<BddManager::Ref> build_node_bdds(const Aig& aig, BddManager& manager) {
    LLS_REQUIRE(static_cast<int>(aig.num_pis()) <= manager.num_vars());
    std::vector<BddManager::Ref> refs(aig.num_nodes(), manager.bdd_false());
    for (std::size_t i = 0; i < aig.num_pis(); ++i)
        refs[aig.pi(i)] = manager.variable(static_cast<int>(i));
    for (std::uint32_t id = 1; id < aig.num_nodes(); ++id) {
        if (!aig.is_and(id)) continue;
        const auto& n = aig.node(id);
        refs[id] = manager.band(bdd_of_lit(manager, refs, n.fanin0),
                                bdd_of_lit(manager, refs, n.fanin1));
    }
    return refs;
}

}  // namespace lls
