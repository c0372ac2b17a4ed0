#pragma once

#include <vector>

#include "aig/aig.hpp"
#include "bdd/bdd.hpp"

namespace lls {

/// Builds the global BDD of every AIG node (PI i = BDD variable i).
/// Throws LlsError{ResourceExhausted} if the manager's node limit is
/// exceeded — callers treat that as "circuit too large for exact analysis".
std::vector<BddManager::Ref> build_node_bdds(const Aig& aig, BddManager& manager);

/// BDD of an AIG literal given the per-node refs.
inline BddManager::Ref bdd_of_lit(BddManager& manager,
                                  const std::vector<BddManager::Ref>& refs, AigLit lit) {
    const BddManager::Ref r = refs[lit.node()];
    return lit.complemented() ? manager.bnot(r) : r;
}

}  // namespace lls
