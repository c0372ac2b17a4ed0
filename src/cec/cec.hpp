#pragma once

#include <optional>
#include <vector>

#include "aig/aig.hpp"
#include "common/rng.hpp"
#include "common/run_context.hpp"
#include "sat/solver.hpp"

namespace lls {

/// Tseitin-encodes every node of `aig` into `solver`, using `pi_vars[i]` as
/// the variable of PI i (they must already exist). Returns one SAT literal
/// per PO.
std::vector<sat::Lit> encode_aig(const Aig& aig, sat::Solver& solver,
                                 const std::vector<int>& pi_vars);

/// Like encode_aig, but returns the SAT literal of every AIG *node*
/// (index = node id), letting callers constrain internal signals.
std::vector<sat::Lit> encode_aig_nodes(const Aig& aig, sat::Solver& solver,
                                       const std::vector<int>& pi_vars);

/// SAT literal of an AIG literal given the per-node encoding.
inline sat::Lit sat_lit_of(const std::vector<sat::Lit>& node_lits, AigLit lit) {
    const sat::Lit s = node_lits[lit.node()];
    return lit.complemented() ? !s : s;
}

struct CecResult {
    bool equivalent = false;
    bool resolved = true;                     ///< false when a conflict limit was hit
    std::vector<bool> counterexample;         ///< PI assignment when not equivalent
};

/// SAT-based combinational equivalence check of two AIGs with identical
/// PI/PO interfaces (the paper's post-optimization verification step).
/// A bit-parallel random-simulation pre-pass catches most inequivalences
/// without touching the solver. `ctx` (common/run_context.hpp) is the
/// caller's run context: its `cost` sink (when attached) accumulates the
/// SAT conflicts spent by the internal sweep and the final miter
/// (deterministic work metering for budgeted runs, common/budget.hpp).
CecResult check_equivalence(const Aig& a, const Aig& b, std::int64_t conflict_limit = -1,
                            const RunContext& ctx = RunContext{});

/// SAT sweeping (fraiging): merges functionally equivalent internal nodes,
/// up to complement. Candidates are proposed by random-simulation
/// signatures (refined with counterexamples from failed proofs) and proven
/// by SAT; unresolved candidates are left unmerged, so the result is always
/// equivalent to the input. Used as the "standard redundancy elimination"
/// area-recovery step of the paper.
///
/// Each proof is asked on the AIG being built, FRAIG-style: a node is
/// proven against its representative's literal there, where every earlier
/// merge is one node and so one SAT variable. One incremental solver holds
/// the CNF of that AIG, encoded on demand: only the transitive fanin of a
/// queried literal, each node after its fanins (`sat::Solver::solve`
/// returns at decision level 0, so clauses can be added between queries).
/// A counterexample assigns 0 to a PI outside every encoded cone. The
/// question each query asks is the one it would ask of the input nodes,
/// so the result does not depend on the encoding while no query is
/// unresolved.
///
/// With `depth_aware` set (the default, for area recovery inside the
/// synthesis flow) a node is never merged into a *deeper* representative;
/// the CEC path disables this so structurally different implementations can
/// collapse onto each other.
///
/// `ctx.cost` (when attached) accumulates the solver's conflicts.
Aig sat_sweep(const Aig& aig, Rng& rng, std::int64_t conflict_limit = 2000,
              std::size_t num_patterns = 1024, bool depth_aware = true,
              const RunContext& ctx = RunContext{});

}  // namespace lls
