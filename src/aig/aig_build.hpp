#pragma once

#include <vector>

#include "aig/aig.hpp"
#include "sop/factor.hpp"
#include "sop/sop.hpp"
#include "tt/truth_table.hpp"

namespace lls {

/// Instantiates a factored expression in `aig`, substituting `fanins[v]`
/// for variable v. Returns the literal of the expression's output.
AigLit build_factored(Aig& aig, const FactorExpr& expr, const std::vector<AigLit>& fanins);

/// Instantiates an SOP directly (balanced AND trees per cube, balanced OR
/// tree over the cubes); used when depth, not area, is the goal.
AigLit build_sop(Aig& aig, const Sop& sop, const std::vector<AigLit>& fanins);

/// The forms a non-constant truth table is instantiated from: the ISOPs of
/// its on-set and off-set, and the factored form of whichever of the two
/// has fewer literals. A pure function of the table, so callers may compute
/// it once per distinct function and reuse it.
struct TruthTableForms {
    Sop on;
    Sop off;
    FactorExpr factored;
    bool factored_is_off = false;  ///< `factored` realizes ~tt: invert its output
};

/// Computes the forms of `tt`, which must not be constant. Every truth-table
/// build goes through here, so ISOPs and factoring are computed in one place.
TruthTableForms truth_table_forms(const TruthTable& tt);

/// Instantiates a truth table over the given fanin literals, by factoring
/// its irredundant SOP (choosing the cheaper of the on-set and off-set).
AigLit build_truth_table(Aig& aig, const TruthTable& tt, const std::vector<AigLit>& fanins);

/// Tracks arrival levels of a growing (append-only) AIG incrementally.
class AigLevelTracker {
public:
    explicit AigLevelTracker(const Aig& aig) : aig_(aig) { refresh(); }

    int level(AigLit lit) {
        refresh();
        return levels_[lit.node()];
    }

private:
    void refresh();

    const Aig& aig_;
    std::vector<int> levels_;
};

/// AND/OR reduction joining the two earliest-arriving operands first
/// (depth-optimal re-association given fanin arrival levels). `lits` is
/// the caller's buffer: it serves as the heap and its contents are
/// consumed, so a caller can reuse it without reallocating.
AigLit land_timed(Aig& aig, std::vector<AigLit>& lits, AigLevelTracker& levels);
AigLit lor_timed(Aig& aig, std::vector<AigLit>& lits, AigLevelTracker& levels);

/// Instantiates an SOP with arrival-aware AND/OR tree shapes.
AigLit build_sop_timed(Aig& aig, const Sop& sop, const std::vector<AigLit>& fanins,
                       AigLevelTracker& levels);

/// Delay-oriented truth-table instantiation: builds both the timed-SOP and
/// the factored realization (in the cheaper phase each) and returns the
/// shallower of the two.
AigLit build_truth_table_timed(Aig& aig, const TruthTable& tt, const std::vector<AigLit>& fanins,
                               AigLevelTracker& levels);

/// The same from precomputed forms of a non-constant table.
AigLit build_truth_table_timed(Aig& aig, const TruthTableForms& forms,
                               const std::vector<AigLit>& fanins, AigLevelTracker& levels);

/// Builds the single-output cone of PO `po_index` as a standalone AIG whose
/// PIs are the original PIs (same order, full interface).
Aig extract_cone(const Aig& aig, std::size_t po_index);

/// Copies `src` into `dst`, mapping src PI i to `pi_map[i]`. Returns the
/// literals corresponding to src's POs. If `node_map` is non-null it
/// receives the dst literal of every src node (callers can then reference
/// internal signals of the copied logic).
std::vector<AigLit> append_aig(Aig& dst, const Aig& src, const std::vector<AigLit>& pi_map,
                               std::vector<AigLit>* node_map = nullptr);

}  // namespace lls
