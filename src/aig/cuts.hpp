#pragma once

#include <vector>

#include "aig/aig.hpp"
#include "tt/truth_table.hpp"

namespace lls {

/// A k-feasible cut of an AIG node: a set of leaves (sorted node ids) such
/// that every path from the PIs to the node passes through a leaf, plus the
/// local function of the node over the leaves.
struct AigCut {
    std::vector<std::uint32_t> leaves;
    TruthTable tt;  ///< function of the cut root over `leaves` (leaf i = var i)
};

/// Re-expresses `tt` (over `old_leaves`) as a function of `new_leaves`,
/// which must be a superset of `old_leaves`. Both leaf lists are sorted.
TruthTable expand_truth_table(const TruthTable& tt, const std::vector<std::uint32_t>& old_leaves,
                              const std::vector<std::uint32_t>& new_leaves);

/// Priority-cut enumeration (Mishchenko-style): bottom-up merge of fanin
/// cuts, keeping at most `max_cuts` non-trivial cuts per node ranked by
/// (fewer leaves, then lower total leaf level). Each node also always has
/// its trivial cut {node}.
class CutEnumerator {
public:
    CutEnumerator(const Aig& aig, int cut_size, int max_cuts);

    const std::vector<AigCut>& cuts(std::uint32_t node) const { return cuts_[node]; }
    int cut_size() const { return cut_size_; }

private:
    int cut_size_;
    int max_cuts_;
    std::vector<std::vector<AigCut>> cuts_;
};

}  // namespace lls
