#pragma once

#include <array>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <vector>

#include "aig/aig.hpp"
#include "common/check.hpp"
#include "tt/truth_table.hpp"

namespace lls {

/// The sorted leaves of a cut, stored inline: at most kMaxLeaves, the
/// largest cut size CutEnumerator accepts.
class CutLeaves {
public:
    static constexpr std::size_t kMaxLeaves = 12;

    CutLeaves() = default;
    explicit CutLeaves(std::span<const std::uint32_t> leaves) {
        LLS_REQUIRE(leaves.size() <= kMaxLeaves);
        for (const auto leaf : leaves) leaves_[size_++] = leaf;
    }

    std::size_t size() const { return size_; }
    std::uint32_t operator[](std::size_t i) const {
        LLS_DCHECK(i < size_);
        return leaves_[i];
    }
    const std::uint32_t* begin() const { return leaves_.data(); }
    const std::uint32_t* end() const { return leaves_.data() + size_; }

private:
    std::array<std::uint32_t, kMaxLeaves> leaves_{};
    std::uint32_t size_ = 0;
};

/// A k-feasible cut of an AIG node: a set of leaves (sorted node ids) such
/// that every path from the PIs to the node passes through a leaf, plus the
/// local function of the node over the leaves.
struct AigCut {
    CutLeaves leaves;
    TruthTable tt;  ///< function of the cut root over `leaves` (leaf i = var i)
};

/// Re-expresses `tt` (over `old_leaves`) as a function of `new_leaves`,
/// which must be a superset of `old_leaves`. Both leaf lists are sorted.
TruthTable expand_truth_table(const TruthTable& tt, std::span<const std::uint32_t> old_leaves,
                              std::span<const std::uint32_t> new_leaves);

/// The same for braced leaf lists: `expand_truth_table(f, {3, 5}, {3, 4, 5})`.
inline TruthTable expand_truth_table(const TruthTable& tt,
                                     std::initializer_list<std::uint32_t> old_leaves,
                                     std::initializer_list<std::uint32_t> new_leaves) {
    return expand_truth_table(tt, std::span(old_leaves.begin(), old_leaves.size()),
                              std::span(new_leaves.begin(), new_leaves.size()));
}

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
