#include "aig/cuts.hpp"

#include <algorithm>
#include <iterator>
#include <span>
#include <utility>

namespace lls {

TruthTable expand_truth_table(const TruthTable& tt, std::span<const std::uint32_t> old_leaves,
                              std::span<const std::uint32_t> new_leaves) {
    LLS_REQUIRE(static_cast<int>(old_leaves.size()) == tt.num_vars());
    TruthTable r = tt.extend(static_cast<int>(new_leaves.size()));
    // Old variable i moves to the slot of old_leaves[i] in new_leaves,
    // highest i first. Slots grow with i, so the target slot of each move
    // holds a vacuous variable: an added one, or one vacated by an earlier
    // move.
    int slot = static_cast<int>(new_leaves.size());
    for (int i = static_cast<int>(old_leaves.size()); i-- > 0;) {
        while (slot > 0 && new_leaves[slot - 1] > old_leaves[i]) --slot;
        LLS_REQUIRE(slot > 0 && new_leaves[slot - 1] == old_leaves[i]);
        r = r.swap_vars(i, --slot);
    }
    return r;
}

namespace {

// A cut dominates another if its leaves are a subset (both sorted).
bool dominates(std::span<const std::uint32_t> a, std::span<const std::uint32_t> b) {
    std::size_t i = 0;
    for (auto leaf : a) {
        while (i < b.size() && b[i] < leaf) ++i;
        if (i == b.size() || b[i] != leaf) return false;
    }
    return true;
}

// Appends the sorted union of `a` and `b` to `pool`. Returns false, with
// `pool` as it was, if the union has more than `limit` leaves.
bool merge_leaves(const CutLeaves& a, const CutLeaves& b, std::size_t limit,
                  std::vector<std::uint32_t>* pool) {
    const std::size_t start = pool->size();
    std::size_t i = 0, j = 0;
    while (i < a.size() || j < b.size()) {
        std::uint32_t v;
        if (j == b.size() || (i < a.size() && a[i] < b[j]))
            v = a[i++];
        else if (i == a.size() || b[j] < a[i])
            v = b[j++];
        else {
            v = a[i];
            ++i;
            ++j;
        }
        if (pool->size() - start == limit) {
            pool->resize(start);
            return false;
        }
        pool->push_back(v);
    }
    return true;
}

}  // namespace

CutEnumerator::CutEnumerator(const Aig& aig, int cut_size, int max_cuts)
    : cut_size_(cut_size), max_cuts_(max_cuts) {
    LLS_REQUIRE(cut_size >= 2 && cut_size <= static_cast<int>(CutLeaves::kMaxLeaves));
    LLS_REQUIRE(max_cuts >= 1);
    cuts_.resize(aig.num_nodes());
    const auto level = aig.compute_levels();

    auto trivial = [&](std::uint32_t id) {
        return AigCut{CutLeaves(std::span(&id, 1)), TruthTable::variable(1, 0)};
    };

    // Constant node: single empty-leaf cut with constant function.
    cuts_[0].push_back(AigCut{CutLeaves(), TruthTable(0)});

    // A merged leaf set awaiting the ranking. The rank and the dominance
    // test read only leaves, so truth tables are built for the survivors
    // alone.
    struct Candidate {
        std::pair<long, long> rank;  // (leaf count, total leaf level)
        std::size_t offset;          // leaves: pool[offset, offset + leaf count)
        std::size_t cut0, cut1;      // the merged fanin cuts
    };
    std::vector<Candidate> cand;
    std::vector<std::uint32_t> pool;
    std::vector<AigCut> kept;

    for (std::uint32_t id = 1; id < aig.num_nodes(); ++id) {
        if (aig.is_pi(id)) {
            cuts_[id].push_back(trivial(id));
            continue;
        }
        const auto& n = aig.node(id);
        const auto& cuts0 = cuts_[n.fanin0.node()];
        const auto& cuts1 = cuts_[n.fanin1.node()];
        cand.clear();
        pool.clear();
        for (std::size_t i = 0; i < cuts0.size(); ++i) {
            for (std::size_t j = 0; j < cuts1.size(); ++j) {
                const std::size_t offset = pool.size();
                if (!merge_leaves(cuts0[i].leaves, cuts1[j].leaves,
                                  static_cast<std::size_t>(cut_size_), &pool))
                    continue;
                long lvl = 0;
                for (std::size_t k = offset; k < pool.size(); ++k) lvl += level[pool[k]];
                cand.push_back({{static_cast<long>(pool.size() - offset), lvl}, offset, i, j});
            }
        }
        // Deduplicate and drop dominated cuts.
        std::sort(cand.begin(), cand.end(),
                  [](const Candidate& a, const Candidate& b) { return a.rank < b.rank; });
        kept.clear();
        for (const auto& c : cand) {
            const std::span<const std::uint32_t> leaves(pool.data() + c.offset,
                                                        static_cast<std::size_t>(c.rank.first));
            if (std::any_of(kept.begin(), kept.end(),
                            [&](const AigCut& k) { return dominates(k.leaves, leaves); }))
                continue;
            const AigCut& c0 = cuts0[c.cut0];
            const AigCut& c1 = cuts1[c.cut1];
            TruthTable t0 = expand_truth_table(c0.tt, c0.leaves, leaves);
            TruthTable t1 = expand_truth_table(c1.tt, c1.leaves, leaves);
            if (n.fanin0.complemented()) t0 = ~t0;
            if (n.fanin1.complemented()) t1 = ~t1;
            kept.push_back(AigCut{CutLeaves(leaves), t0 & t1});
            if (static_cast<int>(kept.size()) == max_cuts_) break;
        }
        kept.push_back(trivial(id));
        cuts_[id].assign(std::make_move_iterator(kept.begin()), std::make_move_iterator(kept.end()));
    }
}

}  // namespace lls
