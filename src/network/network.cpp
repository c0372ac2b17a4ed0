#include "network/network.hpp"

#include <algorithm>
#include <limits>
#include <span>
#include <unordered_map>

#include "aig/aig_build.hpp"
#include "aig/cuts.hpp"
#include "common/bitops.hpp"
#include "engine/metrics.hpp"

namespace lls {

std::uint32_t Network::add_pi(std::string name) {
    const auto id = static_cast<std::uint32_t>(nodes_.size());
    Node n;
    n.is_pi = true;
    n.tt = TruthTable(0);
    nodes_.push_back(std::move(n));
    pis_.push_back(id);
    if (name.empty()) name = "pi" + std::to_string(pis_.size() - 1);
    pi_names_.push_back(std::move(name));
    return id;
}

std::uint32_t Network::add_node(std::vector<std::uint32_t> fanins, TruthTable tt) {
    LLS_REQUIRE(tt.num_vars() == static_cast<int>(fanins.size()));
    for (const auto f : fanins) LLS_REQUIRE(f < nodes_.size());
    const auto id = static_cast<std::uint32_t>(nodes_.size());
    Node n;
    n.fanins = std::move(fanins);
    n.tt = std::move(tt);
    nodes_.push_back(std::move(n));
    return id;
}

void Network::add_po(std::uint32_t node, bool complemented, std::string name) {
    LLS_REQUIRE(node < nodes_.size());
    if (name.empty()) name = "po" + std::to_string(pos_.size());
    pos_.push_back(Po{node, complemented, std::move(name)});
}

void Network::set_function(std::uint32_t node, TruthTable tt) {
    LLS_REQUIRE(is_internal(node));
    LLS_REQUIRE(tt.num_vars() == nodes_[node].tt.num_vars());
    nodes_[node].tt = std::move(tt);
    nodes_[node].sop_valid = false;
}

const std::string& Network::pi_name(std::size_t index) const { return pi_names_[index]; }

std::size_t Network::pi_index(std::uint32_t id) const {
    LLS_REQUIRE(is_pi(id));
    const auto it = std::find(pis_.begin(), pis_.end(), id);
    LLS_ENSURE(it != pis_.end());
    return static_cast<std::size_t>(it - pis_.begin());
}

void Network::ensure_sops(std::uint32_t id) const {
    const Node& n = nodes_[id];
    if (n.sop_valid) return;
    n.on = minimum_sop(n.tt);
    n.off = minimum_sop(~n.tt);
    n.sop_valid = true;
}

const Sop& Network::on_sop(std::uint32_t id) const {
    LLS_REQUIRE(is_internal(id));
    ensure_sops(id);
    return nodes_[id].on;
}

const Sop& Network::off_sop(std::uint32_t id) const {
    LLS_REQUIRE(is_internal(id));
    ensure_sops(id);
    return nodes_[id].off;
}

std::vector<std::uint32_t> Network::topo_order() const {
    // Nodes are created fanins-first, so ids are already topological.
    std::vector<std::uint32_t> order(nodes_.size());
    for (std::uint32_t i = 0; i < nodes_.size(); ++i) order[i] = i;
    return order;
}

std::vector<std::uint32_t> Network::cone_of(std::uint32_t node) const {
    std::vector<char> mark(nodes_.size(), 0);
    std::vector<std::uint32_t> stack{node};
    std::vector<std::uint32_t> cone;
    while (!stack.empty()) {
        const auto id = stack.back();
        stack.pop_back();
        if (mark[id] || !is_internal(id)) continue;
        mark[id] = 1;
        cone.push_back(id);
        for (const auto f : nodes_[id].fanins) stack.push_back(f);
    }
    std::sort(cone.begin(), cone.end());
    return cone;
}

namespace {

/// Optimal level of a balanced binary combine over operands with the given
/// arrival levels: repeatedly join the two earliest operands (each join is
/// one gate level). Equivalent to the Huffman-style tree-height algorithm.
/// Sorts `levels` and joins in place: the joins come out in non-decreasing
/// level order, so they queue up in the already consumed front of the
/// array, and the two earliest operands always head one of the two queues.
int balanced_tree_level(std::span<int> levels) {
    if (levels.empty()) return 0;
    std::sort(levels.begin(), levels.end());
    std::size_t next = 0;            // operands not yet joined: levels[next, size)
    std::size_t head = 0, tail = 0;  // joins not yet joined: levels[head, tail)
    const auto earliest = [&] {
        if (head < tail && (next == levels.size() || levels[head] <= levels[next]))
            return levels[head++];
        return levels[next++];
    };
    for (std::size_t joins = levels.size() - 1; joins > 0; --joins) {
        const int a = earliest();
        const int b = earliest();
        levels[tail++] = std::max(a, b) + 1;  // tail < next: a consumed operand's slot
    }
    return levels[tail == 0 ? 0 : tail - 1];
}

int sop_tree_level_impl(const Sop& sop, const std::vector<int>& fanin_levels) {
    if (sop.empty()) return 0;  // constant 0
    // One cube-level buffer per thread, reused across calls.
    thread_local std::vector<int> cube_levels;
    cube_levels.clear();
    int lit_levels[Cube::kMaxVars] = {};
    for (const auto& cube : sop.cubes()) {
        std::size_t lits = 0;
        for (int v = 0; v < sop.num_vars(); ++v)
            if (cube.has_literal(v)) lit_levels[lits++] = fanin_levels[static_cast<std::size_t>(v)];
        cube_levels.push_back(balanced_tree_level({lit_levels, lits}));
    }
    return balanced_tree_level(cube_levels);
}

}  // namespace

int Network::sop_level_of(const Sop& on, const Sop& off, const std::vector<int>& fanin_levels) {
    return std::min(sop_tree_level_impl(on, fanin_levels), sop_tree_level_impl(off, fanin_levels));
}

int Network::sop_tree_level(const Sop& sop, const std::vector<int>& fanin_levels) {
    return sop_tree_level_impl(sop, fanin_levels);
}

int Network::sop_level_of(const TruthTable& tt, const std::vector<int>& fanin_levels) {
    return sop_level_of(minimum_sop(tt), minimum_sop(~tt), fanin_levels);
}

std::vector<int> Network::compute_sop_levels() const {
    std::vector<int> level(nodes_.size(), 0);
    std::vector<int> fl;
    for (std::uint32_t id = 1; id < nodes_.size(); ++id) {
        if (!is_internal(id)) continue;
        ensure_sops(id);
        fl.clear();
        for (const auto f : nodes_[id].fanins) fl.push_back(level[f]);
        level[id] = sop_level_of(nodes_[id].on, nodes_[id].off, fl);
    }
    return level;
}

int Network::sop_depth() const {
    const auto level = compute_sop_levels();
    int d = 0;
    for (const auto& po : pos_) d = std::max(d, level[po.node]);
    return d;
}

std::vector<std::uint32_t> Network::critical_fanins(std::uint32_t node,
                                                    const std::vector<int>& levels) const {
    LLS_REQUIRE(is_internal(node));
    ensure_sops(node);
    const auto& fanins = nodes_[node].fanins;
    std::vector<int> fl;
    fl.reserve(fanins.size());
    for (const auto f : fanins) fl.push_back(levels[f]);
    const int base = sop_level_of(nodes_[node].on, nodes_[node].off, fl);

    std::vector<std::uint32_t> critical;
    for (std::size_t i = 0; i < fanins.size(); ++i) {
        // Fanin i is critical if even reducing every *other* fanin to level 0
        // cannot reduce the node's level: then reducing fanin i is necessary.
        std::vector<int> relaxed(fl.size(), 0);
        relaxed[i] = fl[i];
        const int best_without_i = sop_level_of(nodes_[node].on, nodes_[node].off, relaxed);
        if (best_without_i >= base) critical.push_back(fanins[i]);
    }
    return critical;
}

Network Network::from_aig(const Aig& aig, int cut_size, int max_cuts) {
    static MetricTimer& clustering_timer = Metrics::global().timer("network.clustering");
    const ScopedTimer timer_scope(clustering_timer);
    const CutEnumerator cuts(aig, cut_size, max_cuts);

    // Depth-oriented best-cut choice per AND node.
    constexpr int kInf = std::numeric_limits<int>::max() / 2;
    std::vector<int> depth(aig.num_nodes(), 0);
    std::vector<int> best_cut(aig.num_nodes(), -1);
    for (std::uint32_t id = 1; id < aig.num_nodes(); ++id) {
        if (!aig.is_and(id)) continue;
        int best_depth = kInf;
        std::size_t best_leaves = 0;
        const auto& node_cuts = cuts.cuts(id);
        for (int ci = 0; ci < static_cast<int>(node_cuts.size()); ++ci) {
            const auto& c = node_cuts[ci];
            if (c.leaves.size() == 1 && c.leaves[0] == id) continue;  // trivial cut
            int d = 0;
            for (const auto l : c.leaves) d = std::max(d, depth[l] + 1);
            if (d < best_depth || (d == best_depth && c.leaves.size() < best_leaves)) {
                best_depth = d;
                best_leaves = c.leaves.size();
                best_cut[id] = ci;
            }
        }
        LLS_ENSURE(best_cut[id] >= 0);
        depth[id] = best_depth;
    }

    // Select the cover: walk back from the POs over chosen cuts.
    std::vector<char> required(aig.num_nodes(), 0);
    std::vector<std::uint32_t> stack;
    for (std::size_t o = 0; o < aig.num_pos(); ++o) stack.push_back(aig.po(o).node());
    while (!stack.empty()) {
        const auto id = stack.back();
        stack.pop_back();
        if (required[id]) continue;
        required[id] = 1;
        if (!aig.is_and(id)) continue;
        for (const auto l : cuts.cuts(id)[static_cast<std::size_t>(best_cut[id])].leaves)
            stack.push_back(l);
    }

    Network net;
    std::vector<std::uint32_t> map(aig.num_nodes(), 0);
    for (std::size_t i = 0; i < aig.num_pis(); ++i) map[aig.pi(i)] = net.add_pi(aig.pi_name(i));
    for (std::uint32_t id = 1; id < aig.num_nodes(); ++id) {
        if (!required[id] || !aig.is_and(id)) continue;
        const auto& cut = cuts.cuts(id)[static_cast<std::size_t>(best_cut[id])];
        std::vector<std::uint32_t> fanins;
        fanins.reserve(cut.leaves.size());
        for (const auto l : cut.leaves) fanins.push_back(map[l]);
        map[id] = net.add_node(std::move(fanins), cut.tt);
    }
    for (std::size_t o = 0; o < aig.num_pos(); ++o) {
        const AigLit po = aig.po(o);
        net.add_po(map[po.node()], po.complemented(), aig.po_name(o));
    }
    return net;
}

Aig Network::to_aig_with_map(std::vector<AigLit>* node_map) const {
    Aig aig;
    AigLevelTracker levels(aig);
    std::vector<AigLit> map(nodes_.size(), AigLit::constant(false));
    for (std::size_t i = 0; i < pis_.size(); ++i) map[pis_[i]] = aig.add_pi(pi_names_[i]);
    // Node functions repeat (decompose_output duplicates whole cones), and
    // forms are pure: compute them once per distinct function.
    std::unordered_map<TruthTable, TruthTableForms, TruthTableHash> forms;
    for (std::uint32_t id = 1; id < nodes_.size(); ++id) {
        if (!is_internal(id)) continue;
        const TruthTable& tt = nodes_[id].tt;
        if (tt.is_const0() || tt.is_const1()) {
            map[id] = AigLit::constant(tt.is_const1());
            continue;
        }
        std::vector<AigLit> fanin_lits;
        fanin_lits.reserve(nodes_[id].fanins.size());
        for (const auto f : nodes_[id].fanins) fanin_lits.push_back(map[f]);
        const auto [it, inserted] = forms.try_emplace(tt);
        if (inserted) it->second = truth_table_forms(tt);
        // Arrival-aware instantiation: node functions sit on reconstructed
        // critical paths, so the SOP trees must respect fanin skew (this is
        // the AIG realization of the SOP-aware level metric).
        map[id] = build_truth_table_timed(aig, it->second, fanin_lits, levels);
    }
    for (const auto& po : pos_) {
        const AigLit lit = po.complemented ? !map[po.node] : map[po.node];
        aig.add_po(lit, po.name);
    }
    if (node_map) *node_map = map;
    return aig;
}

Aig Network::to_aig() const { return to_aig_with_map(nullptr).cleanup(); }

Aig Network::to_aig_area() const {
    Aig aig;
    std::vector<AigLit> map(nodes_.size(), AigLit::constant(false));
    for (std::size_t i = 0; i < pis_.size(); ++i) map[pis_[i]] = aig.add_pi(pi_names_[i]);
    for (std::uint32_t id = 1; id < nodes_.size(); ++id) {
        if (!is_internal(id)) continue;
        std::vector<AigLit> fanin_lits;
        fanin_lits.reserve(nodes_[id].fanins.size());
        for (const auto f : nodes_[id].fanins) fanin_lits.push_back(map[f]);
        map[id] = build_truth_table(aig, nodes_[id].tt, fanin_lits);
    }
    for (const auto& po : pos_) {
        const AigLit lit = po.complemented ? !map[po.node] : map[po.node];
        aig.add_po(lit, po.name);
    }
    return aig.cleanup();
}

std::vector<Signature> Network::simulate(const SimPatterns& patterns) const {
    LLS_REQUIRE(patterns.num_pis() == pis_.size());
    const std::size_t words = patterns.num_words();
    std::vector<Signature> sigs(nodes_.size(), Signature(words, 0));
    for (std::size_t i = 0; i < pis_.size(); ++i) sigs[pis_[i]] = patterns.pi_bits(i);

    for (std::uint32_t id = 1; id < nodes_.size(); ++id) {
        if (!is_internal(id)) continue;
        sigs[id] = eval_node_signature(id, sigs, patterns.num_patterns());
    }
    return sigs;
}

Signature Network::eval_node_signature(std::uint32_t node, const std::vector<Signature>& sigs,
                                       std::size_t num_patterns) const {
    LLS_REQUIRE(is_internal(node));
    const auto& n = nodes_[node];
    const std::size_t words = words_for_bits(num_patterns);
    Signature out(words, 0);
    const std::size_t k = n.fanins.size();
    // Fold the truth table over the fanin words, 64 patterns at a time: start
    // from one all-0/all-1 word per minterm, then let each fanin in turn
    // select between the two halves (a Shannon mux per minterm pair).
    std::vector<std::uint64_t> minterms(std::size_t{1} << k);
    for (std::size_t m = 0; m < minterms.size(); ++m) minterms[m] = n.tt.get_bit(m) ? ~0ULL : 0ULL;
    std::vector<std::uint64_t> fold(minterms.size());
    for (std::size_t w = 0; w < words; ++w) {
        std::copy(minterms.begin(), minterms.end(), fold.begin());
        for (std::size_t f = 0, size = fold.size(); f < k; ++f, size /= 2) {
            const std::uint64_t x = sigs[n.fanins[f]][w];
            for (std::size_t j = 0; j < size / 2; ++j)
                fold[j] = (x & fold[2 * j + 1]) | (~x & fold[2 * j]);
        }
        out[w] = fold[0];
    }
    out.back() &= tail_mask(num_patterns);
    return out;
}

std::uint32_t Network::duplicate_cone(std::uint32_t node, std::vector<std::uint32_t>* mapping) {
    const auto cone = cone_of(node);
    std::vector<std::uint32_t> map(nodes_.size(), 0);
    for (std::uint32_t id = 0; id < nodes_.size(); ++id) map[id] = id;
    for (const auto id : cone) {
        std::vector<std::uint32_t> fanins;
        fanins.reserve(nodes_[id].fanins.size());
        for (const auto f : nodes_[id].fanins) fanins.push_back(map[f]);
        map[id] = add_node(std::move(fanins), nodes_[id].tt);
    }
    if (mapping) *mapping = map;
    return map[node];
}

}  // namespace lls
