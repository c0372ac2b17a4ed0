#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/check.hpp"

namespace lls {

/// A literal: an AIG node index with an optional complement bit.
/// Literal 0 is constant false, literal 1 constant true.
struct AigLit {
    std::uint32_t value = 0;

    AigLit() = default;
    constexpr explicit AigLit(std::uint32_t v) : value(v) {}
    static constexpr AigLit make(std::uint32_t node, bool complemented) {
        return AigLit{(node << 1) | static_cast<std::uint32_t>(complemented)};
    }
    static constexpr AigLit constant(bool v) { return AigLit{static_cast<std::uint32_t>(v)}; }

    std::uint32_t node() const { return value >> 1; }
    bool complemented() const { return value & 1; }
    AigLit operator!() const { return AigLit{value ^ 1}; }

    bool operator==(const AigLit& other) const = default;
    auto operator<=>(const AigLit& other) const = default;
};

/// And-Inverter Graph: the "decomposed logic circuit" of the paper.
///
/// Node 0 is the constant-false node. Primary inputs are leaf nodes;
/// internal nodes are two-input ANDs with optionally complemented fanins.
/// Construction is append-only and structurally hashed; `cleanup()` returns
/// a compacted copy containing only logic reachable from the outputs.
class Aig {
public:
    struct Node {
        AigLit fanin0;  ///< meaningful only for AND nodes
        AigLit fanin1;
        bool is_pi = false;
    };

    Aig() { nodes_.push_back(Node{}); }

    // --- construction -----------------------------------------------------

    AigLit add_pi(std::string name = {});
    void add_po(AigLit lit, std::string name = {});

    /// Structural-hashed AND with constant/idempotence normalization.
    AigLit land(AigLit a, AigLit b);

    AigLit lor(AigLit a, AigLit b) { return !land(!a, !b); }
    AigLit lxor(AigLit a, AigLit b) { return lor(land(a, !b), land(!a, b)); }
    /// Multiplexer: sel ? t : e.
    AigLit lmux(AigLit sel, AigLit t, AigLit e) {
        return lor(land(sel, t), land(!sel, e));
    }
    /// N-ary AND/OR over a span of literals (balanced reduction).
    AigLit land_many(std::vector<AigLit> lits);
    AigLit lor_many(std::vector<AigLit> lits);

    // --- structure --------------------------------------------------------

    std::size_t num_nodes() const { return nodes_.size(); }
    std::size_t num_pis() const { return pis_.size(); }
    std::size_t num_pos() const { return pos_.size(); }
    std::size_t num_ands() const { return nodes_.size() - 1 - pis_.size(); }

    const Node& node(std::uint32_t id) const { return nodes_[id]; }
    bool is_pi(std::uint32_t id) const { return nodes_[id].is_pi; }
    bool is_and(std::uint32_t id) const { return id != 0 && !nodes_[id].is_pi; }
    bool is_const(std::uint32_t id) const { return id == 0; }

    std::uint32_t pi(std::size_t index) const { return pis_[index]; }
    AigLit pi_lit(std::size_t index) const { return AigLit::make(pis_[index], false); }
    AigLit po(std::size_t index) const { return pos_[index]; }
    void set_po(std::size_t index, AigLit lit) { pos_[index] = lit; }

    const std::string& pi_name(std::size_t index) const { return pi_names_[index]; }
    const std::string& po_name(std::size_t index) const { return po_names_[index]; }

    /// Index of the PI node `id` among the PIs (inverse of pi()).
    std::size_t pi_index(std::uint32_t id) const {
        LLS_REQUIRE(is_pi(id));
        return pi_index_.at(id);
    }

    // --- analysis ---------------------------------------------------------

    /// Levels: PIs and constants are level 0, AND nodes 1 + max(fanins).
    std::vector<int> compute_levels() const;

    /// Depth of the graph = max level over PO drivers.
    int depth() const;

    /// Number of AND nodes reachable from the POs (the paper's "gates").
    std::size_t count_reachable_ands() const;

    /// Fanout counts (per node, counting PO references).
    std::vector<int> compute_fanout_counts() const;

    /// Nodes in topological order (constant and PIs first). Since the graph
    /// is append-only this is simply 0..n-1.
    std::vector<std::uint32_t> topo_order() const;

    // --- transformations ---------------------------------------------------

    /// Returns a compacted copy with only logic reachable from POs, same
    /// PI/PO interface.
    Aig cleanup() const;

    std::uint64_t hash() const;

private:
    struct PairHash {
        std::size_t operator()(const std::pair<std::uint32_t, std::uint32_t>& p) const {
            return std::hash<std::uint64_t>{}((std::uint64_t{p.first} << 32) | p.second);
        }
    };

    std::vector<Node> nodes_;
    std::vector<std::uint32_t> pis_;
    std::vector<AigLit> pos_;
    std::vector<std::string> pi_names_;
    std::vector<std::string> po_names_;
    std::unordered_map<std::uint32_t, std::size_t> pi_index_;
    std::unordered_map<std::pair<std::uint32_t, std::uint32_t>, std::uint32_t, PairHash> strash_;
};

}  // namespace lls
