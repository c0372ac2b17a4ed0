#pragma once

#include <cstdint>

#include "aig/aig.hpp"

namespace lls {

/// Options for exact-synthesis cut rewriting.
struct RewriteOptions {
    int cut_size = 4;   ///< cuts of up to this many leaves (<= 4)
    int max_cuts = 6;
    /// false: minimize actually-added nodes (area, ABC `rewrite`-style);
    /// true: minimize arrival level first.
    bool delay_oriented = false;
    int max_gates = 6;  ///< exact-synthesis gate bound per cut class
    std::int64_t conflict_limit = 12000;
};

/// Cut rewriting backed by SAT-based exact synthesis (the real counterpart
/// of ABC's `rewrite`): every AND node's 4-feasible cuts are NPN-canonized,
/// the minimum-gate structure of each class is synthesized once (cached for
/// the whole process), and the node is replaced when the instantiated
/// structure — with sharing measured on the actual graph — beats the
/// incremental rebuild. The result is logically equivalent to the input.
Aig rewrite(const Aig& aig, const RewriteOptions& options = {});

}  // namespace lls
