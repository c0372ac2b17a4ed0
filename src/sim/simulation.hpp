#pragma once

#include <cstdint>
#include <vector>

#include "aig/aig.hpp"
#include "common/rng.hpp"

namespace lls {

/// A fixed set of input patterns used for bit-parallel simulation.
///
/// Exhaustive pattern sets enumerate all 2^n input combinations (pattern p
/// assigns PI i the bit i of p), making every signature an *exact*
/// characteristic function over the PIs. Random pattern sets are
/// Monte-Carlo samples of the input space; all uses in the synthesis flow
/// treat them as an approximate characteristic function, as the paper
/// permits for the SPCF.
class SimPatterns {
public:
    static constexpr int kMaxExhaustivePis = 14;

    static SimPatterns exhaustive(std::size_t num_pis);
    static SimPatterns random(std::size_t num_pis, std::size_t num_patterns, Rng& rng);

    std::size_t num_pis() const { return pi_bits_.size(); }
    std::size_t num_patterns() const { return num_patterns_; }
    std::size_t num_words() const { return words_; }
    bool is_exhaustive() const { return exhaustive_; }

    const std::vector<std::uint64_t>& pi_bits(std::size_t pi) const { return pi_bits_[pi]; }

    /// Value of PI `pi` under pattern `p`.
    bool pi_value(std::size_t pi, std::size_t p) const {
        return (pi_bits_[pi][p >> 6] >> (p & 63)) & 1;
    }

private:
    std::size_t num_patterns_ = 0;
    std::size_t words_ = 0;
    bool exhaustive_ = false;
    std::vector<std::vector<std::uint64_t>> pi_bits_;
};

/// Per-node simulation signature: bit p of word p/64 is the node's value
/// under pattern p. Complementation of literals is applied by the caller.
using Signature = std::vector<std::uint64_t>;

/// Simulates all nodes; result[i] is node i's signature (uncomplemented).
std::vector<Signature> simulate(const Aig& aig, const SimPatterns& patterns);

/// Signature of a literal given the node signatures.
Signature literal_signature(const Aig& aig, AigLit lit, const std::vector<Signature>& node_sigs,
                            std::size_t num_patterns);

/// Result of floating-mode timing simulation: for each PO and pattern, the
/// length (in AND levels) of the longest *sensitized* path terminating at
/// the PO under that input vector.
struct TimingSimResult {
    std::vector<std::vector<std::int32_t>> po_arrival;  ///< [po][pattern]
    std::int32_t max_arrival = 0;
};

/// Floating-mode per-pattern timing simulation with unit AND delay and free
/// inverters: for an AND gate, if any fanin evaluates to the controlling
/// value 0 the gate settles as soon as the earliest controlling fanin
/// arrives; otherwise it waits for the latest fanin. This is the standard
/// vector-delay model used by the telescopic-unit/timed-supersetting line of
/// work the paper cites for approximate SPCF computation. Arrivals are
/// computed bit-sliced, 64 patterns per word, in as many bit-planes per node
/// as the largest level needs; an AND is a bit-sliced compare, select and
/// increment.
TimingSimResult timing_simulate(const Aig& aig, const SimPatterns& patterns,
                                const std::vector<Signature>& node_sigs);

}  // namespace lls
