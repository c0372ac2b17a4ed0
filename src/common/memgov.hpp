#pragma once

// Deterministic per-cone memory quota (`lls_opt --cone-mem`), the byte
// analogue of the work budget (common/budget.hpp). Stages charge bytes at
// fixed program points with allocation-count-derived costs (literal
// counts, signature word counts — never malloc observations), so the
// running total is a pure function of (cone, params). Exceeding the quota
// throws LlsError{ResourceExhausted} at stage `kMemgovStage`, which the
// engine's per-cone fault boundary contains by keeping the cone's
// original structure — a deterministic fault that memoizes like any
// other. Like WorkCost, a MemoryQuota is deliberately NOT thread-safe: it
// is charged at serial points, or through task-local quotas merged in
// fixed task order after a parallel join (lookahead/decompose.cpp, phase
// B).

#include <cstdint>
#include <string>

#include "common/error.hpp"

namespace lls {

/// Stage name of every quota exhaustion; the engine counts fault records
/// at this stage as quota-degraded cones.
inline constexpr const char* kMemgovStage = "memgov";

/// Allocation-count-derived byte costs of the metered structures. The
/// constants price one *counted unit* (a stored literal, a signature word)
/// including its amortized container overhead — the point is a
/// schedule-invariant charge stream, not malloc-exact totals.
namespace memcost {
/// One stored SAT literal: 4 B literal + watcher pair + clause header,
/// amortized across typical clause lengths.
inline constexpr std::uint64_t kSatLiteralBytes = 48;
/// One 64-bit simulation-signature word.
inline constexpr std::uint64_t kSignatureWordBytes = 8;
/// One AIG node (fanins + level + hash bucket share).
inline constexpr std::uint64_t kAigNodeBytes = 24;
/// One technology-independent network node (fanins, truth table, fanouts).
inline constexpr std::uint64_t kNetworkNodeBytes = 96;
}  // namespace memcost

/// Deterministic byte quota of one cone evaluation.
class MemoryQuota {
public:
    /// `limit_bytes` = 0 disables the quota (charges still accumulate).
    explicit MemoryQuota(std::uint64_t limit_bytes = 0) : limit_(limit_bytes) {}

    /// Adds `bytes` to the running total; throws LlsError{ResourceExhausted}
    /// at stage `kMemgovStage` when a nonzero limit is exceeded. The charge
    /// is recorded before the throw, so `charged()` stays monotonic.
    void charge(std::uint64_t bytes) {
        charged_ += bytes;
        if (limit_ != 0 && charged_ > limit_)
            throw LlsError(ErrorKind::ResourceExhausted,
                           "cone memory quota exceeded (" + std::to_string(charged_) + " of " +
                               std::to_string(limit_) + " bytes)",
                           kMemgovStage);
    }

    std::uint64_t charged() const { return charged_; }
    std::uint64_t limit() const { return limit_; }

    /// Headroom below the limit (UINT64_MAX when unlimited). Snapshotting
    /// this at a serial point is how parallel intra-cone tasks get a
    /// schedule-invariant per-task bound.
    std::uint64_t remaining() const {
        if (limit_ == 0) return ~std::uint64_t{0};
        return charged_ >= limit_ ? 0 : limit_ - charged_;
    }

private:
    std::uint64_t limit_ = 0;
    std::uint64_t charged_ = 0;
};

}  // namespace lls
