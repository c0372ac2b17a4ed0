#pragma once

// The engine's two memos, decomposition and CEC verdicts, declared apart
// from engine.cpp so the persistence bridge (engine/warm_start.hpp) can
// export and import entries without reaching into the driver's
// translation unit.

#include <cstdint>
#include <memory>
#include <optional>
#include <utility>

#include "common/budget.hpp"
#include "common/fault.hpp"
#include "engine/cache.hpp"
#include "lookahead/decompose.hpp"

namespace lls {

/// The memoized result of evaluating one cone: the outcome (nullptr
/// recording "no improvement found" — negative results are just as
/// expensive to recompute) plus the deterministic work it cost. Storing
/// the cost is what keeps budgeted runs independent of cache state: a memo
/// hit charges exactly the units the avoided recomputation would have.
struct ConeEvaluation {
    std::shared_ptr<const DecomposeOutcome> outcome;
    WorkCost cost;
    /// The fault contained at the per-cone boundary, if the evaluation
    /// threw (cone id/name are filled in at the serial commit). Stored in
    /// the memo with the rest of the evaluation, so a cache hit replays the
    /// fault the same way it replays its cost. Faulted entries are never
    /// *persisted*: recomputing them replays the same fault and charges the
    /// same cost (injection is a pure function of (cone, params)), so the
    /// store only ever carries clean records.
    std::optional<FaultRecord> fault;
};

/// Decomposition memo: (cone structural hash, params fingerprint) -> the
/// evaluation. Shared across runs in the process.
using DecomposeMemo =
    ShardedCache<std::pair<std::uint64_t, std::uint64_t>, ConeEvaluation, U64PairHash>;

/// The process-wide instance (defined in engine.cpp).
DecomposeMemo& decompose_memo();

/// Verdict memo for combinational equivalence checks, keyed by the ordered
/// pair of structural hashes of the two circuits. Only *resolved* checks
/// are memoized (an unresolved check may succeed with a fresh conflict
/// budget). The 128-bit key treats structural-hash equality as identity;
/// see docs/ENGINE.md for the collision discussion.
using CecMemo = ShardedCache<std::pair<std::uint64_t, std::uint64_t>, bool, U64PairHash>;

/// The process-wide instance (defined in engine.cpp).
CecMemo& cec_memo();

}  // namespace lls
