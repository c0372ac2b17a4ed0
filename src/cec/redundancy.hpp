#pragma once

#include "aig/aig.hpp"
#include "common/rng.hpp"
#include "common/run_context.hpp"

namespace lls {

/// Classic redundancy elimination (the "standard redundancy elimination
/// algorithms" the paper names as its area-recovery step): an AND-gate input
/// is redundant iff the stuck-at-1 fault on that input is untestable, i.e.
/// replacing the edge by constant 1 preserves every output. Each candidate
/// is screened by random simulation (testable faults are cheap to witness)
/// and surviving candidates are proven by the fraiging CEC. The result is
/// always equivalent to the input.
///
/// Exhaustive by nature (every edge is a candidate), so intended for
/// small/medium circuits and for the ablation studies; `max_removals`
/// bounds the fixpoint iteration. `ctx` carries the caller's work-cost
/// sink (common/run_context.hpp).
Aig remove_redundancies(const Aig& aig, Rng& rng, int max_removals = 100,
                        std::int64_t conflict_limit = 100000,
                        const RunContext& ctx = RunContext{});

}  // namespace lls
