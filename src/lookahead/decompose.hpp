#pragma once

#include <optional>
#include <string>

#include "aig/aig.hpp"
#include "common/rng.hpp"
#include "common/run_context.hpp"
#include "lookahead/params.hpp"

namespace lls {

/// Result of one level of lookahead decomposition on a single-output cone.
struct DecomposeOutcome {
    Aig aig;  ///< improved cone, same PI interface, one PO
    int old_depth = 0;
    int new_depth = 0;
    int num_windows = 0;         ///< nodes whose agreement window feeds Sigma_1
    std::string reconstruction;  ///< implication rule used to rebuild y
};

/// Performs one level of the paper's timing-driven decomposition
/// y = Sigma_1*y0 + !Sigma_1*y1 on a single-output AIG:
///
///  1. computes the SPCF by floating-mode timing simulation,
///  2. clusters the cone into a technology-independent network,
///  3. primary simplification (`Reduce`/`Simplify`) on a duplicated cone
///     -> y0 and the window function Sigma_1,
///  4. secondary simplification of a second duplicate against !Sigma_1
///     (zero-weight cubes become don't-cares; with sampled patterns each
///     drop is additionally proven safe by SAT) -> y1,
///  5. reconstruction with the implication-rule library, picking the
///     lowest-depth correct form,
///  6. verification (CEC) of the result against the input cone.
///
/// Returns nullopt when no depth improvement is found or the check in step
/// 6 is unresolved. A result the check proves non-equivalent is a bug, not
/// a reject: it throws LlsError{VerificationFailed} at stage "cec".
///
/// The result is a function of (cone, params, rng seed) alone.
/// `params.fault_plan` fires its `decompose`, `spcf`, `sat` and `cec`
/// sites here, and the shutdown token is the calling thread's CancelScope,
/// which each fanned-out proof task installs on the worker that runs it.
/// `ctx` is the engine's per-cone RunContext (common/run_context.hpp): its
/// `cost` sink accumulates the deterministic work spent on this cone (one
/// decomposition attempt for the cone itself, one per node-simplification
/// attempt inside `reduce_cone`, and every SAT conflict of the don't-care,
/// implication, and verification queries, which budgeted determinism rests
/// on); `executor` lets step 4 fan its independent per-cube SAT don't-care
/// proofs across the pool — verdicts are committed and conflicts charged
/// in fixed index order after the join, so the result and the charge
/// stream are identical with and without the fan-out.
///
/// Work spent before an exception is still merged into `ctx.cost`, so a
/// faulted evaluation charges the budget exactly like a completed one.
std::optional<DecomposeOutcome> decompose_output(const Aig& cone, const LookaheadParams& params,
                                                 Rng& rng,
                                                 const RunContext& ctx = RunContext{});

}  // namespace lls
