#pragma once

#include <string>
#include <vector>

#include "aig/aig.hpp"
#include "common/fault.hpp"
#include "lookahead/params.hpp"

namespace lls {

/// Statistics of a full lookahead optimization run.
struct OptimizeStats {
    int initial_depth = 0;
    int final_depth = 0;
    std::size_t initial_ands = 0;
    std::size_t final_ands = 0;
    /// Accepted rounds: each committed its decompositions, restructured and
    /// swept the result, and kept it because the depth dropped (or held
    /// with a decomposed output) and verification passed. A round counts
    /// even when restructuring alone lowered the depth and no cone was
    /// decomposed (see `outputs_decomposed`).
    int iterations = 0;
    int outputs_decomposed = 0;    ///< per-output decompositions accepted (total)
    bool verified = true;          ///< every accepted step passed CEC
    /// Work units charged against `params.work_budget` (decomposition
    /// attempts + SAT conflicts of the cone evaluations); deterministic for
    /// a given (input, params), whatever the job count or cache state.
    std::uint64_t work_units = 0;
    /// The deterministic work budget stopped the run before the iteration
    /// limit. The result is still bit-identical across `--jobs` values.
    bool budget_exhausted = false;
    /// The wall-clock safety rail (`time_budget_seconds`) fired: the
    /// in-flight round was discarded and the result is timing-dependent —
    /// reruns may differ. Never set on purely work-budgeted runs.
    bool wall_clock_interrupted = false;
    /// A process/batch-level cancellation (CancelToken, e.g. SIGTERM) was
    /// requested during the run: the engine stopped at the next round
    /// boundary and returned the best verified circuit so far. Batch mode
    /// treats such items as *not finished* — they are never journaled, so
    /// `--resume` re-runs them from scratch, byte-identically.
    bool cancelled = false;
    /// Contained faults, appended at serial points in deterministic order
    /// (common/fault.hpp). Every exception that escaped a cone evaluation —
    /// real or injected — lands here as one record, and its cone keeps its
    /// original structure. A whole-circuit candidate that a per-iteration,
    /// pass-level or restructure-only CEC proves wrong lands here too, as a
    /// VerificationFailed record at stage "cec" with `cone` = -1; the
    /// candidate is reverted.
    std::vector<FaultRecord> faults;
    std::vector<std::string> log;  ///< human-readable per-iteration notes
};

/// The paper's full timing-driven optimization flow: iterates one level of
/// lookahead decomposition per round over every PO whose cone reaches the
/// current critical depth, rebuilds the circuit, recovers area by SAT
/// sweeping, and verifies each accepted round by CEC. Iterations stop when
/// no output improves or `params.max_iterations` is reached.
///
/// Implemented by the concurrent engine (src/engine/engine.cpp, linked via
/// lls_engine) running serially; `optimize_timing_engine` in
/// engine/engine.hpp exposes the multi-threaded driver with the same QoR.
Aig optimize_timing(const Aig& input, const LookaheadParams& params = {},
                    OptimizeStats* stats = nullptr);

}  // namespace lls
