#pragma once

// RunContext: the one plumbing path for cross-cutting run state — the
// work-cost sink, metrics registry and executor. The engine constructs one
// per cone evaluation, and decompose -> reduce -> simplify -> cec -> sat
// all take a `const RunContext&`. Every field is an unowned pointer that
// must outlive the call; every field defaults to "absent", so
// `RunContext{}` is a valid do-nothing context for tests and simple CLI
// paths. The fault plan rides in LookaheadParams, and the shutdown token
// in the thread's CancelScope (common/cancel.hpp).
//
// The `executor` field carries the run's pool inside one cone evaluation:
// secondary simplification fans its independent per-cube SAT don't-care
// proofs across that (reentrant, help-while-waiting) pool, with verdicts
// committed and WorkCost charged in fixed index order after the join so
// the fan-out stays invisible to budgeted determinism and byte-identity
// (docs/ENGINE.md, "Run context & two-level scheduling").

#include "common/budget.hpp"

namespace lls {

class Metrics;
class ThreadPool;

struct RunContext {
    /// Deterministic work sink of the current evaluation: attempts and SAT
    /// conflicts are accumulated here, always at serial points or in fixed
    /// index order after a parallel join (common/budget.hpp). May be null
    /// (work is then unmetered, as for ad-hoc CLI verification calls).
    WorkCost* cost = nullptr;

    /// Metrics registry, or null to fall back to the process-global one.
    Metrics* metrics = nullptr;

    /// Intra-cone executor: the run's reentrant pool, or null for strictly
    /// serial inner loops (a `jobs == 1` run). Purely an execution knob —
    /// consumers must keep results identical with and without it
    /// (fixed-order joins).
    ThreadPool* executor = nullptr;

    /// Merges `delta` into the context's work sink, if one is attached.
    void charge(const WorkCost& delta) const {
        if (cost != nullptr) *cost += delta;
    }
};

}  // namespace lls
