#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "aig/aig.hpp"
#include "engine/cache.hpp"
#include "lookahead/optimize.hpp"
#include "lookahead/params.hpp"

namespace lls {

class WarmStart;

/// Execution knobs of the concurrent optimization engine. These control
/// *how* the flow runs, never *what* it computes: the result is
/// bit-identical for every `jobs` value, including runs bounded by the
/// deterministic `params.work_budget`. The only escape hatch is the
/// wall-clock safety rail `params.time_budget_seconds`, which is reported
/// as nondeterministic when it fires (see docs/ENGINE.md, "Determinism
/// contract" and "Budget semantics").
struct EngineOptions {
    /// Threads used to evaluate per-cone decomposition candidates (in batch
    /// mode, split between the items that run at a time). 1 = serial.
    int jobs = 1;

    /// Persistent-store bridge (engine/warm_start.hpp), or nullptr for a
    /// memory-only run. When set, the engine notes warm hits against the
    /// imported entries and flushes newly computed memo entries to the
    /// store at round boundaries.
    /// Imported entries replay their stored WorkCost, so budgeted warm
    /// runs stay bit-identical to cold ones. Not owned.
    WarmStart* warm_start = nullptr;
};

/// The paper's timing-driven flow, executed by the concurrent engine: each
/// round fans the candidate lookahead decompositions of all timing-critical
/// POs across `engine.jobs` workers (every worker owns its cone copy,
/// simulation state, and SAT solvers), then commits the verified winners
/// serially in PO order. `optimize_timing` is this function with the
/// default (serial) EngineOptions.
Aig optimize_timing_engine(const Aig& input, const LookaheadParams& params,
                           const EngineOptions& engine, OptimizeStats* stats = nullptr);

/// One circuit of a batch run.
struct BatchItem {
    std::string name;
    Aig input;
};

struct BatchOutcome {
    std::string name;
    Aig output;
    OptimizeStats stats;
    double seconds = 0.0;
    /// The item's optimization threw outside every per-cone fault boundary.
    /// The batch keeps going; `output` is the *input circuit unchanged*
    /// (the same degrade-to-original rule the per-cone fault boundary
    /// applies), and `error` carries the diagnostic.
    bool failed = false;
    std::string error;
    /// Always false: the engine has no cancellation (a signal ends the
    /// process, common/shutdown.hpp). Kept because lls_bench reads it; it
    /// goes when lls_bench next changes.
    bool cancelled = false;
};

/// Optimizes every item of a batch as a standalone engine run. With
/// `concurrent = clamp(items.size(), 1, engine.jobs)`, that many items run
/// at a time and each gets `engine.jobs / concurrent` threads of its own
/// (docs/ENGINE.md, "Batch scheduling"); no item's work runs on another
/// item's pool. Each run's output depends only on (input, params), so
/// outputs are byte-identical across `jobs` values. Outcomes are returned
/// in input order regardless of completion order.
///
/// Any exception escaping one item is contained at the item boundary: the
/// outcome is marked `failed`, its output degrades to the unmodified
/// input, and the remaining items still run.
///
/// `on_complete` (optional) is invoked once per item as it finishes, under
/// an internal mutex (never concurrently), with the finished outcome and
/// its index. This is the checkpoint hook: journaling and output writing
/// happen here so an interrupted batch keeps every finished circuit.
/// Completion *order* follows the thread schedule; anything order-sensitive
/// must key on the index, not the call sequence. An exception `on_complete`
/// throws is not contained: items not yet started are skipped, and the
/// first such exception is rethrown once the running items have finished.
std::vector<BatchOutcome> optimize_timing_batch(
    const std::vector<BatchItem>& items, const LookaheadParams& params,
    const EngineOptions& engine,
    const std::function<void(const BatchOutcome&, std::size_t)>& on_complete = {});

/// The fingerprint of every LookaheadParams field the cone evaluations
/// read (including a non-empty fault plan). This keys the decomposition
/// memo and seeds the per-cone RNGs; batch checkpoints store it so
/// `--resume` only reuses journal entries produced under identical
/// parameters.
std::uint64_t lookahead_params_fingerprint(const LookaheadParams& params);

/// Stats of the engine's two process-wide memos, `decompose_memo` then
/// `cec_memo` (tests, lls_opt --metrics and the benchmark).
std::vector<CacheStatsSnapshot> all_cache_stats();

/// Drops every entry of the engine's two memos — what the persistence
/// tests use to simulate a fresh process. Counters are not reset.
void clear_engine_caches();

}  // namespace lls
