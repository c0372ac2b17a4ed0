#pragma once

#include <cstddef>
#include <cstdint>

#include "common/fault.hpp"

namespace lls {

/// Knobs of the lookahead synthesis flow. The defaults reproduce the
/// paper's configuration; several switches exist purely for the ablation
/// benchmarks documented in DESIGN.md.
struct LookaheadParams {
    // Clustering (AIG -> technology-independent network, the "renode" step).
    int cut_size = 5;
    int max_cuts = 8;

    /// Run conventional delay-oriented restructuring (balance + cut-based
    /// resynthesis) before and between decomposition rounds. The paper's
    /// technique "complements existing logic optimization algorithms" and
    /// was implemented inside ABC on top of its scripts; this switch
    /// reproduces that setting (and is an ablation knob).
    bool baseline_preoptimize = true;

    // Simulation-based SPCF / cube weights.
    std::size_t num_random_patterns = 1024;
    /// Ablation: use random patterns even when the PI count permits
    /// exhaustive (exact) simulation, exercising the sampled-SPCF +
    /// SAT-verified-don't-care path on small circuits.
    bool force_random_patterns = false;
    std::uint64_t seed = 1;
    /// SPCF threshold slack: SPCF collects patterns with sensitized arrival
    /// >= (max_arrival - spcf_slack); 0 = strictly critical paths.
    std::int32_t spcf_slack = 0;

    /// Use the implication-rule library when reconstructing
    /// y = S*y0 + !S*y1 (ablation switch; the paper's Sec. 3.1
    /// "Reconstructing y").
    bool use_implication_rules = true;

    /// Run the secondary simplification (ablation switch; without it y1
    /// stays the original function).
    bool secondary_simplification = true;

    /// Run SAT sweeping as area recovery after each reconstruction.
    bool area_recovery = true;

    /// Outer loop bound: each iteration adds one level of lookahead
    /// decomposition (Sigma_1, Sigma_2, ... in the paper's notation).
    int max_iterations = 10;

    /// Deterministic work budget for the whole optimization (0 = none),
    /// counted in work units (common/budget.hpp): decomposition attempts
    /// plus SAT conflicts. Exhaustion is a pure function of work performed
    /// — not of wall time — so budgeted runs stay bit-identical across
    /// `--jobs` values, machines, and cache states. Once the accumulated
    /// charge reaches the budget, no further decomposition rounds start;
    /// the best verified circuit found so far is returned.
    std::uint64_t work_budget = 0;

    /// Wall-clock *safety rail* in seconds (0 = none). Unlike
    /// `work_budget` this is inherently nondeterministic: when it fires,
    /// the in-flight round is discarded, the run stops, and the result is
    /// flagged as timing-dependent (`OptimizeStats::wall_clock_interrupted`,
    /// `engine.wall_clock_interrupts` in --metrics). Use `work_budget` for
    /// reproducible budgeted runs; keep this only as a hard upper bound.
    double time_budget_seconds = 0.0;

    /// Deterministic fault-injection plan (common/fault.hpp; empty =
    /// inject nothing), parsed once where it enters: `lls_opt` and
    /// `lls_fuzz` parse `--fault-inject`. Each spec fires a synthetic
    /// LlsError of its kind whenever a cone evaluation reaches its site
    /// ("decompose", "spcf", "sat", "cec") or a run starts ("run"), so the
    /// fault boundary is exercisable with a reproducible schedule. A
    /// non-empty plan is mixed into the params fingerprint (memo keys +
    /// per-cone RNG seeds); injected runs therefore stay bit-identical
    /// across `--jobs` values and cache states, and a run with an empty
    /// plan is untouched.
    FaultPlan fault_plan;
};

}  // namespace lls
