#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/check.hpp"

namespace lls::sat {

/// A SAT literal: variable index with sign. Encoded as 2*var + (negated).
struct Lit {
    int value = -1;

    Lit() = default;
    Lit(int var, bool negated) : value(2 * var + (negated ? 1 : 0)) { LLS_DCHECK(var >= 0); }

    int var() const { return value >> 1; }
    bool negated() const { return value & 1; }
    Lit operator!() const {
        Lit l;
        l.value = value ^ 1;
        return l;
    }
    bool operator==(const Lit& other) const = default;
};

enum class Status { Sat, Unsat, Unknown };

/// A self-contained CDCL SAT solver: two-literal watching, VSIDS branching
/// from an order heap, first-UIP clause learning, phase saving, and Luby
/// restarts. Every clause's literals live in one arena, so adding a clause
/// or learning one from a conflict allocates nothing once the buffers have
/// grown. A copy is an independent solver in the same state (clauses,
/// trail, activities, order heap, counters), so it searches exactly as the
/// original would from there: copying one encoding stands in for encoding
/// the same instance again. It is incremental: variables and clauses may
/// be added between solve() calls, which SAT sweeping uses to encode the
/// circuit it builds as its queries reach it. It is the decision engine
/// behind the combinational equivalence checks and SAT sweeping used by
/// the synthesis flow.
class Solver {
public:
    Solver() = default;

    Solver(const Solver&) = default;
    Solver& operator=(const Solver&) = delete;

    /// Creates a fresh variable and returns its index.
    int new_var();

    int num_vars() const { return static_cast<int>(assign_.size()); }

    /// Adds a clause (empty clause makes the instance trivially UNSAT); the
    /// solver must be at decision level 0, as it is between solve() calls.
    /// Returns false if the solver is already known to be UNSAT.
    bool add_clause(std::vector<Lit> lits);

    bool add_clause(Lit a) {
        Lit lits[] = {a};
        return add_clause_lits(lits);
    }
    bool add_clause(Lit a, Lit b) {
        Lit lits[] = {a, b};
        return add_clause_lits(lits);
    }
    bool add_clause(Lit a, Lit b, Lit c) {
        Lit lits[] = {a, b, c};
        return add_clause_lits(lits);
    }

    /// Solves under the given assumptions. `conflict_limit` < 0 means no
    /// limit; when the limit is hit, returns Status::Unknown. Returns at
    /// decision level 0 (after saving the model of a Sat answer), so
    /// variables and clauses can be added before the next call.
    Status solve(const std::vector<Lit>& assumptions = {}, std::int64_t conflict_limit = -1);

    /// Model value of a variable after a Sat answer.
    bool model_value(int var) const {
        LLS_REQUIRE(var >= 0 && var < num_vars());
        return model_[var] == 1;
    }

    std::int64_t num_conflicts() const { return conflicts_; }
    std::int64_t num_decisions() const { return decisions_; }
    std::int64_t num_propagations() const { return propagations_; }

    /// Allocation guard: total literals stored across problem and learned
    /// clauses. Growing past the ceiling throws LlsError{ResourceExhausted}
    /// (from add_clause or solve) instead of letting a runaway instance
    /// OOM-kill the process; the solver itself stays usable — the exception
    /// surfaces before the offending clause is stored. The default is
    /// generous (hundreds of MB); `SatSolver.LiteralLimitRaisesResourceExhausted`
    /// shrinks it to exercise recovery.
    void set_literal_limit(std::size_t limit) { literal_limit_ = limit; }
    std::size_t literal_limit() const { return literal_limit_; }
    std::size_t num_literals() const { return lits_.size(); }

private:
    static constexpr int kUndef = -1;

    /// A clause header: its literals are lits_[begin, begin + size).
    struct Clause {
        std::size_t begin = 0;
        int size = 0;
        bool learned = false;
        double activity = 0.0;
    };

    /// VSIDS decision order (MiniSat's design): a binary max-heap of
    /// variables keyed on (activity descending, index ascending). Its top is
    /// the first variable of maximum activity, the one a scan over all
    /// variables would pick. The solver keeps every unassigned variable in
    /// the heap; assigned ones are dropped lazily when popped. The heap holds
    /// no reference into the solver (each call is passed the activities), so
    /// a memberwise copy of the solver copies a working heap.
    class OrderHeap {
    public:
        using Activity = std::vector<double>;

        bool empty() const { return heap_.empty(); }
        void insert(int var, const Activity& act);  // no-op when var is already in the heap
        void bumped(int var, const Activity& act);  // var's activity grew: restore the order
        int pop(const Activity& act);
        void rebuild(const Activity& act);  // after every activity was rescaled

    private:
        static bool before(int a, int b, const Activity& act) {
            return act[a] > act[b] || (act[a] == act[b] && a < b);
        }
        void place(std::size_t i, int var) {
            heap_[i] = var;
            pos_[var] = static_cast<int>(i);
        }
        void sift_up(std::size_t i, const Activity& act);
        void sift_down(std::size_t i, const Activity& act);

        std::vector<int> heap_;
        std::vector<int> pos_;  // per variable: its index in heap_, or -1
    };

    struct Watcher {
        int clause = -1;
        Lit blocker;
    };

    // value: 0 = false, 1 = true, -1 = unassigned (per variable).
    int lit_value(Lit l) const {
        const int v = assign_[l.var()];
        if (v == kUndef) return kUndef;
        return v ^ (l.negated() ? 1 : 0);
    }

    Lit* clause_lits(int ci) { return lits_.data() + clauses_[ci].begin; }
    bool is_var(Lit l) const { return l.var() >= 0 && l.var() < num_vars(); }

    bool add_clause_lits(std::span<Lit> lits);  // normalizes lits in place
    int store_clause(std::span<const Lit> lits, bool learned);
    void enqueue(Lit l, int reason);
    int propagate();  // returns conflicting clause index or -1
    void analyze(int confl, int* backtrack_level);  // fills learned_
    void backtrack(int level);
    Status search(const std::vector<Lit>& assumptions, std::int64_t conflict_limit);
    Lit pick_branch();
    void bump_var(int var);
    void bump_clause(int ci);
    void decay_activities();
    void reduce_learned();
    void attach_clause(int ci);
    static std::int64_t luby(std::int64_t i);

    std::vector<Clause> clauses_;
    std::vector<Lit> lits_;                      // every clause's literals
    std::vector<std::vector<Watcher>> watches_;  // indexed by literal value
    std::vector<int> assign_;                    // per var: 0/1/kUndef
    std::vector<int> level_;                     // decision level per var
    std::vector<int> reason_;                    // clause index or -1
    std::vector<char> phase_;                    // saved phase per var
    std::vector<double> activity_;
    OrderHeap order_;
    std::vector<Lit> trail_;
    std::vector<int> trail_lim_;
    std::vector<char> seen_;
    std::vector<char> model_;
    std::vector<Lit> learned_;    // analyze's result, reused across conflicts
    std::vector<Lit> minimized_;  // analyze's minimization buffer
    std::size_t qhead_ = 0;
    std::size_t literal_limit_ = std::size_t{1} << 27;  // ~128M lits = 512 MB
    double var_inc_ = 1.0;
    double clause_inc_ = 1.0;
    bool unsat_ = false;

    std::int64_t conflicts_ = 0;
    std::int64_t decisions_ = 0;
    std::int64_t propagations_ = 0;
};

}  // namespace lls::sat
