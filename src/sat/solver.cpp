#include "sat/solver.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace lls::sat {

void Solver::OrderHeap::insert(int var, const Activity& act) {
    if (static_cast<std::size_t>(var) >= pos_.size()) pos_.resize(var + 1, -1);
    if (pos_[var] >= 0) {
        LLS_DCHECK(heap_[pos_[var]] == var);
        return;
    }
    heap_.push_back(var);
    sift_up(heap_.size() - 1, act);
}

void Solver::OrderHeap::bumped(int var, const Activity& act) {
    if (pos_[var] < 0) return;
    LLS_DCHECK(heap_[pos_[var]] == var);
    sift_up(static_cast<std::size_t>(pos_[var]), act);
}

int Solver::OrderHeap::pop(const Activity& act) {
    LLS_DCHECK(!heap_.empty());
    const int top = heap_[0];
    LLS_DCHECK(pos_[top] == 0);
    LLS_DCHECK(heap_.size() < 2 || !before(heap_[1], top, act));
    LLS_DCHECK(heap_.size() < 3 || !before(heap_[2], top, act));
    pos_[top] = -1;
    const int last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) {
        place(0, last);
        sift_down(0, act);
    }
    return top;
}

void Solver::OrderHeap::rebuild(const Activity& act) {
    for (std::size_t i = heap_.size() / 2; i-- > 0;) sift_down(i, act);
}

void Solver::OrderHeap::sift_up(std::size_t i, const Activity& act) {
    const int var = heap_[i];
    while (i > 0) {
        const std::size_t parent = (i - 1) / 2;
        if (!before(var, heap_[parent], act)) break;
        place(i, heap_[parent]);
        i = parent;
    }
    place(i, var);
}

void Solver::OrderHeap::sift_down(std::size_t i, const Activity& act) {
    const int var = heap_[i];
    while (true) {
        std::size_t child = 2 * i + 1;
        if (child >= heap_.size()) break;
        if (child + 1 < heap_.size() && before(heap_[child + 1], heap_[child], act)) ++child;
        if (!before(heap_[child], var, act)) break;
        place(i, heap_[child]);
        i = child;
    }
    place(i, var);
}

int Solver::new_var() {
    const int v = num_vars();
    assign_.push_back(kUndef);
    level_.push_back(0);
    reason_.push_back(-1);
    phase_.push_back(0);
    activity_.push_back(0.0);
    seen_.push_back(0);
    model_.push_back(0);
    watches_.resize(2 * assign_.size());
    order_.insert(v, activity_);
    return v;
}

bool Solver::add_clause(std::vector<Lit> lits) { return add_clause_lits(lits); }

bool Solver::add_clause_lits(std::span<Lit> lits) {
    LLS_REQUIRE(trail_lim_.empty() && "clauses must be added at decision level 0");
    if (unsat_) return false;

    // Normalize: sort, remove duplicates, detect tautologies and falsified
    // literals (at level 0). Kept literals are compacted to the front in
    // place; kept <= i, so lits[i - 1] still holds its sorted value here.
    std::sort(lits.begin(), lits.end(), [](Lit a, Lit b) { return a.value < b.value; });
    std::size_t kept = 0;
    for (std::size_t i = 0; i < lits.size(); ++i) {
        LLS_REQUIRE(is_var(lits[i]));
        if (i > 0 && lits[i] == lits[i - 1]) continue;
        if (i > 0 && lits[i] == !lits[i - 1]) return true;  // tautology
        const int v = lit_value(lits[i]);
        if (v == 1) return true;  // already satisfied at level 0
        if (v == 0) continue;     // falsified at level 0, drop
        lits[kept++] = lits[i];
    }

    if (kept == 0) {
        unsat_ = true;
        return false;
    }
    if (kept == 1) {
        enqueue(lits[0], -1);
        if (propagate() != -1) {
            unsat_ = true;
            return false;
        }
        return true;
    }

    store_clause(lits.first(kept), false);
    return true;
}

int Solver::store_clause(std::span<const Lit> lits, bool learned) {
    if (lits_.size() + lits.size() > literal_limit_)
        throw LlsError(ErrorKind::ResourceExhausted,
                       "SAT literal limit exceeded (" + std::to_string(literal_limit_) +
                           " literals)",
                       "sat");
    clauses_.push_back(Clause{lits_.size(), static_cast<int>(lits.size()), learned,
                              learned ? clause_inc_ : 0.0});
    lits_.insert(lits_.end(), lits.begin(), lits.end());
    const int ci = static_cast<int>(clauses_.size()) - 1;
    attach_clause(ci);
    return ci;
}

void Solver::attach_clause(int ci) {
    const Lit* c = clause_lits(ci);
    LLS_DCHECK(clauses_[ci].size >= 2);
    watches_[(!c[0]).value].push_back(Watcher{ci, c[1]});
    watches_[(!c[1]).value].push_back(Watcher{ci, c[0]});
}

void Solver::enqueue(Lit l, int reason) {
    LLS_DCHECK(lit_value(l) == kUndef);
    assign_[l.var()] = l.negated() ? 0 : 1;
    level_[l.var()] = static_cast<int>(trail_lim_.size());
    reason_[l.var()] = reason;
    phase_[l.var()] = static_cast<char>(l.negated() ? 0 : 1);
    trail_.push_back(l);
}

int Solver::propagate() {
    while (qhead_ < trail_.size()) {
        const Lit p = trail_[qhead_++];
        ++propagations_;
        auto& ws = watches_[p.value];
        std::size_t keep = 0;
        for (std::size_t i = 0; i < ws.size(); ++i) {
            const Watcher w = ws[i];
            if (lit_value(w.blocker) == 1) {
                ws[keep++] = w;
                continue;
            }
            Lit* lits = clause_lits(w.clause);
            const int size = clauses_[w.clause].size;
            // Make sure the falsified literal is lits[1].
            const Lit false_lit = !p;
            if (lits[0] == false_lit) std::swap(lits[0], lits[1]);
            LLS_DCHECK(lits[1] == false_lit);
            if (lit_value(lits[0]) == 1) {
                ws[keep++] = Watcher{w.clause, lits[0]};
                continue;
            }
            // Look for a new literal to watch.
            bool found = false;
            for (int k = 2; k < size; ++k) {
                if (lit_value(lits[k]) != 0) {
                    std::swap(lits[1], lits[k]);
                    watches_[(!lits[1]).value].push_back(Watcher{w.clause, lits[0]});
                    found = true;
                    break;
                }
            }
            if (found) continue;
            // Clause is unit or conflicting.
            ws[keep++] = Watcher{w.clause, lits[0]};
            if (lit_value(lits[0]) == 0) {
                // Conflict: restore remaining watchers and report.
                for (std::size_t j = i + 1; j < ws.size(); ++j) ws[keep++] = ws[j];
                ws.resize(keep);
                qhead_ = trail_.size();
                return w.clause;
            }
            enqueue(lits[0], w.clause);
        }
        ws.resize(keep);
    }
    return -1;
}

void Solver::bump_var(int var) {
    activity_[var] += var_inc_;
    if (activity_[var] > 1e100) {
        for (auto& a : activity_) a *= 1e-100;
        var_inc_ *= 1e-100;
        // Scaling can round two different activities to the same value,
        // and then the index must break the tie: re-heapify everything.
        order_.rebuild(activity_);
    } else {
        order_.bumped(var, activity_);
    }
}

void Solver::bump_clause(int ci) {
    auto& c = clauses_[ci];
    if (!c.learned) return;
    c.activity += clause_inc_;
    if (c.activity > 1e20) {
        for (auto& cl : clauses_)
            if (cl.learned) cl.activity *= 1e-20;
        clause_inc_ *= 1e-20;
    }
}

void Solver::decay_activities() {
    var_inc_ /= 0.95;
    clause_inc_ /= 0.999;
}

void Solver::analyze(int confl, int* backtrack_level) {
    std::vector<Lit>& learned = learned_;
    learned.clear();
    learned.push_back(Lit{});  // slot for the asserting literal
    int counter = 0;
    Lit p{};
    std::size_t index = trail_.size();
    const int current_level = static_cast<int>(trail_lim_.size());

    do {
        LLS_DCHECK(confl != -1);
        bump_clause(confl);
        const Lit* lits = clause_lits(confl);
        const int size = clauses_[confl].size;
        // Skip lits[0] on the first iteration only when it is the conflict
        // clause (all literals false); afterwards lits[0] == p.
        for (int i = (p.value == -1 ? 0 : 1); i < size; ++i) {
            const Lit q = lits[i];
            if (seen_[q.var()] || level_[q.var()] == 0) continue;
            seen_[q.var()] = 1;
            bump_var(q.var());
            if (level_[q.var()] == current_level)
                ++counter;
            else
                learned.push_back(q);
        }
        // Find the next literal on the trail that is marked.
        while (!seen_[trail_[index - 1].var()]) --index;
        p = trail_[index - 1];
        --index;
        confl = reason_[p.var()];
        seen_[p.var()] = 0;
        --counter;
    } while (counter > 0);
    learned[0] = !p;

    // Simple self-subsumption minimization: drop literals whose reason
    // clause is entirely covered by the learned clause.
    std::vector<Lit>& minimized = minimized_;
    minimized.clear();
    minimized.push_back(learned[0]);
    for (std::size_t i = 1; i < learned.size(); ++i) {
        const Lit q = learned[i];
        const int r = reason_[q.var()];
        bool redundant = false;
        if (r != -1) {
            redundant = true;
            const Lit* reason = clause_lits(r);
            for (int k = 0; k < clauses_[r].size; ++k) {
                const Lit x = reason[k];
                if (x == !q) continue;
                if (level_[x.var()] == 0) continue;
                if (!seen_[x.var()]) {
                    redundant = false;
                    break;
                }
            }
        }
        if (!redundant) minimized.push_back(q);
    }
    for (std::size_t i = 1; i < learned.size(); ++i) seen_[learned[i].var()] = 0;
    learned.swap(minimized);

    // Backtrack level = second highest level in the clause.
    *backtrack_level = 0;
    if (learned.size() > 1) {
        std::size_t max_i = 1;
        for (std::size_t i = 2; i < learned.size(); ++i)
            if (level_[learned[i].var()] > level_[learned[max_i].var()]) max_i = i;
        std::swap(learned[1], learned[max_i]);
        *backtrack_level = level_[learned[1].var()];
    }
}

void Solver::backtrack(int level) {
    if (static_cast<int>(trail_lim_.size()) <= level) return;
    const std::size_t bound = static_cast<std::size_t>(trail_lim_[level]);
    for (std::size_t i = trail_.size(); i > bound; --i) {
        const int v = trail_[i - 1].var();
        assign_[v] = kUndef;
        reason_[v] = -1;
        order_.insert(v, activity_);
    }
    trail_.resize(bound);
    trail_lim_.resize(static_cast<std::size_t>(level));
    qhead_ = trail_.size();
}

Lit Solver::pick_branch() {
    // A SAT answer assigns every variable; do not drain the heap to see it.
    if (trail_.size() == assign_.size()) return Lit{};
    while (!order_.empty()) {
        const int v = order_.pop(activity_);
        if (assign_[v] == kUndef) return Lit(v, phase_[v] == 0);
    }
    return Lit{};
}

std::int64_t Solver::luby(std::int64_t i) {
    // Finite subsequences of the Luby sequence: 1,1,2,1,1,2,4,...
    std::int64_t k = 1;
    while ((std::int64_t{1} << k) - 1 < i + 1) ++k;
    while ((std::int64_t{1} << (k - 1)) - 1 != i) {
        i = i - ((std::int64_t{1} << (k - 1)) - 1);
        k = 1;
        while ((std::int64_t{1} << k) - 1 < i + 1) ++k;
    }
    return std::int64_t{1} << (k - 1);
}

void Solver::reduce_learned() {
    // Remove the least active half of the learned clauses that are not
    // reasons for current assignments. Rebuild the watch lists afterwards.
    std::vector<int> learned_idx;
    for (int i = 0; i < static_cast<int>(clauses_.size()); ++i)
        if (clauses_[i].learned) learned_idx.push_back(i);
    if (learned_idx.size() < 2000) return;

    std::sort(learned_idx.begin(), learned_idx.end(),
              [&](int a, int b) { return clauses_[a].activity < clauses_[b].activity; });
    std::vector<char> drop(clauses_.size(), 0);
    std::vector<char> is_reason(clauses_.size(), 0);
    for (int v = 0; v < num_vars(); ++v)
        if (assign_[v] != kUndef && reason_[v] != -1) is_reason[reason_[v]] = 1;
    for (std::size_t i = 0; i < learned_idx.size() / 2; ++i)
        if (!is_reason[learned_idx[i]]) drop[learned_idx[i]] = 1;

    // Compact the headers and the literal arena in clause order; a kept
    // clause only ever moves towards the front.
    std::vector<int> remap(clauses_.size(), -1);
    int kept = 0;
    std::size_t end = 0;
    for (int i = 0; i < static_cast<int>(clauses_.size()); ++i) {
        if (drop[i]) continue;
        Clause c = clauses_[i];
        if (c.begin != end)
            std::copy_n(lits_.begin() + static_cast<std::ptrdiff_t>(c.begin), c.size,
                        lits_.begin() + static_cast<std::ptrdiff_t>(end));
        c.begin = end;
        end += static_cast<std::size_t>(c.size);
        remap[i] = kept;
        clauses_[kept++] = c;
    }
    clauses_.resize(static_cast<std::size_t>(kept));
    lits_.resize(end);
    for (int v = 0; v < num_vars(); ++v)
        if (reason_[v] != -1) reason_[v] = remap[reason_[v]];
    for (auto& ws : watches_) ws.clear();
    for (int i = 0; i < static_cast<int>(clauses_.size()); ++i) attach_clause(i);
}

Status Solver::solve(const std::vector<Lit>& assumptions, std::int64_t conflict_limit) {
    if (unsat_) return Status::Unsat;
    // A search that threw (the literal limit) left its levels.
    backtrack(0);
    if (propagate() != -1) {
        unsat_ = true;
        return Status::Unsat;
    }
    const Status status = search(assumptions, conflict_limit);
    // Back at level 0 the caller may add variables and clauses. The next
    // call would unwind these levels first anyway, in the same trail order,
    // so no search changes.
    backtrack(0);
    return status;
}

Status Solver::search(const std::vector<Lit>& assumptions, std::int64_t conflict_limit) {
    const std::int64_t start_conflicts = conflicts_;
    std::int64_t restart_num = 0;
    std::int64_t restart_budget = 100 * luby(restart_num);

    while (true) {
        const int confl = propagate();
        if (confl != -1) {
            ++conflicts_;
            if (trail_lim_.empty()) {
                unsat_ = true;
                return Status::Unsat;
            }
            int bt_level = 0;
            analyze(confl, &bt_level);
            // Backtracking below the assumption levels is fine: the pending
            // assumptions are re-applied as decisions before the next branch,
            // and a learned unit contradicting an assumption surfaces as
            // UNSAT below.
            backtrack(bt_level);
            if (learned_.size() == 1) {
                if (lit_value(learned_[0]) == 0) return Status::Unsat;
                if (lit_value(learned_[0]) == kUndef) enqueue(learned_[0], -1);
            } else {
                enqueue(learned_[0], store_clause(learned_, true));
            }
            decay_activities();
            if (conflict_limit >= 0 && conflicts_ - start_conflicts >= conflict_limit)
                return Status::Unknown;
            if (conflicts_ - start_conflicts >= restart_budget) {
                ++restart_num;
                restart_budget = conflicts_ - start_conflicts + 100 * luby(restart_num);
                backtrack(0);
                reduce_learned();
            }
            continue;
        }

        // Apply pending assumptions as decisions.
        if (trail_lim_.size() < assumptions.size()) {
            const Lit a = assumptions[trail_lim_.size()];
            LLS_REQUIRE(is_var(a));
            const int v = lit_value(a);
            if (v == 0) return Status::Unsat;  // conflicting assumption
            trail_lim_.push_back(static_cast<int>(trail_.size()));
            if (v == kUndef) enqueue(a, -1);
            continue;
        }

        const Lit next = pick_branch();
        if (next.value == -1) {
            for (int v = 0; v < num_vars(); ++v)
                model_[v] = static_cast<char>(assign_[v] == 1 ? 1 : 0);
            return Status::Sat;
        }
        ++decisions_;
        trail_lim_.push_back(static_cast<int>(trail_.size()));
        enqueue(next, -1);
    }
}

}  // namespace lls::sat
