#include "bdd/bdd.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace lls {

namespace {

std::size_t next_pow2(std::size_t n) {
    std::size_t p = 1;
    while (p < n) p <<= 1;
    return p;
}

/// Computed-table capacity for a given node limit: lossy by design, the
/// table never outgrows this. Half the node limit (clamped) keeps the
/// table proportional to the function sizes the manager can represent.
std::size_t ite_cache_slots(std::size_t node_limit) {
    return next_pow2(std::clamp<std::size_t>(node_limit / 2, std::size_t{1} << 10,
                                             std::size_t{1} << 20));
}

}  // namespace

BddManager::BddManager(int num_vars, std::size_t node_limit)
    : num_vars_(num_vars), node_limit_(node_limit) {
    LLS_REQUIRE(num_vars >= 0 && num_vars < (1 << 20));
    LLS_REQUIRE(node_limit <= (std::size_t{1} << 22) && "ref packing requires refs < 2^22");
    ite_cache_.assign(ite_cache_slots(node_limit), IteEntry{});
    ite_mask_ = ite_cache_.size() - 1;
    var_refs_.assign(static_cast<std::size_t>(num_vars), kFalse);
    // Terminals use var = num_vars_ (below every real variable in the order).
    nodes_.push_back(pack(num_vars_, kFalse, kFalse));
    nodes_.push_back(pack(num_vars_, kTrue, kTrue));
}

BddManager::Ref BddManager::make_node(int var, Ref low, Ref high) {
    if (low == high) return low;
    const std::uint64_t key = pack(var, low, high);
    if (const auto it = unique_.find(key); it != unique_.end()) {
        ++stats_.unique_hits;
        return it->second;
    }
    if (nodes_.size() >= node_limit_)
        throw LlsError(ErrorKind::ResourceExhausted,
                       "BDD node limit exceeded (" + std::to_string(node_limit_) + " nodes)",
                       "bdd");
    const Ref ref = static_cast<Ref>(nodes_.size());
    nodes_.push_back(key);
    unique_.emplace(key, ref);
    ++stats_.nodes_created;
    return ref;
}

BddManager::Ref BddManager::variable(int var) {
    LLS_REQUIRE(var >= 0 && var < num_vars_);
    Ref& ref = var_refs_[static_cast<std::size_t>(var)];
    if (ref == kFalse) ref = make_node(var, kFalse, kTrue);
    return ref;
}

BddManager::IteEntry& BddManager::ite_slot(Ref f, Ref g, Ref h) {
    std::uint64_t k = f;
    k = k * 0x100000001b3ULL ^ g;
    k = k * 0x100000001b3ULL ^ h;
    k *= 0x9e3779b97f4a7c15ULL;
    return ite_cache_[static_cast<std::size_t>(k ^ (k >> 31)) & ite_mask_];
}

BddManager::Ref BddManager::ite(Ref f, Ref g, Ref h) {
    // Terminal cases.
    if (f == kTrue) return g;
    if (f == kFalse) return h;
    if (g == h) return g;
    if (g == kTrue && h == kFalse) return f;

    // The slot array never resizes, so the reference stays valid across
    // the recursion below (which may overwrite the slot's contents).
    IteEntry& slot = ite_slot(f, g, h);
    if (slot.f == f && slot.g == g && slot.h == h) {
        ++stats_.ite_hits;
        return slot.result;
    }
    ++stats_.ite_misses;

    const std::uint64_t wf = nodes_[f], wg = nodes_[g], wh = nodes_[h];
    const int top = std::min({word_var(wf), word_var(wg), word_var(wh)});
    auto cof = [top](Ref x, std::uint64_t wx, bool hi) {
        if (word_var(wx) != top) return x;
        return hi ? word_high(wx) : word_low(wx);
    };
    const Ref lo = ite(cof(f, wf, false), cof(g, wg, false), cof(h, wh, false));
    const Ref hi = ite(cof(f, wf, true), cof(g, wg, true), cof(h, wh, true));
    const Ref result = make_node(top, lo, hi);
    if (slot.f != kFalse && !(slot.f == f && slot.g == g && slot.h == h)) ++stats_.ite_evictions;
    slot = IteEntry{f, g, h, result};
    return result;
}

BddManager::Ref BddManager::cofactor(Ref f, int var, bool value) {
    LLS_REQUIRE(var >= 0 && var < num_vars_);
    const std::uint64_t wf = nodes_[f];
    if (word_var(wf) > var) return f;  // f does not depend on var (order!)
    if (word_var(wf) == var) return value ? word_high(wf) : word_low(wf);
    // var is below f's top variable: rebuild via ite on restricted children.
    const Ref lo = cofactor(word_low(wf), var, value);
    const Ref hi = cofactor(word_high(wf), var, value);
    return ite(variable(word_var(wf)), hi, lo);
}

BddManager::Ref BddManager::exists(Ref f, int var) {
    return bor(cofactor(f, var, false), cofactor(f, var, true));
}

BddManager::Ref BddManager::forall(Ref f, int var) {
    return band(cofactor(f, var, false), cofactor(f, var, true));
}

bool BddManager::evaluate(Ref f, std::uint64_t assignment) const {
    while (f > kTrue) {
        const std::uint64_t w = nodes_[f];
        f = ((assignment >> word_var(w)) & 1) ? word_high(w) : word_low(w);
    }
    return f == kTrue;
}

double BddManager::count_minterms(Ref f) const {
    // Fraction-based DP avoids overflow for many variables.
    std::unordered_map<Ref, double> fraction;
    fraction[kFalse] = 0.0;
    fraction[kTrue] = 1.0;
    // Iterative post-order via explicit stack.
    std::vector<Ref> stack{f};
    while (!stack.empty()) {
        const Ref r = stack.back();
        if (fraction.count(r)) {
            stack.pop_back();
            continue;
        }
        const std::uint64_t w = nodes_[r];
        const Ref low = word_low(w), high = word_high(w);
        const bool lo_done = fraction.count(low);
        const bool hi_done = fraction.count(high);
        if (lo_done && hi_done) {
            fraction[r] = 0.5 * fraction[low] + 0.5 * fraction[high];
            stack.pop_back();
        } else {
            if (!lo_done) stack.push_back(low);
            if (!hi_done) stack.push_back(high);
        }
    }
    double scale = 1.0;
    for (int i = 0; i < num_vars_; ++i) scale *= 2.0;
    return fraction[f] * scale;
}

std::size_t BddManager::size(Ref f) const {
    std::vector<Ref> stack{f};
    std::unordered_map<Ref, bool> seen;
    std::size_t count = 0;
    while (!stack.empty()) {
        const Ref r = stack.back();
        stack.pop_back();
        if (r <= kTrue || seen.count(r)) continue;
        seen[r] = true;
        ++count;
        const std::uint64_t w = nodes_[r];
        stack.push_back(word_low(w));
        stack.push_back(word_high(w));
    }
    return count;
}

}  // namespace lls
