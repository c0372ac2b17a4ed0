#include "bdd/bdd.hpp"

#include <algorithm>

#include "common/cancel.hpp"
#include "common/error.hpp"
#include "engine/metrics.hpp"

namespace lls {

namespace {

std::size_t next_pow2(std::size_t n) {
    std::size_t p = 1;
    while (p < n) p <<= 1;
    return p;
}

/// Computed-table capacity for a given node limit: lossy by design, the
/// table never outgrows this, fixing the unbounded growth of the old
/// per-manager std::unordered_map. Half the node limit (clamped) keeps the
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
    var_refs_ = std::vector<std::atomic<Ref>>(static_cast<std::size_t>(num_vars));
    for (auto& ref : var_refs_) ref.store(kFalse, std::memory_order_relaxed);
    // Terminals live at the head of block 0 and use var = num_vars_ (below
    // every real variable in the order).
    store_word(kFalse, pack(num_vars_, kFalse, kFalse));
    store_word(kTrue, pack(num_vars_, kTrue, kTrue));
    num_nodes_.store(2, std::memory_order_release);
}

BddManager::~BddManager() {
    // Aggregate this manager's counters into the process-wide registry so
    // `lls_opt --metrics` reports BDD work no matter how many managers
    // (shared or private) the run created.
    const BddStats s = stats();
    Metrics& metrics = Metrics::global();
    if (s.unique_hits) metrics.counter("bdd.unique.hits").add(s.unique_hits);
    if (s.nodes_created) metrics.counter("bdd.unique.nodes").add(s.nodes_created);
    if (s.ite_hits) metrics.counter("bdd.ite_cache.hits").add(s.ite_hits);
    if (s.ite_misses) metrics.counter("bdd.ite_cache.misses").add(s.ite_misses);
    if (s.ite_evictions) metrics.counter("bdd.ite_cache.evictions").add(s.ite_evictions);
    for (auto& block : blocks_) delete[] block.load(std::memory_order_acquire);
}

void BddManager::store_word(std::size_t index, std::uint64_t word) {
    auto& slot = blocks_[index >> kBlockBits];
    std::uint64_t* block = slot.load(std::memory_order_acquire);
    if (!block) {
        const std::lock_guard<std::mutex> lock(block_mutex_);
        block = slot.load(std::memory_order_acquire);
        if (!block) {
            block = new std::uint64_t[kBlockSize]();
            slot.store(block, std::memory_order_release);
        }
    }
    block[index & (kBlockSize - 1)] = word;
}

BddManager::Ref BddManager::make_node(int var, Ref low, Ref high) {
    if (low == high) return low;
    // Every BDD operation funnels through node construction, so this one
    // poll bounds an exponentially blowing-up ITE recursion in wall-clock
    // time the same way node_limit_ bounds it in count.
    poll_cancellation("bdd");
    const std::uint64_t key = pack(var, low, high);
    Shard& shard = shards_[U64Hash{}(key) % kShards];
    const std::lock_guard<std::mutex> lock(shard.mutex);
    if (const auto it = shard.map.find(key); it != shard.map.end()) {
        unique_hits_.fetch_add(1, std::memory_order_relaxed);
        return it->second;
    }
    // Global accounting: the aggregate count across all shards decides
    // exhaustion, so the threshold is the same number on every shard
    // distribution and thread schedule.
    const std::size_t index = num_nodes_.fetch_add(1, std::memory_order_acq_rel);
    if (index >= node_limit_) {
        num_nodes_.fetch_sub(1, std::memory_order_acq_rel);
        throw LlsError(ErrorKind::ResourceExhausted,
                       "BDD node limit exceeded (" + std::to_string(node_limit_) + " nodes)",
                       "bdd");
    }
    store_word(index, key);
    const Ref ref = static_cast<Ref>(index);
    shard.map.emplace(key, ref);
    nodes_created_.fetch_add(1, std::memory_order_relaxed);
    return ref;
}

BddManager::Ref BddManager::variable(int var) {
    LLS_REQUIRE(var >= 0 && var < num_vars_);
    auto& cached = var_refs_[static_cast<std::size_t>(var)];
    Ref ref = cached.load(std::memory_order_acquire);
    if (ref == kFalse) {
        // Benign race: make_node is canonical, so concurrent creators store
        // the identical ref.
        ref = make_node(var, kFalse, kTrue);
        cached.store(ref, std::memory_order_release);
    }
    return ref;
}

std::size_t BddManager::ite_hash(Ref f, Ref g, Ref h) const {
    std::uint64_t k = f;
    k = k * 0x100000001b3ULL ^ g;
    k = k * 0x100000001b3ULL ^ h;
    k *= 0x9e3779b97f4a7c15ULL;
    return static_cast<std::size_t>(k ^ (k >> 31));
}

bool BddManager::ite_cache_get(Ref f, Ref g, Ref h, Ref* result) {
    const std::size_t hash = ite_hash(f, g, h);
    // Stripe from the unmasked hash, slot under the stripe lock: capacity
    // is >= 2^10 slots while kIteStripes is 64, so hash & mask agrees with
    // hash & 63 on the stripe bits.
    const std::lock_guard<std::mutex> lock(ite_mutex_[hash & (kIteStripes - 1)]);
    const IteEntry& entry = ite_cache_[hash & ite_mask_];
    if (entry.f == f && entry.g == g && entry.h == h) {
        ite_hits_.fetch_add(1, std::memory_order_relaxed);
        *result = entry.result;
        return true;
    }
    ite_misses_.fetch_add(1, std::memory_order_relaxed);
    return false;
}

void BddManager::ite_cache_put(Ref f, Ref g, Ref h, Ref result) {
    const std::size_t hash = ite_hash(f, g, h);
    const std::lock_guard<std::mutex> lock(ite_mutex_[hash & (kIteStripes - 1)]);
    IteEntry& entry = ite_cache_[hash & ite_mask_];
    if (entry.f != kFalse && !(entry.f == f && entry.g == g && entry.h == h))
        ite_evictions_.fetch_add(1, std::memory_order_relaxed);
    entry = IteEntry{f, g, h, result};
}

BddManager::Ref BddManager::ite(Ref f, Ref g, Ref h) {
    // Terminal cases.
    if (f == kTrue) return g;
    if (f == kFalse) return h;
    if (g == h) return g;
    if (g == kTrue && h == kFalse) return f;

    Ref cached;
    if (ite_cache_get(f, g, h, &cached)) return cached;
    poll_cancellation("bdd");

    const std::uint64_t wf = node_word(f), wg = node_word(g), wh = node_word(h);
    const int top = std::min({word_var(wf), word_var(wg), word_var(wh)});
    auto cof = [top](Ref x, std::uint64_t wx, bool hi) {
        if (word_var(wx) != top) return x;
        return hi ? word_high(wx) : word_low(wx);
    };
    const Ref lo = ite(cof(f, wf, false), cof(g, wg, false), cof(h, wh, false));
    const Ref hi = ite(cof(f, wf, true), cof(g, wg, true), cof(h, wh, true));
    const Ref result = make_node(top, lo, hi);
    ite_cache_put(f, g, h, result);
    return result;
}

BddManager::Ref BddManager::cofactor(Ref f, int var, bool value) {
    LLS_REQUIRE(var >= 0 && var < num_vars_);
    const std::uint64_t wf = node_word(f);
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
        const std::uint64_t w = node_word(f);
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
        const std::uint64_t w = node_word(r);
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
        const std::uint64_t w = node_word(r);
        stack.push_back(word_low(w));
        stack.push_back(word_high(w));
    }
    return count;
}

BddStats BddManager::stats() const {
    BddStats s;
    s.unique_hits = unique_hits_.load(std::memory_order_relaxed);
    s.nodes_created = nodes_created_.load(std::memory_order_relaxed);
    s.ite_hits = ite_hits_.load(std::memory_order_relaxed);
    s.ite_misses = ite_misses_.load(std::memory_order_relaxed);
    s.ite_evictions = ite_evictions_.load(std::memory_order_relaxed);
    return s;
}

}  // namespace lls
